"""A miniature time series database built on the repro library.

Builds the deployment the paper sketches in §IV-C1 from the tiered store:
streaming ingestion (Gorilla hot tier), background NeaTS consolidation, and
durable snapshots of the whole store.  Both tiers are ordinary registry
codecs — swap ``hot_codec="zstd"`` or ``cold_codec="leats"`` and nothing
else changes.

Run with::

    python examples/tiered_database.py
"""

import numpy as np

from repro.core import TieredStore
from repro.data import DATASETS


def main() -> None:
    values = DATASETS["DP"].generate(12_000)  # dew point temperature

    # --- ingestion: stream into the tiered store -------------------------------
    store = TieredStore(seal_threshold=2048, hot_codec="gorilla",
                        cold_codec="neats")
    store.extend(values[:10_000])
    print("after streaming 10k points:", store.tier_report())

    store.consolidate()  # the paper's "run NeaTS in the background"
    print("after consolidation:      ", store.tier_report())

    store.extend(values[10_000:])  # ingestion continues seamlessly
    assert np.array_equal(store.decompress(), values)
    ratio = store.size_bits() / (64 * len(store))
    print(f"store footprint: {100 * ratio:.2f}% of raw, "
          f"point read #7777 = {store.access(7777)}")

    # --- durability: snapshot and restore the whole store -------------------------
    blob = store.to_bytes()  # buffer + hot frames + cold frame, no recompression
    restored = TieredStore.from_bytes(blob)
    assert np.array_equal(restored.decompress(), values)
    restored.extend(values[:100])  # a restored store keeps ingesting
    print(f"snapshot: {len(blob):,} bytes; restored store answers "
          f"access(7777) = {restored.access(7777)}")


if __name__ == "__main__":
    main()
