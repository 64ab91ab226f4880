"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_series(rng):
    """A small sine-plus-noise integer series (2000 points)."""
    n = 2000
    y = 1000 * np.sin(np.arange(n) / 60.0) + rng.normal(0, 15, n)
    return y.astype(np.int64)


@pytest.fixture
def walk_series(rng):
    """A random-walk integer series (1500 points)."""
    return np.cumsum(rng.integers(-50, 51, 1500)).astype(np.int64)


@pytest.fixture
def spiky_series(rng):
    """A bursty series with large outliers (1000 points)."""
    base = rng.integers(-20, 21, 1000)
    spikes = (rng.random(1000) < 0.02) * rng.integers(-100000, 100000, 1000)
    return (base + spikes).astype(np.int64)


@pytest.fixture
def constant_series():
    """A constant series (500 points)."""
    return np.full(500, 42, dtype=np.int64)


@pytest.fixture
def legacy_root(tmp_path):
    """Factory for a SeriesDB directory as v2.6.0 left it: per-series logs.

    ``legacy_root(flushed, pending, digits=0)`` flushes ``flushed`` (series
    id -> values) into a SeriesDB, then rewrites the directory the way a
    v2.6.0 single-dir store (``group_commit: false``) would have left it
    after a crash: every entry names an append-log generation in
    ``"wal"``, and each series in ``pending`` (id -> list of batches) has
    that ``RPAL0001`` log on disk holding one record per batch.  There is
    no group log.  Returns the root.
    """
    import json

    from repro.codecs.container import AppendableArchive
    from repro.store import SeriesDB

    def make(flushed, pending, *, digits=0, name="legacy"):
        root = tmp_path / name
        with SeriesDB(root, seal_threshold=256, cold_codec="leats") as db:
            db.ingest_many(flushed, digits=digits)
        manifest = json.loads((root / "MANIFEST.json").read_text())
        manifest.pop("group_wal", None)
        manifest["group_commit"] = False
        for sid, entry in manifest["series"].items():
            entry["wal"] = f"shards/{sid}-{manifest['next_shard']:04d}.wal"
            manifest["next_shard"] += 1
            if sid in pending:
                log = AppendableArchive.create(
                    root / entry["wal"],
                    codec=manifest["hot_codec"],
                    digits=entry["digits"],
                )
                for batch in pending[sid]:
                    log.append(batch)
        (root / "MANIFEST.json").write_text(json.dumps(manifest, indent=2))
        return root

    return make
