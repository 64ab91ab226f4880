"""Property: persisting a tiered store's write buffer is invisible.

For every lossless registry codec as the hot codec and a small seal
threshold, a random run of ``append`` / ``extend`` / ``adopt_sealed`` is
applied to two stores, one of which is also put through ``to_bytes`` ->
``from_bytes`` at random points.  After every step both hold the same
values and serialise to the same bytes: a reloaded tail frame answers reads
in place, and the first mutation decodes it so blocks seal as they would
have without the round trip.  A short buffer persists as raw int64, which
is smaller than its frame; ``ramp`` steps (evenly spaced runs, which every
codec frames compactly) make longer buffers reach the frame path.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.codecs import available_codecs, codec_spec, get_codec
from repro.core import TieredStore

LOSSLESS = [c for c in available_codecs() if not codec_spec(c).lossy]

values = st.lists(st.integers(-(10**6), 10**6), max_size=20)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(-(10**6), 10**6)),
        st.tuples(st.just("extend"), values),
        st.tuples(st.just("adopt"), values.filter(bool)),
        st.tuples(st.just("ramp"), st.integers(1, 64)),
        st.tuples(st.just("persist"), st.none()),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(hot=st.sampled_from(LOSSLESS), threshold=st.integers(1, 64), steps=steps)
def test_round_trips_are_invisible(hot, threshold, steps):
    params = {"digits": 0} if codec_spec(hot).needs_digits else {}

    def fresh():
        return TieredStore(seal_threshold=threshold, hot_codec=hot,
                           cold_codec="leats", hot_params=params)

    persisted, plain = fresh(), fresh()
    codec = get_codec(hot, **params)
    for op, arg in steps:
        if op == "persist":
            persisted = TieredStore.from_bytes(memoryview(persisted.to_bytes()))
        for store in (persisted, plain):
            if op == "append":
                store.append(arg)
            elif op == "extend":
                store.extend(np.array(arg, dtype=np.int64))
            elif op == "ramp":
                store.extend(np.arange(arg, dtype=np.int64) * 3)
            elif op == "adopt":
                store.adopt_sealed(codec.compress(np.array(arg, dtype=np.int64)))
        assert len(persisted) == len(plain)
        assert persisted.tier_report() == plain.tier_report()
        assert np.array_equal(persisted.decompress(), plain.decompress())
        if len(plain):
            k = len(plain) - 1
            assert persisted.access(k) == plain.access(k)
        assert persisted.to_bytes() == plain.to_bytes()
