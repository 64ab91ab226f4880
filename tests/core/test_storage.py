"""Unit tests for the NeaTS succinct layout and Algorithms 2-3."""

import numpy as np
import pytest

from repro.baselines._native import INT64, INT64_PAIR, NEATS_HDR
from repro.baselines.base import Compressed
from repro.codecs import get_codec
from repro.core import NeaTS
from repro.core.models import MODEL_REGISTRY
from repro.core.partition import KIND_BITS, partition
from repro.core.storage import KIND_TABLE, NeaTSStorage, _required_width
from repro.data import DATASETS

_FLAG_BYTE = 8 + 4 * 8  # after the magic and the n, m, shift, name_len fields


def neats101(st: NeaTSStorage) -> bytes:
    """``st`` as a ``NeaTS101`` frame, the layout written before ``NeaTS102``."""
    names = ",".join(st.model_names).encode()
    local = {KIND_TABLE.index(name): i for i, name in enumerate(st.model_names)}
    out = b"NeaTS101" + NEATS_HDR.pack(st.n, st.m, st.shift, len(names), 0)
    out += names + INT64.pack(st.m)
    out += np.array(st._starts_list, dtype=np.int64).tobytes()
    out += np.array(st._widths_list, dtype=np.int8).tobytes()
    out += np.array([local[k] for k in st._kinds_list], dtype=np.int8).tobytes()
    for p in st.P:
        out += INT64.pack(p.size) + p.tobytes()
    out += INT64_PAIR.pack(st._cbits, len(st._words))
    return out + st._words.tobytes()


def build_storage(y, models=("linear", "quadratic"), eps=(1.0, 7.0)):
    shift = int(1 + max(eps) - int(y.min()))
    z = y.astype(np.float64) + shift
    result = partition(z, list(models), list(eps))
    return NeaTSStorage(z, result.fragments, shift), z


def test_kind_table_is_pinned():
    """Frames store kind ids, so the table may only grow at its end."""
    assert KIND_TABLE == (
        "linear", "exponential", "power", "logarithmic", "radical",
        "quadratic", "quadratic_linear", "cubic_linear", "cubic_quadratic",
        "anchored_quadratic", "gaussian",
    )
    assert tuple(MODEL_REGISTRY) == KIND_TABLE
    assert len(KIND_TABLE) <= 1 << KIND_BITS


class TestRequiredWidth:
    def test_zero_width_for_zero_residuals(self):
        assert _required_width(0, 0, 0) == 0

    def test_base_width_kept_when_sufficient(self):
        assert _required_width(-1, 1, 2) == 2

    def test_widening_when_needed(self):
        # base 0 but nonzero residuals -> widen
        assert _required_width(-1, 0, 0) == 1
        assert _required_width(-2, 1, 2) == 2
        assert _required_width(-3, 2, 2) == 3

    def test_asymmetric_bias_range(self):
        # width w stores [-2^(w-1), 2^(w-1)-1]
        assert _required_width(-4, 3, 0) == 3
        assert _required_width(-4, 4, 0) == 4


class TestRoundTrip:
    def test_decompress_exact(self, smooth_series):
        st, _ = build_storage(smooth_series)
        assert np.array_equal(st.decompress(), smooth_series)

    def test_access_matches_decompress(self, smooth_series, rng):
        st, _ = build_storage(smooth_series)
        dec = st.decompress()
        for k in rng.integers(0, len(smooth_series), 100).tolist():
            assert st.access(k) == dec[k]

    def test_first_and_last_positions(self, smooth_series):
        st, _ = build_storage(smooth_series)
        assert st.access(0) == smooth_series[0]
        assert st.access(len(smooth_series) - 1) == smooth_series[-1]

    def test_access_out_of_range(self, smooth_series):
        st, _ = build_storage(smooth_series)
        with pytest.raises(IndexError):
            st.access(-1)
        with pytest.raises(IndexError):
            st.access(len(smooth_series))

    def test_negative_values(self, rng):
        y = rng.integers(-10000, -100, 800).astype(np.int64)
        st, _ = build_storage(y)
        assert np.array_equal(st.decompress(), y)

    def test_constant_series(self, constant_series):
        st, _ = build_storage(constant_series)
        assert np.array_equal(st.decompress(), constant_series)
        assert st.m == 1

    def test_single_point(self):
        y = np.array([123], dtype=np.int64)
        st, _ = build_storage(y)
        assert st.access(0) == 123


    def test_access_rounds_like_decompress_at_integer_model_values(self):
        """A LAT series whose exponential fragments hit exact integers: an
        access path that evaluated with ``math.exp`` instead of numpy's exp
        read 319 positions from 3640 on one too low on AVX-512 CPUs."""
        y = DATASETS["LAT"].generate(4096, seed=109292188)
        c = NeaTS().compress(y)
        assert np.array_equal(c.decompress(), y)
        assert [c.access(k) for k in range(len(y))] == y.tolist()


class TestRangeQueries:
    @pytest.mark.parametrize("lo,hi", [(0, 10), (5, 5), (100, 1500), (1990, 2000)])
    def test_range_matches_slice(self, smooth_series, lo, hi):
        st, _ = build_storage(smooth_series)
        assert np.array_equal(st.decompress_range(lo, hi), smooth_series[lo:hi])

    def test_full_range(self, smooth_series):
        st, _ = build_storage(smooth_series)
        assert np.array_equal(
            st.decompress_range(0, len(smooth_series)), smooth_series
        )

    def test_range_bounds_checked(self, smooth_series):
        st, _ = build_storage(smooth_series)
        with pytest.raises(IndexError):
            st.decompress_range(-1, 5)
        with pytest.raises(IndexError):
            st.decompress_range(0, len(smooth_series) + 1)
        with pytest.raises(IndexError):
            st.decompress_range(10, 5)


class TestRankModes:
    def test_fragment_index_boundaries(self, smooth_series):
        st, _ = build_storage(smooth_series)
        starts = st._starts_list
        for i, s in enumerate(starts):
            assert st.fragment_index(s) == i
            if s > 0:
                assert st.fragment_index(s - 1) == i - 1


class TestValidation:
    def test_non_covering_fragments_rejected(self, smooth_series):
        from repro.core.partition import Fragment

        z = smooth_series.astype(np.float64) + 100000
        frags = [Fragment(1, len(z), "linear", 1.0, (0.0, 0.0))]
        with pytest.raises(ValueError):
            NeaTSStorage(z, frags, 100000)

    def test_gap_rejected(self, smooth_series):
        from repro.core.partition import Fragment

        z = smooth_series.astype(np.float64) + 100000
        frags = [
            Fragment(0, 10, "linear", 1.0, (0.0, 0.0)),
            Fragment(11, len(z), "linear", 1.0, (0.0, 0.0)),
        ]
        with pytest.raises(ValueError):
            NeaTSStorage(z, frags, 100000)


class TestSerialisation:
    def test_bytes_roundtrip(self, smooth_series, rng):
        st, _ = build_storage(smooth_series)
        st2 = NeaTSStorage.from_bytes(st.to_bytes())
        assert np.array_equal(st2.decompress(), smooth_series)
        for k in rng.integers(0, len(smooth_series), 50).tolist():
            assert st2.access(k) == st.access(k)

    def test_bytes_roundtrip_bitvector_mode(self, smooth_series, rng):
        """Flag byte 1 marks a NeaTS101 frame of the retired bitvector rank:
        it holds the same arrays, so it decodes the same and is charged the
        same."""
        st, _ = build_storage(smooth_series)
        blob = bytearray(neats101(st))
        assert blob[_FLAG_BYTE] == 0
        blob[_FLAG_BYTE] = 1
        st2 = NeaTSStorage.from_bytes(bytes(blob))
        assert np.array_equal(st2.decompress(), smooth_series)
        for k in rng.integers(0, len(smooth_series), 50).tolist():
            assert st2.access(k) == st.access(k)
        assert st2.size_bits() == st.size_bits()
        assert st2.to_bytes() == st.to_bytes()  # rewritten as NeaTS102

    def test_unknown_flag_byte_refused(self, smooth_series):
        st, _ = build_storage(smooth_series)
        blob = bytearray(neats101(st))
        blob[_FLAG_BYTE] = 2
        with pytest.raises(ValueError, match="flag byte 2"):
            NeaTSStorage.from_bytes(bytes(blob))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            NeaTSStorage.from_bytes(b"garbage!" + b"\x00" * 64)


class TestSizeAccounting:
    def test_size_bits_close_to_serialised(self, smooth_series):
        st, _ = build_storage(smooth_series)
        assert st.size_bits() == len(st.to_bytes()) * 8

    @pytest.mark.parametrize("codec", ["neats", "leats", "sneats"])
    def test_size_bits_is_the_frame(self, smooth_series, codec):
        """Fresh, reloaded, and read from a NeaTS101 frame: ``size_bits()``
        is the NeaTS102 payload's bits."""
        c = get_codec(codec).compress(smooth_series)
        assert c.size_bits() == 8 * len(c.to_payload())
        assert Compressed.from_bytes(c.to_bytes()).size_bits() == c.size_bits()
        old = NeaTSStorage.from_bytes(neats101(c.storage))
        assert old.size_bits() == 8 * len(old.to_bytes()) == c.size_bits()

    def test_compresses_smooth_data(self, smooth_series):
        st, _ = build_storage(smooth_series, eps=(1.0, 7.0, 31.0, 127.0))
        assert st.size_bits() < 64 * len(smooth_series) * 0.5


class TestWidenedWidths:
    def test_widths_at_least_correction_bits(self, smooth_series):
        from repro.core.partition import correction_bits

        st, _ = build_storage(smooth_series)
        # every stored width >= the eps-derived base width can't be asserted
        # directly (widths may widen), but decoding exactness already proves
        # correctness; here we check B is consistent with O.
        lengths = np.diff(st._starts_list + [st.n])
        offsets = [0]
        for w, length in zip(st._widths_list, lengths):
            offsets.append(offsets[-1] + w * int(length))
        assert offsets == st._offsets_list
