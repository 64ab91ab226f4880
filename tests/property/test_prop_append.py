"""Property tests for the appendable container's byte-level invariants.

Three invariants, over arbitrary batch sequences:

* **append/reopen** — N appends reopen (eager and lazy) to exactly the
  concatenated input, with one record per non-empty batch, and reading
  never modifies the file;
* **crash truncation** — cutting the file at *any* byte offset inside the
  record region yields, on reopen, exactly the values of the records that
  were wholly sealed below the cut (never garbage, never an error);
* **resume** — a writer reopened after a truncation continues from the
  sealed prefix, and the result equals appending the surviving batches to
  a fresh archive.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codecs import open_archive
from repro.codecs.container import _RECORD, AppendableArchive, _scan_append

# tmp_path is shared across examples; build() unlinks before writing, so
# every example starts from a fresh file regardless.
SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

batch = st.lists(
    st.integers(-(2**40), 2**40), min_size=1, max_size=60
).map(lambda xs: np.array(xs, dtype=np.int64))
batch_lists = st.lists(batch, min_size=1, max_size=6)


def build(tmp_path, batches, codec="gorilla", name="prop.rpal"):
    path = tmp_path / name
    if path.exists():
        path.unlink()
    log = AppendableArchive.create(path, codec=codec, digits=1)
    for values in batches:
        log.append(values)
    return path


@given(batches=batch_lists)
@settings(**SETTINGS)
def test_append_reopen_equals_concatenation(tmp_path, batches):
    path = build(tmp_path, batches)
    full = np.concatenate(batches)
    before = path.read_bytes()
    for lazy in (False, True):
        archive = open_archive(path, lazy=lazy)
        assert archive.compressed.num_runs == len(batches)
        assert len(archive) == len(full)
        assert np.array_equal(archive.decompress(), full)
        k = len(full) // 2
        assert archive.access(k) == full[k]
        lo, hi = len(full) // 3, 2 * len(full) // 3
        assert np.array_equal(archive.decompress_range(lo, hi), full[lo:hi])
    assert path.read_bytes() == before  # reading never mutates the file


@given(batches=batch_lists, data=st.data())
@settings(**SETTINGS)
def test_any_truncation_yields_sealed_prefix(tmp_path, batches, data):
    path = build(tmp_path, batches)
    blob = path.read_bytes()
    records = _scan_append(blob, path).records
    ends = [start + frame_len for start, frame_len, _, _ in records]
    header_end = records[0][0] - _RECORD.size  # first record header starts here
    cut = data.draw(st.integers(header_end, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    survivors = sum(1 for end in ends if end <= cut)
    archive = open_archive(path)
    expected = (
        np.concatenate(batches[:survivors])
        if survivors
        else np.empty(0, dtype=np.int64)
    )
    assert archive.compressed.num_runs == survivors
    assert np.array_equal(archive.decompress(), expected)


@given(batches=batch_lists, extra=batch)
@settings(**SETTINGS)
def test_resume_after_truncation_matches_fresh_build(tmp_path, batches, extra):
    path = build(tmp_path, batches)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 1])  # tear the final record
    log = AppendableArchive.open(path)
    assert len(log) == sum(len(b) for b in batches[:-1])
    log.append(extra)
    fresh = build(tmp_path, batches[:-1] + [extra], name="fresh.rpal")
    assert np.array_equal(
        open_archive(path).decompress(), open_archive(fresh).decompress()
    )
    # and byte-identical files: the torn record leaves no residue
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("codec", ["gorilla", "zstd", "dac", "chimp"])
def test_multi_codec_append_roundtrip(tmp_path, codec):
    rng = np.random.default_rng(3)
    batches = [rng.integers(-1000, 1000, n).astype(np.int64) for n in (40, 700, 3)]
    path = build(tmp_path, batches, codec=codec)
    archive = open_archive(path, lazy=True)
    assert archive.codec_id == codec
    assert np.array_equal(archive.decompress(), np.concatenate(batches))
