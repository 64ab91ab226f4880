"""The tracked benchmark pipeline (repro bench)."""

import json

import pytest

from repro.bench.runner import BENCH_FILES, _series, run_bench


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return out, run_bench(out, quick=True, n=3000)


def test_series_is_deterministic():
    import numpy as np

    assert np.array_equal(_series(1000), _series(1000))


def test_writes_every_tracked_artifact(written):
    out, paths = written
    assert sorted(p.name for p in paths) == sorted(BENCH_FILES)
    for p in paths:
        assert p.parent == out and p.exists()


def test_decompression_payload_shape(written):
    _, paths = written
    payload = json.loads(
        next(p for p in paths if "decompression" in p.name).read_text()
    )
    assert payload["meta"]["n"] == 3000
    codecs = payload["codecs"]
    assert set(codecs) == {"gorilla", "chimp", "chimp128", "tsxor"}
    for stats in codecs.values():
        assert stats["python_seconds"] > 0
        assert stats["numpy_seconds"] > 0
        assert stats["speedup"] == pytest.approx(
            stats["python_seconds"] / stats["numpy_seconds"], rel=0.02
        )


def test_random_access_counts_blocks(written):
    _, paths = written
    payload = json.loads(
        next(p for p in paths if "random_access" in p.name).read_text()
    )
    for stats in payload["codecs"].values():
        # 256 point queries over 3 blocks can never decode more than 3.
        assert 1 <= stats["blocks_decoded_for_point_queries"] <= 3


def test_committed_artifacts_record_the_speedup():
    """The repo-root BENCH files are the acceptance record: the XOR family
    must show the vectorised backend >= 5x over scalar at 1M values."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    path = root / "BENCH_table3_decompression.json"
    payload = json.loads(path.read_text())
    assert payload["meta"]["n"] == 1_000_000
    for cid in ("gorilla", "chimp", "chimp128"):
        assert payload["codecs"][cid]["speedup"] >= 5.0, cid
