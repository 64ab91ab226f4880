"""The tracked benchmark pipeline (repro bench)."""

import json
from pathlib import Path

import pytest

import repro
from repro.bench import lossless_codecs
from repro.bench.runner import (
    BENCH_FILES,
    _series,
    bench_decompression,
    bench_random_access,
    compare_table3,
    neats_above_leats,
    run_bench,
)
from repro.cli import main
from repro.codecs import codec_spec
from repro.data import DATASETS

ROOT = Path(__file__).resolve().parents[2]
#: small enough for the whole quick pipeline, Table III included, in ~3 s
TINY_N = 128


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return out, run_bench(out, quick=True, n=TINY_N)


def _payload(paths, name: str) -> dict:
    return json.loads(next(p for p in paths if p.name == name).read_text())


def test_series_is_deterministic():
    import numpy as np

    assert np.array_equal(_series(1000), _series(1000))


def test_writes_every_tracked_artifact(written):
    out, paths = written
    assert sorted(p.name for p in paths) == sorted(BENCH_FILES)
    for p in paths:
        assert p.parent == out and p.exists()
        assert _payload(paths, p.name)["meta"]["nproc"] >= 1


def test_table3_covers_every_lossless_codec_on_every_generator(written):
    _, paths = written
    payload = _payload(paths, "BENCH_table3.json")
    assert payload["meta"]["rungs"] == [TINY_N]
    assert payload["meta"]["seeds"] == {
        name: info.seed for name, info in DATASETS.items()
    }
    rung = payload["rungs"][str(TINY_N)]
    assert list(rung) == lossless_codecs()
    assert {"neats", "leats", "sneats", "gorilla", "xz"} <= set(rung)
    for by_generator in rung.values():
        assert list(by_generator) == list(DATASETS)
        for row in by_generator.values():
            assert row["bits_per_value"] > 0
            assert row["compress_mb_s"] > 0 and row["decompress_mb_s"] > 0
            assert row["warm_access_us"] > 0


@pytest.mark.parametrize("codec_id, dataset", [("neats", "IT"), ("alp", "BT")])
def test_table3_bits_per_value_is_the_compressed_size(
    written, codec_id, dataset
):
    _, paths = written
    row = _payload(paths, "BENCH_table3.json")["rungs"][str(TINY_N)]
    info = DATASETS[dataset]
    params = {"digits": info.digits} if codec_spec(codec_id).needs_digits else {}
    compressed = repro.compress(info.generate(TINY_N), codec=codec_id, **params)
    assert row[codec_id][dataset]["bits_per_value"] == (
        compressed.size_bits() / TINY_N
    )


def _doctored(table3: dict, codec_id: str, dataset: str) -> dict:
    """A copy of ``table3`` with one cell's bits_per_value moved."""
    copy = json.loads(json.dumps(table3))
    copy["rungs"][str(TINY_N)][codec_id][dataset]["bits_per_value"] += 0.125
    return copy


def test_compare_names_each_cell_that_differs(written):
    _, paths = written
    table3 = _payload(paths, "BENCH_table3.json")
    differ, speed = compare_table3(table3, table3)
    assert differ == []
    assert [line.split(":")[0] for line in speed] == [
        f"n={TINY_N} {cid}" for cid in ("neats", "leats", "sneats")
    ]
    was = table3["rungs"][str(TINY_N)]["neats"]["CT"]["bits_per_value"]
    differ, _ = compare_table3(_doctored(table3, "neats", "CT"), table3)
    assert differ == [
        f"n={TINY_N} neats CT: bits_per_value {was + 0.125} in BASE, {was} now"
    ]


def test_compare_divides_out_the_host_factor():
    """Every codec 1.3x faster is the host, not the change: 1.000x normalised."""

    def table(mb_s):
        codecs = ("neats", "leats", "sneats", "gorilla", "xz", "alp")
        return {"rungs": {"4096": {
            cid: {ds: {"bits_per_value": 2.5, "compress_mb_s": mb_s}
                  for ds in ("IT", "CT")}
            for cid in codecs
        }}}

    differ, speed = compare_table3(table(10.0), table(13.0))
    assert differ == []
    assert [line.split(":")[0] for line in speed] == [
        f"n=4096 {cid}" for cid in ("neats", "leats", "sneats")
    ]
    for line in speed:
        assert "1.300x BASE" in line
        assert "host factor 1.300x over 6 other cells" in line
        assert line.endswith("1.000x normalised")


def test_compare_counts_a_cell_base_lacks(written):
    _, paths = written
    table3 = _payload(paths, "BENCH_table3.json")
    base = json.loads(json.dumps(table3))
    del base["rungs"][str(TINY_N)]["gorilla"]["BT"]
    differ, _ = compare_table3(base, table3)
    assert len(differ) == 1 and differ[0].startswith(f"n={TINY_N} gorilla BT:")


def test_cli_compare_exits_1_on_a_doctored_base(written, tmp_path, capsys):
    _, paths = written
    table3 = _payload(paths, "BENCH_table3.json")
    base = tmp_path / "base.json"
    args = ["bench", "--quick", "--n", str(TINY_N), "--out", str(tmp_path / "run")]
    base.write_text(json.dumps(table3))
    assert main([*args, "--compare", str(base)]) == 0
    assert "cells match" in capsys.readouterr().out
    base.write_text(json.dumps(_doctored(table3, "sneats", "IT")))
    assert main([*args, "--compare", str(base)]) == 1
    out = capsys.readouterr().out
    assert "1 Table III cell(s) differ" in out
    assert f"n={TINY_N} sneats IT: bits_per_value" in out


def _neats_over_leats(table3: dict, dataset: str) -> dict:
    """A copy of ``table3`` whose ``neats`` cell on ``dataset`` is 0.125
    bits/value above its ``leats`` cell."""
    copy = json.loads(json.dumps(table3))
    rung = copy["rungs"][str(TINY_N)]
    rung["neats"][dataset]["bits_per_value"] = (
        rung["leats"][dataset]["bits_per_value"] + 0.125
    )
    return copy


def test_neats_above_leats_names_generator_rung_and_sizes(written):
    _, paths = written
    table3 = _payload(paths, "BENCH_table3.json")
    assert neats_above_leats(table3) == []
    leats = table3["rungs"][str(TINY_N)]["leats"]["GE"]["bits_per_value"]
    above = neats_above_leats(_neats_over_leats(table3, "GE"))
    neats_b = (leats + 0.125) * TINY_N / 8
    assert above == [
        f"n={TINY_N} GE: neats {leats + 0.125} bits/value ({neats_b:.0f} B) "
        f"> leats {leats} ({leats * TINY_N / 8:.0f} B)"
    ]


def test_cli_compare_exits_1_when_neats_exceeds_leats(
    written, tmp_path, capsys, monkeypatch
):
    """The run itself, not BASE, breaks NeaTS <= LeaTS: BASE is doctored
    the same way, so every cell matches it."""
    import repro.bench.runner as runner

    _, paths = written
    doctored = _neats_over_leats(_payload(paths, "BENCH_table3.json"), "WD")
    monkeypatch.setattr(runner, "bench_table3", lambda *a, **k: doctored)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doctored))
    args = ["bench", "--quick", "--n", str(TINY_N), "--out", str(tmp_path / "run")]
    assert main([*args, "--compare", str(base)]) == 1
    out = capsys.readouterr().out
    assert "differ" not in out
    assert "1 Table III cell(s) where NeaTS is larger than LeaTS" in out
    assert f"n={TINY_N} WD: neats" in out


def test_decompression_payload_shape():
    payload = bench_decompression(3000, repeats=1)
    assert payload["meta"]["n"] == 3000
    codecs = payload["codecs"]
    assert set(codecs) == {"gorilla", "chimp", "chimp128", "tsxor"}
    for stats in codecs.values():
        assert stats["python_seconds"] > 0
        assert stats["numpy_seconds"] > 0
        assert stats["speedup"] == pytest.approx(
            stats["python_seconds"] / stats["numpy_seconds"], rel=0.02
        )


def test_random_access_counts_blocks():
    payload = bench_random_access(3000, repeats=1)
    for stats in payload["codecs"].values():
        # 256 point queries over 3 blocks can never decode more than 3.
        assert 1 <= stats["blocks_decoded_for_point_queries"] <= 3


def test_committed_artifacts_record_the_speedup():
    """The repo-root BENCH files are the acceptance record: the XOR family
    must show the vectorised backend >= 5x over scalar at 1M values."""
    payload = json.loads((ROOT / "BENCH_table3_decompression.json").read_text())
    assert payload["meta"]["n"] == 1_000_000
    for cid in ("gorilla", "chimp", "chimp128"):
        assert payload["codecs"][cid]["speedup"] >= 5.0, cid


def test_committed_table3_holds_the_full_ladder():
    """The committed Table III is a full run: both rungs, every lossless
    codec on every generator, and the CPU count it ran on."""
    payload = json.loads((ROOT / "BENCH_table3.json").read_text())
    assert payload["meta"]["rungs"] == [4096, 65536]
    assert payload["meta"]["nproc"] >= 1
    for rung in ("4096", "65536"):
        assert list(payload["rungs"][rung]) == lossless_codecs()
        for by_generator in payload["rungs"][rung].values():
            assert list(by_generator) == list(DATASETS)
