"""Integration tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.data import read_csv, write_csv


@pytest.fixture
def csv_file(tmp_path, rng):
    values = np.cumsum(rng.integers(-50, 51, 800)).astype(np.int64)
    path = tmp_path / "in.csv"
    write_csv(path, values, digits=2)
    return path, values


class TestCompressDecompress:
    def test_roundtrip(self, csv_file, tmp_path, capsys):
        path, values = csv_file
        archive = tmp_path / "out.neats"
        restored = tmp_path / "restored.csv"
        assert main(["compress", str(path), str(archive), "--digits", "2"]) == 0
        assert archive.exists()
        assert main(["decompress", str(archive), str(restored)]) == 0
        assert np.array_equal(read_csv(restored, 2), values)

    def test_custom_models(self, csv_file, tmp_path):
        path, values = csv_file
        archive = tmp_path / "out.neats"
        code = main([
            "compress", str(path), str(archive),
            "--digits", "2", "--models", "linear",
        ])
        assert code == 0


class TestInfoAccess:
    @pytest.fixture
    def archive(self, csv_file, tmp_path):
        path, values = csv_file
        archive = tmp_path / "a.neats"
        main(["compress", str(path), str(archive), "--digits", "2"])
        return archive, values

    def test_info(self, archive, capsys):
        path, values = archive
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(values):,}" in out
        assert "fragments" in out

    def test_access(self, archive, capsys):
        path, values = archive
        assert main(["access", str(path), "0", "400"]) == 0
        out = capsys.readouterr().out
        assert f"{values[0] / 100:.2f}" in out
        assert f"{values[400] / 100:.2f}" in out

    def test_access_out_of_range(self, archive, capsys):
        path, _ = archive
        assert main(["access", str(path), "100000"]) == 1

    def test_info_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.neats"
        bad.write_bytes(b"garbage bytes here")
        with pytest.raises(ValueError):
            main(["info", str(bad)])


class TestCodecsCommand:
    def test_lists_every_codec_with_flags(self, capsys):
        from repro.codecs import available_codecs

        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        for cid in available_codecs():
            assert cid in out
        assert "lossy" in out and "eps" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["codecs", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_id = {row["id"]: row for row in rows}
        assert by_id["pla"]["lossy"] and by_id["pla"]["required_params"] == ["eps"]
        assert by_id["neats_l"]["native_random_access"]
        assert not by_id["gorilla"]["lossy"]
        assert by_id["alp"]["needs_digits"]
        assert all(row["native_loader"] for row in rows)


class TestLossyCompress:
    def test_compress_info_access_with_eps(self, csv_file, tmp_path, capsys):
        path, values = csv_file
        archive = tmp_path / "out.rpac"
        # --eps is in original value units; --digits 2 scales it by 100.
        assert main(["compress", str(path), str(archive),
                     "--codec", "pla", "--eps", "0.25", "--digits", "2"]) == 0
        assert "segments" in capsys.readouterr().out
        assert main(["info", str(archive), "--lazy"]) == 0
        out = capsys.readouterr().out
        assert "pla" in out and "lossy" in out and "0.25" in out
        assert main(["access", str(archive), "0", "400", "--lazy"]) == 0
        shown = capsys.readouterr().out
        for k in (0, 400):
            printed = float(shown.splitlines()[0 if k == 0 else 1].split()[1])
            assert abs(printed - values[k] / 100) <= 0.25 + 1e-9

    def test_decompress_writes_the_approximation(self, csv_file, tmp_path):
        path, values = csv_file
        archive = tmp_path / "out.rpac"
        restored = tmp_path / "restored.csv"
        assert main(["compress", str(path), str(archive),
                     "--codec", "aa", "--eps", "0.5", "--digits", "2"]) == 0
        assert main(["decompress", str(archive), str(restored)]) == 0
        got = read_csv(restored, 2)
        assert np.max(np.abs(got - values)) <= 50 + 1  # eps*100 + csv rounding

    def test_lossy_codec_without_eps_exits(self, csv_file, tmp_path):
        path, _ = csv_file
        with pytest.raises(SystemExit):
            main(["compress", str(path), str(tmp_path / "x.rpac"),
                  "--codec", "neats_l", "--digits", "2"])

    def test_codec_param_passthrough(self, csv_file, tmp_path, capsys):
        path, _ = csv_file
        archive = tmp_path / "out.rpac"
        assert main(["compress", str(path), str(archive), "--codec", "neats_l",
                     "--eps", "0.5", "--digits", "2",
                     "--codec-param", 'models=["linear"]']) == 0
        capsys.readouterr()
        assert main(["info", str(archive)]) == 0
        assert "models=['linear']" in capsys.readouterr().out

    def test_bad_codec_param_exits(self, csv_file, tmp_path):
        path, _ = csv_file
        with pytest.raises(SystemExit):
            main(["compress", str(path), str(tmp_path / "x.rpac"),
                  "--codec", "pla", "--eps", "1", "--codec-param", "notkv"])


class TestAppendCommand:
    def test_create_append_read_seal(self, tmp_path, rng, capsys):
        values = np.cumsum(rng.integers(-30, 31, 1200)).astype(np.int64)
        b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        write_csv(b1, values[:800], digits=2)
        write_csv(b2, values[800:], digits=2)
        log = tmp_path / "s.rpal"
        assert main(["append", str(log), str(b1), "--codec", "gorilla",
                     "--digits", "2"]) == 0
        assert main(["append", str(log), str(b2)]) == 0
        assert "2 record(s)" in capsys.readouterr().out
        assert main(["info", str(log), "--lazy"]) == 0
        out = capsys.readouterr().out
        assert "append runs:   2" in out
        assert "1,200" in out
        restored = tmp_path / "restored.csv"
        assert main(["decompress", str(log), str(restored)]) == 0
        assert np.array_equal(read_csv(restored, 2), values)
        assert main(["append", str(log), str(b2), "--seal"]) == 0
        assert log.read_bytes()[:8] == b"RPAC0001"

    def test_codec_conflict_fails_cleanly(self, tmp_path, rng, capsys):
        b1 = tmp_path / "b1.csv"
        write_csv(b1, np.arange(100, dtype=np.int64), digits=0)
        log = tmp_path / "s.rpal"
        assert main(["append", str(log), str(b1)]) == 0  # default: gorilla
        assert main(["append", str(log), str(b1), "--codec", "zstd"]) == 1
        assert "created with codec" in capsys.readouterr().err

    def test_digits_conflict_fails_cleanly(self, tmp_path, rng, capsys):
        b1 = tmp_path / "b1.csv"
        write_csv(b1, np.arange(100, dtype=np.int64), digits=1)
        log = tmp_path / "s.rpal"
        assert main(["append", str(log), str(b1), "--digits", "1"]) == 0
        assert main(["append", str(log), str(b1), "--digits", "3"]) == 1
        assert "mix scales" in capsys.readouterr().err


class TestGenerate:
    def test_generate_dataset(self, tmp_path, capsys):
        out = tmp_path / "it.csv"
        assert main(["generate", "IT", str(out), "--n", "200"]) == 0
        values = read_csv(out, 2)
        assert len(values) == 200

    def test_generate_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "NOPE", str(tmp_path / "x.csv")])


class TestDbFamily:
    @pytest.fixture
    def db_root(self, tmp_path):
        for name, scale in (("a", 1), ("b", 3)):
            values = (np.arange(1500) * scale).astype(np.int64)
            write_csv(tmp_path / f"{name}.csv", values, digits=0)
        root = tmp_path / "db"
        assert main(["db", "init", str(root), "--seal-threshold", "256",
                     "--cold-codec", "leats"]) == 0
        assert main(["db", "ingest", str(root), str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv")]) == 0
        return root

    def test_init_twice_fails(self, db_root, capsys):
        assert main(["db", "init", str(db_root)]) == 1

    def test_info_lists_series(self, db_root, capsys):
        assert main(["db", "info", str(db_root)]) == 0
        out = capsys.readouterr().out
        assert "a: 1,500 values" in out and "b: 1,500 values" in out

    def test_query_at_and_range(self, db_root, capsys):
        assert main(["db", "query", str(db_root), "b", "--at", "7"]) == 0
        assert "b[7] 21" in capsys.readouterr().out
        assert main(["db", "query", str(db_root), "a",
                     "--range", "10", "13"]) == 0
        assert capsys.readouterr().out.split() == ["10", "11", "12"]

    def test_query_unknown_series(self, db_root, capsys):
        assert main(["db", "query", str(db_root), "nope"]) == 1

    def test_query_out_of_range(self, db_root, capsys):
        assert main(["db", "query", str(db_root), "a", "--at", "99999"]) == 1

    def test_query_range_out_of_bounds(self, db_root, capsys):
        assert main(["db", "query", str(db_root), "a",
                     "--range", "0", "99999"]) == 1
        assert "out of range" in capsys.readouterr().err
        assert main(["db", "query", str(db_root), "a",
                     "--range", "-5", "3"]) == 1

    def test_query_uses_recorded_digits(self, db_root, tmp_path, capsys):
        write_csv(tmp_path / "scaled.csv", np.arange(300, dtype=np.int64),
                  digits=0)
        assert main(["db", "ingest", str(db_root), str(tmp_path / "scaled.csv"),
                     "--digits", "2"]) == 0
        capsys.readouterr()
        # no --digits on query: the manifest's recorded scaling applies
        assert main(["db", "query", str(db_root), "scaled", "--at", "123"]) == 0
        assert "scaled[123] 123.00" in capsys.readouterr().out
        assert main(["db", "info", str(db_root)]) == 0
        assert "digits 2" in capsys.readouterr().out

    def test_compact_then_query(self, db_root, capsys):
        assert main(["db", "compact", str(db_root)]) == 0
        assert "compacted 2 shard(s)" in capsys.readouterr().out
        assert main(["db", "query", str(db_root), "b", "--at", "1000"]) == 0
        assert "b[1000] 3000" in capsys.readouterr().out

    def test_series_names_flag(self, db_root, tmp_path, capsys):
        write_csv(tmp_path / "c.csv", np.arange(300, dtype=np.int64), digits=0)
        assert main(["db", "ingest", str(db_root), str(tmp_path / "c.csv"),
                     "--series", "renamed"]) == 0
        assert main(["db", "query", str(db_root), "renamed"]) == 0
        assert "renamed: 300 values" in capsys.readouterr().out

    def test_series_names_count_mismatch(self, db_root, tmp_path):
        assert main(["db", "ingest", str(db_root), str(tmp_path / "a.csv"),
                     "--series", "x,y"]) == 1

    def test_lossy_cold_codec_needs_allow_lossy(self, tmp_path, capsys):
        root = tmp_path / "lossydb"
        assert main(["db", "init", str(root), "--cold-codec", "pla",
                     "--eps", "2"]) == 1
        assert "allow_lossy" in capsys.readouterr().err
        assert main(["db", "init", str(root), "--cold-codec", "pla"]) == 1
        assert "--eps" in capsys.readouterr().err
        assert main(["db", "init", str(root), "--cold-codec", "pla",
                     "--eps", "2", "--allow-lossy",
                     "--seal-threshold", "128"]) == 0

    def test_lossy_cold_compact_answers_within_eps(self, tmp_path, capsys):
        values = np.cumsum(np.ones(600, dtype=np.int64) * 3)
        write_csv(tmp_path / "s.csv", values, digits=0)
        root = tmp_path / "lossydb"
        assert main(["db", "init", str(root), "--cold-codec", "pla",
                     "--eps", "2", "--allow-lossy",
                     "--seal-threshold", "128"]) == 0
        assert main(["db", "ingest", str(root), str(tmp_path / "s.csv")]) == 0
        assert main(["db", "compact", str(root)]) == 0
        capsys.readouterr()
        assert main(["db", "query", str(root), "s", "--at", "100"]) == 0
        printed = float(capsys.readouterr().out.split()[1])
        assert abs(printed - values[100]) <= 2 + 1e-9

    def test_duplicate_stems_rejected(self, db_root, tmp_path, capsys):
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        for d in ("d1", "d2"):
            write_csv(tmp_path / d / "same.csv",
                      np.arange(100, dtype=np.int64), digits=0)
        assert main(["db", "ingest", str(db_root),
                     str(tmp_path / "d1" / "same.csv"),
                     str(tmp_path / "d2" / "same.csv")]) == 1
        assert "duplicate series ids" in capsys.readouterr().err
