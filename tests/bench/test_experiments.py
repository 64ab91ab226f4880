"""Smoke tests for the experiment drivers (tiny inputs, full code paths)."""

import numpy as np
import pytest

from repro.bench import (
    render_fig2,
    render_fig3,
    render_fig4,
    render_table2,
    render_table3,
    run_evaluation,
    run_fig4,
    run_table2,
)
from repro.bench import ablations


@pytest.fixture(scope="module")
def small_eval():
    """One shared tiny evaluation over two datasets and four codecs."""
    return run_evaluation(
        datasets=["CT", "BP"],
        codecs=["zstd", "dac", "leco", "neats"],
        n=1200,
        access_queries=20,
        verbose=False,
    )


class TestTable2:
    def test_rows_and_render(self):
        rows = run_table2(datasets=["BP"], n=1000, quick=True)
        assert len(rows) == 1
        row = rows[0]
        assert row.ratio_neats_l > 0
        assert row.eps > 0
        out = render_table2(rows)
        assert "BP" in out
        assert "NeaTS-L" in out

    def test_improvement_properties(self):
        rows = run_table2(datasets=["DU"], n=1000, quick=True)
        r = rows[0]
        # improvements are consistent with the ratios
        assert (r.improvement_vs_pla > 0) == (r.ratio_neats_l < r.ratio_pla)


class TestEvaluation:
    def test_stats_structure(self, small_eval):
        assert set(small_eval.stats) == {"CT", "BP"}
        for ds in small_eval.datasets:
            assert set(small_eval.stats[ds]) == {"zstd", "dac", "leco", "neats"}

    def test_average(self, small_eval):
        avg = small_eval.average("ratio_pct")
        assert all(v > 0 for v in avg.values())

    def test_render_table3(self, small_eval):
        out = render_table3(small_eval)
        assert "Table III (top)" in out
        assert "Table III (middle)" in out
        assert "Table III (bottom)" in out
        assert "Zstd*" in out and "NeaTS" in out

    def test_render_fig2(self, small_eval):
        out = render_fig2(small_eval)
        assert "Figure 2" in out

    def test_render_fig3(self, small_eval):
        out = render_fig3(small_eval)
        assert "Figure 3" in out


class TestFig4:
    def test_run_and_render(self):
        result = run_fig4(
            datasets=["CT"], n=1200, max_exponent=4, queries=3, verbose=False
        )
        assert result.range_sizes == [10, 20, 40, 80, 160]
        assert list(result.throughput) == ["alp", "dac", "lz4", "neats"]
        for comp, series in result.throughput.items():
            assert len(series) == 5
            assert all(v > 0 or np.isnan(v) for v in series)
        out = render_fig4(result)
        assert "Figure 4" in out and "Lz4*" in out


class TestAblations:
    def test_variant_ablation(self):
        out = ablations.run_variant_ablation(datasets=["BP"], n=800)
        assert "LeaTS" in out and "SNeaTS" in out

    def test_eps_grid_ablation(self):
        out = ablations.run_eps_grid_ablation(datasets=["BP"], n=800)
        assert "E stride" in out

    def test_model_set_ablation(self):
        out = ablations.run_model_set_ablation(datasets=["BP"], n=800)
        assert "- linear" in out


class TestCli:
    def test_main_table2(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        out_file = tmp_path / "report.txt"
        code = main([
            "-e", "table2", "-d", "BP", "--n", "600",
            "--quick-calibration", "-o", str(out_file),
        ])
        assert code == 0
        assert "Table II" in out_file.read_text()

    @pytest.mark.parametrize("experiment, title", [
        ("table3", "Table III (top)"),
        ("fig4", "Figure 4"),
    ])
    def test_main_renders_from_codec_ids(self, capsys, experiment, title):
        from repro.bench.__main__ import main

        assert main(["-e", experiment, "-d", "BP", "--n", "400",
                     "--queries", "20"]) == 0
        assert title in capsys.readouterr().out

    def test_main_rejects_unknown_dataset(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["-d", "NOPE"])
