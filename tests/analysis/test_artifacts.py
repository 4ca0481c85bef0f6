"""The figure artifact layer: tidy conversion, Vega specs, golden checks.

Synthetic figure dicts (fixed numbers, same shapes the
``repro.experiments.figures`` drivers produce) keep this module fast
and fully deterministic; the committed snapshot goldens under
``tests/goldens/analysis/snapshot`` pin the emitted bytes.
"""

from pathlib import Path

import pytest

from repro.analysis.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    FIGURE_IDS,
    BuiltFigure,
    check_artifacts,
    figure_table,
    figure_vega,
    get_figure_spec,
    write_artifacts,
)
from repro.analysis.tables import SCHEMA_COLUMNS

SNAPSHOT_GOLDENS = Path(__file__).parent.parent / "goldens" / "analysis" / "snapshot"


def fig13_dict() -> dict:
    return {
        "figure": "fig13",
        "metric": "hs_norm",
        "rows": [
            {"workload": "pref_agg-00", "category": "pref_agg",
             "pt": 1.05, "cpa": 1.125, "cmm-a": 1.25},
            {"workload": "pref_fri-00", "category": "pref_fri",
             "pt": 1.0, "cpa": 0.975, "cmm-a": 1.0625},
        ],
        "category_means": {
            "pref_agg": {"pt": 1.05, "cpa": 1.125, "cmm-a": 1.25},
            "pref_fri": {"pt": 1.0, "cpa": 0.975, "cmm-a": 1.0625},
        },
    }


def table1_dict() -> dict:
    return {
        "figure": "table1",
        "rows": [
            {"core": 0, "benchmark": "429.mcf", "M2_l2_pref_miss_frac": 0.5,
             "M3_l2_ptr": 1000.0, "M7_llc_pt": 0.25},
            {"core": 1, "benchmark": "453.povray", "M2_l2_pref_miss_frac": 0.125,
             "M3_l2_ptr": 50.0, "M7_llc_pt": 0.0625},
        ],
    }


class TestRegistry:
    def test_all_report_figures_registered(self):
        assert set(FIGURE_IDS) >= {"table1", "fig01", "fig02", "fig03", "fig05",
                                   "fig13", "fig14", "fig15"}

    def test_unknown_id_names_the_valid_set(self):
        with pytest.raises(KeyError, match="fig13"):
            get_figure_spec("fig99")


class TestTidyConversion:
    def test_mechanism_rows_one_observation_each(self):
        t = figure_table(fig13_dict(), seed=2019)
        assert t.columns == SCHEMA_COLUMNS
        obs = t.filter(metric="hs_norm")
        assert len(obs) == 6  # 2 workloads x 3 mechanisms
        assert {r["mechanism"] for r in obs} == {"pt", "cpa", "cmm-a"}
        assert all(r["seed"] == 2019 for r in t)

    def test_category_means_separate_metric_no_workload(self):
        t = figure_table(fig13_dict())
        means = t.filter(metric="hs_norm_mean")
        assert len(means) == 6
        assert all(r["workload"] is None for r in means)
        assert means.values("value", category="pref_agg", mechanism="cmm-a") == [1.25]

    def test_table1_extras(self):
        t = figure_table(table1_dict(), seed=1)
        assert t.columns == SCHEMA_COLUMNS + ("core", "benchmark")
        assert len(t) == 6  # 2 cores x 3 metrics
        assert t.values("value", core=0, metric="M3_l2_ptr") == [1000.0]

    def test_fig03_unrolls_ways_numerically_sorted(self):
        from repro.experiments.engine import _rehydrate_profile

        # A profile replayed from disk holds its ways in JSON's string
        # order; rehydration hands the figure numeric order.
        prof = _rehydrate_profile({
            "name": "b", "ipc_on": 1.0, "ipc_off": 1.0, "demand_bw_off_mbs": 0.0,
            "total_bw_on_mbs": 0.0, "demand_bw_on_mbs": 0.0,
            "ipc_by_ways": {"12": 1.2, "2": 0.5, "4": 0.8},
        })
        fig = {"figure": "fig03", "rows": [
            {"benchmark": "b", "ipc_by_ways": dict(prof.ipc_by_ways),
             "min_ways_90pct": 12, "min_ways_80pct": 4}]}
        t = figure_table(fig)
        ipc = t.filter(metric="ipc")
        assert [(r["ways"], r["value"]) for r in ipc] == [(2, 0.5), (4, 0.8), (12, 1.2)]
        assert t.values("value", metric="min_ways_90pct") == [12]

    def test_fig05_derives_n_agg(self):
        fig = {"figure": "fig05", "rows": [
            {"workload": "w", "category": "pref_agg", "benchmarks": ["a", "b"],
             "agg_set": [0], "agg_benchmarks": ["a"]}]}
        t = figure_table(fig)
        assert t.values("value", metric="n_agg") == [1]
        assert t.values("value", metric="agg_set") == [[0]]


class TestVegaConversion:
    def test_mechanism_chart_filters_its_metric(self):
        spec = figure_vega(fig13_dict(), seed=2019)
        assert spec["transform"] == [{"filter": "datum.metric == 'hs_norm'"}]
        assert spec["encoding"]["y"]["aggregate"] == "mean"
        assert spec["usermeta"]["repro"]["schema"] == ARTIFACT_SCHEMA_VERSION

    def test_table1_is_a_heatmap(self):
        spec = figure_vega(table1_dict())
        assert spec["mark"] == {"type": "rect"}


def build(figure: dict, *, seed=2019) -> BuiltFigure:
    spec = get_figure_spec(figure["figure"])
    table = spec.table(figure, seed=seed)
    return BuiltFigure(spec.fig_id, figure, table, spec.spec(table))


@pytest.fixture
def artifact_dir(tmp_path):
    built = [build(fig13_dict()), build(table1_dict())]
    write_artifacts(built, tmp_path / "out", scale="unit", seed=2019)
    return tmp_path / "out"


class TestWriteAndCheck:
    def test_emits_csv_vega_manifest(self, artifact_dir):
        names = sorted(p.name for p in artifact_dir.iterdir())
        assert names == ["fig13.csv", "fig13.vl.json", "manifest.json",
                         "table1.csv", "table1.vl.json"]

    def test_identical_sets_have_no_problems(self, artifact_dir, tmp_path):
        built = [build(fig13_dict()), build(table1_dict())]
        write_artifacts(built, tmp_path / "again", scale="unit", seed=2019)
        assert check_artifacts(tmp_path / "again", artifact_dir) == []

    def test_mismatch_names_schema_versions(self, artifact_dir, tmp_path):
        golden = tmp_path / "golden"
        built = [build(fig13_dict()), build(table1_dict())]
        write_artifacts(built, golden, scale="unit", seed=2019)
        (artifact_dir / "fig13.csv").write_text("tampered")
        problems = check_artifacts(artifact_dir, golden)
        assert any("content mismatch: fig13.csv" in p for p in problems)
        assert any("schema versions" in p for p in problems)

    def test_missing_and_unexpected(self, artifact_dir, tmp_path):
        golden = tmp_path / "golden"
        built = [build(fig13_dict()), build(table1_dict())]
        write_artifacts(built, golden, scale="unit", seed=2019)
        (artifact_dir / "fig13.csv").unlink()
        (artifact_dir / "extra.csv").write_text("x")
        problems = check_artifacts(artifact_dir, golden)
        assert "missing artifact: fig13.csv" in problems
        assert "unexpected artifact: extra.csv" in problems

    def test_pngs_are_exempt_from_unexpected(self, artifact_dir, tmp_path):
        golden = tmp_path / "golden"
        built = [build(fig13_dict()), build(table1_dict())]
        write_artifacts(built, golden, scale="unit", seed=2019)
        (artifact_dir / "fig13.png").write_bytes(b"\x89PNG")
        assert check_artifacts(artifact_dir, golden) == []

    def test_empty_golden_dir_is_an_error(self, artifact_dir, tmp_path):
        (tmp_path / "empty").mkdir()
        problems = check_artifacts(artifact_dir, tmp_path / "empty")
        assert problems and "empty" in problems[0]


class TestSnapshotGoldens:
    """Byte-for-byte against the committed snapshot artifacts."""

    def test_fig13_and_table1_match_committed_bytes(self, artifact_dir):
        assert SNAPSHOT_GOLDENS.is_dir(), "snapshot goldens not committed"
        assert check_artifacts(artifact_dir, SNAPSHOT_GOLDENS) == []


class TestRenderGate:
    def test_png_requires_optional_renderer(self, tmp_path):
        from repro.analysis.render import RenderUnavailable, renderer_available

        if renderer_available():
            pytest.skip("optional renderer installed")
        with pytest.raises(RenderUnavailable):
            write_artifacts([build(table1_dict())], tmp_path, scale="unit",
                            seed=2019, png=True)
