"""The figure artifact layer: tidy builders, Vega specs, golden checks.

Fabricated builder inputs (fixed numbers, the same types the registry's
sources fetch from a session) keep this module fast and fully
deterministic; the committed snapshot goldens under
``tests/goldens/analysis/snapshot`` pin the emitted bytes.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.analysis.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    FIGURE_IDS,
    BuiltFigure,
    check_artifacts,
    get_figure_spec,
    write_artifacts,
)
from repro.analysis.tables import SCHEMA_COLUMNS
from repro.core.metrics_defs import TableIMetrics
from repro.experiments.runner import WorkloadEval
from repro.workloads.mixes import WorkloadMix

SNAPSHOT_GOLDENS = Path(__file__).parent.parent / "goldens" / "analysis" / "snapshot"


def evaluation(name: str, category: str, hs_norm: dict[str, float]) -> WorkloadEval:
    """A workload evaluation carrying only normalized HS per mechanism."""
    return WorkloadEval(
        mix=WorkloadMix(name, category, (), seed=0), baseline=None, runs={}, alone_ipc=None,
        metrics={mech: {"hs_norm": v} for mech, v in hs_norm.items()},
    )


#: fig13 narrowed to three mechanisms over two fabricated workloads.
FIG13 = dataclasses.replace(get_figure_spec("fig13"), mechanisms=("pt", "cpa", "cmm-a"))
FIG13_EVALS = [
    evaluation("pref_agg-00", "pref_agg", {"pt": 1.05, "cpa": 1.125, "cmm-a": 1.25}),
    evaluation("pref_fri-00", "pref_fri", {"pt": 1.0, "cpa": 0.975, "cmm-a": 1.0625}),
]

#: Table I narrowed to three metric columns over a fabricated two-core sample.
TABLE1 = dataclasses.replace(
    get_figure_spec("table1"), metrics=("M2_l2_pref_miss_frac", "M3_l2_ptr", "M7_llc_pt"))
TABLE1_SAMPLE = (
    WorkloadMix("mix", "pref_agg", ("429.mcf", "453.povray"), seed=0),
    [TableIMetrics(l2_llc_traffic=0.0, l2_pref_miss_frac=0.5, l2_ptr=1000.0, pga=0.0,
                   l2_pmr=0.0, l2_ppm=0.0, llc_pt=0.25),
     TableIMetrics(l2_llc_traffic=0.0, l2_pref_miss_frac=0.125, l2_ptr=50.0, pga=0.0,
                   l2_pmr=0.0, l2_ppm=0.0, llc_pt=0.0625)],
)


class TestRegistry:
    def test_all_report_figures_registered(self):
        assert set(FIGURE_IDS) >= {"table1", "fig01", "fig02", "fig03", "fig05",
                                   "fig13", "fig14", "fig15"}

    def test_unknown_id_names_the_valid_set(self):
        with pytest.raises(KeyError, match="fig13"):
            get_figure_spec("fig99")


class TestTidyConversion:
    def test_mechanism_rows_one_observation_each(self):
        t = FIG13.table(FIG13_EVALS, seed=2019)
        assert t.columns == SCHEMA_COLUMNS
        obs = t.filter(metric="hs_norm")
        assert len(obs) == 6  # 2 workloads x 3 mechanisms
        assert {r["mechanism"] for r in obs} == {"pt", "cpa", "cmm-a"}
        assert all(r["seed"] == 2019 for r in t)

    def test_category_means_separate_metric_no_workload(self):
        t = FIG13.table(FIG13_EVALS)
        means = t.filter(metric="hs_norm_mean")
        assert len(means) == 6
        assert all(r["workload"] is None for r in means)
        assert means.values("value", category="pref_agg", mechanism="cmm-a") == [1.25]

    def test_table1_extras(self):
        t = TABLE1.table(TABLE1_SAMPLE, seed=1)
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
        t = get_figure_spec("fig03").table({"b": prof})
        ipc = t.filter(metric="ipc")
        assert [(r["ways"], r["value"]) for r in ipc] == [(2, 0.5), (4, 0.8), (12, 1.2)]
        assert t.values("value", metric="min_ways_90pct") == [12]

    def test_fig05_derives_n_agg(self):
        mix = WorkloadMix("w", "pref_agg", ("a", "b"), seed=0)
        t = get_figure_spec("fig05").table([(mix, (0,))])
        assert t.values("value", metric="n_agg") == [1]
        assert t.values("value", metric="agg_set") == [[0]]
        assert t.values("value", metric="agg_benchmarks") == [["a"]]


class TestWideView:
    def test_mechanism_figures_show_headline_category_means(self):
        headers, rows = FIG13.wide(FIG13.table(FIG13_EVALS))
        assert headers == ["category", "pt", "cpa", "cmm-a"]
        assert rows == [["pref_agg", 1.05, 1.125, 1.25], ["pref_fri", 1.0, 0.975, 1.0625]]

    def test_other_figures_one_row_per_index(self):
        assert TABLE1.wide(TABLE1.table(TABLE1_SAMPLE)) == (
            ["core", "M2_l2_pref_miss_frac", "M3_l2_ptr", "M7_llc_pt"],
            [[0, 0.5, 1000.0, 0.25], [1, 0.125, 50.0, 0.0625]],
        )
        mix = WorkloadMix("w", "pref_agg", ("a", "b"), seed=0)
        fig05 = get_figure_spec("fig05")
        headers, rows = fig05.wide(fig05.table([(mix, (0,))]))
        assert headers == ["workload", "benchmarks", "agg_set", "agg_benchmarks", "n_agg"]
        assert rows == [["w", ["a", "b"], [0], ["a"], 1]]


class TestVegaConversion:
    def test_mechanism_chart_filters_its_metric(self):
        spec = FIG13.spec(FIG13.table(FIG13_EVALS, seed=2019))
        assert spec["transform"] == [{"filter": "datum.metric == 'hs_norm'"}]
        assert spec["encoding"]["y"]["aggregate"] == "mean"
        assert spec["usermeta"]["repro"]["schema"] == ARTIFACT_SCHEMA_VERSION

    def test_table1_is_a_heatmap(self):
        spec = TABLE1.spec(TABLE1.table(TABLE1_SAMPLE))
        assert spec["mark"] == {"type": "rect"}


def build(spec, inputs, *, seed=2019) -> BuiltFigure:
    table = spec.table(inputs, seed=seed)
    return BuiltFigure(spec.fig_id, table, spec.spec(table))


def build_both() -> list[BuiltFigure]:
    return [build(FIG13, FIG13_EVALS), build(TABLE1, TABLE1_SAMPLE)]


@pytest.fixture
def artifact_dir(tmp_path):
    write_artifacts(build_both(), tmp_path / "out", scale="unit", seed=2019)
    return tmp_path / "out"


class TestWriteAndCheck:
    def test_emits_csv_vega_manifest(self, artifact_dir):
        names = sorted(p.name for p in artifact_dir.iterdir())
        assert names == ["fig13.csv", "fig13.vl.json", "manifest.json",
                         "table1.csv", "table1.vl.json"]

    def test_identical_sets_have_no_problems(self, artifact_dir, tmp_path):
        write_artifacts(build_both(), tmp_path / "again", scale="unit", seed=2019)
        assert check_artifacts(tmp_path / "again", artifact_dir) == []

    def test_mismatch_names_schema_versions(self, artifact_dir, tmp_path):
        golden = tmp_path / "golden"
        write_artifacts(build_both(), golden, scale="unit", seed=2019)
        (artifact_dir / "fig13.csv").write_text("tampered")
        problems = check_artifacts(artifact_dir, golden)
        assert any("content mismatch: fig13.csv" in p for p in problems)
        assert any("schema versions" in p for p in problems)

    def test_missing_and_unexpected(self, artifact_dir, tmp_path):
        golden = tmp_path / "golden"
        write_artifacts(build_both(), golden, scale="unit", seed=2019)
        (artifact_dir / "fig13.csv").unlink()
        (artifact_dir / "extra.csv").write_text("x")
        problems = check_artifacts(artifact_dir, golden)
        assert "missing artifact: fig13.csv" in problems
        assert "unexpected artifact: extra.csv" in problems

    def test_pngs_are_exempt_from_unexpected(self, artifact_dir, tmp_path):
        golden = tmp_path / "golden"
        write_artifacts(build_both(), golden, scale="unit", seed=2019)
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
            write_artifacts([build(TABLE1, TABLE1_SAMPLE)], tmp_path, scale="unit",
                            seed=2019, png=True)
