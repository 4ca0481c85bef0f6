"""Multi-seed analysis pipeline: seed axis, summaries, determinism.

Statistical behavior is pinned on synthetic observation tables (fast,
exact); one end-to-end class runs the real engine at a reduced scale to
cover the seed-sweep execution path.
"""

import dataclasses

import pytest

from repro.analysis.analyze import (
    DEFAULT_METRICS,
    OVERALL,
    AnalysisResult,
    collect_observations,
    run_analysis,
    seed_axis,
    summarize,
    write_analysis,
)
from repro.analysis.tables import TableBuilder
from repro.experiments.config import TINY
from repro.experiments.engine import ExperimentSession

SC = dataclasses.replace(
    TINY, name="unit", quantum=256, sample_units=256, exec_units=2048,
    alone_accesses=4096, workloads_per_category=1,
)


class TestSeedAxis:
    def test_consecutive_from_base(self):
        assert seed_axis(2019, 3) == (2019, 2020, 2021)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            seed_axis(2019, 0)


def synthetic_obs():
    """2 categories x 2 workloads x 2 seeds x 2 mechanisms, one metric."""
    b = TableBuilder("analysis")
    base = {("pt", 0): 1.00, ("pt", 1): 1.02, ("cmm-a", 0): 1.10, ("cmm-a", 1): 1.14}
    for cat_i, cat in enumerate(("pref_agg", "pref_fri")):
        for wl_i in range(2):
            for seed in (2019, 2020):
                for mech in ("pt", "cmm-a"):
                    v = base[(mech, wl_i)] + 0.01 * seed % 7 + 0.001 * cat_i
                    b.add(metric="hs_norm", value=v, workload=f"{cat}-{wl_i:02d}",
                          category=cat, mechanism=mech, seed=seed)
    return b.build()


class TestSummarize:
    def test_rows_per_group_mechanism_metric(self):
        s = summarize(synthetic_obs(), metrics=("hs_norm",), vs="pt")
        # (2 categories + overall) x 2 mechanisms.
        assert len(s) == 6
        assert set(s.distinct("category")) == {"pref_agg", "pref_fri", OVERALL}

    def test_reference_mechanism_has_no_p_values(self):
        s = summarize(synthetic_obs(), metrics=("hs_norm",), vs="pt")
        for r in s.filter(mechanism="pt"):
            assert r["p_perm"] is None and r["p_sign"] is None and r["vs"] is None

    def test_comparison_rows_are_paired_on_workload_and_seed(self):
        s = summarize(synthetic_obs(), metrics=("hs_norm",), vs="pt")
        overall = s.filter(mechanism="cmm-a", category=OVERALL).rows[0]
        assert overall["n"] == 8  # 2 cats x 2 workloads x 2 seeds
        assert overall["vs"] == "pt"
        # cmm-a beats pt on every pair: the sign test is exact.
        assert overall["p_sign"] == pytest.approx(2 * 1 / 2**8)
        assert 0.0 < overall["p_perm"] <= 1.0
        assert overall["ci_lo"] <= overall["mean"] <= overall["ci_hi"]

    def test_same_bootstrap_seed_is_bit_identical(self):
        a = summarize(synthetic_obs(), metrics=("hs_norm",), bootstrap_seed=5)
        b = summarize(synthetic_obs(), metrics=("hs_norm",), bootstrap_seed=5)
        assert a.rows == b.rows

    def test_different_bootstrap_seed_moves_the_ci(self):
        a = summarize(synthetic_obs(), metrics=("hs_norm",), bootstrap_seed=5)
        b = summarize(synthetic_obs(), metrics=("hs_norm",), bootstrap_seed=6)
        assert a.rows != b.rows

    def test_absent_metrics_are_skipped(self):
        s = summarize(synthetic_obs(), metrics=("nope", "hs_norm"))
        assert s.distinct("metric") == ["hs_norm"]


def per_cell_summary(obs, metrics, vs, n_resamples):
    """Summary rows built by filtering the whole table once per cell."""
    from repro.analysis.stats import bootstrap_ci, paired_permutation_test, sign_test

    def cells(mech, metric, cat):
        rows = obs.filter(mechanism=mech, metric=metric)
        if cat != OVERALL:
            rows = rows.filter(category=cat)
        return {(r["workload"], r["seed"]): r["value"] for r in rows}

    out = []
    for metric in metrics:
        for cat in obs.distinct("category") + [OVERALL]:
            ref = cells(vs, metric, cat)
            for mech in obs.distinct("mechanism"):
                mine = cells(mech, metric, cat)
                if not mine:
                    continue
                ci = bootstrap_ci(list(mine.values()), n_resamples=n_resamples, seed=0)
                p_perm = p_sign = None
                shared = sorted(set(mine) & set(ref))
                if mech != vs and len(shared) >= 2:
                    a, r = [mine[k] for k in shared], [ref[k] for k in shared]
                    p_perm = paired_permutation_test(a, r, n_resamples=n_resamples, seed=0).p_value
                    p_sign = sign_test(a, r).p_value
                out.append((cat, mech, metric, ci.n, ci.stat, ci.lo, ci.hi, p_perm, p_sign))
    return out


class TestSummarizeSlices:
    @staticmethod
    def ragged_obs():
        """synthetic_obs() plus a second metric, a third mechanism, a
        one-workload category and one missing (workload, seed) cell."""
        b = TableBuilder("analysis")
        for r in synthetic_obs():
            b.add(**{k: r[k] for k in ("metric", "value", "workload", "category",
                                       "mechanism", "seed")})
        for i, seed in enumerate((2019, 2020)):
            for mech in ("pt", "cmm-a", "dunn"):
                for metric in ("hs_norm", "ws"):
                    b.add(metric=metric, value=1.0 + 0.1 * i + len(mech) * 0.01,
                          workload="pref_unfri-00", category="pref_unfri",
                          mechanism=mech, seed=seed)
        obs = b.build()
        obs.rows = [r for r in obs.rows if not (
            r["mechanism"] == "cmm-a" and r["workload"] == "pref_agg-01" and r["seed"] == 2020)]
        return obs

    @pytest.mark.parametrize("vs", ["pt", "baseline"], ids=["vs-present", "vs-absent"])
    def test_one_grouping_pass_matches_per_cell_filters(self, vs):
        obs = self.ragged_obs()
        metrics = ("hs_norm", "ws", "nope")
        got = summarize(obs, metrics=metrics, vs=vs, n_resamples=200)
        assert [
            (r["category"], r["mechanism"], r["metric"], r["n"], r["mean"],
             r["ci_lo"], r["ci_hi"], r["p_perm"], r["p_sign"])
            for r in got
        ] == per_cell_summary(obs, metrics, vs, n_resamples=200)
        one_workload = got.filter(category="pref_unfri", metric="ws")
        assert {r["n"] for r in one_workload} == {2}
        if vs == "baseline":
            assert all(r["p_perm"] is None and r["vs"] == "baseline" for r in got)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory) -> AnalysisResult:
        cache = tmp_path_factory.mktemp("analysis-cache")
        with ExperimentSession(cache_dir=cache, max_workers=1) as session:
            return run_analysis(("pt",), SC, n_seeds=2, vs="pt",
                                n_resamples=200, session=session)

    def test_observations_cover_the_seed_axis(self, result):
        assert result.seeds == (2019, 2020)
        assert set(result.observations.distinct("seed")) == {2019, 2020}
        # baseline rides along with every mechanism sweep
        assert set(result.observations.distinct("mechanism")) >= {"baseline", "pt"}

    def test_fairness_metrics_present(self, result):
        metrics = set(result.observations.distinct("metric"))
        assert {"hm_ipc", "fair_slowdown", "unfairness"} <= metrics

    def test_summary_covers_default_metrics(self, result):
        assert set(result.summary.distinct("metric")) == set(DEFAULT_METRICS)
        overall = result.summary.filter(category=OVERALL, metric="hs_norm")
        assert {r["mechanism"] for r in overall} >= {"baseline", "pt"}

    def test_spec_charts_the_summary(self, result):
        assert result.spec["layer"][0]["encoding"]["y"]["field"] == "mean"
        assert len(result.spec["data"]["values"]) == len(
            result.summary.filter(metric="hs_norm"))

    def test_write_analysis_emits_the_set(self, result, tmp_path):
        paths = write_analysis(result, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "observations.csv", "summary.csv", "summary.vl.json"]
        assert paths["observations.csv"].read_text().startswith("figure,")

    def test_warm_cache_rerun_is_bit_identical(self, result, tmp_path_factory):
        cache = tmp_path_factory.mktemp("analysis-cache2")
        with ExperimentSession(cache_dir=cache, max_workers=1) as session:
            again = run_analysis(("pt",), SC, n_seeds=2, vs="pt",
                                 n_resamples=200, session=session)
        assert again.observations.to_csv() == result.observations.to_csv()
        assert again.summary.to_csv() == result.summary.to_csv()


class TestCollectObservations:
    def test_one_row_per_seed_workload_mechanism_metric(self, tmp_path):
        with ExperimentSession(cache_dir=tmp_path / "c", max_workers=1) as session:
            obs = collect_observations(("pt",), SC, seeds=(2019,), session=session)
        pt = obs.filter(mechanism="pt", metric="hs_norm")
        # workloads_per_category=1 x 4 categories x 1 seed
        assert len(pt) == 4
        assert all(r["seed"] == 2019 for r in pt)
