"""Figure drivers produce well-formed results (reduced scale)."""

import dataclasses


from repro.experiments.config import TINY
from repro.experiments.figures import (
    EvalStore,
    fig01_bandwidth,
    fig02_prefetch_speedup,
    fig03_way_sensitivity,
    fig05_detection,
    table1_metrics,
)
from repro.workloads.mixes import CATEGORIES
from repro.workloads.speclike import BENCHMARKS

SC = dataclasses.replace(
    TINY,
    name="figunit",
    quantum=256,
    sample_units=512,
    exec_units=2048,
    alone_accesses=4096,
    profile_accesses=8192,
    workloads_per_category=1,
)


class TestAloneFigures:
    def test_fig01_rows_cover_registry(self):
        d = fig01_bandwidth(SC)
        assert d["figure"] == "fig01"
        assert {r["benchmark"] for r in d["rows"]} == set(BENCHMARKS)
        for r in d["rows"]:
            assert r["total_bw_mbs"] >= 0.0

    def test_fig02_speedups(self):
        d = fig02_prefetch_speedup(SC)
        by_name = {r["benchmark"]: r for r in d["rows"]}
        assert by_name["410.bwaves"]["speedup_pct"] > 30.0
        assert by_name["rand_access"]["speedup_pct"] < 0.0

    def test_fig03_way_series(self):
        d = fig03_way_sensitivity(SC)
        by_name = {r["benchmark"]: r for r in d["rows"]}
        row = by_name["462.libquantum"]
        assert row["min_ways_90pct"] <= 2  # paper's key observation
        assert set(row["ipc_by_ways"]) <= {1, 2, 4, 6, 8, 12, 16, 20}

    def test_profiles_run_on_the_injected_session(self, tmp_path):
        """build_artifacts(session=...) must not reach for the default
        session (pool workers, SHM, ~/.cache/repro from a library call)."""
        from repro.analysis import build_artifacts
        from repro.experiments import engine

        # own scale name: figures._PROFILES memoises per scale name
        sc = dataclasses.replace(SC, name="figunit-injected")
        with engine.ExperimentSession(cache_dir=tmp_path, max_workers=1) as session:
            (built,) = build_artifacts(["fig01"], sc, session=session)
            assert len(session.records) == len(BENCHMARKS)
        assert {r["benchmark"] for r in built.figure["rows"]} == set(BENCHMARKS)
        assert engine._DEFAULT_SESSION is None


class TestDetectionFigure:
    def test_fig05_shapes(self):
        d = fig05_detection(SC)
        cats = {r["category"] for r in d["rows"]}
        assert cats == set(CATEGORIES)
        for r in d["rows"]:
            assert all(0 <= c < 8 for c in r["agg_set"])
            assert len(r["agg_benchmarks"]) == len(r["agg_set"])


class TestTable1:
    def test_metric_columns(self):
        d = table1_metrics(SC)
        assert len(d["rows"]) == 8
        for row in d["rows"]:
            for col in ("M1_l2_llc_traffic", "M4_pga", "M5_l2_pmr", "M7_llc_pt"):
                assert col in row
            assert 0.0 <= row["M5_l2_pmr"] <= 1.0


class TestEvalStore:
    def test_store_extends_incrementally(self):
        store = EvalStore(SC)
        mix = store.mixes("pref_unfri")[0]
        ev1 = store.eval(mix, ("pt",))
        ev2 = store.eval(mix, ("pt", "dunn"))
        assert ev1 is ev2
        assert "pt" in ev2.metrics and "dunn" in ev2.metrics

    def test_sweep_order(self):
        store = EvalStore(SC)
        evals = store.sweep(("pt",))
        assert [e.mix.category for e in evals] == list(CATEGORIES)
