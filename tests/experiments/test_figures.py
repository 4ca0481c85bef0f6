"""The figure registry builds well-formed tables from a session (reduced scale)."""

import dataclasses

import pytest

from repro.analysis import build_artifacts
from repro.experiments import engine
from repro.experiments.config import TINY
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


def table(fig_id, sc=SC, session=None):
    (built,) = build_artifacts([fig_id], sc, session=session)
    return built.table


def by_benchmark(t, metric):
    return {r["benchmark"]: r["value"] for r in t.filter(metric=metric)}


class TestAloneFigures:
    def test_fig01_rows_cover_registry(self):
        total = by_benchmark(table("fig01"), "total_bw_mbs")
        assert set(total) == set(BENCHMARKS)
        assert list(total.values()) == sorted(total.values(), reverse=True)  # busiest first
        assert all(v >= 0.0 for v in total.values())

    def test_fig02_speedups(self):
        speedup = by_benchmark(table("fig02"), "speedup_pct")
        assert speedup["410.bwaves"] > 30.0
        assert speedup["rand_access"] < 0.0

    def test_fig03_way_series(self):
        t = table("fig03")
        assert by_benchmark(t, "min_ways_90pct")["462.libquantum"] <= 2  # paper's key observation
        ways = t.filter(metric="ipc", benchmark="462.libquantum").distinct("ways")
        assert set(ways) <= {1, 2, 4, 6, 8, 12, 16, 20}

    def test_profiles_run_on_the_injected_session(self, tmp_path):
        """build_artifacts(session=...) must not reach for the default
        session (pool workers, SHM, ~/.cache/repro from a library call)."""
        with engine.ExperimentSession(cache_dir=tmp_path, max_workers=1) as session:
            t = table("fig01", session=session)
            assert len(session.records) == len(BENCHMARKS)
        assert set(t.distinct("benchmark")) == set(BENCHMARKS)
        assert engine._DEFAULT_SESSION is None

    def test_each_session_runs_its_own_profiles(self, tmp_path):
        """A second session, with its own cache, builds fig01 itself: no
        module-level memo answers it with the first session's results."""
        sc = dataclasses.replace(SC, name="figunit-sessions")
        with engine.ExperimentSession(cache_dir=tmp_path / "a", max_workers=1) as first:
            a = table("fig01", sc, first)
        with engine.ExperimentSession(cache_dir=tmp_path / "b", max_workers=1,
                                      engine="fast") as second:
            b = table("fig01", sc, second)
            assert len(second.records) == len(BENCHMARKS)
            assert not any(r.cached for r in second.records)
            assert second.cache.stats().by_kind[engine.KIND_PROFILE] == len(BENCHMARKS)
        assert b.to_csv() == a.to_csv()  # engines are bit-identical

    def test_same_name_scales_do_not_share_profiles(self, tmp_path):
        """Content keys cover the whole scale, not its name."""
        small, large = (
            dataclasses.replace(SC, name="figunit-memo", profile_accesses=n) for n in (2048, 4096)
        )
        with engine.ExperimentSession(cache_dir=tmp_path / "a", max_workers=1) as session:
            first = table("fig01", small, session)
            second = table("fig01", large, session)
        with engine.ExperimentSession(cache_dir=tmp_path / "b", max_workers=1) as session:
            fresh = table("fig01", large, session)
        assert second.to_csv() == fresh.to_csv()
        assert second.to_csv() != first.to_csv()


class TestDetectionFigure:
    def test_fig05_shapes(self):
        t = table("fig05")
        assert set(t.distinct("category")) == set(CATEGORIES)
        for agg_set, agg_benchmarks in zip(t.values("value", metric="agg_set"),
                                           t.values("value", metric="agg_benchmarks")):
            assert all(0 <= c < 8 for c in agg_set)
            assert len(agg_benchmarks) == len(agg_set)


class TestTable1:
    def test_metric_columns(self):
        t = table("table1")
        assert t.distinct("core") == list(range(8))
        for col in ("M1_l2_llc_traffic", "M4_pga", "M5_l2_pmr", "M7_llc_pt"):
            assert len(t.filter(metric=col)) == 8
        assert all(0.0 <= v <= 1.0 for v in t.values("value", metric="M5_l2_pmr"))


class TestMechanismFigures:
    @pytest.fixture
    def session(self, tmp_path):
        with engine.ExperimentSession(cache_dir=tmp_path, max_workers=1) as session:
            yield session

    def test_profiles_answer_the_alone_runs_that_follow(self, session):
        """Figures build in the requested order: fig01's profile pass runs
        first and stores the alone results fig08's evaluations replay."""
        build_artifacts(["fig01", "fig08"], SC, session=session)
        kinds = [r.kind for r in session.records]
        assert kinds[:len(BENCHMARKS)] == [engine.KIND_PROFILE] * len(BENCHMARKS)
        alone = [r for r in session.records if r.kind == engine.KIND_ALONE]
        assert alone and all(r.cached for r in alone)

    def test_one_evaluation_pass_in_category_order(self, session, monkeypatch):
        """Mechanism figures share one evaluation per mix, over the union
        of their mechanisms, in the paper's category order."""
        evaluated = []
        evaluate = session.evaluate

        def spy(mix, mechanisms, sc=None):
            evaluated.append((mix.category, mechanisms))
            return evaluate(mix, mechanisms, sc)

        monkeypatch.setattr(session, "evaluate", spy)
        fig07, fig10 = build_artifacts(["fig07", "fig10"], SC, session=session)
        assert evaluated == [(cat, ("pt", "dunn", "pref-cp", "pref-cp2")) for cat in CATEGORIES]
        assert fig07.table.distinct("metric") == ["hs_norm", "hs_norm_mean", "ws", "ws_mean"]
        assert fig07.table.distinct("mechanism") == ["pt"]
        assert fig10.table.filter(metric="worst").distinct("category") == list(CATEGORIES)
        assert fig10.table.distinct("mechanism") == ["dunn", "pref-cp", "pref-cp2"]
