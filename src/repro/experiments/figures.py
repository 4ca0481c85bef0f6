"""One driver per paper table/figure (the experiment index of DESIGN.md).

Every ``figNN_*`` function returns a plain dict of rows/series matching
what the paper plots, and can be rendered with
:mod:`repro.experiments.report`.  Figures 7-15 share the same 4x
workload-category sweep; an :class:`EvalStore` assembles (workload,
mechanism) evaluations through an
:class:`~repro.experiments.engine.ExperimentSession`, so runs are
deduplicated, executed in parallel on cache misses, and replayed from
the on-disk store when a figure is regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.frontend import AggDetector
from repro.core.metrics_defs import compute_metrics, summarize_sample
from repro.experiments.config import ScaleConfig, get_scale
from repro.experiments.engine import ExperimentSession, RunSpec, default_session
from repro.experiments.runner import WorkloadEval, build_machine
from repro.platform.simulated import SimulatedPlatform
from repro.workloads.mixes import CATEGORIES, WorkloadMix, make_mixes
from repro.workloads.speclike import BENCHMARKS

CP_MECHS = ("dunn", "pref-cp", "pref-cp2")
CMM_MECHS = ("cmm-a", "cmm-b", "cmm-c")
ALL_MECHS = ("pt",) + CP_MECHS + CMM_MECHS


# ------------------------------------------------------------------ store


@dataclass
class EvalStore:
    """Caches workload evaluations; extends them with missing mechanisms.

    Backed by an :class:`ExperimentSession` (the default one unless a
    session is injected), so every run it triggers lands in — and can
    replay from — the session's result cache.
    """

    sc: ScaleConfig
    session: ExperimentSession | None = None
    _mixes: dict[str, list[WorkloadMix]] = field(default_factory=dict)
    _evals: dict[str, WorkloadEval] = field(default_factory=dict)

    def _session(self) -> ExperimentSession:
        return self.session or default_session()

    def mixes(self, category: str) -> list[WorkloadMix]:
        if category not in self._mixes:
            self._mixes[category] = make_mixes(
                category, self.sc.workloads_per_category, seed=self.sc.seed
            )
        return self._mixes[category]

    def eval(self, mix: WorkloadMix, mechanisms: tuple[str, ...]) -> WorkloadEval:
        ev = self._evals.get(mix.name)
        if ev is None:
            ev = self._session().evaluate(mix, mechanisms, self.sc)
            self._evals[mix.name] = ev
            return ev
        missing = tuple(m for m in mechanisms if m not in ev.metrics)
        if missing:
            fresh = self._session().evaluate(mix, missing, self.sc)
            ev.runs.update(fresh.runs)
            for m in missing:
                ev.metrics[m] = fresh.metrics[m]
        return ev

    def sweep(self, mechanisms: tuple[str, ...]) -> list[WorkloadEval]:
        """All categories x workloads, in the paper's presentation order.

        Executes the whole (mix x mechanism) plan in one batch first —
        deduplicated, parallel across the session's workers on misses —
        then assembles per-workload evaluations from the cache.
        """
        all_mixes = tuple(mix for cat in CATEGORIES for mix in self.mixes(cat))
        spec = RunSpec(mechanisms=tuple(mechanisms), mixes=all_mixes)
        self._session().execute(spec.expand(self.sc))
        return [self.eval(mix, tuple(mechanisms)) for mix in all_mixes]


_STORES: dict[str, EvalStore] = {}


def get_store(sc: ScaleConfig | None = None, session: ExperimentSession | None = None) -> EvalStore:
    sc = sc or get_scale()
    if sc.name not in _STORES:
        _STORES[sc.name] = EvalStore(sc, session=session)
    return _STORES[sc.name]


# ------------------------------------------------------- Figs. 1-3 (alone)

_PROFILES: dict[tuple[str, str, bool], dict] = {}


def _profiles(
    sc: ScaleConfig, *, ways: bool = False, session: ExperimentSession | None = None
) -> dict[str, object]:
    key = sc.name
    cache_key = (key, "profiles", ways)
    if cache_key not in _PROFILES:
        sweep = (1, 2, 4, 6, 8, 12, 16, 20) if ways else None
        sess = session or default_session()
        _PROFILES[cache_key] = sess.profile_all(tuple(BENCHMARKS), sc, way_sweep=sweep)
    return _PROFILES[cache_key]


def fig01_bandwidth(
    sc: ScaleConfig | None = None, session: ExperimentSession | None = None
) -> dict:
    """Memory bandwidth per benchmark, demand vs. prefetch increase."""
    sc = sc or get_scale()
    profiles = _profiles(sc, session=session)
    rows = []
    for name, p in profiles.items():
        rows.append(
            {
                "benchmark": name,
                "demand_bw_mbs": p.demand_bw_off_mbs,
                "total_bw_mbs": p.total_bw_on_mbs,
                "increase_pct": 100.0 * p.bw_increase,
            }
        )
    rows.sort(key=lambda r: -r["total_bw_mbs"])
    return {"figure": "fig01", "rows": rows}


def fig02_prefetch_speedup(
    sc: ScaleConfig | None = None, session: ExperimentSession | None = None
) -> dict:
    """IPC speedup from prefetching per benchmark."""
    sc = sc or get_scale()
    profiles = _profiles(sc, session=session)
    rows = [
        {"benchmark": name, "ipc_on": p.ipc_on, "ipc_off": p.ipc_off,
         "speedup_pct": 100.0 * p.prefetch_speedup}
        for name, p in profiles.items()
    ]
    rows.sort(key=lambda r: -r["speedup_pct"])
    return {"figure": "fig02", "rows": rows}


def fig03_way_sensitivity(
    sc: ScaleConfig | None = None, session: ExperimentSession | None = None
) -> dict:
    """IPC vs. number of LLC ways (prefetchers on)."""
    sc = sc or get_scale()
    profiles = _profiles(sc, ways=True, session=session)
    rows = []
    for name, p in profiles.items():
        rows.append(
            {
                "benchmark": name,
                "ipc_by_ways": dict(p.ipc_by_ways),
                "min_ways_90pct": p.min_ways_for_frac(0.90),
                "min_ways_80pct": p.min_ways_for_frac(0.80),
            }
        )
    return {"figure": "fig03", "rows": rows}


# -------------------------------------------------------- Fig. 5 (detection)


def fig05_detection(sc: ScaleConfig | None = None) -> dict:
    """The Agg sets the front-end finds in each workload category."""
    sc = sc or get_scale()
    detector = AggDetector()
    rows = []
    for cat in CATEGORIES:
        for mix in make_mixes(cat, sc.workloads_per_category, seed=sc.seed):
            m = build_machine(mix, sc)
            plat = SimulatedPlatform(m)
            plat.run_interval(max(sc.sample_units, 2048))  # warm-up
            sample = plat.run_interval(sc.sample_units)
            summaries = summarize_sample(sample, plat.cycles_per_second)
            report = detector.detect(summaries)
            rows.append(
                {
                    "workload": mix.name,
                    "category": cat,
                    "benchmarks": mix.benchmarks,
                    "agg_set": report.agg_set,
                    "agg_benchmarks": tuple(mix.benchmarks[c] for c in report.agg_set),
                }
            )
    return {"figure": "fig05", "rows": rows}


# ------------------------------------------------- Figs. 7-15 (mechanisms)


def _mechanism_figure(
    figure: str,
    mechanisms: tuple[str, ...],
    metric: str,
    sc: ScaleConfig | None,
    store: "EvalStore | None" = None,
) -> dict:
    sc = sc or get_scale()
    store = store or get_store(sc)
    evals = store.sweep(mechanisms)
    rows = []
    for ev in evals:
        row = {"workload": ev.mix.name, "category": ev.mix.category}
        for mech in mechanisms:
            row[mech] = ev.metric(mech, metric)
        rows.append(row)
    cat_means = {}
    for cat in CATEGORIES:
        sub = [r for r in rows if r["category"] == cat]
        cat_means[cat] = {m: float(np.mean([r[m] for r in sub])) for m in mechanisms}
    return {"figure": figure, "metric": metric, "rows": rows, "category_means": cat_means}


def fig07_pt(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """PT: normalized HS and WS vs. baseline."""
    d = _mechanism_figure("fig07", ("pt",), "hs_norm", sc, store)
    ws = _mechanism_figure("fig07", ("pt",), "ws", sc, store)
    d["rows_ws"] = ws["rows"]
    d["category_means_ws"] = ws["category_means"]
    return d


def fig08_pt_worstcase(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """PT: lowest per-application normalized IPC per workload."""
    return _mechanism_figure("fig08", ("pt",), "worst", sc, store)


def fig09_cp(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """CP: Dunn vs. Pref-CP vs. Pref-CP2 (normalized HS and WS)."""
    d = _mechanism_figure("fig09", CP_MECHS, "hs_norm", sc, store)
    ws = _mechanism_figure("fig09", CP_MECHS, "ws", sc, store)
    d["rows_ws"] = ws["rows"]
    d["category_means_ws"] = ws["category_means"]
    return d


def fig10_cp_worstcase(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    return _mechanism_figure("fig10", CP_MECHS, "worst", sc, store)


def fig11_cmm(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """CMM-a/b/c (normalized HS and WS)."""
    d = _mechanism_figure("fig11", CMM_MECHS, "hs_norm", sc, store)
    ws = _mechanism_figure("fig11", CMM_MECHS, "ws", sc, store)
    d["rows_ws"] = ws["rows"]
    d["category_means_ws"] = ws["category_means"]
    return d


def fig12_cmm_worstcase(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    return _mechanism_figure("fig12", CMM_MECHS, "worst", sc, store)


def fig13_all(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """All seven mechanisms, normalized HS."""
    return _mechanism_figure("fig13", ALL_MECHS, "hs_norm", sc, store)


def fig14_bandwidth(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """Normalized memory traffic of the seven mechanisms."""
    return _mechanism_figure("fig14", ALL_MECHS, "bw_norm", sc, store)


def fig15_stalls(sc: ScaleConfig | None = None, store: EvalStore | None = None) -> dict:
    """Normalized aggregate STALLS_L2_PENDING of the seven mechanisms."""
    return _mechanism_figure("fig15", ALL_MECHS, "stalls_norm", sc, store)


# ------------------------------------------------------------- Table I


def table1_metrics(sc: ScaleConfig | None = None) -> dict:
    """Table I metric values measured on one mixed workload."""
    sc = sc or get_scale()
    mix = make_mixes("pref_agg", 1, seed=sc.seed)[0]
    m = build_machine(mix, sc)
    plat = SimulatedPlatform(m)
    plat.run_interval(max(sc.sample_units, 2048))
    sample = plat.run_interval(sc.sample_units)
    rows = []
    for cpu in range(mix.n_cores):
        mt = compute_metrics(sample, cpu, plat.cycles_per_second)
        rows.append(
            {
                "core": cpu,
                "benchmark": mix.benchmarks[cpu],
                "M1_l2_llc_traffic": mt.l2_llc_traffic,
                "M2_l2_pref_miss_frac": mt.l2_pref_miss_frac,
                "M3_l2_ptr": mt.l2_ptr,
                "M4_pga": mt.pga,
                "M5_l2_pmr": mt.l2_pmr,
                "M6_l2_ppm": mt.l2_ppm,
                "M7_llc_pt": mt.llc_pt,
            }
        )
    return {"figure": "table1", "rows": rows}
