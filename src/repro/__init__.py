"""repro — reproduction of *Combining Prefetch Control and Cache
Partitioning to Improve Multicore Performance* (Sun, Shen, Veidenbaum,
IPDPS 2019).

Public API tour:

* ``repro.sim`` — the multicore simulator substrate (caches, the four
  Intel-style prefetchers, CAT way-partitioned LLC, DRAM bandwidth,
  PMU);
* ``repro.platform`` — the control surface (simulated backend, plus a
  resctrl/MSR backend for real hardware);
* ``repro.core`` — CMM itself: Table I metrics, the Fig. 5 detector,
  and the back-end policies (PT, Pref-CP, Pref-CP2, Dunn, CMM-a/b/c);
* ``repro.workloads`` — SPEC CPU2006-like synthetic benchmarks, the
  Rand Access micro-benchmark, and the paper's workload mixes;
* ``repro.metrics`` — HS / WS / ANTT / worst-case speedup;
* ``repro.experiments`` — the **experiment engine**
  (``repro.experiments.engine``): an :class:`ExperimentSession`
  expands a declarative :class:`RunSpec` into a deduplicated plan,
  executes cache misses across a process pool, and replays hits from
  a content-addressed on-disk store (``REPRO_CACHE_DIR`` /
  ``REPRO_WORKERS``; see ``docs/experiment_engine.md``);
* ``repro.analysis`` — the declarative analysis layer (see
  ``docs/analysis.md``): tidy tables with a round-trip-safe CSV codec,
  per-figure canonical CSV + Vega-Lite artifacts
  (:func:`build_artifacts` / ``repro figures``), and multi-seed
  sweeps with seeded-bootstrap CIs and paired significance tests
  (:func:`run_analysis` / ``repro analyze``).

Running things:

* :func:`run` — one (workload, mechanism-or-policy) simulation through
  the default session.
* :func:`simulate_batch` — many runs at once: specs sharing a workload
  mix are executed on one batch kernel (shared zero-copy trace, masked
  lockstep over grouped cores and a grouped LLC), bit-identical to
  running each on its own machine.
* :meth:`ExperimentSession.evaluate` / :meth:`ExperimentSession.sweep`
  — baseline-normalized metrics for one or many workloads.
* Sessions **own their caches** (dependency injection) and pick their
  simulation engine (:mod:`repro.sim.engines`) from the ``engine=``
  argument, then the ``REPRO_SIM_ENGINE`` env var, then ``batch``.
* ``repro serve`` (:mod:`repro.service`) exposes a session to many
  concurrent clients: single-flight dedup per cache key, bounded
  queues and a crash-consistent sweep journal (``--resume``) — see
  ``docs/robustness.md``.

The 1.x shims ``run_mechanism`` / ``run_policy_object`` /
``evaluate_workload`` / ``ALONE_CACHE`` were removed in 2.0 — see
CHANGELOG.md for the migration table.

Quickstart::

    from repro import ExperimentSession
    session = ExperimentSession(max_workers=4)
    ev = session.evaluate(make_mixes("pref_agg", 1)[0], ("cmm-a",))
    print(ev.metrics["cmm-a"]["hs_norm"])
"""

from repro._lazy import lazy_exports

__version__ = "9.0.0"

#: Every public name, by the module that defines it.  Resolved on first
#: access (PEP 562), so ``import repro`` loads no subpackage: a warm
#: replay never imports the simulator, and only ``serve`` imports the
#: service (and asyncio).
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.analyze": ("run_analysis",),
    "repro.analysis.artifacts": ("FigureSpec", "build_artifacts", "write_artifacts"),
    "repro.analysis.stats": ("bootstrap_ci",),
    "repro.analysis.tables": ("TableBuilder", "TidyTable"),
    "repro.core.allocation": ("ResourceConfig",),
    "repro.core.controller": ("CMMController",),
    "repro.core.epoch": ("EpochConfig",),
    "repro.core.pipeline": ("DecisionPipeline", "Stage", "SweepScorer"),
    "repro.core.policies": ("make_policy", "policy_names"),
    "repro.core.trace": ("EpochTrace", "StageTrace"),
    "repro.experiments.batch": ("BatchRunSpec", "simulate_batch"),
    "repro.experiments.config": ("ScaleConfig", "get_scale"),
    "repro.experiments.engine": (
        "ExperimentError", "ExperimentSession", "ResultCache", "RunSpec",
        "default_session", "run", "set_default_session",
    ),
    "repro.experiments.runner": ("RunResult", "WorkloadEval"),
    "repro.platform.base": ("PlatformError",),
    "repro.platform.faults": ("FaultPlan", "FaultyPlatform"),
    "repro.platform.simulated": ("SimulatedPlatform",),
    "repro.service.server": ("ExperimentService", "ServiceClient"),
    "repro.sim.engines": (
        "EngineSelectionError", "EngineSpec", "available_engines", "resolve_engine",
    ),
    "repro.sim.machine": ("Machine",),
    "repro.sim.params": ("MachineParams", "default_params", "scaled_params"),
    "repro.workloads.mixes": ("WorkloadMix", "all_mixes", "make_mixes"),
})


__all__ = [
    "BatchRunSpec",
    "FigureSpec",
    "TableBuilder",
    "TidyTable",
    "bootstrap_ci",
    "build_artifacts",
    "run_analysis",
    "write_artifacts",
    "CMMController",
    "DecisionPipeline",
    "EngineSelectionError",
    "EngineSpec",
    "EpochConfig",
    "EpochTrace",
    "ExperimentError",
    "ExperimentService",
    "ExperimentSession",
    "FaultPlan",
    "FaultyPlatform",
    "Machine",
    "MachineParams",
    "PlatformError",
    "ResourceConfig",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "ScaleConfig",
    "ServiceClient",
    "SimulatedPlatform",
    "Stage",
    "StageTrace",
    "SweepScorer",
    "WorkloadEval",
    "WorkloadMix",
    "all_mixes",
    "available_engines",
    "default_params",
    "default_session",
    "get_scale",
    "make_mixes",
    "make_policy",
    "policy_names",
    "quick_run",
    "resolve_engine",
    "run",
    "scaled_params",
    "set_default_session",
    "simulate_batch",
    "__version__",
]


def quick_run(category: str = "pref_agg", *, mechanism: str = "cmm-a", scale: str | None = None):
    """Evaluate one workload of ``category`` under ``mechanism`` vs. baseline;
    returns its :class:`WorkloadEval`."""
    from repro.experiments.config import get_scale
    from repro.experiments.engine import default_session
    from repro.workloads.mixes import make_mixes

    sc = get_scale(scale)
    mix = make_mixes(category, 1, seed=sc.seed)[0]
    return default_session().evaluate(mix, (mechanism,), sc)
