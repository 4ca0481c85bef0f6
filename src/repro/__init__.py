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
  simulation engine through the :mod:`repro.sim.engines` registry
  (``engine=`` argument, ``REPRO_SIM_ENGINE`` env var, or ``auto``).
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

from repro.analysis import (
    FigureSpec,
    TableBuilder,
    TidyTable,
    bootstrap_ci,
    build_artifacts,
    run_analysis,
    write_artifacts,
)
from repro.core import CMMController, make_policy, policy_names
from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochConfig
from repro.core.pipeline import DecisionPipeline, Stage, SweepScorer
from repro.core.trace import EpochTrace, StageTrace
from repro.experiments.config import ScaleConfig, get_scale
from repro.experiments.engine import (
    ExperimentError,
    ExperimentSession,
    ResultCache,
    RunSpec,
    default_session,
    run,
    set_default_session,
)
from repro.experiments.batch import BatchRunSpec, simulate_batch
from repro.experiments.runner import RunResult, WorkloadEval
from repro.platform.base import PlatformError
from repro.platform.faults import FaultPlan, FaultyPlatform
from repro.platform.simulated import SimulatedPlatform
from repro.sim.engines import (
    EngineSelectionError,
    EngineSpec,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.sim.machine import Machine
from repro.sim.params import MachineParams, default_params, scaled_params
from repro.workloads.mixes import WorkloadMix, all_mixes, make_mixes

__version__ = "5.0.0"

#: Exported through ``__getattr__`` (PEP 562): the service imports
#: asyncio, which ``import repro`` and every CLI command but ``serve``
#: never use.
_SERVICE_EXPORTS = ("ExperimentService", "ServiceClient")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        import repro.service

        value = globals()[name] = getattr(repro.service, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "register_engine",
    "resolve_engine",
    "run",
    "scaled_params",
    "set_default_session",
    "simulate_batch",
    "__version__",
]


def quick_run(category: str = "pref_agg", *, mechanism: str = "cmm-a", scale: str | None = None) -> WorkloadEval:
    """Evaluate one workload of ``category`` under ``mechanism`` vs. baseline."""
    sc = get_scale(scale)
    mix = make_mixes(category, 1, seed=sc.seed)[0]
    return default_session().evaluate(mix, (mechanism,), sc)
