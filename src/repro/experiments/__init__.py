"""Evaluation harness: scales, the experiment engine and the runners
the figure registry (:mod:`repro.analysis.artifacts`) builds on.

Scales (``REPRO_SCALE`` env var or explicit argument):

* ``tiny``  — CI-sized: 1/16-capacity machine, 2 workloads/category,
  one epoch; seconds per figure.  The default for pytest benchmarks.
* ``small`` — 4 workloads/category, 2 epochs; minutes for the full set.
* ``full``  — the paper's shape: 10 workloads/category, 3 epochs,
  1/8-capacity machine.

Execution goes through :mod:`repro.experiments.engine`: an
:class:`ExperimentSession` deduplicates runs, fans cache misses out
over a process pool (``REPRO_WORKERS``), and persists results in a
content-addressed on-disk store (``REPRO_CACHE_DIR``), so regenerating
a figure replays cached runs instead of re-simulating them.

Shapes (who wins, by what factor) are stable across scales; absolute
values are simulator units, not Xeon measurements (see EXPERIMENTS.md).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.batch": ("BatchRunSpec", "simulate_batch"),
    "repro.experiments.config": ("ScaleConfig", "get_scale", "SCALES"),
    "repro.experiments.engine": (
        "ExperimentSession", "PlannedRun", "ResultCache", "RunRecord", "RunSpec",
        "default_session", "set_default_session",
    ),
    "repro.experiments.runner": ("RunResult", "WorkloadEval", "build_machine"),
})

__all__ = [
    "ScaleConfig",
    "get_scale",
    "SCALES",
    "BatchRunSpec",
    "ExperimentSession",
    "PlannedRun",
    "ResultCache",
    "RunRecord",
    "RunResult",
    "RunSpec",
    "WorkloadEval",
    "build_machine",
    "default_session",
    "set_default_session",
    "simulate_batch",
]
