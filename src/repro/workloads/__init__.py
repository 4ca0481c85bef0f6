"""Synthetic SPEC CPU2006-like workloads and the paper's workload mixes.

SPEC binaries are not available offline, so each benchmark is a
parameterised stochastic access-pattern model (see DESIGN.md section 2)
whose *classification* — prefetch aggressive / prefetch friendly /
LLC sensitive, per the criteria of the paper's Figs. 1-3 — matches the
real benchmark it is named after.  Tests verify the measured
classifications against the intended ones.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.speclike": (
        "BENCHMARKS", "BenchmarkSpec", "StreamSpec", "benchmark", "benchmark_names",
        "build_trace",
    ),
    "repro.workloads.mixes": ("WorkloadMix", "make_mixes", "all_mixes", "CATEGORIES"),
})

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "StreamSpec",
    "benchmark",
    "benchmark_names",
    "build_trace",
    "WorkloadMix",
    "make_mixes",
    "all_mixes",
    "CATEGORIES",
]
