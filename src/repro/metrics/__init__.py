"""System-level performance/fairness metrics (paper Sec. IV-C)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.speedup": (
        "antt", "harmonic_mean", "harmonic_speedup", "normalized_ipcs",
        "weighted_speedup", "worst_case_speedup",
    ),
})

__all__ = [
    "antt",
    "harmonic_mean",
    "harmonic_speedup",
    "normalized_ipcs",
    "weighted_speedup",
    "worst_case_speedup",
]
