"""CMM — Coordinated Multi-resource Management (the paper's contribution).

Front-end (detection) and back-end (allocation) are decoupled, as in
the paper (Sec. III): the front-end identifies prefetch-aggressive
cores from Table I metrics; the back-end allocates two resources —
prefetchers (via throttling) and LLC ways (via CAT partitions) —
periodically, using short sampling intervals scored by the harmonic
mean of per-core IPC.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.allocation": ("ResourceConfig",),
    "repro.core.controller": ("CMMController", "DegradedState", "EpochRecord", "ResilienceConfig"),
    "repro.core.epoch": ("EpochConfig", "EpochContext", "IntervalResult"),
    "repro.core.frontend": (
        "AggDetector", "DetectorConfig", "SampleRejected", "SampleValidationConfig",
        "SampleValidator",
    ),
    "repro.core.metrics_defs": ("TableIMetrics", "CoreSummary", "summarize_sample"),
    "repro.core.pipeline": (
        "ActuateStage", "ClassifyStage", "CoordinatedThrottleStage", "DecisionPipeline",
        "DunnStage", "PartitionStage", "PipelineState", "SenseStage", "Stage",
        "SweepScorer", "ThrottleSweepStage",
    ),
    "repro.core.policies": ("POLICIES", "make_policy", "policy_names"),
    "repro.core.runstats": ("RunStats",),
    "repro.core.trace": ("TRACE_SCHEMA_VERSION", "EpochTrace", "StageTrace", "TraceSchemaError"),
})

__all__ = [
    "ResourceConfig",
    "CMMController",
    "DegradedState",
    "EpochRecord",
    "ResilienceConfig",
    "RunStats",
    "EpochConfig",
    "EpochContext",
    "IntervalResult",
    "AggDetector",
    "DetectorConfig",
    "SampleRejected",
    "SampleValidationConfig",
    "SampleValidator",
    "TableIMetrics",
    "CoreSummary",
    "summarize_sample",
    "POLICIES",
    "make_policy",
    "policy_names",
    "ActuateStage",
    "ClassifyStage",
    "CoordinatedThrottleStage",
    "DecisionPipeline",
    "DunnStage",
    "PartitionStage",
    "PipelineState",
    "SenseStage",
    "Stage",
    "SweepScorer",
    "ThrottleSweepStage",
    "TRACE_SCHEMA_VERSION",
    "EpochTrace",
    "StageTrace",
    "TraceSchemaError",
]
