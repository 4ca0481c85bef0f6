"""The CMM controller: drives epochs against a platform.

Mirrors the paper's kernel module: for each epoch it opens a profiling
window (the policy draws sampling intervals through an
:class:`~repro.core.epoch.EpochContext`), applies the policy's chosen
:class:`~repro.core.allocation.ResourceConfig`, and runs one execution
epoch.  All PMU activity — profiling and execution alike — is
accumulated into :class:`RunStats`, matching how the paper measures
whole 2.5-minute runs including controller overhead.

The loop is hardened for real hardware, where the platform contract is
unreliable (see :class:`~repro.platform.base.PlatformError`):

* control writes retry with bounded exponential backoff;
* PMU samples pass through front-end validation/quarantine
  (:class:`~repro.core.frontend.SampleValidator`) — Table I metrics are
  only ever computed from validated samples, with the last-good sample
  standing in up to a staleness limit;
* after ``failure_threshold`` *consecutive* failed epochs the
  controller restores the paper's default configuration (all
  prefetchers on, partitions reset), records a structured
  :class:`DegradedState` on the stats, and keeps the workload running
  uncontrolled instead of raising.

With a fault-free platform none of this machinery changes a single
platform call or counter: results are bit-identical to the plain loop
(differential-tested in ``tests/chaos/test_differential.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochConfig, EpochContext
from repro.core.frontend import (
    AggDetector,
    DetectorConfig,
    SampleValidationConfig,
    SampleValidator,
)
from repro.core.pipeline import RECOVERABLE, ActuateStage
from repro.core.policy_base import Policy
from repro.core.trace import EpochTrace, config_summary
from repro.platform.base import Platform
from repro.sim.msr import PF_ALL_ON
from repro.sim.pmu import Event, PmuSample

__all__ = [
    "RECOVERABLE",
    "ResilienceConfig",
    "DegradedState",
    "EpochRecord",
    "RunStats",
    "CMMController",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the controller's graceful-degradation machinery."""

    #: Retries (beyond the first attempt) for one control-write batch.
    max_write_retries: int = 3
    #: First backoff sleep; doubles per retry (0 disables sleeping).
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    #: K — consecutive failed epochs before the safe-state fallback.
    failure_threshold: int = 3
    #: Intervals the last-good PMU sample may stand in for rejected ones.
    staleness_limit: int = 3
    #: Per-operation attempts while restoring the safe state.
    safe_state_attempts: int = 16
    #: Seeded full-jitter backoff (AWS style): each retry sleeps
    #: ``uniform(0, base * factor**(attempt-1))`` instead of the
    #: deterministic ceiling, so N workers hitting EBUSY together
    #: spread their retries instead of colliding in lockstep.  Off by
    #: default — the deterministic schedule is part of the pinned
    #: bit-identity baseline (tests/chaos/test_differential.py).
    backoff_jitter: bool = False
    #: Seed for the jitter stream (one RNG per controller, so runs
    #: stay reproducible under a fixed seed).
    backoff_jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_write_retries < 0:
            raise ValueError("max_write_retries must be non-negative")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.safe_state_attempts < 1:
            raise ValueError("safe_state_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")


@dataclass(frozen=True)
class DegradedState:
    """Structured report of the safe-state fallback having fired."""

    reason: str                  # the failure that tripped the threshold
    epoch_index: int             # epoch during which degradation happened
    consecutive_failures: int    # the streak length that tripped it
    safe_state_applied: bool     # all-prefetchers-on + reset_partitions stuck
    failures: tuple[str, ...]    # the failure log up to that point


@dataclass
class EpochRecord:
    """What one epoch decided and measured.

    ``exec_sample`` is ``None`` when the execution interval's sample
    was lost; ``failure`` carries the first failure of the epoch (a
    fully-clean epoch has ``failure is None``).
    """

    chosen: ResourceConfig
    sampling_intervals: int
    exec_sample: PmuSample | None
    failure: str | None = None


@dataclass
class RunStats:
    """Accumulated outcome of a controller run."""

    n_cores: int
    cycles_per_second: float
    totals: np.ndarray = field(default=None)  # (n_cores, N_EVENTS)
    wall_cycles: float = 0.0
    epochs: list[EpochRecord] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    degraded: DegradedState | None = None
    #: Structured per-epoch decision records (see repro.core.trace);
    #: empty when the controller runs with ``trace=False``.
    traces: list[EpochTrace] = field(default_factory=list)
    #: Zero-copy go-live fallbacks the run's traces took (see
    #: ``MaterializedTrace.chunk``); 0 for live-generated traces and
    #: for cache-rehydrated stats.  Batch sweeps assert this stays 0.
    trace_fallbacks: int = 0
    #: Batch-engine degradations attributed to this run (lockstep
    #: fork-to-scalar / unbatchable group; see repro.sim.batch).  0 on
    #: scalar machines and for cache-rehydrated stats; results are
    #: bit-identical either way — this only records that the fast path
    #: was lost.
    batch_degradations: int = 0

    def add(self, sample: PmuSample) -> None:
        if self.totals is None:
            self.totals = sample.deltas.copy()
        else:
            self.totals = self.totals + sample.deltas
        self.wall_cycles += sample.wall_cycles

    def ipc(self, cpu: int) -> float:
        cyc = self.totals[cpu, Event.CYCLES]
        return float(self.totals[cpu, Event.INSTRUCTIONS] / cyc) if cyc > 0 else 0.0

    def ipc_all(self) -> np.ndarray:
        return np.array([self.ipc(c) for c in range(self.n_cores)])

    def total(self, event: Event) -> float:
        return float(self.totals[:, event].sum())

    def per_cpu(self, event: Event) -> np.ndarray:
        return self.totals[:, event].copy()

    @property
    def wall_seconds(self) -> float:
        return self.wall_cycles / self.cycles_per_second

    def mem_bandwidth_mbs(self) -> float:
        """Aggregate demand+prefetch memory bandwidth over the run."""
        secs = self.wall_seconds
        if secs <= 0:
            return 0.0
        total = self.total(Event.MEM_DEMAND_BYTES) + self.total(Event.MEM_PREF_BYTES)
        return total / secs / 1e6


class CMMController:
    """Front-end + back-end glue, one policy per controller."""

    def __init__(
        self,
        platform: Platform,
        policy: Policy,
        *,
        epoch_cfg: EpochConfig | None = None,
        detector_cfg: DetectorConfig | None = None,
        resilience_cfg: ResilienceConfig | None = None,
        sleep: Callable[[float], None] = time.sleep,
        trace: bool = True,
    ) -> None:
        self.platform = platform
        self.policy = policy
        self.epoch_cfg = epoch_cfg or EpochConfig()
        self.detector = AggDetector(detector_cfg)
        self.resilience = resilience_cfg or ResilienceConfig()
        self._sleep = sleep
        # Tracing is observability only — on by default, and bit-identical
        # either way (pinned by tests/chaos/test_differential.py).
        self.trace = trace
        self._validator: SampleValidator | None = None
        self._last_chosen: ResourceConfig | None = None
        self._consecutive_failures = 0
        self._jitter_rng = (
            random.Random(self.resilience.backoff_jitter_seed)
            if self.resilience.backoff_jitter
            else None
        )

    # ----------------------------------------------------- resilience

    def _backoff(self, attempt: int) -> None:
        cfg = self.resilience
        if cfg.backoff_base_s > 0:
            delay = cfg.backoff_base_s * cfg.backoff_factor ** (attempt - 1)
            if self._jitter_rng is not None:
                delay = self._jitter_rng.uniform(0.0, delay)
            self._sleep(delay)

    def _apply_config(self, config: ResourceConfig) -> None:
        """Apply a config with bounded retry-with-backoff.

        Control writes are idempotent, so a retry simply replays the
        whole batch.  Raises the last error once retries are exhausted.
        """
        attempt = 0
        while True:
            try:
                config.apply(self.platform)
                return
            except RECOVERABLE:
                attempt += 1
                if attempt > self.resilience.max_write_retries:
                    raise
                self._backoff(attempt)

    def _admit(self, sample: PmuSample) -> PmuSample:
        if self._validator is None:
            return sample
        admitted, _fresh = self._validator.admit(sample)
        return admitted

    def _baseline(self) -> ResourceConfig:
        return ResourceConfig.all_on(self.platform.n_cores, self.platform.llc_ways)

    def _enter_safe_state(self, stats: RunStats, reason: str, epoch_index: int) -> None:
        """Restore the paper's default configuration, best effort.

        Each operation retries independently (``safe_state_attempts``
        per core / per reset) so one persistently failing write cannot
        block the others from being restored.
        """
        cfg = self.resilience
        applied = True
        for core in range(self.platform.n_cores):
            for attempt in range(cfg.safe_state_attempts):
                try:
                    self.platform.set_prefetch_mask(core, PF_ALL_ON)
                    break
                except RECOVERABLE:
                    if attempt + 1 < cfg.safe_state_attempts:
                        self._backoff(min(attempt + 1, 4))
            else:
                applied = False
        for attempt in range(cfg.safe_state_attempts):
            try:
                self.platform.reset_partitions()
                break
            except RECOVERABLE:
                if attempt + 1 < cfg.safe_state_attempts:
                    self._backoff(min(attempt + 1, 4))
        else:
            applied = False
        stats.degraded = DegradedState(
            reason=reason,
            epoch_index=epoch_index,
            consecutive_failures=self._consecutive_failures,
            safe_state_applied=applied,
            failures=tuple(stats.failures),
        )

    def _record_outcome(self, stats: RunStats, record: EpochRecord, epoch_index: int) -> None:
        stats.epochs.append(record)
        if record.failure is None:
            self._consecutive_failures = 0
            return
        self._consecutive_failures += 1
        stats.failures.append(f"epoch {epoch_index}: {record.failure}")
        if stats.degraded is None and self._consecutive_failures >= self.resilience.failure_threshold:
            self._enter_safe_state(stats, record.failure, epoch_index)

    # ----------------------------------------------------- epoch loop

    def run_epoch(self, stats: RunStats) -> EpochRecord:
        epoch_index = len(stats.epochs)
        if stats.degraded is not None:
            return self._run_degraded_epoch(stats, epoch_index)

        ctx = EpochContext(
            self.platform,
            self.detector,
            self.epoch_cfg,
            validator=self._validator,
            applier=self._apply_config,
        )
        failure: str | None = None
        try:
            chosen = self.policy.plan(ctx)
        except RECOVERABLE as e:
            failure = f"profiling failed: {e}"
            chosen = self._last_chosen or self._baseline()
        for interval in ctx.intervals:
            stats.add(interval.sample)

        actuation = ActuateStage(self._apply_config).apply(chosen)
        if actuation.detail["applied"]:
            self._last_chosen = chosen
        else:
            # The platform keeps whatever (possibly partial) allocation
            # the failed batch left behind; the next epoch re-plans.
            failure = failure or f"apply failed: {actuation.detail['error']}"

        exec_sample: PmuSample | None = None
        try:
            exec_sample = self._admit(self.platform.run_interval(self.epoch_cfg.exec_units))
            stats.add(exec_sample)
        except RECOVERABLE as e:
            failure = failure or f"execution interval failed: {e}"

        record = EpochRecord(chosen, len(ctx.intervals), exec_sample, failure=failure)
        self._record_outcome(stats, record, epoch_index)
        if self.trace:
            stats.traces.append(
                EpochTrace(
                    epoch=epoch_index,
                    policy=self.policy.name,
                    stages=list(ctx.stage_traces) + [actuation],
                    winner=config_summary(chosen),
                    sampling_intervals=len(ctx.intervals),
                    failure=failure,
                )
            )
        return record

    def _run_degraded_epoch(self, stats: RunStats, epoch_index: int) -> EpochRecord:
        """Post-fallback epochs: run the workload in safe state, no control."""
        failure: str | None = None
        exec_sample: PmuSample | None = None
        try:
            exec_sample = self._admit(self.platform.run_interval(self.epoch_cfg.exec_units))
            stats.add(exec_sample)
        except RECOVERABLE as e:
            failure = f"degraded execution interval failed: {e}"
            stats.failures.append(f"epoch {epoch_index}: {failure}")
        record = EpochRecord(self._baseline(), 0, exec_sample, failure=failure)
        stats.epochs.append(record)
        if self.trace:
            stats.traces.append(
                EpochTrace(
                    epoch=epoch_index,
                    policy=self.policy.name,
                    winner=config_summary(record.chosen),
                    sampling_intervals=0,
                    failure=failure,
                    degraded=True,
                )
            )
        return record

    def run(self, n_epochs: int) -> RunStats:
        if n_epochs < 1:
            raise ValueError("need at least one epoch")
        stats = RunStats(self.platform.n_cores, self.platform.cycles_per_second)
        self._validator = SampleValidator(
            SampleValidationConfig(staleness_limit=self.resilience.staleness_limit)
        )
        self._last_chosen = None
        self._consecutive_failures = 0
        if self.epoch_cfg.warmup_units > 0:
            # Warm caches under the baseline configuration so the first
            # detection interval doesn't mistake cold-start misses for
            # steady-state prefetch aggressiveness.
            try:
                self._apply_config(self._baseline())
                stats.add(self._admit(self.platform.run_interval(self.epoch_cfg.warmup_units)))
            except RECOVERABLE as e:
                stats.failures.append(f"warmup: {e}")
        for _ in range(n_epochs):
            self.run_epoch(stats)
        fallbacks = getattr(self.platform, "trace_fallbacks", None)
        if callable(fallbacks):
            stats.trace_fallbacks = int(fallbacks())
        degradations = getattr(self.platform, "batch_degradations", None)
        if callable(degradations):
            stats.batch_degradations = int(degradations())
        return stats
