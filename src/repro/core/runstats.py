"""What a controller run accumulated: :class:`RunStats`.

Kept apart from :mod:`repro.core.controller` so that code which only
reads results — cache replays, evaluations, figures — needs nothing but
NumPy and the PMU event table, and never imports the controller, the
decision pipeline or the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.pmu import Event, PmuSample

if TYPE_CHECKING:
    from repro.core.controller import DegradedState, EpochRecord
    from repro.core.trace import EpochTrace

__all__ = ["RunStats"]


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
    #: Structured per-epoch decision records (see repro.core.trace), one
    #: per epoch; empty for cache-rehydrated stats whose traces are gone.
    traces: list[EpochTrace] = field(default_factory=list)

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
