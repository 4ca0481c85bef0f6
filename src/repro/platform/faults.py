"""Fault injection for :class:`Platform` backends.

On real hardware the CMM control surface is unreliable: MSR and
resctrl writes fail transiently, PMU reads get dropped, counters wrap,
and multiplexed events come back scaled by bogus factors.  This module
makes those failure modes *reproducible in CI* without hardware:

* :class:`FaultPlan` — a seeded, serializable description of which
  faults to inject at which rates;
* :class:`FaultyPlatform` — wraps any backend and injects the planned
  faults into its control writes and PMU samples, deterministically
  for a given plan and call sequence;
* :data:`SCENARIOS` / :func:`scenario_plan` — named chaos scenarios
  (``flaky-writes``, ``dropped-samples``, ...) used by the chaos test
  suite and the ``repro chaos`` CLI command.

The injected faults map one-to-one onto real failure modes — see the
failure-mode table in ``docs/real_hardware.md``.

``reset_partitions`` and the mask/partition *reads* are deliberately
never faulted: they are the controller's safety net (restoring the
paper's default all-prefetchers-on configuration), and fault-injecting
the last-resort path would only test the random number generator.
"""

from __future__ import annotations

import errno
import json
import random
from dataclasses import asdict, dataclass, fields

import numpy as np

from repro.platform.base import Platform, PlatformError
from repro.sim.msr import PF_ALL_ON
from repro.sim.pmu import N_EVENTS, PmuSample

__all__ = [
    "WRAP_DELTA",
    "FaultPlan",
    "FaultyPlatform",
    "SCENARIOS",
    "scenario_plan",
    "verify_no_segment_leaks",
    "verify_safe_state",
]

#: Magnitude added/subtracted to a counter delta to model a 48-bit
#: PMC wrapping between two reads (perf counters are 48-bit on Intel).
WRAP_DELTA = float(2**48)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, serializable description of the faults to inject.

    Each rate is the per-call (or per-sample) probability in ``[0, 1]``
    of injecting that fault.  Two plans with the same fields produce
    the same fault sequence for the same sequence of platform calls.
    """

    seed: int = 0
    write_fail: float = 0.0        # PlatformError on a control write
    write_oserror: float = 0.0     # transient resctrl-style OSError (EBUSY)
    sample_drop: float = 0.0       # run_interval loses its PMU sample
    sample_nan: float = 0.0        # non-finite cells in the sample
    sample_wrap: float = 0.0       # 48-bit counter wrap between reads
    sample_multiplex: float = 0.0  # whole sample scaled by a bogus factor

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "seed":
                continue
            rate = getattr(self, f.name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{f.name} must be a probability in [0, 1], got {rate}")

    # -- serialization (chaos scenarios travel through CLI/CI as JSON) --

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        return cls.from_dict(json.loads(blob))


#: Named chaos scenarios: rate presets a seed turns into a FaultPlan.
SCENARIOS: dict[str, dict[str, float]] = {
    "flaky-writes": {"write_fail": 0.25, "write_oserror": 0.15},
    "dropped-samples": {"sample_drop": 0.30},
    "wrapped-counters": {"sample_wrap": 0.35},
    "noisy-pmu": {"sample_nan": 0.25, "sample_multiplex": 0.20},
    "meltdown": {
        "write_fail": 0.20,
        "write_oserror": 0.10,
        "sample_drop": 0.15,
        "sample_nan": 0.15,
        "sample_wrap": 0.15,
        "sample_multiplex": 0.10,
    },
}


def scenario_plan(name: str, seed: int = 0) -> FaultPlan:
    """The :class:`FaultPlan` for a named scenario."""
    try:
        rates = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown chaos scenario {name!r}; one of {sorted(SCENARIOS)}") from None
    return FaultPlan(seed=seed, **rates)


class FaultyPlatform(Platform):
    """Wraps any backend and injects the faults a :class:`FaultPlan` plans.

    Control-write faults are raised *before* the write reaches the
    inner backend (the write failed).  Sample faults are applied
    *after* the interval ran — on real hardware the workload advances
    whether or not the PMU read succeeds — and never mutate the inner
    backend's counters.  ``injected`` tallies every fault by kind.
    """

    def __init__(self, inner: Platform, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.injected: dict[str, int] = {}

    # ------------------------------------------------------- identity

    @property
    def n_cores(self) -> int:
        return self.inner.n_cores

    @property
    def llc_ways(self) -> int:
        return self.inner.llc_ways

    @property
    def cycles_per_second(self) -> float:
        return self.inner.cycles_per_second

    # ------------------------------------------------------ injection

    def _roll(self, rate: float) -> bool:
        # Always draw so the stream stays aligned across rate settings
        # of the *same* plan; zero-rate draws still consume one number.
        return self._rng.random() < rate

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _maybe_fail_write(self, op: str) -> None:
        if self._roll(self.plan.write_fail):
            self._count("write_fail")
            raise PlatformError(f"injected fault: {op} write failed")
        if self._roll(self.plan.write_oserror):
            self._count("write_oserror")
            raise OSError(errno.EBUSY, f"injected fault: transient resctrl error during {op}")

    # ------------------------------------------------- control writes

    def set_prefetch_mask(self, core: int, mask: int) -> None:
        self._maybe_fail_write("set_prefetch_mask")
        self.inner.set_prefetch_mask(core, mask)

    def prefetch_mask(self, core: int) -> int:
        return self.inner.prefetch_mask(core)

    def set_clos_cbm(self, clos: int, cbm: int) -> None:
        self._maybe_fail_write("set_clos_cbm")
        self.inner.set_clos_cbm(clos, cbm)

    def assign_core_clos(self, core: int, clos: int) -> None:
        self._maybe_fail_write("assign_core_clos")
        self.inner.assign_core_clos(core, clos)

    def reset_partitions(self) -> None:
        self.inner.reset_partitions()

    def partitions_are_reset(self) -> bool | None:
        return self.inner.partitions_are_reset()

    # ---------------------------------------------------- measurement

    def run_interval(self, units: int) -> PmuSample:
        sample = self.inner.run_interval(units)
        if self._roll(self.plan.sample_drop):
            self._count("sample_drop")
            raise PlatformError("injected fault: PMU sample dropped")

        deltas = sample.deltas
        corrupted = None

        def writable() -> np.ndarray:
            nonlocal corrupted
            if corrupted is None:
                corrupted = np.array(deltas, dtype=float, copy=True)
            return corrupted

        if self._roll(self.plan.sample_nan):
            self._count("sample_nan")
            d = writable()
            for _ in range(self._rng.randint(1, 3)):
                d[self._rng.randrange(d.shape[0]), self._rng.randrange(N_EVENTS)] = np.nan
        if self._roll(self.plan.sample_wrap):
            self._count("sample_wrap")
            d = writable()
            cpu = self._rng.randrange(d.shape[0])
            event = self._rng.randrange(N_EVENTS)
            # A wrap shows up as a giant positive delta (unsigned read)
            # or a negative one (signed subtraction) — inject both.
            d[cpu, event] += WRAP_DELTA if self._rng.random() < 0.5 else -WRAP_DELTA
        if self._roll(self.plan.sample_multiplex):
            self._count("sample_multiplex")
            corrupted = writable() * self._rng.uniform(1.5, 4.0)

        if corrupted is None:
            return sample
        return PmuSample(corrupted, sample.wall_cycles)


def verify_safe_state(platform: Platform) -> list[str]:
    """Problems keeping ``platform`` from the paper's default state.

    Safe state means every core's prefetchers are enabled
    (``PF_ALL_ON``) and the LLC partitions are reset.  Returns an empty
    list when the platform is verifiably safe; partition state that a
    backend cannot observe (``partitions_are_reset() is None``) is not
    counted against it.
    """
    problems: list[str] = []
    for core in range(platform.n_cores):
        try:
            mask = platform.prefetch_mask(core)
        except Exception as e:  # read path should not fault, but be safe
            problems.append(f"core {core}: prefetch mask unreadable ({e})")
            continue
        if mask != PF_ALL_ON:
            problems.append(f"core {core}: prefetch mask {mask:#x} != PF_ALL_ON")
    if platform.partitions_are_reset() is False:
        problems.append("LLC partitions not reset")
    return problems


def verify_no_segment_leaks(pid: int) -> list[str]:
    """Problems with process ``pid``'s shared-memory state, as a
    :func:`verify_safe_state`-style list.

    The trace plane (:mod:`repro.sim.tracestore`) publishes
    parent-owned ``/dev/shm`` segments; a session that exits — normally
    or through a crash — must leave none behind.  Each leaked segment
    that ``pid`` published (segment names start with it, so another
    process's live session is not a leak) is one problem string.  Used
    by the chaos suite after killing pool workers mid-run, and worth
    running after any experiment crash.
    """
    from repro.sim.tracestore import SHM_PREFIX, shm_residue

    residue = shm_residue(f"{SHM_PREFIX}{pid:x}-")
    return [f"leaked shared-memory segment: {name}" for name in residue]
