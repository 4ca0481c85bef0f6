"""Back-end policy interface and the baseline (no-control) policy."""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochContext
from repro.core.metrics_defs import CoreSummary


class Policy(ABC):
    """One back-end mechanism: plans the next execution epoch's allocation.

    ``plan`` runs during a profiling epoch; it may draw sampling
    intervals through the context (up to the interval budget) and must
    return the :class:`ResourceConfig` to apply for the next execution
    epoch.
    """

    name: str = "policy"

    @abstractmethod
    def plan(self, ctx: EpochContext) -> ResourceConfig: ...


_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real}


def check_param(name: str, value, kind: type, low: float | None = None, *, strict: bool = False):
    """``value`` unchanged if it is a ``kind`` no less than ``low`` (above
    it when ``strict``); ``TypeError`` / ``ValueError`` otherwise.

    A policy constructor runs every knob through this, so a planned run
    with a bad value is refused before it is keyed.  Numbers follow
    Python's numeric tower: an ``int`` knob takes any integer, a
    ``float`` knob any finite real; a ``bool`` knob takes only a bool.
    """
    if not isinstance(value, _KINDS[kind]):
        raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__} {value!r}")
    if kind is not bool:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if low is not None and (value <= low if strict else value < low):
            raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")
    return value


class BaselinePolicy(Policy):
    """The paper's baseline: all prefetchers on, no partitioning, and
    no profiling overhead at all."""

    name = "baseline"

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        return ctx.baseline_config()


def friendliness_split(
    on: list[CoreSummary],
    off: list[CoreSummary],
    agg_set: tuple[int, ...],
    *,
    speedup_threshold: float = 0.50,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the Agg set into (friendly, unfriendly) cores.

    Per paper Sec. III-B1: compare each Agg core's IPC in the all-on
    interval against the interval with its prefetchers off; a speedup
    from prefetching above the threshold ("say 50%") marks the core
    prefetch friendly.
    """
    friendly: list[int] = []
    unfriendly: list[int] = []
    for c in agg_set:
        ipc_on = on[c].ipc
        ipc_off = off[c].ipc
        if ipc_off > 0:
            speedup = ipc_on / ipc_off - 1.0
        elif ipc_on > 0:
            # IPC collapsed to zero with prefetchers off: effectively
            # infinite prefetch speedup — the core *needs* prefetching.
            speedup = math.inf
        else:
            speedup = 0.0  # idle either way; nothing to protect
        (friendly if speedup > speedup_threshold else unfriendly).append(c)
    return tuple(friendly), tuple(unfriendly)
