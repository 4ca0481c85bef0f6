"""Per-phase kernel profiling counters (opt-in, zero-cost when off).

The simulator's hot paths are split into a handful of *phases* —
trace serve, core advance, LLC serve, stream merge, timing solve —
and each phase's leaf kernel is wrapped in a monotonic-clock timer
guarded by :data:`ON`.  When profiling is off (the default) the guard
is a single module-attribute check per kernel call; when on, every
phase accumulates ``(seconds, calls)`` into process-wide counters that
:func:`snapshot`/:func:`delta_since` expose for reporting.

Enable with ``$REPRO_KERNEL_PROFILE=1`` (read at import) or
:func:`enable` at runtime.  Consumers:

* ``CMMController.run`` stores the per-run delta in
  ``RunStats.kernel_profile`` (plus a ``controller`` phase — run wall
  time not spent in any simulation kernel).
* ``repro trace`` prints a profile footer after the decision timeline.

Timers live at the *leaf* kernels only (``run_core_chunk``,
``GroupedLLC.serve``, ...) so nested call paths never double-count a
phase; ``trace_serve`` is the one deliberate sub-phase, measured inside
the core advance it is part of.
"""

from __future__ import annotations

import os
import time

__all__ = [
    "ON",
    "PHASES",
    "add",
    "clock",
    "delta_since",
    "disable",
    "enable",
    "reset",
    "snapshot",
    "summary_lines",
]

ENV_VAR = "REPRO_KERNEL_PROFILE"

#: Phase names in reporting order.  ``trace_serve`` is a sub-phase of
#: ``core_advance``; ``controller`` only appears in per-run deltas
#: (computed by the controller as wall minus kernel time).
PHASES = (
    "trace_serve",
    "core_advance",
    "llc_serve",
    "merge",
    "timing",
    "controller",
)


def _env_on() -> bool:
    v = os.environ.get(ENV_VAR, "").strip().lower()
    return v not in ("", "0", "off", "false", "no")


#: The global profiling switch; leaf kernels check this attribute.
ON = _env_on()

clock = time.perf_counter

_seconds: dict[str, float] = {}
_calls: dict[str, int] = {}


def enable() -> None:
    """Turn phase timing on process-wide."""
    global ON
    ON = True


def disable() -> None:
    """Turn phase timing off (counters keep their accumulated values)."""
    global ON
    ON = False


def reset() -> None:
    """Zero all accumulated counters."""
    _seconds.clear()
    _calls.clear()


def add(phase: str, dt: float, calls: int = 1) -> None:
    """Accumulate ``dt`` seconds (and ``calls`` invocations) into ``phase``."""
    _seconds[phase] = _seconds.get(phase, 0.0) + dt
    _calls[phase] = _calls.get(phase, 0) + calls


def snapshot() -> dict[str, tuple[float, int]]:
    """Current counters as ``{phase: (seconds, calls)}``."""
    return {p: (_seconds[p], _calls.get(p, 0)) for p in _seconds}


def delta_since(prev: dict[str, tuple[float, int]]) -> dict[str, dict]:
    """Counters accumulated since ``prev`` (a :func:`snapshot` result).

    Returns ``{phase: {"seconds": s, "calls": c}}`` with zero-delta
    phases omitted — JSON-friendly for ``RunStats.kernel_profile``.
    """
    out: dict[str, dict] = {}
    for phase, (sec, n) in snapshot().items():
        p0, c0 = prev.get(phase, (0.0, 0))
        dsec = sec - p0
        dn = n - c0
        if dn or dsec:
            out[phase] = {"seconds": dsec, "calls": dn}
    return out


def summary_lines(profile: dict[str, dict] | None = None) -> list[str]:
    """Human-readable per-phase lines for CLI/bench footers."""
    if profile is None:
        profile = {p: {"seconds": s, "calls": c} for p, (s, c) in snapshot().items()}
    total = sum(d.get("seconds", 0.0) for d in profile.values()) or 1.0
    lines = []
    for phase in PHASES:
        d = profile.get(phase)
        if not d:
            continue
        sec = d.get("seconds", 0.0)
        lines.append(
            f"{phase:>12s}: {sec:9.4f}s  {100.0 * sec / total:5.1f}%"
            f"  ({int(d.get('calls', 0))} calls)"
        )
    for phase in sorted(set(profile) - set(PHASES)):
        d = profile[phase]
        lines.append(
            f"{phase:>12s}: {d.get('seconds', 0.0):9.4f}s  "
            f"({int(d.get('calls', 0))} calls)"
        )
    return lines
