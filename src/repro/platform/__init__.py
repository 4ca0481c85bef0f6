"""Hardware-control backends.

The CMM controller is written against the abstract :class:`Platform`
interface.  Two backends exist:

* :class:`~repro.platform.simulated.SimulatedPlatform` — drives the
  simulator in :mod:`repro.sim` (the default everywhere in this repo);
* :class:`~repro.platform.linux.LinuxPlatform` — drives real hardware
  through the resctrl filesystem (Intel CAT) and ``/dev/cpu/*/msr``
  (prefetch MSR 0x1A4), the same interfaces the paper's kernel module
  programs.  It is exercised in tests against a fake filesystem since
  no Xeon is available here.

Any backend can further be wrapped in
:class:`~repro.platform.faults.FaultyPlatform` to inject the failure
modes of real hardware (failed writes, dropped/corrupt PMU samples)
from a seeded, serializable :class:`~repro.platform.faults.FaultPlan` —
see ``docs/robustness.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.platform.base": ("Platform", "PlatformError"),
    "repro.platform.faults": ("FaultPlan", "FaultyPlatform", "scenario_plan", "verify_safe_state"),
    "repro.platform.simulated": ("SimulatedPlatform",),
})

__all__ = [
    "Platform",
    "PlatformError",
    "FaultPlan",
    "FaultyPlatform",
    "scenario_plan",
    "verify_safe_state",
    "SimulatedPlatform",
]
