"""Platform backend that drives the simulator."""

from __future__ import annotations

from repro.platform.base import Platform
from repro.sim.machine import Machine
from repro.sim.pmu import PmuSample


class SimulatedPlatform(Platform):
    """Adapts a :class:`repro.sim.machine.Machine` to :class:`Platform`.

    Interval units are demand accesses per active core.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    @property
    def n_cores(self) -> int:
        return self.machine.params.n_cores

    @property
    def llc_ways(self) -> int:
        return self.machine.params.llc.ways

    @property
    def cycles_per_second(self) -> float:
        return self.machine.params.cycles_per_second

    def set_prefetch_mask(self, core: int, mask: int) -> None:
        self.machine.prefetch_msr.set_mask(core, mask)

    def prefetch_mask(self, core: int) -> int:
        return self.machine.prefetch_msr.get_mask(core)

    def set_clos_cbm(self, clos: int, cbm: int) -> None:
        self.machine.cat.set_cbm(clos, cbm)

    def assign_core_clos(self, core: int, clos: int) -> None:
        self.machine.cat.assign_core(core, clos)

    def reset_partitions(self) -> None:
        self.machine.cat.reset()

    def partitions_are_reset(self) -> bool:
        cat = self.machine.cat
        full = (1 << cat.total_ways) - 1
        return all(c == 0 for c in cat._core_clos) and cat.get_cbm(0) == full

    def run_interval(self, units: int) -> PmuSample:
        snap = self.machine.pmu.snapshot()
        self.machine.run_accesses(units)
        return self.machine.pmu.delta_since(snap)
