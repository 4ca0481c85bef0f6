"""Hypothesis properties of whole-machine PMU accounting.

Conservation laws that must hold for any workload/configuration:
the miss hierarchy is monotone, memory demand bytes equal L3 load
misses times the line size, counters never go negative and a disabled
prefetcher level requests nothing.  The drawn traces include a
``strided`` walk, the one kind whose IP-stride entries turn confident,
so the laws also see L1 stride emissions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.machine import Machine
from repro.sim.params import CacheGeometry, MachineParams
from repro.sim.pmu import Event
from repro.sim.trace import (
    PointerChaseStream,
    RandomStream,
    SequentialStream,
    StridedStream,
    TraceGenerator,
)

PARAMS = MachineParams(
    n_cores=2,
    l1=CacheGeometry(8 * 64 * 2, 2),
    l2=CacheGeometry(32 * 64 * 4, 4),
    llc=CacheGeometry(64 * 64 * 8, 8),
)


@st.composite
def machine_runs(draw):
    """A machine with 1-2 random traces, a prefetch config, and a length."""
    rng_seed = draw(st.integers(0, 2**20))
    n_active = draw(st.integers(1, 2))
    masks = [draw(st.integers(0, 0xF)) for _ in range(2)]
    n = draw(st.integers(200, 1500))
    kinds = [draw(st.sampled_from(["seq", "rand", "chase", "strided"])) for _ in range(n_active)]
    return rng_seed, masks, n, kinds


def build(rng_seed, masks, kinds):
    m = Machine(PARAMS, quantum=256)
    rng = np.random.default_rng(rng_seed)
    for core, kind in enumerate(kinds):
        base = m.core_base_line(core)
        if kind == "seq":
            s = SequentialStream(1, base, int(rng.integers(64, 4096)))
        elif kind == "strided":
            s = StridedStream(
                1, base, int(rng.integers(64, 4096)), stride=int(rng.choice([2, 3, 16, -7]))
            )
        elif kind == "rand":
            s = RandomStream(1, base, int(rng.integers(256, 20000)), rng)
        else:
            s = PointerChaseStream(1, base, int(rng.integers(32, 2048)), rng)
        m.attach_trace(core, TraceGenerator([s], [1.0], inst_per_mem=3.0, mlp=4.0, seed=core))
        m.prefetch_msr.set_mask(core, masks[core])
    return m


class TestMachineInvariants:
    @given(machine_runs())
    @settings(max_examples=25, deadline=None)
    def test_miss_hierarchy_monotone(self, case):
        rng_seed, masks, n, kinds = case
        m = build(rng_seed, masks, kinds)
        m.run_accesses(n)
        for cpu in range(len(kinds)):
            p = m.pmu
            assert p.read(cpu, Event.L1_DM_MISS) <= p.read(cpu, Event.L1_DM_REQ)
            assert p.read(cpu, Event.L2_DM_REQ) == p.read(cpu, Event.L1_DM_MISS)
            assert p.read(cpu, Event.L2_DM_MISS) <= p.read(cpu, Event.L2_DM_REQ)
            assert p.read(cpu, Event.L3_LOAD_MISS) <= p.read(cpu, Event.L2_DM_MISS)
            assert p.read(cpu, Event.L2_PREF_MISS) <= p.read(cpu, Event.L2_PREF_REQ)

    @given(machine_runs())
    @settings(max_examples=25, deadline=None)
    def test_demand_bytes_conservation(self, case):
        rng_seed, masks, n, kinds = case
        m = build(rng_seed, masks, kinds)
        m.run_accesses(n)
        for cpu in range(len(kinds)):
            assert m.pmu.read(cpu, Event.MEM_DEMAND_BYTES) == (
                m.pmu.read(cpu, Event.L3_LOAD_MISS) * 64
            )

    @given(machine_runs())
    @settings(max_examples=25, deadline=None)
    def test_counters_non_negative_and_cycles_positive(self, case):
        rng_seed, masks, n, kinds = case
        m = build(rng_seed, masks, kinds)
        m.run_accesses(n)
        assert (m.pmu.counts >= 0).all()
        for cpu in range(len(kinds)):
            assert m.pmu.read(cpu, Event.CYCLES) > 0
            assert m.pmu.read(cpu, Event.INSTRUCTIONS) == n * 4.0

    @given(machine_runs())
    @settings(max_examples=15, deadline=None)
    def test_prefetch_masks_gate_prefetch_events(self, case):
        rng_seed, masks, n, kinds = case
        m = build(rng_seed, masks, kinds)
        m.run_accesses(n)
        for cpu in range(len(kinds)):
            if masks[cpu] & 0b11 == 0b11:  # both L2 prefetchers disabled
                assert m.pmu.read(cpu, Event.L2_PREF_REQ) == 0
            if masks[cpu] & 0b1100 == 0b1100:  # both L1 prefetchers disabled
                assert m.pmu.read(cpu, Event.L1_PREF_REQ) == 0
