"""Differential tests: the ``fast`` engine is bit-identical to ``reference``.

Every observable the experiment layer consumes — PMU counters, per-core
L1/L2 cache stats, LLC stats and occupancy, IPC and its harmonic mean —
must match exactly (integer counters bit for bit, IPC as identical
floats) across workload mixes, per-core prefetcher masks and CAT
partitionings.  This is what lets the experiment cache key exclude the
engine choice (see ``repro.sim.engines``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics_defs import hm_ipc, summarize_sample
from repro.sim import PF_ALL_OFF, PF_ALL_ON, Machine
from repro.sim.engines import (
    DEFAULT_ENGINE,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENV_VAR,
    resolve_engine,
)
from repro.sim.params import scaled_params
from repro.sim.pmu import PmuSample
from repro.workloads.speclike import build_trace

# Three 4-core mixes spanning the trace taxonomy: streaming/prefetch
# friendly, irregular/prefetch hostile, and a blend.
MIXES = {
    "stream_heavy": ["410.bwaves", "462.libquantum", "433.milc", "450.soplex"],
    "irregular": ["rand_access", "429.mcf", "471.omnetpp", "483.xalancbmk"],
    "blend": ["410.bwaves", "rand_access", "453.povray", "416.gamess"],
}

MASKS = {
    "pf_on": [PF_ALL_ON] * 4,
    "pf_off": [PF_ALL_OFF] * 4,
    "pf_mixed": [0x5, 0xA, 0x3, 0xC],  # distinct per-core enable subsets
}

N_ACCESSES = 6000


def _build(engine, mix, masks, partitioned):
    params = scaled_params(16, n_cores=4)
    m = Machine(params, quantum=512, engine=engine)
    for cpu, name in enumerate(mix):
        m.attach_trace(
            cpu,
            build_trace(
                name,
                llc_lines=params.llc.lines,
                base_line=m.core_base_line(cpu),
                seed=cpu,
            ),
        )
    for cpu, mask in enumerate(masks):
        m.prefetch_msr.set_mask(cpu, mask)
    if partitioned:
        w = params.llc.ways
        half = (1 << (w // 2)) - 1
        m.cat.set_cbm(0, half)
        m.cat.set_cbm(1, ((1 << w) - 1) ^ half)
        for cpu in range(len(mix)):
            m.cat.assign_core(cpu, cpu % 2)
    return m


def _observables(m: Machine) -> dict:
    sample = PmuSample(m.pmu.counts.copy(), m.pmu.wall_cycles)
    out = {"pmu": m.pmu.counts.copy(), "ipc": sample.ipc_all()}
    for i, cs in enumerate(m.cores):
        for lvl in ("l1", "l2"):
            s = getattr(cs, lvl).stats
            out[f"{lvl}{i}"] = (
                s.accesses,
                s.hits,
                s.pref_fills,
                s.pref_used,
                s.pref_evicted_unused,
            )
        out[f"occ_l1_{i}"] = cs.l1.occupancy()
        out[f"occ_l2_{i}"] = cs.l2.occupancy()
    s = m.llc.stats
    out["llc"] = (s.accesses, s.hits, s.pref_fills, s.pref_used, s.pref_evicted_unused)
    out["llc_occ"] = m.llc.occupancy()
    out["hm_ipc"] = hm_ipc(summarize_sample(sample, cycles_per_second=1e9))
    return out


def _assert_identical(ref: dict, fast: dict, label: str) -> None:
    for key in ref:
        a, b = ref[key], fast[key]
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"{label}: {key} diverged"
        else:
            assert a == b, f"{label}: {key} diverged (ref={a}, fast={b})"


class TestEngineEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    @pytest.mark.parametrize("partitioned", [False, True], ids=["shared", "cat"])
    def test_bit_identical(self, mix_name, mask_name, partitioned):
        mix, masks = MIXES[mix_name], MASKS[mask_name]
        ref = _build(ENGINE_REFERENCE, mix, masks, partitioned)
        fast = _build(ENGINE_FAST, mix, masks, partitioned)
        ref.run_accesses(N_ACCESSES)
        fast.run_accesses(N_ACCESSES)
        _assert_identical(
            _observables(ref),
            _observables(fast),
            f"{mix_name}/{mask_name}/{'cat' if partitioned else 'shared'}",
        )

    def test_identical_across_midrun_control_changes(self):
        """Mask and CAT flips between quanta are picked up identically."""
        mix = MIXES["blend"]
        machines = [
            _build(e, mix, MASKS["pf_on"], False)
            for e in (ENGINE_REFERENCE, ENGINE_FAST)
        ]
        for m in machines:
            m.run_accesses(3000)
            m.prefetch_msr.set_mask(0, PF_ALL_OFF)
            m.prefetch_msr.set_mask(2, 0x9)
            w = m.params.llc.ways
            m.cat.set_cbm(0, (1 << (w // 4)) - 1)
            for cpu in range(4):
                m.cat.assign_core(cpu, 0)
            m.run_accesses(3000)
        _assert_identical(
            _observables(machines[0]), _observables(machines[1]), "midrun"
        )

    def test_identical_with_idle_cores(self):
        machines = []
        for e in (ENGINE_REFERENCE, ENGINE_FAST):
            m = _build(e, MIXES["irregular"], MASKS["pf_mixed"], True)
            m.set_idle(1)
            m.run_accesses(4000)
            machines.append(m)
        _assert_identical(
            _observables(machines[0]), _observables(machines[1]), "idle"
        )


class TestEngineSelection:
    def test_default_is_fast(self, tiny_params, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert DEFAULT_ENGINE == ENGINE_FAST
        assert Machine(tiny_params).engine == ENGINE_FAST

    def test_env_var_selects(self, tiny_params, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert Machine(tiny_params).engine == ENGINE_REFERENCE

    def test_params_field_beats_env(self, tiny_params, monkeypatch):
        from dataclasses import replace

        monkeypatch.setenv(ENV_VAR, "fast")
        params = replace(tiny_params, sim_engine="reference")
        assert Machine(params).engine == ENGINE_REFERENCE

    def test_explicit_arg_beats_params(self, tiny_params):
        from dataclasses import replace

        params = replace(tiny_params, sim_engine="reference")
        assert Machine(params, engine="fast").engine == ENGINE_FAST

    def test_invalid_engine_rejected(self, tiny_params, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            Machine(tiny_params, engine="warp")
        monkeypatch.setenv(ENV_VAR, "warp")
        with pytest.raises(ValueError, match="unknown simulation engine"):
            resolve_engine(None)

    def test_engine_excluded_from_cache_key(self):
        from repro.experiments.config import TINY
        from repro.experiments.engine import KIND_ALONE, PlannedRun

        payload = PlannedRun(kind=KIND_ALONE, sc=TINY, bench="410.bwaves").key_payload()
        assert "sim_engine" not in payload["machine"]
