"""Batched-sweep chaos: batch-layer failures must be invisible.

The batch engine sits between sessions and the simulator, so its
failure contract matters: a group that cannot be batched, a lockstep
sweep that dies mid-flight, or a batch path sabotaged outright must
degrade to per-run scalar execution with **identical results** — never
an exception, never a changed payload, never a half-written entry.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments import batch as B
from repro.experiments.batch import BatchRunSpec, simulate_batch
from repro.experiments.config import ScaleConfig
from repro.experiments.runner import build_machine
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    KIND_PROFILE,
    ExperimentSession,
    PlannedRun,
)
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import make_mixes

SC = ScaleConfig(name="batch-chaos", llc_scale=16, n_cores=4, quantum=512)
MECH_SC = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)


@pytest.fixture(scope="module")
def store():
    return TraceStore(None, mode="memory")


@pytest.fixture(scope="module")
def mix():
    return make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]


def _static_specs(mix, width=3):
    w = SC.params().llc.ways
    specs = []
    for i in range(width):
        cbm0 = (1 << (2 + i)) - 1
        specs.append(
            BatchRunSpec(
                mix=mix,
                n_accesses=4096,
                masks=(0x0,) * mix.n_cores,
                clos_cbms=((0, cbm0), (1, ((1 << w) - 1) ^ cbm0)),
                core_clos=tuple(c % 2 for c in range(mix.n_cores)),
            )
        )
    return specs


class TestLockstepFailureFallback:
    def test_sweep_crash_degrades_to_per_run(self, store, mix, monkeypatch):
        specs = _static_specs(mix)
        healthy = simulate_batch(specs, SC, trace_store=store)

        def bomb(*a, **kw):
            raise RuntimeError("injected lockstep failure")

        monkeypatch.setattr(B, "run_static_sweep", bomb)
        degraded = simulate_batch(specs, SC, trace_store=store)
        for h, d in zip(healthy, degraded):
            assert np.array_equal(h.totals, d.totals)
            assert h.wall_cycles == d.wall_cycles

    def test_unbatchable_store_degrades_to_scalar(self, mix):
        """Trace plane off: no kernel can be built, results unchanged."""
        warm = TraceStore(None, mode="memory")
        specs = _static_specs(mix, width=2)
        batched = simulate_batch(specs, SC, trace_store=warm)
        off = simulate_batch(specs, SC, trace_store=TraceStore(None, mode="off"))
        for a, b in zip(batched, off):
            assert np.array_equal(a.totals, b.totals)
            assert a.wall_cycles == b.wall_cycles


class TestPerRunRung:
    def test_singleton_and_sabotaged_sweep_land_on_a_plain_machine(self, store, mix, monkeypatch):
        """The second rung is a scalar Machine, not a Machine subclass; a
        singleton taking it is not a degradation, a failed sweep is one."""
        from repro.sim.batch import degradation_count
        from repro.sim.machine import Machine

        built = []
        real = B._scalar_machine
        monkeypatch.setattr(B, "_scalar_machine", lambda *a: built.append(real(*a)) or built[-1])
        specs = _static_specs(mix)
        healthy = simulate_batch(specs, SC, trace_store=store)
        assert built == []

        before = degradation_count()
        (single,) = simulate_batch(specs[:1], SC, trace_store=store)
        assert [type(m) for m in built] == [Machine]
        assert single.batch_degradations == 0
        assert degradation_count() == before
        assert np.array_equal(single.totals, healthy[0].totals)
        assert single.wall_cycles == healthy[0].wall_cycles

        def bomb(*a, **kw):
            raise RuntimeError("injected lockstep failure")

        del built[:]
        monkeypatch.setattr(B, "run_static_sweep", bomb)
        degraded = simulate_batch(specs, SC, trace_store=store)
        assert [type(m) for m in built] == [Machine] * len(specs)
        assert degradation_count() == before + 1
        for h, d in zip(healthy, degraded):
            assert np.array_equal(h.totals, d.totals)
            assert h.wall_cycles == d.wall_cycles
            assert d.batch_degradations == 1


class TestGroupedCoreMidQuantumCrash:
    def test_core_crash_degrades_per_run_bit_identically(self, store, mix, monkeypatch):
        """A GroupedCore that raises mid-quantum kills the lockstep group;
        the group must degrade to per-run execution with bit-identical
        results and one counted degradation per member."""
        from repro.sim import batch as SB

        specs = [BatchRunSpec(mix=mix, mechanism=m) for m in ("pt", "cmm-a", "dunn")]
        healthy = simulate_batch(specs, MECH_SC, trace_store=store)
        assert all(rs.batch_degradations == 0 for rs in healthy)

        orig = SB.GroupedCore.step
        calls = {"n": 0}

        def flaky(self, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("injected GroupedCore mid-quantum failure")
            return orig(self, *a, **kw)

        monkeypatch.setattr(SB.GroupedCore, "step", flaky)
        degraded = simulate_batch(specs, MECH_SC, trace_store=store)
        assert calls["n"] >= 5, "injection never fired"
        for h, d in zip(healthy, degraded):
            assert np.array_equal(h.totals, d.totals)
            assert h.wall_cycles == d.wall_cycles
            assert d.batch_degradations == 1


def _digest(stats_list):
    h = hashlib.sha256()
    for rs in stats_list:
        h.update(np.ascontiguousarray(rs.totals).tobytes())
        h.update(repr(rs.wall_cycles).encode())
    return h.hexdigest()


def _fast_digest(specs, sc, store):
    """Every spec on its own scalar ``fast`` machine."""
    out = []
    for spec in specs:
        m = build_machine(spec.mix, sc, trace_store=store, engine="fast")
        if spec.mechanism is not None:
            out.append(B._run_mechanism(m, spec.mechanism, sc))
        else:
            out.append(B._run_static(m, spec))
    return _digest(out)


def _overlap_sweeps(mix):
    """Two static sweeps (two prefetch-mask vectors), each with one row
    whose CLOS share ways 8-11: the stack-distance serve cannot take
    that row, so each sweep's serve runs the round loop once."""
    w = SC.params().llc.ways
    overlap = ((0, (1 << 12) - 1), (1, ((1 << w) - 1) ^ 0xFF))
    specs = []
    for mask in (0x0, 0xF):
        sweep = [dataclasses.replace(s, masks=(mask,) * mix.n_cores) for s in _static_specs(mix)]
        sweep[1] = dataclasses.replace(sweep[1], clos_cbms=overlap)
        specs += sweep
    return specs


class TestGroupedLLCMidServeCrash:
    @pytest.mark.parametrize("drive", ["static_sweep", "lockstep"])
    def test_mid_serve_failure_degrades_bit_identically(self, store, mix, monkeypatch, drive):
        """The grouped LLC's round loop finishes mutating the image on its
        second call, then raises: the sweep or lockstep group must
        degrade to per-run machines with the scalar fast results and one
        counted degradation."""
        from repro.sim.batch import GroupedLLC, degradation_count

        if drive == "static_sweep":
            specs, sc = _overlap_sweeps(mix), SC
        else:
            specs, sc = [BatchRunSpec(mix=mix, mechanism=m) for m in ("pt", "cmm-a")], MECH_SC
        expected = _fast_digest(specs, sc, store)

        real = GroupedLLC._round_loop
        calls = {"n": 0}

        def crash_on_second(self, *a, **kw):
            out = real(self, *a, **kw)
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected mid-serve failure")
            return out

        monkeypatch.setattr(GroupedLLC, "_round_loop", crash_on_second)
        before = degradation_count()
        degraded = simulate_batch(specs, sc, trace_store=store)
        assert calls["n"] >= 2, "injection never fired"
        assert degradation_count() > before
        assert _digest(degraded) == expected


class TestSessionGroupFailureFallback:
    def test_sabotaged_group_dispatch_is_invisible(self, monkeypatch):
        """A crashing compute_mechanism_group must not fail the sweep or
        change any payload — the session retries runs per-run."""
        mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
        runs = [
            PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=m)
            for m in ("baseline", "pt")
        ]
        healthy = ExperimentSession(
            cache_dir=None, max_workers=1, trace_cache="memory"
        ).execute(runs)

        def bomb(*a, **kw):
            raise RuntimeError("injected batch-group failure")

        monkeypatch.setattr(B, "compute_mechanism_group", bomb)
        degraded = ExperimentSession(
            cache_dir=None, max_workers=1, trace_cache="memory"
        ).execute(runs)
        assert healthy.keys() == degraded.keys()
        for key in healthy:
            assert json.dumps(healthy[key], sort_keys=True) == json.dumps(
                degraded[key], sort_keys=True
            )

    def test_raising_single_core_group_degrades_bit_identically(self, monkeypatch):
        """A single-core plane that raises sends its profile and alone
        runs to the per-run rung: same payloads, one counted degradation."""
        from repro.sim import singlecore
        from repro.sim.batch import degradation_count

        sc = dataclasses.replace(SC, profile_accesses=2048, alone_accesses=1024)
        runs = [
            PlannedRun(KIND_PROFILE, sc, bench="rand_access", way_sweep=(1, 4)),
            PlannedRun(KIND_PROFILE, sc, bench="429.mcf"),
            PlannedRun(KIND_ALONE, sc, bench="410.bwaves"),
        ]
        healthy = ExperimentSession(
            cache_dir=None, max_workers=1, trace_cache="memory"
        ).execute(runs)

        def bomb(*a, **kw):
            raise RuntimeError("injected single-core plane failure")

        monkeypatch.setattr(singlecore, "run_single_core", bomb)
        before = degradation_count()
        degraded = ExperimentSession(
            cache_dir=None, max_workers=1, trace_cache="memory"
        ).execute(runs)
        assert degradation_count() == before + 1
        assert healthy.keys() == degraded.keys()
        for key in healthy:
            assert json.dumps(healthy[key], sort_keys=True) == json.dumps(
                degraded[key], sort_keys=True
            )
