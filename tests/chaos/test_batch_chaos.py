"""Batched-sweep chaos: batch-layer failures must be invisible.

The batch engine sits between sessions and the simulator, so its
failure contract matters: a lockstep sweep that dies mid-flight, a
group member that raises, or a batch path sabotaged outright must
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
    return TraceStore()


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


class TestPerRunRung:
    def test_singleton_and_sabotaged_sweep_land_on_a_plain_machine(self, store, mix, monkeypatch):
        """The second rung is a scalar Machine, not a Machine subclass; a
        singleton taking it is not a degradation, a failed sweep is one."""
        from repro.sim.batch import degradation_count
        from repro.sim.machine import Machine

        built = []
        real = B.build_machine
        monkeypatch.setattr(
            B, "build_machine", lambda *a, **kw: built.append(real(*a, **kw)) or built[-1]
        )
        specs = _static_specs(mix)
        healthy = simulate_batch(specs, SC, trace_store=store)
        assert built == []

        before = degradation_count()
        (single,) = simulate_batch(specs[:1], SC, trace_store=store)
        assert [type(m) for m in built] == [Machine]
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


def _mechanism_runs(mix, mechanisms):
    return [PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=m) for m in mechanisms]


def _session_payloads(runs, engine=None) -> str:
    """``runs`` executed on a fresh uncached serial session, as JSON text."""
    with ExperimentSession(cache_dir=None, max_workers=1, engine=engine) as session:
        payloads = session.execute(runs)
    return json.dumps([payloads[r.key()] for r in runs], sort_keys=True)


class TestGroupedCoreMidQuantumCrash:
    def test_core_crash_degrades_per_run_bit_identically(self, mix, monkeypatch):
        """A GroupedCore that raises mid-quantum kills the lockstep group;
        the session re-runs its members per run with the payloads of a
        ``fast`` session and counts one degradation for the group."""
        from repro.sim import batch as SB
        from repro.sim.batch import degradation_count

        runs = _mechanism_runs(mix, ("pt", "cmm-a", "dunn"))
        expected = _session_payloads(runs, engine="fast")

        orig = SB.GroupedCore.step
        calls = {"n": 0}

        def flaky(self, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("injected GroupedCore mid-quantum failure")
            return orig(self, *a, **kw)

        monkeypatch.setattr(SB.GroupedCore, "step", flaky)
        before = degradation_count()
        degraded = _session_payloads(runs)
        assert calls["n"] >= 5, "injection never fired"
        assert degradation_count() == before + 1
        assert degraded == expected


def _digest(stats_list):
    h = hashlib.sha256()
    for rs in stats_list:
        h.update(np.ascontiguousarray(rs.totals).tobytes())
        h.update(repr(rs.wall_cycles).encode())
    return h.hexdigest()


def _fast_digest(specs, sc, store):
    """Every static spec on its own scalar ``fast`` machine."""
    return _digest(
        [B._run_static(build_machine(s.mix, sc, trace_store=store, engine="fast"), s) for s in specs]
    )


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
            specs = _overlap_sweeps(mix)
            expected = _fast_digest(specs, SC, store)

            def execute():
                return _digest(simulate_batch(specs, SC, trace_store=store))
        else:
            runs = _mechanism_runs(mix, ("pt", "cmm-a"))
            expected = _session_payloads(runs, engine="fast")

            def execute():
                return _session_payloads(runs)

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
        degraded = execute()
        assert calls["n"] >= 2, "injection never fired"
        assert degradation_count() == before + 1
        assert degraded == expected


class TestSessionGroupFailureFallback:
    def test_sabotaged_group_dispatch_is_invisible(self, monkeypatch):
        """A crashing compute_mechanism_group must not fail the sweep or
        change any payload — the session retries runs per-run."""
        mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
        runs = [
            PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=m)
            for m in ("baseline", "pt")
        ]
        healthy = ExperimentSession(cache_dir=None, max_workers=1).execute(runs)

        def bomb(*a, **kw):
            raise RuntimeError("injected batch-group failure")

        monkeypatch.setattr(B, "compute_mechanism_group", bomb)
        degraded = ExperimentSession(cache_dir=None, max_workers=1).execute(runs)
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
        healthy = ExperimentSession(cache_dir=None, max_workers=1).execute(runs)

        def bomb(*a, **kw):
            raise RuntimeError("injected single-core plane failure")

        monkeypatch.setattr(singlecore, "run_single_core", bomb)
        before = degradation_count()
        degraded = ExperimentSession(cache_dir=None, max_workers=1).execute(runs)
        assert degradation_count() == before + 1
        assert healthy.keys() == degraded.keys()
        for key in healthy:
            assert json.dumps(healthy[key], sort_keys=True) == json.dumps(
                degraded[key], sort_keys=True
            )
