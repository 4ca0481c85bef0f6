"""Differential tests: the ``batch`` engine is bit-identical to ``fast``.

The batch kernel shares one materialized trace across N runs
of a mix, runs each core phase once per state-equality class of runs,
and serves static mask/CAT sweeps and controller-driven groups alike
through a lockstep grouped LLC.  None of that sharing
may be observable: PMU totals, wall cycles, LLC stats and occupancy
must match the scalar fast engine bit for bit across mixes, prefetcher
mask sets, shared vs. CAT-partitioned LLCs, batch widths (including a
width of one and ragged sub-groups), and mid-run control flips.  This
is what lets cache keys and sessions treat the engine as invisible.

Also home to the unit tests for the :mod:`repro.sim.engines` registry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments.batch import (
    BatchRunSpec, build_batch_kernel, compute_mechanism_group, simulate_batch,
)
from repro.experiments.config import TINY, ScaleConfig
from repro.experiments.engine import KIND_MECHANISM, ExperimentSession, PlannedRun
from repro.experiments.runner import build_machine, drive_mechanism, mechanism_payload
from repro.sim import PF_ALL_OFF, PF_ALL_ON
from repro.sim import batch as sim_batch
from repro.sim.batch import degradation_count, run_static_sweep
from repro.sim.core_model import solve_quantum
from repro.sim.engines import (
    ENGINE_AUTO,
    ENGINE_BATCH,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENV_VAR,
    EngineSelectionError,
    available_engines,
    resolve_engine,
)
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import make_mixes

SC = ScaleConfig(name="batch-unit", llc_scale=16, n_cores=4, quantum=512)
N_ACCESSES = 6000
#: Eight tiny quanta, with a short last one.
IDLE_N_ACCESSES = 7 * TINY.quantum + 200

CATEGORIES = ("pref_agg", "pref_unfri", "pref_no_agg")

MASKS = {
    "pf_on": (PF_ALL_ON,) * 4,
    "pf_off": (PF_ALL_OFF,) * 4,
    "pf_mixed": (0x5, 0xA, 0x3, 0xC),
}


@pytest.fixture(scope="module")
def store():
    return TraceStore()


def _mix(category):
    return make_mixes(category, 1, n_cores=4, seed=2019)[0]


def _cat_split(k, w, n_cores):
    """CLOS 0 gets the low ``k`` ways, CLOS 1 the rest; cores alternate."""
    cbm0 = (1 << k) - 1
    cbm1 = ((1 << w) - 1) ^ cbm0
    return ((0, cbm0), (1, cbm1)), tuple(c % 2 for c in range(n_cores))


def _specs(mix, masks, partitioned, width):
    w = SC.params().llc.ways
    out = []
    for i in range(width):
        clos_cbms, core_clos = (), ()
        if partitioned:
            # distinct split per run: the lockstep LLC carries per-run CAT
            clos_cbms, core_clos = _cat_split(2 + i, w, mix.n_cores)
        out.append(
            BatchRunSpec(
                mix=mix,
                n_accesses=N_ACCESSES,
                masks=masks,
                clos_cbms=clos_cbms,
                core_clos=core_clos,
            )
        )
    return out


def _scalar_stats(spec, store, sc=SC):
    """Run one spec on its own scalar fast machine (the reference)."""
    m = build_machine(spec.mix, sc, trace_store=store)
    for cpu, mask in enumerate(spec.masks):
        m.prefetch_msr.set_mask(cpu, mask)
    for clos, cbm in spec.clos_cbms:
        m.cat.set_cbm(clos, cbm)
    for cpu, clos in enumerate(spec.core_clos):
        m.cat.assign_core(cpu, clos)
    snap = m.pmu.snapshot()
    m.run_accesses(spec.n_accesses)
    s = m.pmu.delta_since(snap)
    llc = m.llc_stats()
    return {
        "totals": s.deltas,
        "wall": s.wall_cycles,
        "llc": (llc.accesses, llc.hits, llc.pref_fills, llc.pref_used, llc.pref_evicted_unused),
        "occ": m.llc_occupancy(),
    }


def _digest(stats_list):
    """One sha256 over every run's totals and wall cycles, in order."""
    h = hashlib.sha256()
    for rs in stats_list:
        h.update(np.ascontiguousarray(rs.totals).tobytes())
        h.update(repr(rs.wall_cycles).encode())
    return h.hexdigest()


def _payload_digest(payloads):
    """One sha256 over every run's full result payload, in order."""
    return hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()


class TestBatchBitIdentity:
    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    @pytest.mark.parametrize("partitioned", [False, True], ids=["shared", "cat"])
    def test_width3_matches_scalar(self, store, category, mask_name, partitioned):
        mix = _mix(category)
        specs = _specs(mix, MASKS[mask_name], partitioned, width=3)
        batch = simulate_batch(specs, SC, trace_store=store)
        label = f"{category}/{mask_name}/{'cat' if partitioned else 'shared'}"
        for i, (rs, spec) in enumerate(zip(batch, specs)):
            ref = _scalar_stats(spec, store)
            assert np.array_equal(rs.totals, ref["totals"]), f"{label}[{i}]: totals diverged"
            assert rs.wall_cycles == ref["wall"], f"{label}[{i}]: wall cycles diverged"


class TestBatchWidths:
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_sha256_identity(self, store, width):
        """The full-result digest is the same whether runs share a kernel
        (width > 1, lockstep sweep) or run alone (width 1, scalar path)."""
        mix = _mix("pref_agg")
        specs = _specs(mix, MASKS["pf_mixed"], True, width=width)
        batch = simulate_batch(specs, SC, trace_store=store)
        scalar = [_scalar_stats(s, store) for s in specs]
        h = hashlib.sha256()
        for ref in scalar:
            h.update(np.ascontiguousarray(ref["totals"]).tobytes())
            h.update(repr(ref["wall"]).encode())
        assert _digest(batch) == h.hexdigest()

    def test_ragged_subgroups(self, store):
        """Specs with different mask vectors split into lockstep sub-groups
        of uneven width (3 + 2) plus a singleton on the per-run path —
        all bit-identical, order preserved."""
        mix = _mix("pref_unfri")
        specs = (
            _specs(mix, MASKS["pf_on"], True, width=3)
            + _specs(mix, MASKS["pf_off"], True, width=2)
            + _specs(mix, MASKS["pf_mixed"], False, width=1)
        )
        batch = simulate_batch(specs, SC, trace_store=store)
        assert len(batch) == 6
        for i, (rs, spec) in enumerate(zip(batch, specs)):
            ref = _scalar_stats(spec, store)
            assert np.array_equal(rs.totals, ref["totals"]), f"spec[{i}] diverged"
            assert rs.wall_cycles == ref["wall"], f"spec[{i}] wall diverged"


class TestLockstepSweep:
    def test_llc_state_matches_scalar(self, store):
        """run_static_sweep exposes per-run LLC stats and occupancy that
        match each run's own scalar machine exactly."""
        mix = _mix("pref_agg")
        w = SC.params().llc.ways
        configs = [_cat_split(2 + i, w, mix.n_cores) for i in range(5)]
        masks = MASKS["pf_mixed"]
        kernel = build_batch_kernel(mix, SC, store, length=N_ACCESSES)
        rows = run_static_sweep(kernel, configs, masks, N_ACCESSES)
        assert len(rows) == 5
        for i, (clos_cbms, core_clos) in enumerate(configs):
            spec = BatchRunSpec(
                mix=mix, n_accesses=N_ACCESSES, masks=masks,
                clos_cbms=clos_cbms, core_clos=core_clos,
            )
            ref = _scalar_stats(spec, store)
            assert np.array_equal(rows[i].pmu_counts, ref["totals"]), f"run {i}: pmu"
            assert rows[i].wall_cycles == ref["wall"], f"run {i}: wall"
            assert rows[i].llc_stats == ref["llc"], f"run {i}: llc stats"
            assert np.array_equal(rows[i].llc_occupancy, ref["occ"]), f"run {i}: occupancy"

    def test_kernel_reused_across_sweeps(self, store):
        """One kernel serves any number of sweeps: a second sweep with the
        same masks and a different access count starts from fresh cores,
        not from where the first one stopped."""
        mix = _mix("pref_unfri")
        w = SC.params().llc.ways
        configs = [_cat_split(3 + i, w, mix.n_cores) for i in range(3)]
        masks = MASKS["pf_on"]
        kernel = build_batch_kernel(mix, SC, store, length=N_ACCESSES)
        for n_acc in (N_ACCESSES, N_ACCESSES // 2 + 100):
            rows = run_static_sweep(kernel, configs, masks, n_acc)
            for row, (clos_cbms, core_clos) in zip(rows, configs):
                spec = BatchRunSpec(
                    mix=mix, n_accesses=n_acc, masks=masks,
                    clos_cbms=clos_cbms, core_clos=core_clos,
                )
                ref = _scalar_stats(spec, store)
                assert np.array_equal(row.pmu_counts, ref["totals"]), f"n={n_acc}: pmu"
                assert row.wall_cycles == ref["wall"], f"n={n_acc}: wall"
                assert row.llc_stats == ref["llc"], f"n={n_acc}: llc stats"


class TestStaticSweepTiming:
    """The sweep's timing: one batched solve per quantum for every run."""

    def _idle_column_specs(self):
        """A 4-core mix on the 8-core tiny machine: cores 4-7 stay idle.
        Two disjoint way splits plus one overlapping-CBM configuration
        (ways 8-11 shared), which the grouped LLC serves by round loop."""
        mix = _mix("pref_agg")
        w = TINY.params().llc.ways
        full = (1 << w) - 1
        configs = [
            _cat_split(4, w, mix.n_cores),
            _cat_split(13, w, mix.n_cores),
            (((0, (1 << 12) - 1), (1, full ^ 0xFF)), (0, 1, 0, 1)),
        ]
        return [
            BatchRunSpec(mix=mix, n_accesses=IDLE_N_ACCESSES, masks=MASKS["pf_mixed"],
                         clos_cbms=clos_cbms, core_clos=core_clos)
            for clos_cbms, core_clos in configs
        ]

    def test_idle_columns_match_scalar(self, store, monkeypatch):
        specs = self._idle_column_specs()
        assert specs[0].mix.n_cores < TINY.params().n_cores
        rounds = []
        round_loop = sim_batch.GroupedLLC._round_loop

        def round_spy(self, stream, run_idx, *args):
            rounds.extend(run_idx.tolist())
            return round_loop(self, stream, run_idx, *args)

        monkeypatch.setattr(sim_batch.GroupedLLC, "_round_loop", round_spy)
        before = degradation_count()
        batch = simulate_batch(specs, TINY, trace_store=store)
        assert degradation_count() == before, "the sweep fell back to scalar"
        assert rounds == [2], f"round loop served {rounds}"
        for i, (rs, spec) in enumerate(zip(batch, specs)):
            ref = _scalar_stats(spec, store, sc=TINY)
            assert rs.totals.shape == (TINY.params().n_cores, ref["totals"].shape[1])
            assert np.array_equal(rs.totals, ref["totals"]), f"config {i}: totals diverged"
            assert rs.wall_cycles == ref["wall"], f"config {i}: wall cycles diverged"
            assert type(rs.wall_cycles) is float

    def test_one_solve_per_quantum(self, store, monkeypatch):
        """Not one per (run, quantum): the solve takes every run at once."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_quantum(*args, **kwargs)

        monkeypatch.setattr(sim_batch, "solve_quantum", counting)
        specs = self._idle_column_specs()
        simulate_batch(specs, TINY, trace_store=store)
        assert len(calls) == -(-IDLE_N_ACCESSES // TINY.quantum)
        assert all(np.shape(c.n_llc_hit_d) == (len(specs), TINY.params().n_cores) for c in calls)


MECH_SC = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)


def _session_payloads(runs, engine=None) -> dict:
    with ExperimentSession(cache_dir=None, max_workers=1, engine=engine) as session:
        return session.execute(runs)


class TestMidRunControlFlips:
    def test_mechanism_specs_match_scalar(self):
        """Controller-driven runs flip masks/CAT every epoch; a batch
        session's lockstep group must reproduce a fast session exactly."""
        mix = _mix("pref_unfri")
        runs = [PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=m) for m in ("pt", "cmm-a")]
        before = degradation_count()
        batched = _session_payloads(runs)
        assert degradation_count() == before
        scalar = _session_payloads(runs, engine="fast")
        assert json.dumps(batched, sort_keys=True) == json.dumps(scalar, sort_keys=True)


# (width, llc axis) -> mechanism list.  The llc axis tags whether the
# mechanisms drive CAT (cmm-*, pref-cp2 plan partitions), keep the LLC
# shared (pt, dunn, pref-cp only throttle prefetchers) or mix both.
DYNAMIC_CASES = {
    (1, "shared"): ("pt",),
    (1, "cat"): ("cmm-a",),
    (3, "shared"): ("pt", "pref-cp", "dunn"),
    (3, "cat"): ("cmm-a", "cmm-b", "pref-cp2"),
    (8, "mixed"): (
        "baseline", "pt", "dunn", "pref-cp", "pref-cp2", "cmm-a", "cmm-b", "cmm-c",
    ),
}


class TestDynamicLockstepDifferential:
    """Controller-driven (dynamic) runs batched in masked lockstep must be
    sha256-identical to per-run scalar fast execution across mixes,
    shared/CAT mechanisms and group widths 1, 3 and 8 — width 1 a real
    one-member lockstep group."""

    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize(
        "width,axis", sorted(DYNAMIC_CASES), ids=lambda v: str(v)
    )
    def test_mechanism_matrix_sha256(self, store, category, width, axis, monkeypatch):
        mechs = DYNAMIC_CASES[(width, axis)]
        assert len(mechs) == width
        mix = _mix(category)
        runs = [PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=m) for m in mechs]
        widths = []
        real_run = sim_batch.LockstepGroup.run
        monkeypatch.setattr(
            sim_batch.LockstepGroup, "run",
            lambda group, drivers: widths.append(len(drivers)) or real_run(group, drivers),
        )
        batch = [payload for payload, _secs in compute_mechanism_group(runs, store)]
        assert widths == [width]
        scalar = [
            mechanism_payload(drive_mechanism(
                build_machine(mix, MECH_SC, trace_store=store, engine="fast"), m, MECH_SC
            ))
            for m in mechs
        ]
        label = f"{category}/{width}/{axis}"
        assert _payload_digest(batch) == _payload_digest(scalar), f"{label}: digest diverged"


class TestSessionDispatch:
    MECHS = ("baseline", "pt")

    def _payloads(self, engine):
        sc = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)
        mix = _mix("pref_agg")
        runs = [PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=m) for m in self.MECHS]
        session = ExperimentSession(
            cache_dir=None, max_workers=1, engine=engine
        )
        return session.execute(runs)

    def test_batched_session_payloads_identical(self):
        """The result cache cannot tell which engine produced an entry."""
        batched = self._payloads("auto")
        scalar = self._payloads("fast")
        assert batched.keys() == scalar.keys()
        for key in batched:
            a = json.dumps(batched[key], sort_keys=True)
            b = json.dumps(scalar[key], sort_keys=True)
            assert a == b, f"payload diverged for {key}"

    @staticmethod
    def _batched_matches_fast(runs, monkeypatch):
        """Execute ``runs`` on a batch session and on a fast one; assert
        payload identity and return the batch session's group sizes."""
        from repro.experiments import batch as exp_batch
        from repro.sim.tracestore import fallback_count

        groups = []
        real = exp_batch.compute_mechanism_group
        monkeypatch.setattr(
            exp_batch, "compute_mechanism_group",
            lambda grp, store: groups.append(len(grp)) or real(grp, store),
        )
        degraded, fallbacks = degradation_count(), fallback_count()
        batched = ExperimentSession(cache_dir=None, max_workers=1).execute(runs)
        assert (degradation_count(), fallback_count()) == (degraded, fallbacks)
        scalar = ExperimentSession(cache_dir=None, max_workers=1, engine="fast").execute(runs)
        assert len(batched) == len(runs)
        assert json.dumps(batched, sort_keys=True) == json.dumps(scalar, sort_keys=True)
        return groups

    def test_params_runs_share_one_lockstep_group(self, monkeypatch):
        mix = _mix("pref_unfri")
        runs = [
            PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=m, params=p)
            for m, p in (
                ("baseline", {}),
                ("pref-cp", {"partition_factor": 0.5}),
                ("pref-cp", {"partition_factor": 1.5}),
                ("pt", {"fine_grained": True}),
            )
        ]
        assert self._batched_matches_fast(runs, monkeypatch) == [4]

    def test_groups_split_by_scale_value(self, monkeypatch):
        """Scales with one name but different sample_units are two groups."""
        mix = _mix("pref_unfri")
        runs = [
            PlannedRun(KIND_MECHANISM, dataclasses.replace(MECH_SC, sample_units=u),
                       mix=mix, mechanism="pt")
            for u in (256, 512)
        ]
        assert self._batched_matches_fast(runs, monkeypatch) == []

    def test_groups_split_by_mix_value(self, monkeypatch):
        """Mixes with one name and seed but another benchmark order are two groups."""
        mix = _mix("pref_unfri")
        flipped = dataclasses.replace(mix, benchmarks=mix.benchmarks[::-1])
        assert flipped.benchmarks != mix.benchmarks
        runs = [PlannedRun(KIND_MECHANISM, MECH_SC, mix=m, mechanism="pt") for m in (mix, flipped)]
        assert self._batched_matches_fast(runs, monkeypatch) == []

    def test_env_var_is_the_off_switch(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        off = ExperimentSession(cache_dir=None, max_workers=1)
        assert not off._resolved_engine().batched
        monkeypatch.delenv(ENV_VAR)
        auto = ExperimentSession(cache_dir=None, max_workers=1)
        assert auto._resolved_engine().batched
        named = ExperimentSession(cache_dir=None, max_workers=1, engine="fast")
        assert not named._resolved_engine().batched

    @pytest.mark.parametrize("engine", [ENGINE_REFERENCE, ENGINE_FAST])
    def test_named_engine_builds_every_machine(self, engine, monkeypatch):
        """A scalar session's engine is the one its mechanism, alone and
        profile runs simulate on, and both engines give one payload."""
        from repro.experiments.engine import KIND_ALONE, KIND_PROFILE
        from repro.sim.machine import Machine

        built = []
        real_init = Machine.__init__

        def spy(machine, *a, **kw):
            real_init(machine, *a, **kw)
            built.append(machine.engine)

        sc = dataclasses.replace(MECH_SC, alone_accesses=1024, profile_accesses=1024)
        runs = [
            PlannedRun(KIND_MECHANISM, sc, mix=_mix("pref_agg"), mechanism="pt"),
            PlannedRun(KIND_ALONE, sc, bench="429.mcf"),
            PlannedRun(KIND_PROFILE, sc, bench="410.bwaves"),
        ]
        scalar = _session_payloads(runs, engine=ENGINE_FAST)
        monkeypatch.setattr(Machine, "__init__", spy)
        named = _session_payloads(runs, engine=engine)
        assert len(built) == 4 and set(built) == {engine}
        assert json.dumps(named, sort_keys=True) == json.dumps(scalar, sort_keys=True)

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(EngineSelectionError, match="unknown simulation engine"):
            ExperimentSession(cache_dir=None, engine="warp")


class TestEngineRegistry:
    def test_builtins_registered(self):
        names = available_engines()
        for name in (ENGINE_REFERENCE, ENGINE_FAST, ENGINE_BATCH):
            assert name in names
        assert not resolve_engine(ENGINE_FAST).batched
        assert resolve_engine(ENGINE_BATCH).batched

    def test_unknown_name_lists_engines(self):
        with pytest.raises(EngineSelectionError) as exc:
            resolve_engine("warp")
        msg = str(exc.value)
        for name in available_engines() + (ENGINE_AUTO,):
            assert name in msg

    def test_registry_is_reference_fast_batch(self):
        assert available_engines() == ("reference", "fast", "batch")
        with pytest.raises(EngineSelectionError) as exc:
            resolve_engine("native")
        for name in ("reference", "fast", "batch", ENGINE_AUTO):
            assert repr(name) in str(exc.value)

    def test_selection_error_is_a_value_error(self):
        assert issubclass(EngineSelectionError, ValueError)

    def test_resolve_auto_follows_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve_engine(None).name == ENGINE_REFERENCE
        assert resolve_engine("auto").name == ENGINE_REFERENCE
        monkeypatch.delenv(ENV_VAR)
        assert resolve_engine(None).name == ENGINE_FAST
        assert resolve_engine("auto").name == ENGINE_FAST
        assert resolve_engine("batch").name == ENGINE_BATCH
