"""Differential tests: the ``batch`` engine is bit-identical to ``fast``.

The batch kernel shares one zero-copy materialized trace across N runs
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

from repro.experiments.batch import BatchRunSpec, build_batch_kernel, simulate_batch
from repro.experiments.batch import _run_mechanism as run_mechanism_on
from repro.experiments.config import ScaleConfig
from repro.experiments.engine import KIND_MECHANISM, ExperimentSession, PlannedRun
from repro.experiments.runner import build_machine
from repro.sim import PF_ALL_OFF, PF_ALL_ON
from repro.sim.batch import run_static_sweep
from repro.sim.engines import (
    ENGINE_AUTO,
    ENGINE_BATCH,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENV_VAR,
    EngineSelectionError,
    EngineSpec,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import make_mixes

SC = ScaleConfig(name="batch-unit", llc_scale=16, n_cores=4, quantum=512)
N_ACCESSES = 6000

CATEGORIES = ("pref_agg", "pref_unfri", "pref_no_agg")

MASKS = {
    "pf_on": (PF_ALL_ON,) * 4,
    "pf_off": (PF_ALL_OFF,) * 4,
    "pf_mixed": (0x5, 0xA, 0x3, 0xC),
}


@pytest.fixture(scope="module")
def store():
    return TraceStore(None, mode="memory")


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
    llc = m.llc.stats
    return {
        "totals": s.deltas,
        "wall": s.wall_cycles,
        "llc": (llc.accesses, llc.hits, llc.pref_fills, llc.pref_used, llc.pref_evicted_unused),
        "occ": m.llc.occupancy(),
    }


def _digest(stats_list):
    """One sha256 over every run's totals and wall cycles, in order."""
    h = hashlib.sha256()
    for rs in stats_list:
        h.update(np.ascontiguousarray(rs.totals).tobytes())
        h.update(repr(rs.wall_cycles).encode())
    return h.hexdigest()


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


class TestMidRunControlFlips:
    def test_mechanism_specs_match_scalar(self, store):
        """Controller-driven runs flip masks/CAT every epoch; batched
        execution must reproduce them exactly."""
        sc = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)
        mix = _mix("pref_unfri")
        specs = [
            BatchRunSpec(mix=mix, mechanism="pt"),
            BatchRunSpec(mix=mix, mechanism="cmm-a"),
        ]
        batch = simulate_batch(specs, sc, trace_store=store)
        for rs, spec in zip(batch, specs):
            ref = run_mechanism_on(build_machine(mix, sc, trace_store=store), spec.mechanism, sc)
            assert np.array_equal(rs.totals, ref.totals), spec.mechanism
            assert rs.wall_cycles == ref.wall_cycles, spec.mechanism


MECH_SC = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)

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
    shared/CAT mechanisms and batch widths 1, 3 and 8."""

    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize(
        "width,axis", sorted(DYNAMIC_CASES), ids=lambda v: str(v)
    )
    def test_mechanism_matrix_sha256(self, store, category, width, axis):
        mechs = DYNAMIC_CASES[(width, axis)]
        assert len(mechs) == width
        mix = _mix(category)
        specs = [BatchRunSpec(mix=mix, mechanism=m) for m in mechs]
        batch = simulate_batch(specs, MECH_SC, trace_store=store)
        scalar = [
            run_mechanism_on(build_machine(mix, MECH_SC, trace_store=store), m, MECH_SC)
            for m in mechs
        ]
        label = f"{category}/{width}/{axis}"
        assert _digest(batch) == _digest(scalar), f"{label}: digest diverged"


class TestSessionDispatch:
    MECHS = ("baseline", "pt")

    def _payloads(self, engine):
        sc = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)
        mix = _mix("pref_agg")
        runs = [PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=m) for m in self.MECHS]
        session = ExperimentSession(
            cache_dir=None, max_workers=1, trace_cache="memory", engine=engine
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

    def test_env_var_is_the_off_switch(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        off = ExperimentSession(cache_dir=None, max_workers=1)
        assert not off._engine_spec().batched
        monkeypatch.delenv(ENV_VAR)
        auto = ExperimentSession(cache_dir=None, max_workers=1)
        assert auto._engine_spec().batched

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(EngineSelectionError, match="unknown simulation engine"):
            ExperimentSession(cache_dir=None, engine="warp")


class TestEngineRegistry:
    def test_builtins_registered(self):
        names = available_engines()
        for name in (ENGINE_REFERENCE, ENGINE_FAST, ENGINE_BATCH):
            assert name in names
        assert not get_engine(ENGINE_FAST).batched
        assert get_engine(ENGINE_BATCH).batched
        assert "multi-run" in get_engine(ENGINE_BATCH).capabilities

    def test_unknown_name_lists_engines(self):
        with pytest.raises(EngineSelectionError) as exc:
            get_engine("warp")
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

    def test_duplicate_registration_needs_replace(self):
        spec = get_engine(ENGINE_FAST)
        with pytest.raises(EngineSelectionError, match="already registered"):
            register_engine(spec)
        assert register_engine(spec, replace=True) is spec

    def test_auto_name_reserved(self):
        with pytest.raises(EngineSelectionError, match="reserved"):
            register_engine(EngineSpec(name=ENGINE_AUTO))

    def test_spec_validation(self):
        with pytest.raises(EngineSelectionError, match="lowercase"):
            EngineSpec(name="Fast")
        with pytest.raises(EngineSelectionError, match="kernel"):
            EngineSpec(name="x", kernel="warp")
        with pytest.raises(EngineSelectionError, match="batch_width"):
            EngineSpec(name="x", batch_width=0)

    def test_resolve_auto_follows_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve_engine(None).name == ENGINE_REFERENCE
        assert resolve_engine("auto").name == ENGINE_REFERENCE
        monkeypatch.delenv(ENV_VAR)
        assert resolve_engine(None).name == ENGINE_FAST
        assert resolve_engine("auto").name == ENGINE_FAST
        assert resolve_engine("batch").name == ENGINE_BATCH
