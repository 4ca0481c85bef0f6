"""The ``batch`` engine: bit identity, its own contracts, engine selection.

The batch kernel shares one materialized trace across N runs of a mix,
runs each core phase once per state-equality class of runs, and serves
static mask/CAT sweeps and controller-driven groups alike through a
lockstep grouped LLC.  None of that sharing may be observable.  The
hand-picked cases here hold it to ``fast`` through
:func:`~tests.property.test_engine_differential.assert_engines_agree`:
static sweeps and ``simulate_batch`` (mixes x prefetcher mask sets x
shared or CAT LLCs at width 3, widths 1/3/8, ragged sub-groups, kernel
reuse), lockstep groups of 1, 3 and 8 mechanisms and a batch session.

Also here: the static sweep's batched timing solve (idle columns, one
solve per quantum), the session's mix-affine dispatch (lockstep groups,
what splits them, the engine a session builds its machines on) and
:func:`resolve_engine`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.experiments.batch import BatchRunSpec, simulate_batch
from repro.experiments.config import TINY
from repro.experiments.engine import KIND_MECHANISM, ExperimentSession, PlannedRun
from repro.experiments.runner import build_machine
from repro.sim import batch as sim_batch
from repro.sim.batch import LockstepGroup, degradation_count
from repro.sim.core_model import solve_quantum
from repro.sim.engines import (
    DEFAULT_ENGINE,
    ENGINE_AUTO,
    ENGINE_BATCH,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENV_VAR,
    EngineSelectionError,
    available_engines,
    resolve_engine,
)
from repro.sim.machine import CORE_ADDRESS_STRIDE_LINES, Machine
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import make_mixes
from tests.property.test_engine_differential import (
    MIXES,
    PF_MIXED,
    PF_OFF,
    PF_ON,
    SC,
    STORE,
    Mechanism,
    assert_engines_agree,
    split_ways,
    static_script,
)

N_ACCESSES = 6000
#: Eight tiny quanta, with a short last one.
IDLE_N_ACCESSES = 7 * TINY.quantum + 200

CATEGORIES = ("pref_agg", "pref_unfri", "pref_no_agg")

MASKS = {"pf_on": PF_ON, "pf_off": PF_OFF, "pf_mixed": PF_MIXED}


def _scripts(masks, partitioned, width, n_accesses=N_ACCESSES, first_split=2):
    """``width`` static scripts; partitioned, each gets its own way split."""
    return [
        static_script(masks, split_ways(first_split + i) if partitioned else None, n_accesses)
        for i in range(width)
    ]


def _batch_specs(mix, scripts) -> list[BatchRunSpec]:
    """The static scripts as ``simulate_batch`` rows."""
    specs = []
    for script in scripts:
        ((masks, cat, n),) = script.intervals
        clos_cbms, core_clos = cat or ((), ())
        specs.append(BatchRunSpec(mix, n, masks, clos_cbms, core_clos))
    return specs


def _scalar_stats(spec, sc):
    """Run one spec on its own scalar fast machine."""
    m = build_machine(spec.mix, sc, trace_store=STORE)
    static_script(spec.masks, (spec.clos_cbms, spec.core_clos), spec.n_accesses).drive(m)
    return {"totals": m.pmu.counts, "wall": m.pmu.wall_cycles}


def _digest(pairs):
    """One sha256 over every run's ``(totals, wall cycles)``, in order."""
    h = hashlib.sha256()
    for totals, wall in pairs:
        h.update(np.ascontiguousarray(totals).tobytes())
        h.update(repr(wall).encode())
    return h.hexdigest()


class TestBatchBitIdentity:
    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    @pytest.mark.parametrize("partitioned", [False, True], ids=["shared", "cat"])
    def test_width3_matches_scalar(self, category, mask_name, partitioned):
        scripts = _scripts(MASKS[mask_name], partitioned, width=3)
        assert_engines_agree(MIXES[category], scripts, oracle="fast", engines=("sweep",))


class TestBatchWidths:
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_sha256_identity(self, width):
        """The full-result digest is the same whether runs share a kernel
        (width > 1, lockstep sweep) or run alone (width 1, scalar path)."""
        scripts = _scripts(PF_MIXED, True, width=width)
        want = assert_engines_agree(MIXES["pref_agg"], scripts, oracle="fast", engines=())
        batch = simulate_batch(_batch_specs(MIXES["pref_agg"], scripts), SC, trace_store=STORE)
        assert _digest((rs.totals, rs.wall_cycles) for rs in batch) == _digest(
            (w["pmu"], w["wall"]) for w in want
        )

    def test_ragged_subgroups(self):
        """Specs with different mask vectors split into lockstep sub-groups
        of uneven width (3 + 2) plus a singleton on the per-run path —
        all bit-identical, order preserved."""
        mix = MIXES["pref_unfri"]
        scripts = (
            _scripts(PF_ON, True, width=3)
            + _scripts(PF_OFF, True, width=2)
            + _scripts(PF_MIXED, False, width=1)
        )
        want = assert_engines_agree(mix, scripts, oracle="fast", engines=())
        batch = simulate_batch(_batch_specs(mix, scripts), SC, trace_store=STORE)
        assert len(batch) == 6
        for i, (rs, w) in enumerate(zip(batch, want)):
            assert np.array_equal(rs.totals, w["pmu"]), f"spec[{i}] diverged"
            assert rs.wall_cycles == w["wall"], f"spec[{i}] wall diverged"


class TestLockstepSweep:
    def test_llc_state_matches_scalar(self):
        """Five splits in one run_static_sweep: each row's PMU, wall, LLC
        stats and occupancy equal its own scalar machine."""
        scripts = _scripts(PF_MIXED, True, width=5)
        assert_engines_agree(MIXES["pref_agg"], scripts, oracle="fast", engines=("sweep",))

    def test_kernel_reused_across_sweeps(self):
        """One kernel serves any number of sweeps: a second sweep with the
        same masks and a different access count starts from fresh cores,
        not from where the first one stopped."""
        scripts = [
            script
            for n_acc in (N_ACCESSES, N_ACCESSES // 2 + 100)
            for script in _scripts(PF_ON, True, width=3, n_accesses=n_acc, first_split=3)
        ]
        assert_engines_agree(MIXES["pref_unfri"], scripts, oracle="fast", engines=("sweep",))


#: The working-set test's lockstep serve: 4 quanta of 256 accesses.  The
#: module's cap, scaled down so spans that cross it several times stay
#: quick on a machine whose private caches fill within the shortest one.
WS_QUANTUM = 256
WS_CAP_QUANTA = 4


class TestLockstepWorkingSet:
    def test_peak_is_flat_in_the_span(self, tiny_params, monkeypatch):
        """A lockstep group holds one cohort step, not its whole run: with
        every member's single span past the serve cap, quadrupling the
        span leaves the traced peak where it was (request lists and
        merged streams are dropped once served), and every member still
        equals its own scalar fast machine."""
        n_cores = tiny_params.n_cores
        monkeypatch.setattr(
            sim_batch, "_SERVE_ACCESSES", WS_CAP_QUANTA * WS_QUANTUM * n_cores
        )
        span = 2 * WS_CAP_QUANTA * WS_QUANTUM
        self._traced_peak(tiny_params, WS_QUANTUM)  # first-call allocations stay out
        short = self._traced_peak(tiny_params, span)
        long = self._traced_peak(tiny_params, 4 * span)
        assert long <= 1.3 * short, (short, long)

    @staticmethod
    def _traced_peak(params, n) -> int:
        """Three CAT splits of one mix, each a single ``n``-access span,
        as one lockstep group: the tracemalloc peak of its run."""
        full = (1 << params.llc.ways) - 1
        splits = [((0, (1 << k) - 1), (1, full ^ ((1 << k) - 1))) for k in (1, 3, 6)]
        scripts = [static_script((0x0, 0x0), (cbms, (0, 1)), n) for cbms in splits]
        store = TraceStore()

        def traces():
            return [
                store.trace_for(
                    bench, llc_lines=params.llc.lines,
                    base_line=cpu * CORE_ADDRESS_STRIDE_LINES, seed=cpu, length=n,
                )
                for cpu, bench in enumerate(("rand_access", "470.lbm"))
            ]

        kernel = sim_batch.BatchKernel(params, quantum=WS_QUANTUM)
        for cpu, trace in enumerate(traces()):  # materialised before tracing starts
            kernel.add_core(cpu, trace)
        group = LockstepGroup(kernel, len(scripts))
        tracemalloc.start()
        try:
            group.run([script.drive for script in scripts])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for r, script in enumerate(scripts):
            m = Machine(params, quantum=WS_QUANTUM, engine=ENGINE_FAST)
            for cpu, trace in enumerate(traces()):
                m.attach_trace(cpu, trace)
            script.drive(m)
            got = group.members[r].pmu
            assert np.array_equal(got.counts, m.pmu.counts), f"run {r}: PMU"
            assert got.wall_cycles == m.pmu.wall_cycles, f"run {r}: wall cycles"
        return peak


class TestStaticSweepTiming:
    """The sweep's timing: one batched solve per quantum for every run."""

    def _idle_column_specs(self):
        """A 4-core mix on the 8-core tiny machine: cores 4-7 stay idle.
        Two disjoint way splits plus one overlapping-CBM configuration
        (ways 8-11 shared), which the grouped LLC serves by round loop."""
        full = (1 << TINY.params().llc.ways) - 1
        configs = [
            (((0, 0xF), (1, full ^ 0xF)), (0, 1, 0, 1)),
            (((0, (1 << 13) - 1), (1, full ^ ((1 << 13) - 1))), (0, 1, 0, 1)),
            (((0, (1 << 12) - 1), (1, full ^ 0xFF)), (0, 1, 0, 1)),
        ]
        return [
            BatchRunSpec(mix=MIXES["pref_agg"], n_accesses=IDLE_N_ACCESSES, masks=PF_MIXED,
                         clos_cbms=clos_cbms, core_clos=core_clos)
            for clos_cbms, core_clos in configs
        ]

    def test_idle_columns_match_scalar(self, monkeypatch):
        specs = self._idle_column_specs()
        assert specs[0].mix.n_cores < TINY.params().n_cores
        rounds = []
        round_loop = sim_batch.GroupedLLC._round_loop

        def round_spy(self, stream, run_idx, *args):
            rounds.extend(run_idx.tolist())
            return round_loop(self, stream, run_idx, *args)

        monkeypatch.setattr(sim_batch.GroupedLLC, "_round_loop", round_spy)
        before = degradation_count()
        batch = simulate_batch(specs, TINY, trace_store=STORE)
        assert degradation_count() == before, "the sweep fell back to scalar"
        assert rounds == [2], f"round loop served {rounds}"
        for i, (rs, spec) in enumerate(zip(batch, specs)):
            ref = _scalar_stats(spec, TINY)
            assert rs.totals.shape == (TINY.params().n_cores, ref["totals"].shape[1])
            assert np.array_equal(rs.totals, ref["totals"]), f"config {i}: totals diverged"
            assert rs.wall_cycles == ref["wall"], f"config {i}: wall cycles diverged"
            assert type(rs.wall_cycles) is float

    def test_one_solve_per_quantum(self, monkeypatch):
        """Not one per (run, quantum): the solve takes every run at once."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_quantum(*args, **kwargs)

        monkeypatch.setattr(sim_batch, "solve_quantum", counting)
        specs = self._idle_column_specs()
        simulate_batch(specs, TINY, trace_store=STORE)
        assert len(calls) == -(-IDLE_N_ACCESSES // TINY.quantum)
        assert all(np.shape(c.n_llc_hit_d) == (len(specs), TINY.params().n_cores) for c in calls)


def _session_payloads(runs, engine=None) -> dict:
    with ExperimentSession(cache_dir=None, max_workers=1, engine=engine) as session:
        return session.execute(runs)


class TestMidRunControlFlips:
    def test_mechanism_specs_match_scalar(self):
        """Controller-driven runs flip masks/CAT every epoch; a batch
        session's lockstep group must reproduce ``fast`` exactly.  The
        session stores a payload's decision traces beside it."""
        mix = MIXES["pref_unfri"]
        mechs = ("pt", "cmm-a")
        want = assert_engines_agree(mix, [Mechanism(m) for m in mechs], oracle="fast", engines=())
        runs = [PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism=m) for m in mechs]
        before = degradation_count()
        batched = _session_payloads(runs)
        assert degradation_count() == before
        got = [batched[run.key()] for run in runs]
        want = [{k: v for k, v in w["result"].items() if k != "traces"} for w in want]
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


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
    """Controller-driven (dynamic) runs in one masked lockstep group
    match ``fast`` (full result payload and machine state) across mixes,
    shared/CAT mechanisms and group widths 1, 3 and 8 (width 1 a real
    one-member lockstep group).  The session path to the same groups is
    :class:`TestSessionDispatch` and :class:`TestMidRunControlFlips`."""

    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize(
        "width,axis", sorted(DYNAMIC_CASES), ids=lambda v: str(v)
    )
    def test_mechanism_matrix_sha256(self, category, width, axis):
        mechs = [Mechanism(m) for m in DYNAMIC_CASES[(width, axis)]]
        assert len(mechs) == width
        assert_engines_agree(MIXES[category], mechs, oracle="fast", engines=("batch",))


class TestSessionDispatch:
    MECHS = ("baseline", "pt")

    def test_batched_session_payloads_identical(self, monkeypatch):
        """The result cache cannot tell which engine produced an entry."""
        mix = MIXES["pref_agg"]
        runs = [PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism=m) for m in self.MECHS]
        assert self._batched_matches_fast(runs, monkeypatch) == [2]

    @staticmethod
    def _batched_matches_fast(runs, monkeypatch, oracle="fast"):
        """Execute ``runs`` on a batch session and on an ``oracle`` one;
        assert payload identity and return the batch session's group sizes."""
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
        scalar = ExperimentSession(cache_dir=None, max_workers=1, engine=oracle).execute(runs)
        assert len(batched) == len(runs)
        assert json.dumps(batched, sort_keys=True) == json.dumps(scalar, sort_keys=True)
        return groups

    def test_params_runs_share_one_lockstep_group(self, monkeypatch):
        mix = MIXES["pref_unfri"]
        runs = [
            PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism=m, params=p)
            for m, p in (
                ("baseline", {}),
                ("pref-cp", {"partition_factor": 0.5}),
                ("pref-cp", {"partition_factor": 1.5}),
                ("pt", {"fine_grained": True}),
            )
        ]
        assert self._batched_matches_fast(runs, monkeypatch) == [4]

    def test_unaligned_scale_is_one_group_matching_reference(self, monkeypatch):
        """Interval lengths off the traces' 32-access burst split lanes
        mid-burst: still one lockstep group, no degradation, no live
        trace, and the reference engine's payloads."""
        sc = dataclasses.replace(TINY, sample_units=300, exec_units=3000)
        mix = make_mixes("pref_agg", 1, seed=2019)[0]
        runs = [
            PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=m)
            for m in ("baseline", "pt", "cmm-a", "pref-cp")
        ]
        assert self._batched_matches_fast(runs, monkeypatch, oracle="reference") == [4]

    def test_groups_split_by_scale_value(self, monkeypatch):
        """Scales with one name but different sample_units are two groups."""
        mix = MIXES["pref_unfri"]
        runs = [
            PlannedRun(KIND_MECHANISM, dataclasses.replace(SC, sample_units=u),
                       mix=mix, mechanism="pt")
            for u in (256, 512)
        ]
        assert self._batched_matches_fast(runs, monkeypatch) == []

    def test_groups_split_by_mix_value(self, monkeypatch):
        """Mixes with one name and seed but another benchmark order are two groups."""
        mix = MIXES["pref_unfri"]
        flipped = dataclasses.replace(mix, benchmarks=mix.benchmarks[::-1])
        assert flipped.benchmarks != mix.benchmarks
        runs = [PlannedRun(KIND_MECHANISM, SC, mix=m, mechanism="pt") for m in (mix, flipped)]
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

        built = []
        real_init = Machine.__init__

        def spy(machine, *a, **kw):
            real_init(machine, *a, **kw)
            built.append(machine.engine)

        sc = dataclasses.replace(SC, alone_accesses=1024, profile_accesses=1024)
        runs = [
            PlannedRun(KIND_MECHANISM, sc, mix=MIXES["pref_agg"], mechanism="pt"),
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
    def test_unknown_name_lists_engines(self):
        with pytest.raises(EngineSelectionError) as exc:
            resolve_engine("warp")
        msg = str(exc.value)
        for name in available_engines() + (ENGINE_AUTO,):
            assert name in msg

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


class TestEngineSelection:
    @pytest.mark.parametrize(
        "env,name,expected",
        [
            (None, None, ENGINE_FAST),  # the default
            (None, ENGINE_AUTO, ENGINE_FAST),
            ("reference", None, ENGINE_REFERENCE),  # the environment selects
            ("reference", ENGINE_AUTO, ENGINE_REFERENCE),
            ("reference", "fast", ENGINE_FAST),  # an explicit name beats it
            ("reference", "batch", ENGINE_BATCH),
            (None, "warp", None),  # unknown names
            ("warp", None, None),
            (None, "native", None),  # a deleted tier is unknown too
        ],
    )
    def test_resolve_engine(self, tiny_params, monkeypatch, env, name, expected):
        assert available_engines() == (ENGINE_REFERENCE, ENGINE_FAST, ENGINE_BATCH)
        assert DEFAULT_ENGINE == ENGINE_FAST
        if env is None:
            monkeypatch.delenv(ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(ENV_VAR, env)
        if expected is None:
            with pytest.raises(EngineSelectionError, match="unknown simulation engine") as exc:
                resolve_engine(name)
            for known in available_engines() + (ENGINE_AUTO,):
                assert repr(known) in str(exc.value)
            with pytest.raises(ValueError, match="unknown simulation engine"):
                Machine(tiny_params, engine=name)
            return
        spec = resolve_engine(name)
        assert spec.name == expected
        assert spec.batched == (expected == ENGINE_BATCH)
        assert Machine(tiny_params, engine=name).engine == expected
