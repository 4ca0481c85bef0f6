"""One differential harness: every engine against ``reference``.

The cache keys leave the engine out because ``fast`` and ``batch``
reproduce ``reference`` bit for bit under the run-time controls the
paper's mechanisms act through: per-core prefetch MSR masks and CAT
way masks, rewritten between intervals.  Each example draws a mix, a
group width (1-8) and, per run, a control script (intervals with
prefetch-mask and CBM/CLOS writes between them) or a mechanism driven
through :func:`~repro.experiments.runner.drive_mechanism`.  Each run
executes on a ``reference`` and a ``fast`` machine, as a member of one
``batch`` :class:`~repro.sim.batch.LockstepGroup` and, for a static
script, as a :func:`~repro.sim.batch.run_static_sweep` row; all are
held to ``reference`` on PMU counters, wall cycles, L1/L2/LLC stats,
occupancy and way-exact images, the prefetcher tables and the payload
(a sweep row on what it returns).  Every sweep serve is served again
with an explicit ``runs=`` list, which takes the round loop where the
cold serve took the stack strategy, and the two must agree.  The
hand-picked engine cases elsewhere call :func:`assert_engines_agree`
on the engines they name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICIES
from repro.experiments.batch import build_batch_kernel
from repro.experiments.config import ScaleConfig
from repro.experiments.runner import build_machine, drive_mechanism, mechanism_payload
from repro.sim.batch import GroupedLLC, LockstepGroup, run_static_sweep
from repro.sim.fastcache import FastCache
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import CATEGORIES, WorkloadMix, make_mixes

SC = ScaleConfig(
    name="engine-diff", llc_scale=16, n_cores=4, quantum=512,
    sample_units=512, exec_units=2048, n_epochs=1,
)
Q = SC.quantum
N_CORES = SC.n_cores
WAYS = SC.params().llc.ways
FULL = (1 << WAYS) - 1
STORE = TraceStore()

MIXES = {c: make_mixes(c, 1, n_cores=N_CORES, seed=2019)[0] for c in CATEGORIES}
#: Three benchmarks on the four-core machine leave core 3 idle, and
#: core 1 is idled too, so idle cores sit between and after busy ones.
MIXES["idle"] = make_mixes("pref_no_agg", 1, n_cores=N_CORES - 1, seed=2019)[0]
IDLED = {"idle": (1,)}


@dataclass(frozen=True)
class Script:
    """``(masks, cat, n)`` intervals: write the per-core prefetch masks
    and, unless ``cat`` is None, its ``(clos_cbms, core_clos)``, then run
    ``n`` accesses per core."""

    intervals: tuple

    def drive(self, m) -> None:
        for masks, cat, n in self.intervals:
            for cpu, mask in enumerate(masks):
                m.prefetch_msr.set_mask(cpu, mask)
            if cat is not None:
                clos_cbms, core_clos = cat
                for clos, cbm in clos_cbms:
                    m.cat.set_cbm(clos, cbm)
                for cpu, clos in enumerate(core_clos):
                    m.cat.assign_core(cpu, clos)
            m.run_accesses(n)


@dataclass(frozen=True)
class Mechanism:
    name: str
    params: tuple = ()

    def drive(self, m) -> dict:
        return mechanism_payload(drive_mechanism(m, self.name, SC, self.params))


# -- observables ----------------------------------------------------------


def _stats(s) -> tuple:
    return (s.accesses, s.hits, s.pref_fills, s.pref_used, s.pref_evicted_unused)


def _rows(table) -> list:
    """A prefetcher table (key -> row, FIFO order) as ``[key, *row]`` lists."""
    return [[int(k), *map(int, row)] for k, row in table.items()]


def lru_ranks(tags, stamps) -> np.ndarray:
    """Each valid way's LRU rank within its set (-1 for a never-filled way)."""
    valid = tags != -1
    order = np.argsort(np.where(valid, stamps, np.iinfo(np.int64).max), axis=1, kind="stable")
    return np.where(valid, np.argsort(order, axis=1), -1).astype(np.int8)


def _llc_image(tags, stamps, pref) -> dict:
    return {"llc_tags": tags, "llc_pref": pref, "llc_lru": lru_ranks(tags, stamps)}


def _private_image(cache) -> tuple:
    """An L1/L2's ``(tags, prefetched-unused bits)``, ways in LRU -> MRU order."""
    if isinstance(cache, FastCache):
        return cache.tags_array(), cache.pref_array() != 0
    tags = np.full((cache.n_sets, cache.ways), -1, dtype=np.int64)
    for si, s in enumerate(cache._sets):
        tags[si, : len(s)] = list(s)
    return tags, np.isin(tags, list(cache._pref_unused))


def _machine_state(m, result) -> dict:
    out = {
        "result": result,
        "pmu": m.pmu.counts.copy(),
        "wall": m.pmu.wall_cycles,
        "llc_stats": _stats(m.llc_stats()),
        "llc_occ": m.llc_occupancy(),
    }
    if m.engine == "reference":
        llc = m.llc
        tags = np.array(llc._tags, dtype=np.int64)
        out |= _llc_image(tags, np.array(llc._stamps, dtype=np.int64),
                          np.isin(tags, list(llc._pref_unused)))
    else:
        out |= _llc_image(m.llc.tags[0], m.llc.stamps[0], m.llc.pref[0] != 0)
    for cpu, cs in enumerate(m.cores):
        for lvl in ("l1", "l2"):
            cache = getattr(cs, lvl)
            out[f"{lvl}_stats{cpu}"] = _stats(cache.stats)
            if cs.active:
                out[f"{lvl}_occ{cpu}"] = cache.occupancy()
                out[f"{lvl}_tags{cpu}"], out[f"{lvl}_pref{cpu}"] = _private_image(cache)
        if cs.active:
            out[f"stride{cpu}"] = _rows(cs.bank.ip_stride._table)
            out[f"streamer{cpu}"] = _rows(cs.bank.streamer._table)
    return out


def _core_snapshot(group: LockstepGroup, r: int) -> dict:
    """Run ``r``'s private-core state, read from the grouped cores."""
    out = {}
    for cpu, core in group.cores.items():
        lane = next(lane.state for lane in core.lanes if r in lane.runs)
        for lvl in ("l1", "l2"):
            tags = core.cache_tensors(lvl)[0][r]
            out[f"{lvl}_occ{cpu}"] = int((tags != -1).sum())
            out[f"{lvl}_tags{cpu}"] = tags
            out[f"{lvl}_pref{cpu}"] = getattr(lane, lvl).pref_array() != 0
        table = core.stride_tensor()[r]
        out[f"stride{cpu}"] = table[table[:, 0] != -1].tolist()
        out[f"streamer{cpu}"] = _rows(lane.bank.streamer._table)
    return out


def _assert_same(want: dict, got: dict, label: str) -> None:
    assert want.keys() == got.keys(), f"{label}: observables differ"
    for key, a in want.items():
        b = got[key]
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"{label}: {key} diverged"
        else:
            assert a == b, f"{label}: {key} diverged ({a!r} != {b!r})"


# -- engines --------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _scalar(engine: str, mix: WorkloadMix, idle: tuple, run) -> dict:
    """``run`` on its own scalar machine (a pure function of its
    arguments, so examples that repeat a run reuse it)."""
    m = build_machine(mix, SC, trace_store=STORE if engine == "fast" else None, engine=engine)
    for cpu in idle:
        m.set_idle(cpu)
    return _machine_state(m, run.drive(m))


def _kernel(mix: WorkloadMix, idle: tuple):
    kernel = build_batch_kernel(mix, SC, STORE)
    for cpu in idle:
        del kernel.base_traces[cpu]
    return kernel


def _lockstep(mix: WorkloadMix, idle: tuple, runs) -> list[dict]:
    """Every run as one member of a single lockstep group."""
    group = LockstepGroup(_kernel(mix, idle), len(runs))

    def driver(run, r):
        def drive(m):
            result = run.drive(m)
            # The scheduler retires a finished run's lanes: read them now.
            return result, _core_snapshot(group, r)
        return drive

    outs = group.run([driver(run, r) for r, run in enumerate(runs)])
    llc = group.llc
    states = []
    for r, (result, snapshot) in enumerate(outs):
        m = group.members[r]
        state = {
            "result": result,
            "pmu": m.pmu.counts,
            "wall": m.pmu.wall_cycles,
            "llc_stats": llc.stats_for(r),
            "llc_occ": llc.occupancy(r),
            **_llc_image(llc.tags[r], llc.stamps[r], llc.pref[r] != 0),
            **snapshot,
        }
        for cpu, cs in enumerate(m.cores):
            state[f"l1_stats{cpu}"] = _stats(cs.l1.stats)
            state[f"l2_stats{cpu}"] = _stats(cs.l2.stats)
        states.append(state)
    return states


def _assert_round_loop_agrees(llc: GroupedLLC, stream, allowed, acc) -> None:
    """A cold whole-group serve against the same stream served with an
    explicit ``runs=`` list, which always takes the round loop."""
    looped = GroupedLLC(llc.geometry, llc.n_runs)
    got = [np.zeros_like(a) for a in acc]
    looped.serve(stream, allowed, *got, runs=list(range(llc.n_runs)))
    for a, b in zip(acc, got):
        assert np.array_equal(a, b), "stack and round-loop serves: per-core counters"
    for r in range(llc.n_runs):
        assert llc.stats_for(r) == looped.stats_for(r), f"run {r}: stats by strategy"
        assert llc.occupancy(r) == looped.occupancy(r), f"run {r}: occupancy by strategy"
    # Reading the image replays any deferred (stack-solved) serve.
    for field in ("tags", "stamps", "pref"):
        assert np.array_equal(getattr(llc, field), getattr(looped, field)), f"image: {field}"


def _static_sweeps(mix: WorkloadMix, idle: tuple, runs) -> dict:
    """``{run index: sweep row}``: one sweep per (masks, length) of static scripts."""
    sweeps: dict[tuple, list[int]] = {}
    for i, run in enumerate(runs):
        if isinstance(run, Script) and len(run.intervals) == 1:
            masks, _cat, n = run.intervals[0]
            sweeps.setdefault((masks, n), []).append(i)
    if not sweeps:
        return {}
    kernel = _kernel(mix, idle)
    serve = GroupedLLC.serve
    rows = {}
    for (masks, n), idx in sweeps.items():
        served = []  # every serve's arguments, to serve again by round loop

        def recording(llc, stream, allowed, *acc, runs=None):
            serve(llc, stream, allowed, *acc, runs=runs)
            served.append((llc, stream, allowed, [a.copy() for a in acc]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GroupedLLC, "serve", recording)
            out = run_static_sweep(
                kernel, [runs[i].intervals[0][1] or ((), ()) for i in idx], masks, n
            )
        for args in served:
            _assert_round_loop_agrees(*args)
        rows.update(zip(idx, out))
    return rows


#: What :func:`assert_engines_agree` can hold to the oracle: scalar
#: ``fast`` machines, one ``batch`` lockstep group, the static ``sweep``s.
ENGINES = ("fast", "batch", "sweep")


def assert_engines_agree(
    mix: WorkloadMix, runs, idle: tuple = (), oracle: str = "reference", engines=ENGINES
) -> list[dict]:
    """Run ``runs`` of ``mix`` (cores ``idle`` idled) on ``oracle``'s
    scalar machines, hold each of ``engines`` to them and return the
    oracle's states."""
    want = [_scalar(oracle, mix, idle, run) for run in runs]
    if "fast" in engines:
        for r, run in enumerate(runs):
            _assert_same(want[r], _scalar("fast", mix, idle, run), f"fast run {r} ({run})")
    if "batch" in engines:
        for r, got in enumerate(_lockstep(mix, idle, runs)):
            _assert_same(want[r], got, f"batch run {r} ({runs[r]})")
    if "sweep" in engines:
        for r, row in _static_sweeps(mix, idle, runs).items():
            got = {
                "pmu": row.pmu_counts,
                "wall": row.wall_cycles,
                "llc_stats": row.llc_stats,
                "llc_occ": row.llc_occupancy,
            }
            _assert_same({key: want[r][key] for key in got}, got, f"sweep run {r} ({runs[r]})")
    return want


# -- draws ----------------------------------------------------------------

PF_ON, PF_OFF, PF_MIXED = (0x0,) * N_CORES, (0xF,) * N_CORES, (0x5, 0xA, 0x3, 0xC)
#: Shared mask vectors make static scripts meet in one sweep.
MASKS = st.one_of(
    st.sampled_from([PF_ON, PF_OFF, PF_MIXED, (0x0, 0xF, 0x5, 0x0)]),
    st.tuples(*[st.integers(0, 0xF)] * N_CORES),
)
#: Spans shorter than, equal to and not aligned with a quantum.  All
#: are multiples of the traces' 32-access burst, the grain a stored
#: trace serves; off that grain a lockstep lane goes live and its group
#: degrades to scalar runs by design.
SPANS = (288, Q, Q + 256, 2 * Q, 3 * Q + 256)


@st.composite
def cat_writes(draw, disjoint: bool | None = None):
    """CBMs for 1-3 CLOS and every core's CLOS: each inside its own slice
    of the ways (``disjoint``, the stack-solved shape) or anywhere, so
    they nest and overlap; ``disjoint`` None draws which."""
    n_clos = draw(st.integers(1, 3))
    if draw(st.booleans()) if disjoint is None else disjoint:
        cuts = draw(st.lists(
            st.integers(1, WAYS - 1), min_size=n_clos - 1, max_size=n_clos - 1, unique=True
        ))
        bounds = [0, *sorted(cuts), WAYS]
        slices = list(zip(bounds, bounds[1:]))
    else:
        slices = [(0, WAYS)] * n_clos
    cbms = []
    for lo, hi in slices:
        start = draw(st.integers(lo, hi - 1))
        cbms.append(((1 << draw(st.integers(1, hi - start))) - 1) << start)
    core_clos = draw(st.tuples(*[st.integers(0, n_clos - 1)] * N_CORES))
    return tuple(enumerate(cbms)), core_clos


SCRIPTS = st.lists(
    st.tuples(MASKS, st.none() | cat_writes(), st.sampled_from(SPANS)), min_size=1, max_size=3
).map(lambda intervals: Script(tuple(intervals)))
MECHANISMS = st.sampled_from(
    [Mechanism(name) for name in POLICIES]
    + [Mechanism("pref-cp", (("partition_factor", 0.5),)), Mechanism("pt", (("fine_grained", True),))]
)


def static_script(masks, cat, n) -> Script:
    return Script(((masks, cat, n),))


def split_ways(k: int, core_clos=(0, 1, 0, 1)) -> tuple:
    """CLOS 0 gets the low ``k`` ways, CLOS 1 the rest."""
    return ((0, (1 << k) - 1), (1, FULL ^ ((1 << k) - 1))), core_clos


class TestEngineDifferential:
    @settings(max_examples=5, deadline=None)
    @given(
        mix=st.sampled_from(sorted(MIXES)),
        runs=st.lists(st.one_of(SCRIPTS, MECHANISMS), min_size=1, max_size=8),
    )
    @example(  # idle cores, spans shorter than one quantum, a mechanism beside them
        mix="idle",
        runs=[
            static_script(PF_ON, (((0, 0b1), (1, 0b10), (2, 1 << (WAYS - 1))), (0, 0, 1, 2)), 288),
            static_script(PF_ON, (((0, FULL),), (0, 0, 0, 0)), 288),
            Script(((PF_MIXED, split_ways(10), 288), (PF_OFF, None, 288), (PF_ON, split_ways(3), Q + 256))),
            Mechanism("cmm-a"),
        ],
    )
    @example(  # a stack-solved cold fill in 1-way partitions, then a flip opens every way;
        # the kernel's second sweep has the first's masks and another length; the
        # last run's core lanes meet the first's under one mask with other images
        mix="pref_unfri",
        runs=[
            Script(((PF_ON, (((0, 0b1), (1, 0b10)), (0, 1, 0, 1)), Q),
                    (PF_ON, (((0, FULL), (1, FULL)), (0, 1, 0, 1)), 2 * Q))),
            static_script(PF_ON, (((0, 0b1), (1, 0b10)), (0, 1, 0, 1)), 2 * Q),
            static_script(PF_ON, split_ways(5), Q),
            Script(((PF_OFF, None, Q), (PF_ON, None, 2 * Q))),
        ],
    )
    @example(  # ragged subgroups: 3 + 2 + 1 runs by masks, beside two mechanisms
        mix="pref_unfri",
        runs=[
            *(static_script(PF_ON, split_ways(k), Q + 256) for k in (2, 3, 4)),
            *(static_script(PF_OFF, split_ways(k), Q + 256) for k in (2, 3)),
            static_script(PF_MIXED, None, Q + 256),
            Mechanism("pref-cp", (("partition_factor", 0.5),)),
            Mechanism("ppm-group"),
        ],
    )
    def test_every_engine_matches_reference(self, mix, runs):
        assert_engines_agree(MIXES[mix], runs, IDLED.get(mix, ()))
