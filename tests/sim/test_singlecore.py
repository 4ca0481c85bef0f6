"""The single-core plane against scalar alone runs.

:func:`repro.sim.singlecore.run_single_core` answers many single-core
runs from shared passes; every row must equal ``Pmu.delta_since`` of
its own scalar fast machine (``classify.run_alone``), bit for bit.
Innermost first: hypothesis-drawn rows (masks with prefetchers on and
all off, CAT ways, quanta, ragged warm-ups and windows sharing one
pass), then every benchmark's profile payload through the engine's
group, the trace-prefix property alone runs rely on, the session
storing the alone runs a profile answered, alone-only groups staying
off scalar machines, and a host-independent bound on the plane's peak
memory.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.batch import compute_single_core_group
from repro.experiments.config import SCALES, ScaleConfig
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_PROFILE,
    ExperimentSession,
    PlannedRun,
)
from repro.experiments.pool import TASK_RUN, _execute_task
from repro.sim.machine import Machine
from repro.sim.msr import PF_ALL_OFF
from repro.sim.singlecore import SingleCoreRow, run_single_core
from repro.sim.tracestore import TraceStore
from repro.workloads.classify import DEFAULT_WAY_SWEEP, run_alone
from repro.workloads.mixes import make_mixes
from repro.workloads.speclike import BENCHMARKS, build_trace

SC = ScaleConfig(
    name="singlecore", llc_scale=16, n_cores=4, quantum=512,
    profile_accesses=2048, alone_accesses=1024,
)
PARAMS = SC.params()
STORE = TraceStore()
BENCHES = ("rand_access", "429.mcf", "410.bwaves", "456.hmmer")
MASKS = (0x0, 0xF, 0x3, 0xC, 0x5)


def _trace(bench: str, length: int):
    return STORE.trace_for(bench, llc_lines=PARAMS.llc.lines, base_line=0, seed=0, length=length)


def _plane(rows):
    traces = {b: _trace(b, max(r.end for r in rows if r.trace == b)) for b in {r.trace for r in rows}}
    return run_single_core(PARAMS, rows, traces)


def _scalar(row: SingleCoreRow):
    m, snap = run_alone(
        row.trace, PARAMS, row.n_accesses, prefetch_mask=row.mask, ways=row.ways,
        quantum=row.quantum, warmup=row.warmup, trace_store=STORE,
    )
    return m.pmu.delta_since(snap)


def _assert_rows_match(rows):
    for row, got in zip(rows, _plane(rows)):
        want = _scalar(row)
        assert np.array_equal(got.deltas, want.deltas), row
        assert got.wall_cycles == want.wall_cycles, row


@st.composite
def _row(draw, benches, masks):
    q = draw(st.sampled_from((256, 512, 1024)))
    # Multiples of the 32-access burst that are not multiples of q.
    warmup = draw(st.one_of(
        st.just(0), st.integers(1, 48).map(lambda k: 32 * k).filter(lambda w: w % q)
    ))
    n = draw(st.integers(1, 64).map(lambda k: 32 * k).filter(lambda k: k % q))
    return SingleCoreRow(
        draw(st.sampled_from(benches)), draw(st.sampled_from(masks)),
        draw(st.one_of(st.none(), st.integers(1, PARAMS.llc.ways))), q, warmup, n,
    )


@st.composite
def _row_sets(draw):
    benches = draw(st.lists(st.sampled_from(BENCHES), min_size=1, max_size=2, unique=True))
    masks = draw(st.lists(st.sampled_from(MASKS), min_size=1, max_size=2, unique=True))
    return draw(st.lists(_row(benches, masks), min_size=1, max_size=4))


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(rows=_row_sets())
    @example(rows=[  # every quantum, all-off and all-on passes, shared
        SingleCoreRow("rand_access", 0xF, None, 256, 800, 1000 - 8),
        SingleCoreRow("rand_access", 0xF, 3, 1024, 0, 1312),
        SingleCoreRow("rand_access", 0x0, 20, 512, 96, 544),
        SingleCoreRow("rand_access", 0x0, None, 1024, 1056, 1056),
    ])
    def test_plane_matches_scalar_runs(self, rows):
        _assert_rows_match(rows)

    def test_profile_and_alone_rows_share_the_on_pass(self):
        n, a = SC.profile_accesses, SC.alone_accesses
        _assert_rows_match([
            SingleCoreRow("429.mcf", 0x0, None, 1024, n, n),
            SingleCoreRow("429.mcf", 0xF, None, 1024, n, n),
            SingleCoreRow("429.mcf", 0x0, None, SC.quantum, a, a),
            *(SingleCoreRow("429.mcf", 0x0, w, 1024, n, n) for w in DEFAULT_WAY_SWEEP),
        ])

    def test_empty_window_and_unaligned_rows(self):
        _assert_rows_match([SingleCoreRow("456.hmmer", 0x0, None, 512, 1024, 0)])
        # Boundaries off the 32-access burst, with prefetchers on and all off.
        _assert_rows_match([
            SingleCoreRow("456.hmmer", 0x0, None, 512, 100, 512),
            SingleCoreRow("456.hmmer", 0x0, 5, 300, 17, 1000),
            SingleCoreRow("456.hmmer", PF_ALL_OFF, 3, 300, 100, 701),
        ])


def scalar(run: PlannedRun) -> dict:
    """``run``'s payload from the executor's single-run path."""
    ((payload, _secs, _answered),) = _execute_task(TASK_RUN, [run], STORE)
    return payload


class TestEngineGroup:
    def test_every_benchmark_profile_matches_profile_benchmark(self):
        runs = [
            PlannedRun(KIND_PROFILE, SC, bench=b, way_sweep=DEFAULT_WAY_SWEEP) for b in BENCHMARKS
        ]
        rows = compute_single_core_group(runs, STORE)
        for r, (payload, _secs, answered) in zip(runs, rows):
            # Key order too: the cache cannot tell which path wrote it.
            assert json.dumps(payload) == json.dumps(scalar(r))
            ((alone_run, alone_payload),) = answered
            assert alone_run == PlannedRun(KIND_ALONE, SC, bench=r.bench)
            assert alone_payload == scalar(alone_run)

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_alone_window_is_a_prefix_of_the_profile_trace(self, scale):
        sc = SCALES[scale]
        alone, profile = 2 * sc.alone_accesses, 2 * sc.profile_accesses
        assert alone <= profile
        kw = {"llc_lines": sc.params().llc.lines, "base_line": 0, "seed": 0}
        for bench in BENCHMARKS:
            short = build_trace(bench, **kw).chunk(alone)
            long = build_trace(bench, **kw).chunk(profile)
            assert np.array_equal(short[0], long[0][:alone]), bench
            assert np.array_equal(short[1], long[1][:alone]), bench

    def test_profiles_answer_their_alone_runs(self, tmp_path):
        mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
        session = ExperimentSession(cache_dir=tmp_path / "a", max_workers=1)
        session.profile_all(mix.benchmarks, SC)
        seen = len(session.records)
        ipcs = session.alone_ipcs(mix, SC)
        assert all(r.cached for r in session.records[seen:])

        fresh = ExperimentSession(cache_dir=tmp_path / "b", max_workers=1)
        assert np.array_equal(fresh.alone_ipcs(mix, SC), ipcs)
        assert not any(r.cached for r in fresh.records)
        for bench in dict.fromkeys(mix.benchmarks):
            key = PlannedRun(KIND_ALONE, SC, bench=bench).key()
            records = []
            for s in (session, fresh):
                rec = json.loads((s.cache.root / key[:2] / f"{key}.json").read_text())
                rec.pop("seconds")
                records.append(json.dumps(rec, sort_keys=True))
            assert records[0] == records[1]

    def test_alone_only_group_builds_no_scalar_machine(self, monkeypatch):
        """A 1-worker batch session executing only alone misses answers
        them on the plane, byte-equal to a fast session's machines."""
        built = []
        init = Machine.__init__

        def spy(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "__init__", spy)
        plan = [PlannedRun(KIND_ALONE, SC, bench=b) for b in BENCHES]

        def payloads(engine):
            with ExperimentSession(
                cache_dir=None, max_workers=1, engine=engine
            ) as s:
                out = s.execute(plan)
            return [json.dumps(out[r.key()]) for r in plan]

        batch = payloads("batch")
        assert built == [], "alone misses ran on scalar machines"
        assert batch == payloads("fast")
        assert len(built) == len(BENCHES)


#: Compute-bound benchmarks: few LLC requests, so the traces and the
#: passes, not the LLC request streams, make up the plane's working set.
QUIET = ("456.hmmer", "453.povray", "444.namd", "416.gamess",
         "400.perlbench", "445.gobmk", "458.sjeng", "465.tonto")
#: Peak bytes per trace access: the compact traces (about 2.7, 6 while
#: one is built) plus, at the peak, the LLC serve's per-set stacks.
#: About 11 today; the kernel passes, one chunk expanded at a time,
#: stay near 3.4.  An int64 trace store (16 on its own) or a plane that
#: expands every pass's whole trace at once (16 more) exceeds it.
PEAK_BYTES_PER_ACCESS = 14


def test_peak_memory_is_bounded_by_the_rows():
    """NumPy reports its buffers to tracemalloc, so the bound holds on any host."""

    def profile_rows(benches, window):
        # A profile's shape: on, all off and one way row, each a warm-up
        # lap of ``window`` accesses then a measured one.
        return [
            SingleCoreRow(b, mask, ways, 1024, window, window)
            for b in benches for mask, ways in ((0x0, None), (PF_ALL_OFF, None), (0x0, 2))
        ]

    def run(rows):
        store = TraceStore()
        lengths = {r.trace: max(q.end for q in rows if q.trace == r.trace) for r in rows}
        traces = {
            b: store.trace_for(b, llc_lines=PARAMS.llc.lines, base_line=0, seed=0, length=n)
            for b, n in lengths.items()
        }
        run_single_core(PARAMS, rows, traces)
        return sum(lengths.values())

    run(profile_rows(QUIET[:1], 1024))  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        accesses = run(profile_rows(QUIET, 16384))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_PER_ACCESS * accesses, peak / accesses
