"""Trace-plane chaos: shared-memory segments must never outlive their
session — not after worker crashes, not after KeyboardInterrupt, not
after a session is simply dropped.

Every check reads the segments this process (or the child it spawned)
published: segment names carry the publishing pid, so another process's
live session on the same host is not a leak of this one.

Uses the ``fork`` start method and real mechanism and alone runs (which
publish segments), some replaced by the faults in ``tests.chaos.workers``
through :func:`~repro.experiments.chaos.injected_faults`, so the leak
paths exercised are the production executor's pool paths.
"""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.experiments import pool
from repro.experiments.chaos import injected_faults
from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    ExperimentSession,
    PlannedRun,
)
from repro.platform.faults import verify_no_segment_leaks
from repro.sim.tracestore import shm_residue
from repro.workloads.mixes import make_mixes
from tests.chaos.workers import crash, hang, slow

SC = dataclasses.replace(
    TINY, name="unit", quantum=256, sample_units=256, exec_units=2048, alone_accesses=4096
)
FORK = multiprocessing.get_context("fork")

#: Healthy stand-ins, and the run each test faults.
OK_A, OK_B, OK_C, SLOW_A, SLOW_B, SLOW_C, FAULTY = (
    PlannedRun(KIND_ALONE, SC, bench=b)
    for b in ("410.bwaves", "462.libquantum", "459.GemsFDTD", "437.leslie3d",
              "481.wrf", "433.milc", "470.lbm")
)

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no POSIX shared-memory filesystem"),
    pytest.mark.usefixtures("plenty_of_cpus"),
]


def mech(mechanism):
    mix = make_mixes("pref_agg", 1, seed=2019)[0]
    return PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism=mechanism)


def make_session(tmp_path, **kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("mp_context", FORK)
    kw.setdefault("run_timeout", 120)
    return ExperimentSession(cache_dir=tmp_path / "cache", **kw)


class TestWorkerCrash:
    def test_crash_mid_batch_completes_and_leaks_nothing(self, tmp_path, own_residue):
        """A worker dies while segments are published: the respawned
        pool finishes the mechanism runs, and close() leaves /dev/shm
        clean — the dead worker only ever *attached*."""
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): crash}):
            out = session.execute([mech("baseline"), FAULTY, mech("cmm-a")], strict=False)
        assert len(out) == 2  # both mechanism runs completed
        assert list(session.failed) == [FAULTY.key()]
        assert own_residue()  # plane was used
        session.close()
        assert verify_no_segment_leaks(os.getpid()) == []
        assert own_residue() == []

    def test_segments_survive_respawn_for_retried_runs(self, tmp_path, own_residue):
        # The store (and its segments) belongs to the session, not the
        # pool: a pool crash must not invalidate published segments.
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): crash}):
            session.execute([mech("baseline"), FAULTY], strict=False)
        before = own_residue()
        out = session.execute([mech("pt")])
        assert len(out) == 1
        assert own_residue() == before  # reused
        session.close()
        assert own_residue() == []

    def test_hang_then_timeout_leaks_nothing(self, tmp_path, own_residue):
        session = make_session(tmp_path, run_timeout=0.6)
        with injected_faults({FAULTY.key(): hang}):
            out = session.execute([FAULTY, OK_A], strict=False)
        assert len(out) == 1
        session.close()
        assert own_residue() == []


class TestIsolatedPoolReuse:
    def test_isolation_pool_is_reused_until_it_breaks(self, tmp_path, own_residue):
        """pool_respawns=0 sends the batch to the isolation pool after
        the first crash; the healthy stragglers then share ONE
        single-worker pool instead of paying one pool per run.

        The healthy runs are faulted ``slow``, so the crash breaks the
        batch pool while they are still in flight — a broken pool
        fails *every* outstanding future, running ones included — and
        all three deterministically reach the isolation pool."""
        session = make_session(tmp_path, pool_respawns=0)
        faults = {FAULTY.key(): crash} | {r.key(): slow for r in (SLOW_A, SLOW_B, SLOW_C)}
        with injected_faults(faults):
            out = session.execute([FAULTY, SLOW_A, SLOW_B, SLOW_C], strict=False)
        assert set(out) == {r.key() for r in (SLOW_A, SLOW_B, SLOW_C)}
        # The isolation pool survived the batch for the next one.
        iso = session._pools["iso"]
        assert iso is not None
        session.execute([SLOW_A])  # cached — pool untouched
        assert session._pools["iso"] is iso
        session.close()
        assert session._pools["iso"] is None
        assert own_residue() == []

    def test_isolated_crash_respawns_only_then(self, tmp_path):
        """With pool_respawns=0 the crash sends every run to isolation, in
        plan order: the shards [SLOW_A, OK_B] and [FAULTY, OK_C] are
        re-queued whole, and isolation splits them into single runs.  The
        first shard calls ``SLOW_A``'s ``slow`` fault before computing,
        so it is still in flight when ``FAULTY`` breaks the batch pool."""
        seen = []  # (key, error, isolation pool) as each run reports
        session = make_session(
            tmp_path, pool_respawns=0,
            progress=lambda rec, done, total: seen.append((rec.key, rec.error, session._pools["iso"])),
        )
        with injected_faults({FAULTY.key(): crash, SLOW_A.key(): slow}):
            session.execute([SLOW_A, FAULTY, OK_B, OK_C], strict=False)
        keys = [key for key, _err, _iso in seen]
        assert keys == [r.key() for r in (SLOW_A, OK_B, FAULTY, OK_C)]
        (_, _, iso), (_, _, reused), (_, crashed, before_discard), (_, _, fresh) = seen
        # A healthy isolated run creates the pool...
        assert iso is not None
        # ...a second healthy run reuses exactly that pool...
        assert reused is iso
        # ...and only a crash discards it; the next run respawns fresh.
        assert crashed is not None and before_discard is iso
        assert fresh is not None and fresh is not iso
        assert session._pools["iso"] is fresh
        session.close()


class TestSessionLifecycle:
    def test_close_is_idempotent_and_contextmanager_closes(self, tmp_path, own_residue):
        with make_session(tmp_path, max_workers=1) as session:
            session.execute([mech("baseline")])
        session.close()
        assert own_residue() == []

    def test_abandoned_session_finalizes_on_gc(self, tmp_path, own_residue):
        session = make_session(tmp_path)
        assert pool.manifest_for(session, [mech("baseline")])  # publishes segments
        assert own_residue() != []
        del session
        import gc

        gc.collect()
        assert own_residue() == []

    def test_keyboard_interrupt_leaks_nothing(self, tmp_path):
        """SIGINT → KeyboardInterrupt → interpreter exit must unlink
        every published segment via the finalizer backstop."""
        script = textwrap.dedent(
            """
            import dataclasses, os, signal
            from repro.experiments.config import TINY
            from repro.experiments import pool
            from repro.experiments.engine import (
                KIND_MECHANISM, ExperimentSession, PlannedRun,
            )
            from repro.platform.faults import verify_no_segment_leaks
            from repro.workloads.mixes import make_mixes

            SC = dataclasses.replace(
                TINY, name="unit", quantum=256, sample_units=256,
                exec_units=2048, alone_accesses=4096,
            )
            session = ExperimentSession(cache_dir=None, max_workers=1)
            mix = make_mixes("pref_agg", 1, seed=2019)[0]
            run = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="baseline")
            assert pool.manifest_for(session, [run]), "expected published segments"
            assert verify_no_segment_leaks(os.getpid()), "expected live segments before interrupt"
            print("SEGMENTS-LIVE", os.getpid(), flush=True)
            signal.raise_signal(signal.SIGINT)
            """
        )
        env = dict(os.environ)
        src = str((os.path.dirname(__file__) or ".") + "/../../src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert "SEGMENTS-LIVE" in proc.stdout
        assert proc.returncode != 0  # died to the interrupt, not cleanly
        child = int(proc.stdout.split("SEGMENTS-LIVE")[1].split()[0])
        assert verify_no_segment_leaks(child) == []


class TestLeakVerifier:
    def test_reports_each_leaked_segment(self, tmp_path):
        from multiprocessing import shared_memory

        name = f"repro-tr-{os.getpid():x}-leaktest"
        seg = shared_memory.SharedMemory(create=True, size=64, name=name)
        try:
            assert any(name in p for p in verify_no_segment_leaks(os.getpid()))
        finally:
            seg.close()
            seg.unlink()
        assert verify_no_segment_leaks(os.getpid()) == []

    def test_another_process_segment_is_not_a_leak(self, tmp_path, own_residue):
        """A segment another process holds open while this process runs
        and closes a session shows up host-wide, but not in this
        process's checks."""
        from multiprocessing import shared_memory

        name = f"repro-tr-{os.getppid():x}-1-foreign"
        seg = shared_memory.SharedMemory(create=True, size=64, name=name)
        try:
            with make_session(tmp_path, max_workers=1) as session:
                session.execute([mech("baseline")])
                assert pool.manifest_for(session, [mech("pt")])  # publishes segments
                assert own_residue() and name not in own_residue()
            assert name in shm_residue()
            assert own_residue() == []
            assert verify_no_segment_leaks(os.getpid()) == []
        finally:
            seg.close()
            seg.unlink()
