"""Trace-plane chaos: shared-memory segments must never outlive their
session — not after worker crashes, not after KeyboardInterrupt, not
after a session is simply dropped.

Uses the ``fork`` start method and real mechanism runs (which publish
segments) mixed with the misbehaving ``KIND_HOOK`` workers from
``tests.chaos.workers``, so the leak paths exercised are the
production pool paths.
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
from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_HOOK,
    KIND_MECHANISM,
    ExperimentSession,
    PlannedRun,
)
from repro.platform.faults import verify_no_segment_leaks
from repro.sim.tracestore import shm_residue
from repro.workloads.mixes import make_mixes

SC = dataclasses.replace(
    TINY, name="unit", quantum=256, sample_units=256, exec_units=2048, alone_accesses=4096
)
FORK = multiprocessing.get_context("fork")

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no POSIX shared-memory filesystem"),
    pytest.mark.usefixtures("plenty_of_cpus"),
]


def hook(name):
    return PlannedRun(KIND_HOOK, SC, bench=f"tests.chaos.workers:{name}")


def mech(mechanism):
    mix = make_mixes("pref_agg", 1, seed=2019)[0]
    return PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism=mechanism)


def make_session(tmp_path, **kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("mp_context", FORK)
    kw.setdefault("run_timeout", 120)
    return ExperimentSession(cache_dir=tmp_path / "cache", **kw)


class TestWorkerCrash:
    def test_crash_mid_batch_completes_and_leaks_nothing(self, tmp_path):
        """A worker dies while segments are published: the respawned
        pool finishes the mechanism runs, and close() leaves /dev/shm
        clean — the dead worker only ever *attached*."""
        session = make_session(tmp_path)
        runs = [mech("baseline"), hook("crash"), mech("cmm-a")]
        out = session.execute(runs, strict=False)
        assert len(out) == 2  # both mechanism runs completed
        assert list(session.failed) == [hook("crash").key()]
        assert shm_residue()  # plane was used
        session.close()
        assert verify_no_segment_leaks() == []
        assert shm_residue() == []

    def test_segments_survive_respawn_for_retried_runs(self, tmp_path):
        # The store (and its segments) belongs to the session, not the
        # pool: a pool crash must not invalidate published segments.
        session = make_session(tmp_path)
        session.execute([mech("baseline"), hook("crash")], strict=False)
        before = shm_residue()
        out = session.execute([mech("pt")])
        assert len(out) == 1
        assert shm_residue() == before  # reused
        session.close()
        assert shm_residue() == []

    def test_hang_then_timeout_leaks_nothing(self, tmp_path):
        session = make_session(tmp_path, run_timeout=0.6)
        out = session.execute([hook("hang"), hook("ok_a")], strict=False)
        assert len(out) == 1
        session.close()
        assert shm_residue() == []


class TestIsolatedPoolReuse:
    def test_isolation_pool_is_reused_until_it_breaks(self, tmp_path):
        """pool_respawns=0 sends the batch to the isolation pool after
        the first crash; the healthy stragglers then share ONE
        single-worker pool instead of paying one pool per run.

        The healthy runs are ``slow`` hooks, so the crash breaks the
        batch pool while they are still in flight — a broken pool
        fails *every* outstanding future, running ones included — and
        all three deterministically reach the isolation pool."""
        session = make_session(tmp_path, pool_respawns=0)
        runs = [hook("crash"), hook("slow_a"), hook("slow_b"), hook("slow_c")]
        out = session.execute(runs, strict=False)
        assert len(out) == 3
        assert all(p["ok"] for p in out.values())
        # The isolation pool survived the batch for the next one.
        iso = session._pools["iso"]
        assert iso is not None
        session.execute([hook("slow_a")])  # cached — pool untouched
        assert session._pools["iso"] is iso
        session.close()
        assert session._pools["iso"] is None
        assert shm_residue() == []

    def test_isolated_crash_respawns_only_then(self, tmp_path):
        session = make_session(tmp_path)
        done, failed = [], []
        finish = lambda key, r, payload, secs: done.append(key)
        fail = lambda key, r, err: failed.append(key)
        # A healthy isolated run creates the pool...
        pool.execute_isolated(session, {hook("ok_a").key(): hook("ok_a")}, finish, fail)
        iso = session._pools["iso"]
        assert iso is not None and done
        # ...a second healthy run reuses exactly that pool...
        pool.execute_isolated(session, {hook("ok_b").key(): hook("ok_b")}, finish, fail)
        assert session._pools["iso"] is iso
        # ...and only a crash discards it; the next run respawns fresh.
        pool.execute_isolated(session, {hook("crash").key(): hook("crash")}, finish, fail)
        assert session._pools["iso"] is None and failed
        pool.execute_isolated(session, {hook("ok_c").key(): hook("ok_c")}, finish, fail)
        assert session._pools["iso"] is not None
        session.close()


class TestSessionLifecycle:
    def test_close_is_idempotent_and_contextmanager_closes(self, tmp_path):
        with make_session(tmp_path, max_workers=1) as session:
            session.execute([mech("baseline")])
        session.close()
        assert shm_residue() == []

    def test_abandoned_session_finalizes_on_gc(self, tmp_path):
        session = make_session(tmp_path)
        assert pool.manifest_for(session, mech("baseline"))  # publishes segments
        assert shm_residue() != []
        del session
        import gc

        gc.collect()
        assert shm_residue() == []

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
            from repro.sim.tracestore import shm_residue
            from repro.workloads.mixes import make_mixes

            SC = dataclasses.replace(
                TINY, name="unit", quantum=256, sample_units=256,
                exec_units=2048, alone_accesses=4096,
            )
            session = ExperimentSession(cache_dir=None, max_workers=1)
            mix = make_mixes("pref_agg", 1, seed=2019)[0]
            run = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="baseline")
            assert pool.manifest_for(session, run), "expected published segments"
            assert shm_residue(), "expected live segments before interrupt"
            print("SEGMENTS-LIVE", flush=True)
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
        assert shm_residue() == []


class TestLeakVerifier:
    def test_reports_each_leaked_segment(self, tmp_path):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64, name="repro-tr-leaktest")
        try:
            problems = verify_no_segment_leaks()
            assert any("repro-tr-leaktest" in p for p in problems)
        finally:
            seg.close()
            seg.unlink()
        assert verify_no_segment_leaks() == []
