"""Engine failure paths: worker exceptions, crashes, hangs, broken pools.

Drives real misbehaving workers through the production executor: real
``alone`` runs, some replaced by the faults in ``tests.chaos.workers``
through :func:`~repro.experiments.chaos.injected_faults`, which reach
single runs and batch groups alike.  Uses the ``fork`` start method so
pool workers inherit the installed faults.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.experiments import pool
from repro.experiments.chaos import injected_faults
from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    ExperimentError,
    ExperimentSession,
    PlannedRun,
    RunSpec,
)
from repro.sim.batch import degradation_count
from repro.workloads.mixes import make_mixes
from tests.chaos.workers import boom, crash, hang, slow

SC = dataclasses.replace(TINY, name="unit", alone_accesses=2048)
FORK = multiprocessing.get_context("fork")

#: Healthy stand-ins, and the run each test faults.
OK_A, OK_B, OK_C, FAULTY = (
    PlannedRun(KIND_ALONE, SC, bench=b)
    for b in ("410.bwaves", "462.libquantum", "459.GemsFDTD", "470.lbm")
)
MECH_SC = dataclasses.replace(TINY, name="unit", quantum=256, sample_units=256, exec_units=2048)


def mech(mechanism):
    mix = make_mixes("pref_agg", 1, seed=2019)[0]
    return PlannedRun(KIND_MECHANISM, MECH_SC, mix=mix, mechanism=mechanism)


pytestmark = pytest.mark.usefixtures("plenty_of_cpus")


#: Sessions made by the running test, closed when it ends: a session
#: held by a traceback cycle (``pytest.raises``) would otherwise keep its
#: published segments until a full garbage collection, and later tests
#: check /dev/shm for residue.
_SESSIONS: list[ExperimentSession] = []


@pytest.fixture(autouse=True)
def _close_sessions():
    yield
    while _SESSIONS:
        _SESSIONS.pop().close()


def make_session(tmp_path, **kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("mp_context", FORK)
    session = ExperimentSession(cache_dir=tmp_path / "cache", **kw)
    _SESSIONS.append(session)
    return session


class TestFaultSeam:
    def test_table_is_restored_after_a_raising_body(self):
        table, before = pool._FAULTS, dict(pool._FAULTS)
        with pytest.raises(RuntimeError, match="body"), injected_faults({FAULTY.key(): boom}):
            assert pool._FAULTS[FAULTY.key()] is boom
            raise RuntimeError("body")
        assert pool._FAULTS is table and pool._FAULTS == before


class TestWorkerExceptions:
    def test_raising_worker_fails_only_itself(self, tmp_path):
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): boom}), pytest.raises(ExperimentError) as ei:
            session.execute([OK_A, OK_B, FAULTY])
        assert len(ei.value.errors) == 1
        assert "injected worker exception" in str(ei.value)
        # The healthy runs completed and were cached despite the failure.
        out = session.execute([OK_A, OK_B])
        assert all("ipc" in p for p in out.values())
        assert all(r.cached for r in session.records[-2:])

    def test_strict_false_reports_instead_of_raising(self, tmp_path):
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): boom}):
            out = session.execute([OK_A, FAULTY], strict=False)
        assert len(out) == 1
        failed = [r for r in session.records if r.error]
        assert len(failed) == 1 and failed[0].key == FAULTY.key()

    def test_failed_key_is_remembered_not_rerun(self, tmp_path):
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): boom}):
            session.execute([OK_A, FAULTY], strict=False)
        records_before = len(session.records)
        with pytest.raises(ExperimentError):
            session.execute([FAULTY])
        # Re-reported from session memory: exactly one new record, no pool.
        assert len(session.records) == records_before + 1
        assert session.records[-1].error is not None

    def test_serial_path_retries_then_fails(self, tmp_path):
        session = make_session(tmp_path, max_workers=1, run_retries=1)
        attempts = []
        with injected_faults({FAULTY.key(): lambda run: attempts.append(1) or boom(run)}):
            with pytest.raises(ExperimentError):
                session.execute([FAULTY])
        assert FAULTY.key() in session.failed
        assert len(attempts) == 2


class TestBrokenPool:
    def test_crashing_worker_does_not_sink_the_batch(self, tmp_path):
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): crash}):
            out = session.execute([OK_A, OK_B, OK_C, FAULTY], strict=False)
        # Every healthy run completed; only the crasher is reported failed.
        assert len(out) == 3
        assert all("ipc" in p for p in out.values())
        assert list(session.failed) == [FAULTY.key()]

    def test_innocent_group_is_requeued_whole(self, tmp_path):
        """A crash elsewhere breaks the pool while a mechanism group is in
        flight (its ``slow`` fault holds it there): the group re-runs
        whole, so nothing degrades, and the crasher's retry completes."""
        group = [mech("baseline"), mech("pt")]
        marker = tmp_path / "crashed-once"

        def crash_once(run):
            if not marker.exists():
                marker.touch()
                os._exit(17)
            return {"ipc": 1.0}

        session = make_session(tmp_path)
        before = degradation_count()
        with injected_faults({group[0].key(): slow, FAULTY.key(): crash_once}):
            out = session.execute(group + [FAULTY])
        assert marker.exists() and set(out) == {r.key() for r in group + [FAULTY]}
        assert degradation_count() == before

    def test_completed_results_survive_a_pool_crash(self, tmp_path):
        session = make_session(tmp_path)
        with injected_faults({FAULTY.key(): crash}):
            session.execute([OK_A, OK_B, FAULTY], strict=False)
        # A fresh session sees the healthy results on disk.
        fresh = make_session(tmp_path, max_workers=1)
        fresh.execute([OK_A, OK_B])
        assert all(r.cached for r in fresh.records)


class TestTimeouts:
    def test_hung_worker_times_out_without_sinking_the_batch(self, tmp_path):
        session = make_session(tmp_path, run_timeout=0.6)
        with injected_faults({FAULTY.key(): hang}):
            out = session.execute([OK_A, OK_B, FAULTY], strict=False)
        assert len(out) == 2
        (msg,) = [r.error for r in session.records if r.error]
        assert "timeout" in msg

    def test_hung_group_member_times_out_on_the_pool(self, tmp_path):
        """Two mechanism runs of one mix are one task, and at two workers
        it still runs on the pool under its deadline: the group overruns
        and degrades, the hung run times out alone, the other completes."""
        hung, healthy = mech("baseline"), mech("pt")
        session = make_session(tmp_path, run_timeout=1.0)
        before = degradation_count()
        with injected_faults({hung.key(): hang}):
            out = session.execute([hung, healthy], strict=False)
        assert list(out) == [healthy.key()]
        assert list(session.failed) == [hung.key()]
        assert "timeout" in session.failed[hung.key()]
        assert degradation_count() == before + 1

    def test_timeout_env_parsing(self, monkeypatch):
        from repro.experiments.engine import default_run_timeout

        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        assert default_run_timeout() is None
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        assert default_run_timeout() == 2.5
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "-1")
        with pytest.raises(ValueError):
            default_run_timeout()
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "soon")
        with pytest.raises(ValueError):
            default_run_timeout()


class TestSweepResilience:
    def test_sweep_skips_broken_workloads_and_warns(self, tmp_path):
        session = make_session(tmp_path, max_workers=1)
        sc = dataclasses.replace(
            TINY, name="unit", quantum=256, sample_units=256,
            exec_units=2048, alone_accesses=4096,
        )
        plan = RunSpec(mechanisms=("cmm-a",), categories=("pref_agg",)).expand(sc)
        sabotaged = [
            r for r in plan
            if r.kind == KIND_MECHANISM and r.mix.name.endswith("-01") and r.mechanism == "cmm-a"
        ]

        def fault(run):
            raise RuntimeError("injected mechanism failure")

        with pytest.warns(RuntimeWarning, match="skipping workload"), \
                injected_faults({r.key(): fault for r in sabotaged}):
            evals = list(session.sweep(("cmm-a",), sc, categories=("pref_agg",)))
        # The unbroken workload still evaluated.
        assert len(evals) == 1
