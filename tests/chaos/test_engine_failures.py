"""Engine failure paths: worker exceptions, crashes, hangs, broken pools.

Drives real misbehaving workers through the production pool: real
``alone`` runs, some replaced by the faults in ``tests.chaos.workers``
through :func:`~repro.experiments.chaos.injected_faults`.  Uses the
``fork`` start method so pool workers inherit the installed faults.
"""

import dataclasses
import multiprocessing

import pytest

from repro.experiments import engine as E
from repro.experiments.chaos import injected_faults
from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_ALONE,
    ExperimentError,
    ExperimentSession,
    PlannedRun,
)
from tests.chaos.workers import boom, crash, hang

SC = dataclasses.replace(TINY, name="unit", alone_accesses=2048)
FORK = multiprocessing.get_context("fork")

#: Healthy stand-ins, and the run each test faults.
OK_A, OK_B, OK_C, FAULTY = (
    PlannedRun(KIND_ALONE, SC, bench=b)
    for b in ("410.bwaves", "462.libquantum", "459.GemsFDTD", "470.lbm")
)


pytestmark = pytest.mark.usefixtures("plenty_of_cpus")


def make_session(tmp_path, **kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("mp_context", FORK)
    return ExperimentSession(cache_dir=tmp_path / "cache", **kw)


class TestFaultSeam:
    def test_table_is_restored_after_a_raising_body(self):
        table, before = E._COMPUTE, dict(E._COMPUTE)
        with pytest.raises(RuntimeError, match="body"), injected_faults({FAULTY.key(): boom}):
            assert E._COMPUTE[KIND_ALONE] is not before[KIND_ALONE]
            raise RuntimeError("body")
        assert E._COMPUTE is table and E._COMPUTE == before


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
        session = make_session(tmp_path, max_workers=1, run_retries=1, engine="fast")
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
    def test_sweep_skips_broken_workloads_and_warns(self, tmp_path, monkeypatch):
        # Pin the scalar engine: the sabotage point is the per-run
        # compute function, which batched group dispatch legitimately
        # bypasses (batch-layer failure fallback is covered in
        # test_batch_chaos.py).
        session = make_session(tmp_path, max_workers=1, engine="fast")
        sc = dataclasses.replace(
            TINY, name="unit", quantum=256, sample_units=256,
            exec_units=2048, alone_accesses=4096,
        )
        real_compute = E._compute_mechanism

        def sabotaged(run):
            if run.mix.name.endswith("-01") and run.mechanism == "cmm-a":
                raise RuntimeError("injected mechanism failure")
            return real_compute(run)

        monkeypatch.setitem(E._COMPUTE, E.KIND_MECHANISM, sabotaged)
        with pytest.warns(RuntimeWarning, match="skipping workload"):
            evals = list(session.sweep(("cmm-a",), sc, categories=("pref_agg",)))
        # The unbroken workload still evaluated.
        assert len(evals) == 1
