"""Engine failure paths: worker exceptions, crashes, hangs, broken pools.

Drives real misbehaving workers through the production pool via
``KIND_HOOK`` runs.  Uses the ``fork`` start method so hook paths in
``tests.chaos.workers`` resolve inside children without installation.
"""

import dataclasses
import multiprocessing

import pytest

from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_HOOK,
    ExperimentError,
    ExperimentSession,
    PlannedRun,
)

SC = dataclasses.replace(TINY, name="unit")
FORK = multiprocessing.get_context("fork")


pytestmark = pytest.mark.usefixtures("plenty_of_cpus")


def hook(name):
    return PlannedRun(KIND_HOOK, SC, bench=f"tests.chaos.workers:{name}")


def make_session(tmp_path, **kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("mp_context", FORK)
    return ExperimentSession(cache_dir=tmp_path / "cache", **kw)


class TestWorkerExceptions:
    def test_raising_worker_fails_only_itself(self, tmp_path):
        session = make_session(tmp_path)
        runs = [hook("ok_a"), hook("ok_b"), hook("boom")]
        with pytest.raises(ExperimentError) as ei:
            session.execute(runs)
        assert len(ei.value.errors) == 1
        assert "injected worker exception" in str(ei.value)
        # The healthy runs completed and were cached despite the failure.
        out = session.execute([hook("ok_a"), hook("ok_b")])
        assert all(p["ok"] for p in out.values())

    def test_strict_false_reports_instead_of_raising(self, tmp_path):
        session = make_session(tmp_path)
        out = session.execute([hook("ok_a"), hook("boom")], strict=False)
        assert len(out) == 1
        failed = [r for r in session.records if r.error]
        assert len(failed) == 1 and "boom" in failed[0].label

    def test_failed_key_is_remembered_not_rerun(self, tmp_path):
        session = make_session(tmp_path)
        session.execute([hook("ok_a"), hook("boom")], strict=False)
        records_before = len(session.records)
        with pytest.raises(ExperimentError):
            session.execute([hook("boom")])
        # Re-reported from session memory: exactly one new record, no pool.
        assert len(session.records) == records_before + 1
        assert session.records[-1].error is not None

    def test_serial_path_retries_then_fails(self, tmp_path):
        session = make_session(tmp_path, max_workers=1, run_retries=1)
        with pytest.raises(ExperimentError):
            session.execute([hook("boom")])
        assert hook("boom").key() in session.failed


class TestBrokenPool:
    def test_crashing_worker_does_not_sink_the_batch(self, tmp_path):
        session = make_session(tmp_path)
        runs = [hook("ok_a"), hook("ok_b"), hook("ok_c"), hook("crash")]
        out = session.execute(runs, strict=False)
        # Every healthy run completed; only the crasher is reported failed.
        assert len(out) == 3
        assert all(p["ok"] for p in out.values())
        assert list(session.failed) == [hook("crash").key()]

    def test_completed_results_survive_a_pool_crash(self, tmp_path):
        session = make_session(tmp_path)
        session.execute([hook("ok_a"), hook("ok_b"), hook("crash")], strict=False)
        # A fresh session sees the healthy results on disk.
        fresh = make_session(tmp_path, max_workers=1)
        fresh.execute([hook("ok_a"), hook("ok_b")])
        assert all(r.cached for r in fresh.records)


class TestTimeouts:
    def test_hung_worker_times_out_without_sinking_the_batch(self, tmp_path):
        session = make_session(tmp_path, run_timeout=0.6)
        runs = [hook("ok_a"), hook("ok_b"), hook("hang")]
        out = session.execute(runs, strict=False)
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
        from repro.experiments import engine as E

        # Pin the scalar engine: the sabotage point is the per-run
        # compute hook, which batched group dispatch legitimately
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
