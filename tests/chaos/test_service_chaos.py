"""Service chaos: single-flight under concurrent clients.

The scenario runner (``repro chaos --scenario service`` in CI) hammers
an in-process service with 8 threaded clients submitting overlapping
batches; here it is exercised directly, plus a worker-crash variant in
which the failure happens inside the execution pool.
"""

import dataclasses
import multiprocessing
import threading

import pytest

from repro.experiments.chaos import injected_faults, run_service_chaos_scenario
from repro.experiments.config import TINY
from repro.experiments.engine import KIND_ALONE, ExperimentSession, PlannedRun
from repro.service import ExperimentService, ServiceClient
from tests.chaos.workers import crash

SC = dataclasses.replace(TINY, name="unit", alone_accesses=2000)
FORK = multiprocessing.get_context("fork")
OK_A, OK_B, CRASHING = (
    PlannedRun(KIND_ALONE, SC, bench=b) for b in ("410.bwaves", "462.libquantum", "470.lbm")
)


class TestScenarioRunner:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scenario_holds_the_contract(self, seed):
        report = run_service_chaos_scenario(seed, sc=SC)
        assert report.ok, report.problems
        # Single-flight cap: executions never exceed the unique keys.
        assert report.executions <= report.unique_keys
        # Every client's failing-run outcome arrived as a structured error.
        assert report.structured_errors > 0


@pytest.mark.usefixtures("plenty_of_cpus")
class TestWorkerCrash:
    def test_crashing_worker_yields_structured_errors_not_hangs(self, tmp_path):
        session = ExperimentSession(
            cache_dir=tmp_path / "cache", max_workers=2, mp_context=FORK)
        service = ExperimentService(session=session, journal_dir=tmp_path / "wal")
        runs = [OK_A, CRASHING, OK_B]
        responses: dict[int, dict] = {}

        def drive(idx: int) -> None:
            with ServiceClient(service=service, client_name=f"c{idx}") as cli:
                rot = idx % len(runs)
                responses[idx] = cli.submit(runs[rot:] + runs[:rot])

        with service, injected_faults({CRASHING.key(): crash}):
            threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "client hung on a crashed worker"

        crash_key = CRASHING.key()
        for idx, resp in responses.items():
            assert resp["ok"], resp
            for outcome in resp["results"]:
                if outcome["key"] == crash_key:
                    assert outcome["ok"] is False
                    assert outcome["error"]["type"] == "run-failed"
                else:
                    assert outcome["ok"] is True

        # Single-flight held even through the pool crash: each healthy
        # key ran at most once, the crashed key is failed exactly once.
        per_key: dict[str, int] = {}
        for rec in session.records:
            if not rec.cached and rec.error is None:
                per_key[rec.key] = per_key.get(rec.key, 0) + 1
        assert all(n == 1 for n in per_key.values())
        assert crash_key in session.failed
        session.close()
