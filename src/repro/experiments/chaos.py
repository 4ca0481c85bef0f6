"""Seeded chaos scenarios: drive the CMM loop through injected faults.

A chaos run wraps a simulated machine in
:class:`~repro.platform.faults.FaultyPlatform` under a named scenario
(:data:`~repro.platform.faults.SCENARIOS`) and checks the contract the
robustness layer promises:

* the controller never raises — every epoch completes or degrades;
* accumulated counters stay finite (no corrupt sample leaks through);
* if the safe-state fallback fired, the platform is verifiably back in
  the paper's default configuration (all prefetchers on, partitions
  reset) and a structured ``DegradedState`` was reported.

Used by ``repro chaos`` (the CLI gate CI runs across seeds) and the
chaos test suite.

Run failures for the engine and service gates are injected in process
through :func:`injected_faults`; nothing on the wire can name one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.core.controller import CMMController, DegradedState, ResilienceConfig, RunStats
from repro.core.epoch import EpochConfig
from repro.core.policies import make_policy
from repro.experiments.config import ScaleConfig, get_scale
from repro.platform.faults import FaultyPlatform, scenario_plan, verify_safe_state
from repro.platform.simulated import SimulatedPlatform
from repro.workloads.mixes import WorkloadMix, make_mixes

__all__ = [
    "ChaosReport",
    "ServiceChaosReport",
    "injected_faults",
    "run_chaos_scenario",
    "run_service_chaos_scenario",
]


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos scenario run."""

    scenario: str
    seed: int
    mechanism: str
    epochs_requested: int
    epochs_completed: int
    injected: dict[str, int]
    failures: int
    degraded: DegradedState | None
    problems: list[str] = field(default_factory=list)
    stats: RunStats | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        state = "degraded" if self.degraded else "nominal"
        faults = sum(self.injected.values())
        verdict = "ok" if self.ok else "FAIL: " + "; ".join(self.problems)
        return (
            f"{self.scenario} seed={self.seed}: {self.epochs_completed}/"
            f"{self.epochs_requested} epochs, {faults} faults injected, "
            f"{self.failures} failures, {state} — {verdict}"
        )


def run_chaos_scenario(
    scenario: str,
    seed: int = 0,
    *,
    mechanism: str = "cmm-a",
    n_epochs: int = 6,
    category: str = "pref_agg",
    sc: ScaleConfig | None = None,
    resilience_cfg: ResilienceConfig | None = None,
) -> ChaosReport:
    """Run one scenario to completion and validate the end state."""
    from repro.experiments.runner import build_machine  # avoid import cycle

    sc = sc or get_scale()
    mix: WorkloadMix = make_mixes(category, 1, seed=sc.seed + seed)[0]
    machine = build_machine(mix, sc)
    inner = SimulatedPlatform(machine)
    platform = FaultyPlatform(inner, scenario_plan(scenario, seed))
    controller = CMMController(
        platform,
        make_policy(mechanism),
        epoch_cfg=EpochConfig(exec_units=sc.exec_units, sample_units=sc.sample_units),
        resilience_cfg=resilience_cfg,
        sleep=lambda _s: None,  # chaos runs are simulated; never wall-sleep
    )

    problems: list[str] = []
    try:
        stats = controller.run(n_epochs)
    except Exception as e:  # the contract: the controller never raises
        return ChaosReport(
            scenario=scenario,
            seed=seed,
            mechanism=mechanism,
            epochs_requested=n_epochs,
            epochs_completed=0,
            injected=dict(platform.injected),
            failures=0,
            degraded=None,
            problems=[f"controller raised {type(e).__name__}: {e}"],
        )

    if len(stats.epochs) != n_epochs:
        problems.append(f"completed {len(stats.epochs)}/{n_epochs} epochs")
    if stats.totals is None or not np.all(np.isfinite(stats.totals)):
        problems.append("non-finite counters leaked into RunStats totals")
    if stats.degraded is not None:
        if not stats.degraded.safe_state_applied:
            problems.append("degraded but safe state could not be applied")
        problems.extend(verify_safe_state(inner))

    return ChaosReport(
        scenario=scenario,
        seed=seed,
        mechanism=mechanism,
        epochs_requested=n_epochs,
        epochs_completed=len(stats.epochs),
        injected=dict(platform.injected),
        failures=len(stats.failures),
        degraded=stats.degraded,
        problems=problems,
        stats=stats,
    )


# ------------------------------------------------------- service chaos
#
# The experiment service under contention: many concurrent clients,
# overlapping batches, one always-failing run.  The gate pins the
# service's whole contract at once — single-flight (a key executes at
# most once across every client), no hangs (every client gets a result
# or a structured error), structured errors (the failing run reports
# ``run-failed``), and bit-identity (payloads match a clean session).


@contextlib.contextmanager
def injected_faults(faults: Mapping[str, Callable]) -> Iterator[None]:
    """Call ``faults[run.key()](run)`` when that run executes.

    Installs the faults at the executor's one task entry point for the
    block and restores the previous set exactly on exit.  A single run
    calls its fault instead of computing.  A batch group calls its first
    faulted member's fault, ignores what it returns and computes every
    member, so a fault that raises, kills the worker or hangs fails the
    group, whose members then rerun as single runs.  Pool workers see
    the faults only if forked inside the block.
    """
    from repro.experiments import pool

    saved = dict(pool._FAULTS)
    pool._FAULTS.update(faults)
    try:
        yield
    finally:
        pool._FAULTS.clear()
        pool._FAULTS.update(saved)


def _failing_run(run) -> dict:
    raise RuntimeError("injected run failure")


@dataclass
class ServiceChaosReport:
    """Outcome of one seeded service chaos run."""

    seed: int
    clients: int
    unique_keys: int
    outcomes: int
    executions: int
    replays: int
    deduped: int
    structured_errors: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAIL: " + "; ".join(self.problems)
        return (
            f"service seed={self.seed}: {self.clients} clients, "
            f"{self.unique_keys} keys, {self.executions} executed, "
            f"{self.replays} cache replays, {self.deduped} deduped, "
            f"{self.structured_errors} structured errors — {verdict}"
        )


def run_service_chaos_scenario(
    seed: int = 0,
    *,
    clients: int = 8,
    batches_per_client: int = 2,
    sc: ScaleConfig | None = None,
    client_timeout_s: float = 120.0,
) -> ServiceChaosReport:
    """Hammer an in-process service with concurrent clients.

    ``clients`` threads each drive their own :class:`ServiceClient`
    against one background :class:`ExperimentService` on an in-memory
    :class:`ResultCache`.  Batches overlap heavily (every client submits
    a rotation of the same run pool: four alone runs and one mechanism
    run faulted to raise), so the single-flight invariant is under real
    contention.
    """
    import json as _json
    import threading

    from repro.experiments.engine import (
        KIND_ALONE,
        KIND_MECHANISM,
        ExperimentSession,
        PlannedRun,
        ResultCache,
    )
    from repro.service import ExperimentService, SchedulerConfig, ServiceClient

    sc = sc or get_scale()
    cache = ResultCache()
    session = ExperimentSession(scale=sc, cache=cache, max_workers=1)
    service = ExperimentService(
        session=session,
        scheduler_config=SchedulerConfig(max_pending=512, max_client_pending=128),
    )

    mix = make_mixes("pref_agg", 1, seed=sc.seed + seed)[0]
    pool = [PlannedRun(KIND_ALONE, sc, bench=b) for b in list(dict.fromkeys(mix.benchmarks))[:4]]
    pool.append(PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism="baseline"))
    expect_keys = {r.key() for r in pool}
    fail_key = pool[-1].key()

    responses: dict[int, list[dict]] = {}
    hung: list[str] = []

    def drive(idx: int) -> None:
        with ServiceClient(service=service, client_name=f"chaos-{idx}") as cli:
            got = []
            for b in range(batches_per_client):
                rot = (idx + b) % len(pool)
                got.append(cli.submit(pool[rot:] + pool[:rot]))
            responses[idx] = got

    problems: list[str] = []
    with injected_faults({fail_key: _failing_run}), service:
        threads = [
            threading.Thread(target=drive, args=(i,), name=f"chaos-client-{i}")
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=client_timeout_s)
            if t.is_alive():
                hung.append(t.name)
        if hung:
            problems.append(f"clients hung past {client_timeout_s}s: {hung}")

        outcomes = 0
        structured_errors = 0
        for idx in range(clients):
            for resp in responses.get(idx, []):
                if not resp.get("ok"):
                    err = resp.get("error")
                    if not isinstance(err, dict) or "type" not in err:
                        problems.append(f"client {idx}: unstructured refusal {resp!r}")
                    structured_errors += 1
                    continue
                for outcome in resp["results"]:
                    outcomes += 1
                    if outcome.get("ok"):
                        if "payload" not in outcome:
                            problems.append(f"ok outcome without payload: {outcome['key']}")
                    else:
                        structured_errors += 1
                        err = outcome.get("error")
                        if not isinstance(err, dict) or "type" not in err:
                            problems.append(f"unstructured error for {outcome['key']}")
                        elif outcome["key"] == fail_key and err["type"] != "run-failed":
                            problems.append(
                                f"failing run reported {err['type']!r}, not 'run-failed'"
                            )
        if not hung and outcomes == 0:
            problems.append("no outcomes returned by any client")

        # Single-flight: at most one real (non-cached, successful)
        # execution per key across every client and batch.
        per_key: dict[str, int] = {}
        for rec in session.records:
            if not rec.cached and rec.error is None:
                per_key[rec.key] = per_key.get(rec.key, 0) + 1
        for key, n in per_key.items():
            if n > 1:
                problems.append(f"single-flight violated: key {key[:12]}… executed {n}×")
        if set(per_key) - expect_keys:
            problems.append("executed keys outside the submitted pool")

    # Bit-identity: a clean local session must produce byte-equal
    # payloads for every key the service executed successfully.
    with ExperimentSession(scale=sc, cache=ResultCache(), max_workers=1) as clean:
        clean_payloads = clean.execute(pool[:-1], strict=True)
    for run in pool[:-1]:
        key = run.key()
        rec = cache.resident(key)
        if rec is None:
            if not hung:
                problems.append(f"service never cached {run.label}")
            continue
        b = _json.dumps(clean_payloads[key], sort_keys=True)
        if _json.dumps(rec["payload"], sort_keys=True) != b:
            problems.append(f"payload for {run.label} differs from a clean session")

    sched = service.scheduler.counters
    return ServiceChaosReport(
        seed=seed,
        clients=clients,
        unique_keys=len(expect_keys),
        outcomes=outcomes,
        executions=sched["executed"],
        replays=sched["cache_replays"],
        deduped=sched["deduped"],
        structured_errors=structured_errors,
        problems=problems,
    )
