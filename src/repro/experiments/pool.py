"""The process-pool half of the executor: pool lifecycle, parallel and
isolated dispatch.

:meth:`ExperimentSession.execute <repro.experiments.engine.ExperimentSession.execute>`
imports this module on the first batch with more than one miss and
more than one worker, so a cache replay or a serial session never loads
``concurrent.futures.process`` (nor the simulator constants the trace
manifests need).  The pools themselves stay owned by the session, in
its ``_pools`` dict, which its exit finalizer shuts down.

Failures degrade instead of aborting: a worker that raises, hangs past
``run_timeout``, or kills its process (``BrokenProcessPool``) costs only
its own run.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    PlannedRun,
    _execute_planned,
)
from repro.experiments.runner import mechanism_trace_length
from repro.sim.machine import CORE_ADDRESS_STRIDE_LINES

if TYPE_CHECKING:
    from repro.experiments.engine import ExperimentSession


def _ensure_pool(session: ExperimentSession, width: int) -> ProcessPoolExecutor:
    """The persistent batch pool, (re)spawned only when missing or too
    narrow for this batch — not per batch."""
    pool = session._pools["batch"]
    if pool is not None and session._pool_width < width:
        session._pools["batch"] = None
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=width, mp_context=session.mp_context)
        session._pools["batch"] = pool
        session._pool_width = width
    return pool


def _discard_pool(session: ExperimentSession) -> None:
    pool, session._pools["batch"] = session._pools["batch"], None
    session._pool_width = 0
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def trace_requirements(run: PlannedRun) -> list[dict]:
    """The traces a planned run will consume, as ``TraceStore.publish``
    keyword sets.  Must mirror what the compute functions request."""
    sc = run.sc
    llc_lines = sc.params().llc.lines
    if run.kind == KIND_MECHANISM:
        length = mechanism_trace_length(sc)
        return [
            {
                "spec": bench,
                "llc_lines": llc_lines,
                "base_line": core * CORE_ADDRESS_STRIDE_LINES,
                "seed": run.mix.seed + core,
                "length": length,
            }
            for core, bench in enumerate(run.mix.benchmarks)
        ]
    accesses = sc.alone_accesses if run.kind == KIND_ALONE else sc.profile_accesses
    return [
        {
            "spec": run.bench,
            "llc_lines": llc_lines,
            "base_line": 0,
            "seed": 0,
            "length": 2 * accesses,
        }
    ]


def manifest_for(session: ExperimentSession, run: PlannedRun) -> dict | None:
    """Materialize + publish the run's traces; ``{key: item}`` or
    ``None`` when shared memory is unavailable."""
    manifest: dict[str, dict] = {}
    for req in trace_requirements(run):
        item = session.trace_store.publish(**req)
        if item is not None:
            manifest[item["key"]] = item
    return manifest or None


def _affinity_order(misses: list[tuple[str, PlannedRun]]) -> list[tuple[str, PlannedRun]]:
    """Misses regrouped so runs sharing traces are adjacent.

    Groups keep first-seen order (stable, deterministic), so a plan
    that is already grouped — the common case — is returned unchanged.
    """
    groups: dict[str, list[tuple[str, PlannedRun]]] = {}
    for key, r in misses:
        groups.setdefault(r.affinity_group, []).append((key, r))
    return [kr for grp in groups.values() for kr in grp]


def execute_parallel(session: ExperimentSession, misses, finish, fail) -> None:
    """Pool execution with per-run timeout, retry, and pool respawn.

    The batch pool is *persistent*: it outlives this batch and is
    reused by the next one, so workers keep their attached shared-memory
    segments (and warm imports) across batches.  Runs are submitted in
    affinity order — runs over the same mix adjacent — so a worker
    picking up consecutive tasks mostly re-reads segments it already
    mapped.

    Completed runs are finished (and persisted) as their futures
    resolve.  When the pool breaks — a worker died — or a run hangs past
    its deadline, the pool is discarded and the unfinished runs are
    re-submitted to a fresh one; after ``pool_respawns`` such incidents
    the stragglers fall back to a one-run-at-a-time isolation pool that
    pins each crash on the run that caused it.
    """
    pending: dict[str, PlannedRun] = dict(_affinity_order(misses))
    attempts: dict[str, int] = dict.fromkeys(pending, 0)
    respawns = 0
    while pending:
        if respawns > session.pool_respawns:
            execute_isolated(session, pending, finish, fail)
            return
        pool = _ensure_pool(session, min(session.max_workers, len(pending)))
        futures: dict = {}
        deadline = None if session.run_timeout is None else time.monotonic() + session.run_timeout
        broken = False
        try:
            for key, r in pending.items():
                futures[pool.submit(_execute_planned, r, manifest_for(session, r))] = key
        except BrokenProcessPool:
            broken = True
        not_done = set(futures)
        while not_done and not broken:
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            finished, not_done = wait(not_done, timeout=timeout, return_when=FIRST_COMPLETED)
            for fut in finished:
                key = futures[fut]
                r = pending[key]
                try:
                    payload, secs = fut.result()
                except BrokenProcessPool:
                    broken = True  # key stays pending for the respawn
                except Exception as e:
                    attempts[key] += 1
                    if attempts[key] > session.run_retries:
                        fail(key, r, e)
                        pending.pop(key)
                    # else: stays pending, re-submitted next round
                else:
                    finish(key, r, payload, secs)
                    pending.pop(key)
            if not finished and deadline is not None and time.monotonic() >= deadline:
                # Every still-running worker is past the per-run budget:
                # report those runs failed and abandon the pool (a hung
                # worker poisons its slot).
                for fut in not_done:
                    if fut.cancel():
                        continue  # never started — stays pending
                    key = futures[fut]
                    r = pending.pop(key)
                    fail(key, r, f"{r.label}: run exceeded {session.run_timeout:.6g}s timeout")
                broken = True
        if broken:
            _discard_pool(session)
            respawns += 1
        # else: the healthy pool stays alive for the next batch.


def execute_isolated(session: ExperimentSession, pending: dict[str, PlannedRun], finish, fail) -> None:
    """Last-resort mode: one pool of one worker, one run at a time.

    Slow, but deterministic under crashing workers: a crash or hang is
    attributable to exactly the run that was executing, so every healthy
    run still completes.  The single-worker pool is owned by the session
    and reused — across runs *and* across batches — until it actually
    breaks (crash or hang); only then is it respawned, instead of paying
    a fresh worker per retried run.
    """
    pools = session._pools

    def discard_iso(wait_: bool) -> None:
        pool, pools["iso"] = pools["iso"], None
        if pool is not None:
            pool.shutdown(wait=wait_, cancel_futures=True)

    def iso_pool() -> ProcessPoolExecutor:
        if pools["iso"] is None:
            pools["iso"] = ProcessPoolExecutor(max_workers=1, mp_context=session.mp_context)
        return pools["iso"]

    for key in list(pending):
        r = pending.pop(key)
        manifest = manifest_for(session, r)
        try:
            fut = iso_pool().submit(_execute_planned, r, manifest)
        except BrokenProcessPool:
            discard_iso(wait_=False)
            fut = iso_pool().submit(_execute_planned, r, manifest)
        try:
            payload, secs = fut.result(timeout=session.run_timeout)
        except FuturesTimeoutError:
            fail(key, r, f"run exceeded {session.run_timeout:.6g}s timeout")
            discard_iso(wait_=False)
        except BrokenProcessPool as e:
            fail(key, r, e)
            discard_iso(wait_=True)
        except Exception as e:
            fail(key, r, e)  # worker survived; keep its pool
        else:
            finish(key, r, payload, secs)
