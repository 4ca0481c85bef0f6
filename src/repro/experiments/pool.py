"""The executor: one task list and one dispatch loop, run in process or
on the session's process pool.

:meth:`ExperimentSession.execute <repro.experiments.engine.ExperimentSession.execute>`
imports this module at a plan's first cache miss and hands its misses
to :func:`run_tasks`, so a cache replay never loads it.  The process
pool (``concurrent.futures.process``) loads only when a session of
more than one worker has more than one miss.  The session owns the
pools (``_pools``), and its exit finalizer shuts them down.

:func:`plan_tasks` turns the misses into three kinds of task:

* a mechanism group: two or more mechanism runs sharing a mix and a
  scale, run in masked lockstep
  (:func:`repro.experiments.batch.compute_mechanism_group`);
* a single-core shard: the profile and alone runs of one scale, split by
  benchmark into at most ``max_workers`` shards and run on the
  single-core plane (:func:`repro.experiments.batch.compute_single_core_group`);
* a single run, through the engine's ``_COMPUTE`` table.

Failures degrade instead of aborting (``docs/robustness.md``):

* a task of several runs that raises or overruns ``run_timeout``
  times its width, or that isolation reaches, counts one
  :func:`~repro.sim.batch.note_degradation` and re-queues its runs as
  single runs;
* a task of one run is an attempt of that run: an exception is retried
  ``run_retries`` times and an overrun fails it (a hang is assumed
  deterministic);
* a task in flight when its pool breaks is re-queued whole, uncharged;
* a pool that breaks or hangs is discarded and respawned.  After
  ``pool_respawns`` such incidents the rest runs one single run at a
  time in an isolation pool, which pins each crash on its run.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.experiments.engine import _COMPUTE, KIND_ALONE, KIND_MECHANISM, PlannedRun
from repro.experiments.runner import mechanism_trace_length
from repro.sim import tracestore
from repro.sim.machine import CORE_ADDRESS_STRIDE_LINES

if TYPE_CHECKING:
    from repro.experiments.engine import ExperimentSession

TASK_RUN = "run"
TASK_MECHANISMS = "mechanism-group"
TASK_SINGLE_CORE = "single-core"

#: Run key -> fault, called at :func:`_execute_task` (see
#: :func:`repro.experiments.chaos.injected_faults`).  Pool workers see it
#: when they are forked while a fault is installed.
_FAULTS: dict[str, Callable] = {}


class Task(NamedTuple):
    """One unit of dispatch: its kind and its ``(key, run)`` pairs."""

    kind: str
    runs: tuple[tuple[str, PlannedRun], ...]


def plan_tasks(misses, width: int, batched: bool) -> list[Task]:
    """The task list for ``misses`` (``(key, run)`` pairs in plan order).

    Groups come first, in first-seen order, then the lone runs.  The
    single-core runs of one scale are dealt round-robin by benchmark
    into at most ``width`` shards, so a benchmark's profile and alone
    runs, which share one trace, always land in one shard.  A session
    engine that is not batched makes every run a single run.
    """
    if not batched:
        return [Task(TASK_RUN, (kr,)) for kr in misses]
    groups: dict[tuple, list[tuple[str, PlannedRun]]] = {}
    for key, r in misses:
        g = (TASK_MECHANISMS, r.mix, r.sc) if r.kind == KIND_MECHANISM else (TASK_SINGLE_CORE, r.sc)
        groups.setdefault(g, []).append((key, r))
    tasks: list[Task] = []
    lone: list[tuple[str, PlannedRun]] = []
    for (kind, *_), grp in groups.items():
        if kind == TASK_SINGLE_CORE:
            benches = list(dict.fromkeys(r.bench for _, r in grp))
            n = min(width, len(benches))
            shard = {b: i % n for i, b in enumerate(benches)}
            tasks += [Task(kind, tuple(kr for kr in grp if shard[kr[1].bench] == i)) for i in range(n)]
        elif len(grp) >= 2:
            tasks.append(Task(kind, tuple(grp)))
        else:  # a lone mechanism miss has no group to share
            lone += grp
    return tasks + [Task(TASK_RUN, (kr,)) for kr in lone]


def _execute_task(
    kind: str, runs: list[PlannedRun], traces=None, engine: str | None = None
) -> list[tuple[dict, float, list]]:
    """The one task entry point, in process and in pool workers.

    Returns ``(payload, seconds, answered)`` per run; ``answered`` holds
    ``(run, payload)`` pairs the same computation also produced (a
    profile's on-pass answers its benchmark's alone run).  ``traces`` is
    the session's :class:`~repro.sim.tracestore.TraceStore` in process,
    a shared-memory manifest dict in a worker, or ``None`` for live
    generation.  ``engine`` names the engine a single run's machines use.
    Faults: see :func:`~repro.experiments.chaos.injected_faults`.
    """
    if isinstance(traces, dict):
        traces = tracestore.ManifestView(traces)
    faulted = next((r for r in runs if r.key() in _FAULTS), None) if _FAULTS else None
    t0 = time.perf_counter()
    with tracestore.use_view(traces):
        if kind == TASK_RUN:
            (run,) = runs
            payload = _FAULTS[run.key()](run) if faulted else _COMPUTE[run.kind](run, engine)
            return [(payload, time.perf_counter() - t0, ())]
        if faulted is not None:
            _FAULTS[faulted.key()](faulted)
        from repro.experiments import batch

        if kind == TASK_MECHANISMS:
            return [(p, s, ()) for p, s in batch.compute_mechanism_group(runs, traces)]
        return batch.compute_single_core_group(runs, traces)


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


def manifest_for(session: ExperimentSession, runs) -> dict[str, dict]:
    """Materialize + publish every trace ``runs`` read: ``{key: item}``,
    empty when shared memory is unavailable."""
    manifest: dict[str, dict] = {}
    for run in runs:
        for req in trace_requirements(run):
            item = session.trace_store.publish(**req)
            if item is not None:
                manifest[item["key"]] = item
    return manifest


def _pool(session: ExperimentSession, name: str, width: int):
    """The session's persistent ``"batch"`` or ``"iso"`` pool, (re)spawned
    only when missing or narrower than ``width`` — not per batch."""
    pool = session._pools[name]
    if pool is not None and name == "batch" and session._pool_width < width:
        _discard(session, name, wait_=False)
        pool = None
    if pool is None:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=width, mp_context=session.mp_context)
        session._pools[name] = pool
        if name == "batch":
            session._pool_width = width
    return pool


def _discard(session: ExperimentSession, name: str, *, wait_: bool) -> None:
    pool, session._pools[name] = session._pools[name], None
    if pool is not None:
        pool.shutdown(wait=wait_, cancel_futures=True)


def run_tasks(session: ExperimentSession, misses, finish, fail) -> None:
    """Run ``misses`` as :func:`plan_tasks` lists them: the one dispatch loop.

    The loop's width is ``max_workers``, or one for a single miss.  It
    keeps at most its width of tasks in flight, so each task's deadline
    (``run_timeout`` times the task's width) starts when it starts.  At
    width one each task runs in process, to completion, in list order;
    otherwise on the session's persistent pool, whose workers keep
    their shared-memory attachments across batches.
    ``finish(key, run, payload, seconds, answered)`` persists a
    completed run as its task resolves; ``fail(key, run, error)``
    reports a run that will not complete.
    """
    engine = session._resolved_engine()
    tasks = plan_tasks(misses, session.max_workers, engine.batched)
    width = min(session.max_workers, len(misses))
    queue = deque(tasks)
    inflight: dict[Future, tuple[Task, float | None]] = {}
    attempts: dict[str, int] = {}
    respawns = 0

    def split(task: Task) -> None:
        from repro.sim.batch import note_degradation

        note_degradation()
        queue.extend(Task(TASK_RUN, (kr,)) for kr in task.runs)

    def failed(task: Task, err, how: str) -> None:
        """``how`` a task did not complete: raised, broken or timeout."""
        if how == "broken" and not isolated:
            # Not necessarily its crash: re-queue it whole, uncharged.
            queue.append(task if len(task.runs) > 1 else Task(TASK_RUN, task.runs))
            return
        if len(task.runs) > 1:
            split(task)
            return
        ((key, r),) = task.runs
        if how == "raised":
            attempts[key] = attempts.get(key, 0) + 1
            if attempts[key] <= session.run_retries:
                queue.append(Task(TASK_RUN, task.runs))
                return
        if how == "timeout":
            err = f"{r.label}: run exceeded {session.run_timeout:.6g}s timeout"
        fail(key, r, err)

    def submit(task: Task) -> Future:
        runs = [r for _, r in task.runs]
        if width == 1:
            fut: Future = Future()
            try:
                fut.set_result(_execute_task(task.kind, runs, session.trace_store, engine.name))
            except Exception as e:
                fut.set_exception(e)
            return fut
        pool = _pool(session, "iso", 1) if isolated else _pool(session, "batch", width)
        return pool.submit(_execute_task, task.kind, runs, manifest_for(session, runs), engine.name)

    while queue or inflight:
        isolated = respawns > session.pool_respawns
        broken = False
        while queue and len(inflight) < (1 if isolated else width):
            task = queue.popleft()
            if isolated and len(task.runs) > 1:
                split(task)  # isolation runs single runs only
                continue
            try:
                fut = submit(task)
            except BrokenExecutor:
                queue.appendleft(task)
                broken = True
                break
            timed = session.run_timeout is not None and width > 1
            inflight[fut] = (task, time.monotonic() + session.run_timeout * len(task.runs) if timed else None)
        if not broken:
            deadlines = [d for _, d in inflight.values() if d is not None]
            timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            wait(inflight, timeout=timeout, return_when=FIRST_COMPLETED)
        now = time.monotonic()
        broken = broken or any(
            f.done() and isinstance(f.exception(), BrokenExecutor) for f in inflight
        )
        overdue = {f for f, (_, d) in inflight.items() if not f.done() and d is not None and now >= d}
        # Submission order, so re-queued runs keep their plan order.
        for fut, (task, _deadline) in list(inflight.items()):
            if fut.done() and not isinstance(fut.exception(), BrokenExecutor):
                if fut.exception() is not None:
                    failed(task, fut.exception(), "raised")
                else:
                    for (key, r), (payload, secs, answered) in zip(task.runs, fut.result()):
                        finish(key, r, payload, secs, answered)
            elif broken:
                err = fut.exception() if fut.done() else BrokenExecutor("a worker process died")
                failed(task, err, "broken")
            elif fut in overdue:
                failed(task, None, "timeout")
            elif overdue:
                queue.append(task)  # innocent, but its pool is about to go
            else:
                continue  # still running
            del inflight[fut]
        if broken or overdue:
            # A hung worker poisons its slot; a dead one broke the pool.
            _discard(session, "iso" if isolated else "batch", wait_=not overdue)
            respawns += 1
