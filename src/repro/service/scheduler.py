"""Async single-flight scheduler: one execution per key, for everyone.

Many clients regenerating the same figures submit heavily overlapping
:class:`PlannedRun` batches.  The scheduler collapses that load:

* **Single-flight deduplication** — each cache key has at most one
  in-flight execution across *all* clients; late submitters attach to
  the existing future and share its result (or its structured error).
  Combined with the content-addressed cache this gives the global
  invariant the chaos gate pins: a key executes at most once, ever.
* **A submit pays for the work it causes** — a key whose record is
  already in the result cache's memory tier is answered at admission,
  on the event loop: no queue slot, no thread hop, no journal.  Only a
  key that might need I/O or compute (a miss, a disk-only entry, a key
  that failed earlier this session) is queued.
* **Admission control** — queues are bounded globally and per client.
  A submission that would overflow them is refused with a structured
  ``overloaded`` error *at the front door* (attaching to already
  in-flight keys is always free — it adds no queue growth).
* **Fairness** — the dispatcher drains queued runs round-robin across
  clients, so one client's 10 000-run sweep cannot starve another's
  two-run figure refresh.
* **Deadlines** — executions inherit the session's per-run timeout
  (``REPRO_RUN_TIMEOUT`` semantics); ``submit_timeout_s`` additionally
  bounds how long a *client* waits, converting a wedged execution into
  a structured ``deadline`` error instead of a hang.

* **Event streaming** — :meth:`subscribe` registers a bounded queue
  that receives one event per run *as it completes* (key, label,
  cached/error, batch progress), not just the per-batch response the
  submit op returns.  Queues are lossy under backpressure: a slow
  subscriber drops its oldest events rather than stalling dispatch.

Execution itself is delegated to a synchronous
:class:`~repro.experiments.engine.ExperimentSession` on a worker thread
(one dispatch batch at a time — the session's process pool provides the
parallelism), so every robustness property the engine already has
(retry, pool respawn, isolation, atomic cache writes) is inherited
rather than reimplemented.  When a :class:`SweepJournal` directory is
configured, the keys a submitted batch is still *owed* (queued or
attached in flight) are journaled planned → started → finished/failed
with one fsync per dispatch batch; ``repro serve --resume`` replays
unsealed journals after a crash.  Keys answered from the cache are not
journaled: there is nothing to resume, and the invariant that matters
— every key unfinished at kill time is in an unsealed plan — holds
without them.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.experiments.engine import ExperimentSession, PlannedRun, RunRecord
from repro.service.journal import SweepJournal
from repro.service.protocol import run_to_wire

__all__ = ["OverloadedError", "SchedulerConfig", "SingleFlightScheduler"]


class OverloadedError(RuntimeError):
    """Admission refused: accepting the batch would overflow the queue."""

    def __init__(self, message: str, *, queued: int, limit: int) -> None:
        super().__init__(message)
        self.queued = queued
        self.limit = limit


@dataclass(frozen=True)
class SchedulerConfig:
    """Bounds for admission, batching, and client-side deadlines."""

    #: Total queued (not yet dispatched) runs across all clients.
    max_pending: int = 256
    #: Queued runs any single client may hold.
    max_client_pending: int = 64
    #: Runs handed to one ``ExperimentSession.execute`` dispatch.
    batch_max: int = 16
    #: Ceiling on how long a client waits for its batch; ``None`` waits
    #: for the execution (which has its own per-run timeout).
    submit_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_pending < 1 or self.max_client_pending < 1 or self.batch_max < 1:
            raise ValueError("scheduler bounds must be at least 1")
        if self.submit_timeout_s is not None and self.submit_timeout_s <= 0:
            raise ValueError("submit_timeout_s must be positive or None")


def _ok(key: str, payload: dict, *, cached: bool, deduped: bool = False) -> dict:
    return {"key": key, "ok": True, "payload": payload, "cached": cached, "deduped": deduped}


def _err(key: str, kind: str, message: str) -> dict:
    return {"key": key, "ok": False, "error": {"type": kind, "message": message}}


def _run_event(rec: RunRecord, done: int, total: int) -> dict:
    """The subscriber event for one completed (or replayed) run."""
    return {
        "event": "run",
        "key": rec.key,
        "kind": rec.kind,
        "label": rec.label,
        "scale": rec.scale,
        "seconds": rec.seconds,
        "cached": rec.cached,
        "error": rec.error,
        "done": done,
        "total": total,
    }


class SingleFlightScheduler:
    """The service's run queue; owns dispatch order, not execution.

    Lives on one asyncio event loop.  :meth:`start` spawns the
    dispatcher task; :meth:`submit` is the only producer.  All state
    (queues, in-flight map, counters) is loop-confined — no locks.
    """

    def __init__(
        self,
        session: ExperimentSession,
        config: SchedulerConfig | None = None,
        *,
        journal_dir: str | Path | None = None,
    ) -> None:
        self.session = session
        self.config = config or SchedulerConfig()
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: key -> future resolving to this run's outcome dict.
        self._inflight: dict[str, asyncio.Future] = {}
        #: client -> queued (key, run) pairs not yet dispatched.
        self._queues: dict[str, deque[tuple[str, PlannedRun]]] = {}
        self._wakeup = asyncio.Event()
        self._dispatcher: asyncio.Task | None = None
        self._closing = False
        #: sub_id -> bounded event queue (loop-confined, like the rest).
        self._subscribers: dict[int, asyncio.Queue] = {}
        self._next_sub_id = 0
        #: The dispatcher's loop, captured in :meth:`start` so the
        #: worker thread can marshal events back via call_soon_threadsafe.
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Journals with unresolved keys, checked for seal on resolve.
        self._open_journals: list[tuple[SweepJournal, set[str]]] = []
        self.counters: dict[str, int] = {
            "submitted": 0, "executed": 0, "cache_replays": 0,
            "deduped": 0, "overloaded": 0, "failed": 0, "deadline_expired": 0,
        }

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        if self._dispatcher is None:
            self._closing = False
            self._loop = asyncio.get_running_loop()
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop dispatching; pending futures resolve with ``shutdown`` errors."""
        self._closing = True
        self._wakeup.set()
        self._emit({"event": "shutdown"})
        self._subscribers.clear()
        if self._dispatcher is not None:
            task, self._dispatcher = self._dispatcher, None
            await task
        for q in self._queues.values():
            for key, _run in q:
                fut = self._inflight.get(key)
                if fut is not None and not fut.done():
                    fut.set_result(_err(key, "shutdown", "service shutting down"))
        self._queues.clear()
        for journal, _keys in self._open_journals:
            journal.close()
        self._open_journals.clear()

    # --------------------------------------------------------- subscribers

    def subscribe(self, *, max_queue: int = 256) -> tuple[int, asyncio.Queue]:
        """Register an event queue; returns ``(sub_id, queue)``.

        The queue receives one dict per completed run (see
        :func:`_run_event`) and an ``{"event": "shutdown"}`` marker
        when the scheduler stops.  Bounded and lossy: when a subscriber
        lags ``max_queue`` events behind, its oldest event is dropped —
        dispatch never blocks on a slow consumer.
        """
        sub_id = self._next_sub_id
        self._next_sub_id += 1
        queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self._subscribers[sub_id] = queue
        return sub_id, queue

    def unsubscribe(self, sub_id: int) -> bool:
        """Drop a subscriber; returns whether it was registered."""
        return self._subscribers.pop(sub_id, None) is not None

    def _emit(self, event: dict) -> None:
        """Fan one event to every subscriber queue (loop thread only)."""
        for queue in self._subscribers.values():
            if queue.full():
                try:
                    queue.get_nowait()  # lossy: drop the oldest
                except asyncio.QueueEmpty:  # pragma: no cover - full implies non-empty
                    pass
            queue.put_nowait(event)

    # ---------------------------------------------------------- admission

    def _queued_total(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _admit(self, client: str, n_new: int) -> None:
        """Refuse a batch whose ``n_new`` queue slots would overflow a bound."""
        total = self._queued_total()
        if total + n_new > self.config.max_pending:
            self.counters["overloaded"] += 1
            raise OverloadedError(
                f"run queue full ({total} queued, limit {self.config.max_pending}); retry later",
                queued=total, limit=self.config.max_pending,
            )
        mine = len(self._queues.get(client, ()))
        if mine + n_new > self.config.max_client_pending:
            self.counters["overloaded"] += 1
            raise OverloadedError(
                f"client {client!r} queue full ({mine} queued, "
                f"limit {self.config.max_client_pending}); retry later",
                queued=mine, limit=self.config.max_client_pending,
            )

    # ------------------------------------------------------------- submit

    async def submit(
        self, runs: Iterable[PlannedRun], *, client: str = "anon", journal: bool = True
    ) -> list[dict]:
        """Execute a batch; one outcome dict per *unique* key, in order.

        Each key costs what it makes the service do.  A key already in
        flight attaches to the existing execution (single-flight).  A
        key whose record is in the cache's memory tier is answered here
        (``cached: true``, one ``run`` event) without a queue slot.
        Every other key — a miss, a disk-only entry, a key in the
        session's failed-key memory — passes admission control and
        is queued fairly, so the loop never blocks on I/O or compute.
        Raises :class:`OverloadedError` when admission fails — in that
        case *nothing* from this batch was replayed or queued.

        The write-ahead journal plans the keys still owed (queued or
        attached); ``journal=False`` skips it for this batch (the resume
        path uses it: a replay is already journaled).
        """
        ordered: dict[str, PlannedRun] = {}
        for r in runs:
            ordered.setdefault(r.key(), r)
        self.counters["submitted"] += len(ordered)

        resident, failed = self.session.cache.resident, self.session.failed
        replays: dict[str, dict] = {}
        new: dict[str, PlannedRun] = {}
        for key, run in ordered.items():
            if key in self._inflight:
                continue
            rec = None if key in failed else resident(key)
            if rec is None:
                new[key] = run
            else:
                replays[key] = rec
        owed = {k: r for k, r in ordered.items() if k not in replays}
        self.counters["deduped"] += len(owed) - len(new)
        if new:  # before anything is answered or queued: a refusal does neither
            self._admit(client, len(new))

        if journal and self.journal_dir is not None and owed:
            wal = SweepJournal.create(
                self.journal_dir, {k: run_to_wire(r) for k, r in owed.items()}
            )
            self._open_journals.append((wal, set(owed)))

        outcomes: dict[str, dict] = {}
        for done, (key, rec) in enumerate(replays.items(), 1):
            self.counters["cache_replays"] += 1
            outcomes[key] = _ok(key, rec["payload"], cached=True)
            if self._subscribers:
                r = ordered[key]
                self._emit(_run_event(
                    RunRecord(key, r.kind, r.label, r.sc.name, 0.0, cached=True),
                    done, len(replays),
                ))

        loop = asyncio.get_running_loop()
        for key, run in new.items():
            self._inflight[key] = loop.create_future()
            self._queues.setdefault(client, deque()).append((key, run))
        if new:
            self._wakeup.set()

        waits = {k: asyncio.shield(self._inflight[k]) for k in owed}
        for key in owed:
            deduped = key not in new
            try:
                if self.config.submit_timeout_s is not None:
                    outcome = await asyncio.wait_for(
                        waits[key], timeout=self.config.submit_timeout_s
                    )
                else:
                    outcome = await waits[key]
            except asyncio.TimeoutError:
                self.counters["deadline_expired"] += 1
                outcome = _err(
                    key, "deadline",
                    f"no result within {self.config.submit_timeout_s:.6g}s "
                    "(execution continues; resubmit to collect it)",
                )
            else:
                if deduped and outcome.get("ok"):
                    outcome = dict(outcome, deduped=True)
            outcomes[key] = outcome
        return [outcomes[k] for k in ordered]

    # ----------------------------------------------------------- dispatch

    def _drain_fair(self) -> list[tuple[str, PlannedRun]]:
        """Up to ``batch_max`` queued runs, round-robin across clients."""
        batch: list[tuple[str, PlannedRun]] = []
        clients = deque(name for name, q in self._queues.items() if q)
        while clients and len(batch) < self.config.batch_max:
            name = clients.popleft()
            q = self._queues[name]
            key, run = q.popleft()
            batch.append((key, run))
            if q:
                clients.append(name)
        self._queues = {n: q for n, q in self._queues.items() if q}
        return batch

    async def _dispatch_loop(self) -> None:
        while not self._closing:
            if not any(self._queues.values()):
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            batch = self._drain_fair()
            if not batch:
                continue
            self._journal_started([k for k, _ in batch])
            try:
                results = await asyncio.to_thread(self._execute_batch, batch)
            except BaseException as e:  # the session should not raise, but never hang clients
                results = {k: _err(k, "internal", f"dispatch failed: {e}") for k, _ in batch}
            # Durable before any client hears of it (futures wake their
            # waiters only once this task next yields).
            self._resolve_journals(results)
            for key, outcome in results.items():
                fut = self._inflight.pop(key, None)
                if fut is not None and not fut.done():
                    fut.set_result(outcome)

    def _execute_batch(self, batch: list[tuple[str, PlannedRun]]) -> dict[str, dict]:
        """Worker-thread body: one ``execute`` call for the whole batch.

        While the batch executes, the session's progress callback is
        wrapped to stream one ``run`` event per completion to the
        subscriber queues (marshalled onto the scheduler's loop).  Safe
        because the dispatcher serializes batches — exactly one
        ``_execute_batch`` runs at a time.
        """
        session = self.session
        first_record = len(session.records)
        loop, prior = self._loop, getattr(session, "progress", None)

        def progress(rec, done: int, total: int) -> None:
            if prior is not None:
                prior(rec, done, total)
            if loop is not None and not loop.is_closed() and self._subscribers:
                loop.call_soon_threadsafe(self._emit, _run_event(rec, done, total))

        session.progress = progress
        try:
            payloads = session.execute([r for _, r in batch], strict=False)
        finally:
            session.progress = prior
        cached = {
            rec.key: rec.cached for rec in session.records[first_record:]
        }
        out: dict[str, dict] = {}
        for key, run in batch:
            if key in payloads:
                was_cached = cached.get(key, False)
                self.counters["cache_replays" if was_cached else "executed"] += 1
                out[key] = _ok(key, payloads[key], cached=was_cached)
            else:
                self.counters["failed"] += 1
                msg = session.failed.get(key, "run failed with no recorded error")
                out[key] = _err(key, "run-failed", msg)
        return out

    # ----------------------------------------------------------- journals

    def _journal_started(self, keys: list[str]) -> None:
        # Started events flush with the finish batch; see _resolve_journals.
        for journal, pending in self._open_journals:
            for key in keys:
                if key in pending:
                    journal.record_started(key)

    def _resolve_journals(self, results: dict[str, dict]) -> None:
        """Record one dispatch batch's outcomes; one fsync per journal."""
        still_open: list[tuple[SweepJournal, set[str]]] = []
        for journal, pending in self._open_journals:
            resolved = [k for k in results if k in pending]
            for key in resolved:
                outcome = results[key]
                if outcome.get("ok"):
                    journal.record_finished(key)
                else:
                    journal.record_failed(key, outcome["error"]["message"])
            pending.difference_update(resolved)
            if not pending:
                journal.seal()  # flushes
                journal.close()
                continue
            if resolved:
                journal.flush()  # batch boundary: the outcomes are durable
            still_open.append((journal, pending))
        self._open_journals = still_open

    # ------------------------------------------------------------- status

    def status(self) -> dict:
        return {
            "queued": self._queued_total(),
            "inflight": len(self._inflight),
            "clients": sum(1 for q in self._queues.values() if q),
            "subscribers": len(self._subscribers),
            "open_journals": len(self._open_journals),
            **self.counters,
        }
