"""Single-flight scheduler: dedup, admission, fairness, deadlines."""

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_HOOK,
    SCHEMA_VERSION,
    ExperimentSession,
    PlannedRun,
    ResultCache,
    RunRecord,
)
from repro.service.journal import SweepJournal
from repro.service.scheduler import (
    OverloadedError,
    SchedulerConfig,
    SingleFlightScheduler,
)

SC = dataclasses.replace(TINY, name="unit")


def hook(name: str) -> PlannedRun:
    return PlannedRun(KIND_HOOK, SC, bench=f"tests.chaos.workers:{name}")


def record(run: PlannedRun) -> dict:
    """A cache record as the engine would store it for a hook run."""
    return {"schema": SCHEMA_VERSION, "kind": run.kind, "payload": {"hook": run.bench}}


class FakeSession:
    """Engine stand-in: records batches, replays from a memory cache."""

    def __init__(self, *, delay: float = 0.0, fail_benches: tuple = ()):
        self.records: list[RunRecord] = []
        self.failed: dict[str, str] = {}
        self.calls: list[list[str]] = []
        self.delay = delay
        self.fail_benches = fail_benches
        self.cache = ResultCache(None)

    def execute(self, runs, *, strict=True, resume=None):
        self.calls.append([r.key() for r in runs])
        out = {}
        for r in runs:
            key = r.key()
            if r.bench.rsplit(":", 1)[-1] in self.fail_benches:
                self.failed[key] = "injected failure"
            if key in self.failed:
                self.records.append(
                    RunRecord(key, r.kind, r.label, r.sc.name, 0.0,
                              cached=False, error=self.failed[key]))
                continue
            rec = self.cache.get(key)
            cached = rec is not None
            if rec is None:
                rec = record(r)
                self.cache.put(key, rec)
            out[key] = rec["payload"]
            self.records.append(
                RunRecord(key, r.kind, r.label, r.sc.name, 0.0, cached=cached))
        if self.delay:  # results are in the cache while the batch is still in flight
            time.sleep(self.delay)
        return out


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


class TestSingleFlight:
    def test_concurrent_overlapping_submits_execute_once(self):
        session = FakeSession(delay=0.02)
        runs = [hook("ok_a"), hook("ok_b"), hook("ok_c")]

        async def main():
            sched = SingleFlightScheduler(session)
            await sched.start()
            try:
                return await asyncio.gather(*[
                    sched.submit(runs, client=f"c{i}") for i in range(6)
                ])
            finally:
                await sched.stop()

        all_outcomes = run_async(main())
        executed = [k for call in session.calls for k in call]
        assert sorted(executed) == sorted({r.key() for r in runs})  # once each
        for outcomes in all_outcomes:
            assert [o["ok"] for o in outcomes] == [True, True, True]
        deduped = sum(o.get("deduped", False) for out in all_outcomes for o in out)
        assert deduped == 5 * len(runs)

    def test_resubmit_after_completion_replays_from_cache(self):
        session = FakeSession()
        runs = [hook("ok_a")]

        async def main():
            sched = SingleFlightScheduler(session)
            await sched.start()
            try:
                first = await sched.submit(runs)
                second = await sched.submit(runs)
                return first, second, dict(sched.counters)
            finally:
                await sched.stop()

        first, second, counters = run_async(main())
        assert first[0]["cached"] is False
        assert second[0]["cached"] is True
        assert counters["executed"] == 1 and counters["cache_replays"] == 1


def submit_each(session, *batches, **scheduler_kw) -> list[list[dict]]:
    """One started scheduler over ``session``: each batch's outcomes, in turn."""
    async def main():
        sched = SingleFlightScheduler(session, **scheduler_kw)
        await sched.start()
        try:
            return [await sched.submit(batch) for batch in batches]
        finally:
            await sched.stop()

    return run_async(main())


class TestAnsweredAtAdmission:
    """A key whose record is memory-resident costs no slot, hop or journal."""

    def test_all_cached_submit_queues_and_journals_nothing(self, tmp_path):
        session = FakeSession()
        runs = [hook("ok_a"), hook("ok_b")]

        async def main():
            sched = SingleFlightScheduler(session, journal_dir=tmp_path)
            await sched.start()
            try:
                cold = await sched.submit(runs)
                journals = sorted(tmp_path.glob("*.jsonl"))
                warm = await sched.submit(runs)
                return cold, warm, journals, sched.status()
            finally:
                await sched.stop()

        cold, warm, journals, status = run_async(main())
        assert len(journals) == 1 and sorted(tmp_path.glob("*.jsonl")) == journals
        assert len(session.calls) == 1  # the warm submit never reached the session
        assert [o["cached"] for o in warm] == [True, True]
        assert [o["deduped"] for o in warm] == [False, False]
        assert [o["payload"] for o in warm] == [o["payload"] for o in cold]
        assert status["queued"] == 0 and status["cache_replays"] == 2

    def test_inline_payload_is_byte_equal_to_the_queued_replay(self, tmp_path):
        runs = [hook("ok_a"), hook("ok_b")]
        with ExperimentSession(cache_dir=tmp_path, max_workers=1) as s0:
            (executed,) = submit_each(s0, runs)
        # A fresh session finds the entries on disk only: its first
        # submit replays through the queue, its second at admission.
        with ExperimentSession(cache_dir=tmp_path, max_workers=1) as s1:
            queued, inline = submit_each(s1, runs, runs)
            assert len(s1.records) == len(runs)  # one execute, for the queued replay
        assert all(o["cached"] for o in queued + inline)
        assert json.dumps(inline, sort_keys=True) == json.dumps(queued, sort_keys=True)
        assert [o["payload"] for o in inline] == [o["payload"] for o in executed]

    def test_full_queue_still_answers_and_a_refusal_replays_nothing(self):
        session = FakeSession()
        config = SchedulerConfig(max_pending=1)
        warm, queued, extra = hook("ok_a"), hook("ok_b"), hook("ok_c")
        session.cache.put(warm.key(), record(warm))

        async def main():
            sched = SingleFlightScheduler(session, config)  # no dispatcher
            _sub, events = sched.subscribe()
            blocked = asyncio.ensure_future(sched.submit([queued]))
            await asyncio.sleep(0)
            assert sched.status()["queued"] == 1  # the queue is full
            answered = await sched.submit([warm])
            with pytest.raises(OverloadedError):
                await sched.submit([warm, extra])
            state = sched.status(), events.qsize()
            await sched.stop()
            await blocked
            return answered, state

        answered, (status, n_events) = run_async(main())
        assert answered[0]["ok"] and answered[0]["cached"] is True
        assert status["queued"] == 1 and status["overloaded"] == 1
        # The refused batch's cached key was neither replayed nor announced.
        assert status["cache_replays"] == 1 and n_events == 1

    def test_subscribers_get_one_run_event_per_inline_replay(self):
        session = FakeSession()
        runs = [hook("ok_a"), hook("ok_b")]

        async def main():
            sched = SingleFlightScheduler(session)
            await sched.start()
            try:
                await sched.submit(runs)
                _sub, events = sched.subscribe()
                await sched.submit(runs)
                return [events.get_nowait() for _ in range(events.qsize())]
            finally:
                await sched.stop()

        events = run_async(main())
        assert [e["key"] for e in events] == [r.key() for r in runs]
        assert all(e["event"] == "run" and e["cached"] and e["error"] is None for e in events)
        assert [(e["done"], e["total"]) for e in events] == [(1, 2), (2, 2)]
        assert events[0]["label"] == runs[0].label and events[0]["scale"] == SC.name

    def test_mixed_submit_journals_exactly_the_owed_keys(self, tmp_path):
        session = FakeSession(delay=0.05)
        warm, fresh, shared = hook("ok_a"), hook("ok_b"), hook("ok_c")
        session.cache.put(warm.key(), record(warm))

        async def main():
            sched = SingleFlightScheduler(session, journal_dir=tmp_path)
            await sched.start()
            try:
                other = asyncio.ensure_future(sched.submit([shared], client="other"))
                await asyncio.sleep(0)
                mixed = await sched.submit([warm, fresh, shared], client="me")
                await other
                return mixed
            finally:
                await sched.stop()

        mixed = run_async(main())
        assert [(o["cached"], o["deduped"]) for o in mixed] == [
            (True, False), (False, False), (False, True)]
        journals = [SweepJournal.load(p) for p in tmp_path.glob("*.jsonl")]
        assert sorted(sorted(j.plan) for j in journals) == sorted(
            [[shared.key()], sorted([fresh.key(), shared.key()])])
        assert all(j.sealed for j in journals)

    def test_abandoned_submit_leaves_every_unfinished_key_in_an_unsealed_plan(self, tmp_path):
        session = FakeSession()
        warm, owed = hook("ok_a"), hook("ok_b")
        session.cache.put(warm.key(), record(warm))

        async def main():
            sched = SingleFlightScheduler(session, journal_dir=tmp_path)  # never dispatches
            task = asyncio.ensure_future(sched.submit([warm, owed]))
            await asyncio.sleep(0)
            # SIGKILL-style: the process is gone, nothing gets to clean up.
            left = SweepJournal.incomplete(tmp_path)
            task.cancel()
            await sched.stop()
            return left

        left = run_async(main())
        assert [j.pending_keys() for j in left] == [[owed.key()]]

    def test_disk_only_entry_takes_the_queue(self, tmp_path):
        session = FakeSession()
        session.cache = ResultCache(tmp_path / "cache")
        run = hook("ok_a")
        ResultCache(tmp_path / "cache").put(run.key(), record(run))  # another process's write

        from_disk, from_memory = submit_each(
            session, [run], [run], journal_dir=tmp_path / "wal")
        assert session.calls == [[run.key()]]  # only the disk read went to the worker thread
        assert from_disk[0]["cached"] and from_memory[0]["cached"]
        assert len(list((tmp_path / "wal").glob("*.jsonl"))) == 1

    def test_failed_key_memory_takes_the_queue(self):
        session = FakeSession()
        run = hook("ok_a")
        session.cache.put(run.key(), record(run))
        session.failed[run.key()] = "failed earlier this session"

        ((outcome,),) = submit_each(session, [run])
        assert session.calls == [[run.key()]]
        assert outcome["error"] == {"type": "run-failed", "message": "failed earlier this session"}

    def test_resident_key_still_in_flight_attaches(self):
        session = FakeSession(delay=0.2)
        run = hook("ok_a")

        async def main():
            sched = SingleFlightScheduler(session)
            await sched.start()
            try:
                first = asyncio.ensure_future(sched.submit([run], client="a"))
                while session.cache.resident(run.key()) is None:
                    await asyncio.sleep(0.005)
                second = await sched.submit([run], client="b")
                return await first, second, dict(sched.counters)
            finally:
                await sched.stop()

        first, second, counters = run_async(main())
        assert first[0]["cached"] is False
        assert second[0]["deduped"] is True and second[0]["cached"] is False
        assert counters["deduped"] == 1 and counters["cache_replays"] == 0

    def test_the_loop_thread_never_touches_disk(self, tmp_path):
        loop_thread = threading.get_ident()  # run_async runs the loop on this thread

        def off_the_loop() -> None:
            if threading.get_ident() == loop_thread:
                raise AssertionError("cache I/O on the event loop thread")

        class OffLoopDisk(ResultCache):
            def _path(self, key):  # every disk access resolves its path first
                off_the_loop()
                return super()._path(key)

        cache = OffLoopDisk(tmp_path)
        runs = [hook("ok_a"), hook("ok_b")]
        with pytest.raises(AssertionError, match="event loop"):
            cache.get(runs[0].key())  # the guard is armed
        with ExperimentSession(cache=cache, max_workers=1) as session:
            cold, warm = submit_each(session, runs, runs)
        assert [o["cached"] for o in cold] == [False, False]
        assert [o["cached"] for o in warm] == [True, True]
        assert (cache.hits, cache.misses) == (0, len(runs))  # the cold misses only


class TestAdmission:
    def test_global_queue_bound_refuses_structured(self):
        session = FakeSession()
        config = SchedulerConfig(max_pending=2, max_client_pending=64)

        async def main():
            sched = SingleFlightScheduler(session, config)
            # No dispatcher: everything submitted stays queued.
            with pytest.raises(OverloadedError) as ei:
                await sched.submit([hook("ok_a"), hook("ok_b"), hook("ok_c")])
            assert ei.value.limit == 2
            assert sched.counters["overloaded"] == 1
            await sched.stop()

        run_async(main())

    def test_per_client_bound(self):
        session = FakeSession()
        config = SchedulerConfig(max_pending=64, max_client_pending=1)

        async def main():
            sched = SingleFlightScheduler(session, config)
            with pytest.raises(OverloadedError, match="client"):
                await sched.submit([hook("ok_a"), hook("ok_b")], client="greedy")
            await sched.stop()

        run_async(main())

    def test_attaching_to_inflight_keys_is_always_admitted(self):
        session = FakeSession(delay=0.05)
        config = SchedulerConfig(max_pending=3)
        runs = [hook("ok_a"), hook("ok_b"), hook("ok_c")]

        async def main():
            sched = SingleFlightScheduler(session, config)
            await sched.start()
            try:
                # Both clients submit the full queue-limit batch; the
                # second only attaches, so admission must not refuse it.
                return await asyncio.gather(
                    sched.submit(runs, client="a"),
                    sched.submit(runs, client="b"),
                )
            finally:
                await sched.stop()

        a, b = run_async(main())
        assert all(o["ok"] for o in a + b)


class TestFairnessAndDispatch:
    def test_round_robin_across_clients(self):
        session = FakeSession()
        config = SchedulerConfig(batch_max=2)
        a_runs = [hook(f"slow_{s}") for s in "abc"]
        b_run = [hook("ok_a")]

        async def main():
            sched = SingleFlightScheduler(session, config)
            task_a = asyncio.ensure_future(sched.submit(a_runs, client="a"))
            task_b = asyncio.ensure_future(sched.submit(b_run, client="b"))
            for _ in range(5):  # let both enqueue before dispatch starts
                await asyncio.sleep(0)
            await sched.start()
            await asyncio.gather(task_a, task_b)
            await sched.stop()

        run_async(main())
        # First batch interleaves the clients: one of A's runs plus B's,
        # instead of burning the whole batch on A's backlog.
        assert b_run[0].key() in session.calls[0]

    def test_failed_runs_resolve_with_structured_errors(self):
        session = FakeSession(fail_benches=("boom",))

        async def main():
            sched = SingleFlightScheduler(session)
            await sched.start()
            try:
                return await sched.submit([hook("ok_a"), hook("boom")])
            finally:
                await sched.stop()

        ok, bad = run_async(main())
        assert ok["ok"] is True
        assert bad["ok"] is False
        assert bad["error"]["type"] == "run-failed"
        assert "injected failure" in bad["error"]["message"]

    def test_submit_deadline_yields_structured_error(self):
        session = FakeSession(delay=0.5)
        config = SchedulerConfig(submit_timeout_s=0.05)

        async def main():
            sched = SingleFlightScheduler(session, config)
            await sched.start()
            try:
                return await sched.submit([hook("ok_a")]), dict(sched.counters)
            finally:
                await sched.stop()

        outcomes, counters = run_async(main())
        assert outcomes[0]["ok"] is False
        assert outcomes[0]["error"]["type"] == "deadline"
        assert counters["deadline_expired"] == 1

    def test_stop_resolves_queued_with_shutdown_errors(self):
        session = FakeSession()

        async def main():
            sched = SingleFlightScheduler(session)  # dispatcher never started
            task = asyncio.ensure_future(sched.submit([hook("ok_a")]))
            for _ in range(5):
                await asyncio.sleep(0)
            await sched.stop()
            return await task

        outcomes = run_async(main())
        assert outcomes[0]["error"]["type"] == "shutdown"


class TestSubscribers:
    def test_subscribe_unsubscribe_registry(self):
        async def main():
            sched = SingleFlightScheduler(FakeSession())
            await sched.start()
            try:
                sub_id, queue = sched.subscribe()
                assert sched.status()["subscribers"] == 1
                assert sched.unsubscribe(sub_id) is True
                assert sched.unsubscribe(sub_id) is False
                assert sched.status()["subscribers"] == 0
            finally:
                await sched.stop()

        run_async(main())

    def test_emit_is_lossy_drop_oldest(self):
        async def main():
            sched = SingleFlightScheduler(FakeSession())
            await sched.start()
            try:
                _sub, queue = sched.subscribe(max_queue=2)
                for i in range(5):
                    sched._emit({"event": "run", "i": i})
                # Oldest events dropped; the slow consumer sees the tail.
                return [queue.get_nowait() for _ in range(queue.qsize())]
            finally:
                await sched.stop()

        events = run_async(main())
        assert [e["i"] for e in events] == [3, 4]

    def test_stop_emits_shutdown_and_clears(self):
        async def main():
            sched = SingleFlightScheduler(FakeSession())
            await sched.start()
            _sub, queue = sched.subscribe()
            await sched.stop()
            assert queue.get_nowait() == {"event": "shutdown"}
            assert sched.status()["subscribers"] == 0

        run_async(main())


class TestJournaling:
    def test_completed_batch_seals_its_journal(self, tmp_path):
        session = FakeSession(fail_benches=("boom",))
        runs = [hook("ok_a"), hook("boom")]

        async def main():
            sched = SingleFlightScheduler(session, journal_dir=tmp_path)
            await sched.start()
            try:
                await sched.submit(runs)
            finally:
                await sched.stop()

        run_async(main())
        paths = list(tmp_path.glob("*.jsonl"))
        assert len(paths) == 1
        journal = SweepJournal.load(paths[0])
        assert journal.sealed  # every key got an outcome
        assert journal.finished_keys() == {runs[0].key()}
        assert journal.failed_keys().keys() == {runs[1].key()}

    def test_interrupted_batch_leaves_resumable_journal(self, tmp_path):
        session = FakeSession()

        async def main():
            sched = SingleFlightScheduler(session, journal_dir=tmp_path)
            task = asyncio.ensure_future(sched.submit([hook("ok_a")]))
            for _ in range(5):
                await asyncio.sleep(0)
            await sched.stop()  # dies before dispatching
            return await task

        run_async(main())
        pending = SweepJournal.incomplete(tmp_path)
        assert len(pending) == 1
        assert pending[0].pending_keys() == [hook("ok_a").key()]
