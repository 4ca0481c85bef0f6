"""Service front door: protocol ops, both transports, fail-soft startup."""

import asyncio
import dataclasses
import json
import os
import threading

import pytest

from repro.experiments.config import TINY
from repro.experiments.engine import KIND_ALONE, ExperimentSession, PlannedRun
from repro.service.journal import SweepJournal
from repro.service.protocol import PROTOCOL_VERSION, run_to_wire
from repro.service.scheduler import SchedulerConfig
from repro.service.server import ExperimentService, ServiceClient, sanitized_run_timeout

SC = dataclasses.replace(TINY, name="unit", alone_accesses=2048)
OK_A, OK_B = (PlannedRun(KIND_ALONE, SC, bench=b) for b in ("410.bwaves", "462.libquantum"))


def make_service(tmp_path, **kw) -> ExperimentService:
    session = ExperimentSession(cache_dir=tmp_path / "cache", max_workers=1)
    kw.setdefault("journal_dir", tmp_path / "journal")
    return ExperimentService(session=session, **kw)


def serve_unix(service: ExperimentService, sock) -> threading.Thread:
    """``service.serve`` on a unix socket in a daemon thread, once listening."""
    ready = threading.Event()
    t = threading.Thread(
        target=lambda: asyncio.run(
            service.serve(unix_path=sock, ready=lambda _b: ready.set())),
        daemon=True,
    )
    t.start()
    assert ready.wait(10)
    return t


def wire_with(scale: dict | None = None, **fields) -> dict:
    """``OK_A`` on the wire with ``fields`` and ``scale`` fields replaced."""
    wire = run_to_wire(OK_A) | fields
    wire["scale"] = wire["scale"] | (scale or {})
    return wire


#: Wire runs that decode-time checks refuse with a ``protocol`` error.
REFUSED_RUNS = [
    pytest.param(wire_with(kind="hook", bench="os:getcwd"), id="hook"),
    pytest.param(wire_with({"llc_scale": 0}), id="llc-scale-0"),
    pytest.param(wire_with({"llc_scale": 1 << 20}), id="llc-scale-too-large"),
    pytest.param(wire_with({"n_cores": 0}), id="n-cores-0"),
    pytest.param(wire_with({"alone_accesses": 0}), id="alone-accesses-0"),
    pytest.param(wire_with({"alone_accesses": -5}), id="alone-accesses-negative"),
    pytest.param(wire_with(kind="profile", way_sweep=[0]), id="way-sweep-0"),
    pytest.param(wire_with(kind="profile", way_sweep=[2, -3]), id="way-sweep-negative"),
]


class TestSanitizedRunTimeout:
    def test_valid_value_passes_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "5.5")
        assert sanitized_run_timeout() == (5.5, None)

    def test_invalid_value_warns_instead_of_raising(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "banana")
        timeout, warning = sanitized_run_timeout()
        assert timeout is None
        assert "REPRO_RUN_TIMEOUT" in warning

    def test_service_startup_is_fail_soft(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_RUN_TIMEOUT"):
            service = ExperimentService()
        assert service.session.run_timeout is None
        # The environment is restored for everything else in the process.
        assert os.environ["REPRO_RUN_TIMEOUT"] == "banana"
        service.close()

    def test_library_sessions_stay_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "banana")
        with pytest.raises(ValueError):
            ExperimentSession()


class TestDispatch:
    def test_ping_status_and_unknown_op(self, tmp_path):
        service = make_service(tmp_path)
        try:
            pong = asyncio.run(service.dispatch({"op": "ping", "id": 7}))
            assert pong["ok"] and pong["protocol"] == PROTOCOL_VERSION
            assert pong["id"] == 7
            status = asyncio.run(service.dispatch({"op": "status"}))
            assert status["ok"] and "scheduler" in status["status"]
            bad = asyncio.run(service.dispatch({"op": "frobnicate"}))
            assert bad["ok"] is False and bad["error"]["type"] == "protocol"
        finally:
            service.close()

    def test_submit_validates_at_the_front_door(self, tmp_path):
        service = make_service(tmp_path)
        try:
            empty = asyncio.run(service.dispatch({"op": "submit", "runs": []}))
            assert empty["error"]["type"] == "protocol"
            bogus = asyncio.run(service.dispatch(
                {"op": "submit", "runs": [{"kind": "bogus"}]}))
            assert bogus["error"]["type"] == "protocol"
        finally:
            service.close()


class TestInProcessTransport:
    def test_submit_roundtrip_and_status(self, tmp_path):
        service = make_service(tmp_path)
        with service, ServiceClient(service=service, client_name="t") as cli:
            assert cli.ping()["ok"]
            resp = cli.submit([OK_A, OK_B])
            assert resp["ok"]
            assert [o["ok"] for o in resp["results"]] == [True, True]
            assert all(o["cached"] is False for o in resp["results"])
            again = cli.submit([OK_A])
            assert again["results"][0]["cached"] is True
            status = cli.status()["status"]
            assert status["scheduler"]["executed"] == 2
            assert status["scheduler"]["cache_replays"] == 1

    def test_overload_is_a_structured_refusal(self, tmp_path):
        service = make_service(
            tmp_path, scheduler_config=SchedulerConfig(max_pending=1))
        with service:
            with ServiceClient(service=service) as cli:
                resp = cli.request({
                    "op": "submit",
                    "runs": [run_to_wire(OK_A), run_to_wire(OK_B)],
                })
        assert resp["ok"] is False
        assert resp["error"]["type"] == "overloaded"
        assert resp["error"]["limit"] == 1


class TestSocketTransport:
    def test_unix_socket_end_to_end(self, tmp_path):
        service = make_service(tmp_path)
        sock = tmp_path / "svc.sock"
        t = serve_unix(service, sock)
        with ServiceClient(path=sock) as cli:
            assert cli.ping()["ok"]
            resp = cli.submit([OK_A])
            assert resp["ok"] and resp["results"][0]["ok"]
            assert cli.shutdown()["stopping"]
        t.join(timeout=10)
        assert not t.is_alive()
        assert not sock.exists()  # cleaned up on shutdown
        service.close()


class TestFrontDoorRefusals:
    @pytest.mark.parametrize("bad", REFUSED_RUNS)
    def test_refused_at_decode_and_the_connection_lives_on(self, tmp_path, bad):
        service = make_service(tmp_path)
        sock = tmp_path / "svc.sock"
        t = serve_unix(service, sock)
        with ServiceClient(path=sock) as cli:
            resp = cli.submit([bad])
            assert resp["ok"] is False and resp["error"]["type"] == "protocol", resp
            assert list((tmp_path / "journal").glob("*.jsonl")) == []  # nothing journaled
            assert cli.submit([OK_A])["results"][0]["ok"]  # same connection, still served
            assert cli.shutdown()["stopping"]
        t.join(timeout=10)
        service.close()


class TestSubscribe:
    def test_in_process_streams_per_run_events(self, tmp_path):
        service = make_service(tmp_path)
        with service, ServiceClient(service=service, client_name="t") as cli:
            assert cli.subscribe()["subscribed"] is True
            assert cli.submit([OK_A, OK_B])["ok"]
            events = [cli.next_event(timeout_s=10) for _ in range(2)]
            assert all(e["event"] == "run" for e in events)
            assert {e["label"] for e in events} == {OK_A.label, OK_B.label}
            assert events[-1]["done"] == 2 and events[-1]["total"] == 2
            assert all(e["cached"] is False and e["error"] is None for e in events)
            with pytest.raises(TimeoutError):
                cli.next_event(timeout_s=0.1)
            assert cli.unsubscribe()["subscribed"] is False

    def test_cached_replays_are_flagged(self, tmp_path):
        service = make_service(tmp_path)
        with service, ServiceClient(service=service) as cli:
            cli.submit([OK_A])
            cli.subscribe()
            cli.submit([OK_A])
            assert cli.next_event(timeout_s=10)["cached"] is True

    def test_next_event_requires_subscription(self, tmp_path):
        service = make_service(tmp_path)
        with service, ServiceClient(service=service) as cli:
            with pytest.raises(RuntimeError, match="subscribe"):
                cli.next_event(timeout_s=0.1)

    def test_subscribe_op_rejected_on_request_path(self, tmp_path):
        # The single-response dispatch path can't stream; the op only
        # works on a socket connection (or scheduler.subscribe() in-proc).
        service = make_service(tmp_path)
        try:
            resp = asyncio.run(service.dispatch({"op": "subscribe"}))
            assert resp["ok"] is False and resp["error"]["type"] == "protocol"
        finally:
            service.close()

    def test_socket_streaming_mode(self, tmp_path):
        from repro.service.protocol import decode_line, encode_line

        service = make_service(tmp_path)
        sock = tmp_path / "svc.sock"
        t = serve_unix(service, sock)
        with ServiceClient(path=sock) as watcher, ServiceClient(path=sock) as cli:
            ack = watcher.subscribe()
            assert ack["ok"] and ack["subscribed"] is True
            assert cli.submit([OK_A])["ok"]
            ev = watcher.next_event(timeout_s=10)
            assert ev["event"] == "run" and ev["label"] == OK_A.label

            # Any other op on a subscribed connection is a protocol error.
            f = watcher._file
            f.write(encode_line({"op": "status"}))
            f.flush()
            while True:
                resp = decode_line(f.readline())
                if "event" not in resp:
                    break
            assert resp["ok"] is False and resp["error"]["type"] == "protocol"

            # Unsubscribe returns the connection to request mode.
            assert watcher.unsubscribe()["subscribed"] is False
            assert watcher.ping()["ok"]
            assert cli.shutdown()["stopping"]
        t.join(timeout=10)
        service.close()


class TestResume:
    def test_unsealed_journal_replays_on_resume(self, tmp_path):
        runs = [OK_A, OK_B]
        wal_dir = tmp_path / "journal"
        SweepJournal.create(
            wal_dir, {r.key(): run_to_wire(r) for r in runs}, sweep_id="crashed"
        ).close()

        service = make_service(tmp_path)
        try:
            service.start_background(resume=True)
            assert service.resumed_sweeps == 1
            for r in runs:
                assert service.session.cache.get(r.key()) is not None
        finally:
            service.close()
        sealed = SweepJournal.load(wal_dir / "crashed.jsonl")
        assert sealed.sealed and sealed.pending_keys() == []

    def test_resumed_payloads_match_uninterrupted_run(self, tmp_path):
        runs = [OK_A, OK_B]
        with ExperimentSession(cache_dir=tmp_path / "baseline", max_workers=1) as s0:
            baseline = s0.execute(runs)

        wal_dir = tmp_path / "journal"
        SweepJournal.create(
            wal_dir, {r.key(): run_to_wire(r) for r in runs}, sweep_id="crashed"
        ).close()
        service = make_service(tmp_path)
        try:
            service.start_background(resume=True)
            replayed = {
                r.key(): service.session.cache.get(r.key())["payload"] for r in runs
            }
        finally:
            service.close()
        assert json.dumps(replayed, sort_keys=True) == json.dumps(baseline, sort_keys=True)

    def test_journal_holding_a_hook_run_is_refused_at_resume(self, tmp_path):
        wal_dir = tmp_path / "journal"
        hook = wire_with(kind="hook", bench="os:getcwd")
        SweepJournal.create(
            wal_dir, {OK_A.key(): run_to_wire(OK_A), "hook": hook}, sweep_id="old"
        ).close()
        service = make_service(tmp_path)
        try:
            with pytest.warns(RuntimeWarning, match="unknown run kind 'hook'"):
                service.start_background(resume=True)
            assert service.resumed_sweeps == 0
            assert service.session.records == []  # nothing of the sweep ran
        finally:
            service.close()
        assert not SweepJournal.load(wal_dir / "old.jsonl").sealed

    def test_sealed_journals_are_not_resumed(self, tmp_path):
        runs = [OK_A]
        wal_dir = tmp_path / "journal"
        with SweepJournal.create(
            wal_dir, {r.key(): run_to_wire(r) for r in runs}, sweep_id="done"
        ) as j:
            j.record_finished(runs[0].key())
            j.seal()
        service = make_service(tmp_path)
        try:
            service.start_background(resume=True)
            assert service.resumed_sweeps == 0
        finally:
            service.close()
