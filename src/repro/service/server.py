"""The service front door: ``repro serve`` and :class:`ServiceClient`.

:class:`ExperimentService` wires the pieces together — an
:class:`~repro.experiments.engine.ExperimentSession`, the
:class:`~repro.service.scheduler.SingleFlightScheduler`, and the
:class:`~repro.service.journal.SweepJournal` directory — and exposes
them three ways:

* ``await service.serve(...)`` — the asyncio JSON-lines server on
  localhost TCP or a unix socket (what ``repro serve`` runs);
* ``service.start_background()`` — the same service on a background
  event-loop thread, for embedding in a process that is not itself
  async;
* :class:`ServiceClient` — one client class for both transports: the
  **in-process** form drives a background-started service directly
  (no sockets), the **socket** form speaks the wire protocol to a
  separately running daemon.

Startup is fail-soft where a daemon must be: an invalid
``REPRO_RUN_TIMEOUT`` produces one structured warning and the
no-timeout default instead of crashing ``repro serve``
(:func:`sanitized_run_timeout`); library construction of
:class:`ExperimentSession` keeps its strict parsing.  ``--resume``
replays every unsealed sweep journal before the listener opens, so a
``kill -9``'d service restarts into a state bit-identical to an
uninterrupted run (the CI smoke step pins this).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import threading
import time
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.experiments.engine import (
    ExperimentSession,
    PlannedRun,
    default_run_timeout,
)
from repro.service.journal import SweepJournal
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    run_from_wire,
    run_to_wire,
)
from repro.service.scheduler import (
    OverloadedError,
    SchedulerConfig,
    SingleFlightScheduler,
)

__all__ = ["ExperimentService", "ServiceClient", "sanitized_run_timeout"]


def sanitized_run_timeout() -> tuple[float | None, str | None]:
    """``$REPRO_RUN_TIMEOUT`` parsed fail-soft, for service startup.

    Returns ``(timeout, warning)``: a daemon must not crash on a bad
    environment variable, so an unparsable value yields the no-timeout
    default plus one structured warning string (which ``repro serve``
    logs and :class:`ExperimentService` emits as a ``RuntimeWarning``).
    Library code keeps the strict :func:`default_run_timeout` behavior.
    """
    try:
        return default_run_timeout(), None
    except ValueError as e:
        return None, f"ignoring invalid REPRO_RUN_TIMEOUT ({e}); runs have no timeout"


class ExperimentService:
    """One scheduler + one session + one journal dir, served to clients."""

    def __init__(
        self,
        session: ExperimentSession | None = None,
        *,
        scheduler_config: SchedulerConfig | None = None,
        journal_dir: str | Path | None = None,
    ) -> None:
        self._owns_session = session is None
        if session is None:
            timeout, warning = sanitized_run_timeout()
            if warning is not None:
                warnings.warn(warning, RuntimeWarning, stacklevel=2)
                env = os.environ.pop("REPRO_RUN_TIMEOUT", None)
                try:
                    session = ExperimentSession()
                finally:
                    if env is not None:
                        os.environ["REPRO_RUN_TIMEOUT"] = env
            else:
                session = ExperimentSession(run_timeout=timeout)
        self.session = session
        if journal_dir is None and session.cache.root is not None:
            journal_dir = session.cache.root / "journal"
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.scheduler = SingleFlightScheduler(
            session, scheduler_config, journal_dir=self.journal_dir
        )
        self.started_at = time.time()
        self.resumed_sweeps = 0
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ resume

    async def resume_incomplete(self) -> int:
        """Replay every unsealed journal; returns sweeps resumed.

        Pending keys re-execute through the normal scheduler path
        (completed keys replay from the cache, so a resumed sweep is
        bit-identical to an uninterrupted one); each replayed journal
        is then sealed.  A journal whose specs no longer parse is left
        unsealed and reported, never fatal.
        """
        if self.journal_dir is None:
            return 0
        resumed = 0
        for journal in SweepJournal.incomplete(self.journal_dir):
            try:
                runs = [run_from_wire(spec) for spec in journal.pending_specs()]
            except ProtocolError as e:
                warnings.warn(
                    f"cannot resume sweep {journal.sweep_id}: {e}",
                    RuntimeWarning, stacklevel=2,
                )
                journal.close()
                continue
            chunk = self.scheduler.config.max_client_pending
            outcomes: list[dict] = []
            for i in range(0, len(runs), chunk):
                outcomes.extend(
                    await self.scheduler.submit(
                        runs[i:i + chunk], client="__resume__", journal=False
                    )
                )
            for outcome in outcomes:
                if outcome.get("ok"):
                    journal.record_finished(outcome["key"])
                else:
                    journal.record_failed(outcome["key"], outcome["error"]["message"])
            journal.seal()
            journal.close()
            resumed += 1
        self.resumed_sweeps = resumed
        return resumed

    # ------------------------------------------------------------ status

    def status(self) -> dict:
        out = {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started_at,
            "resumed_sweeps": self.resumed_sweeps,
            "scheduler": self.scheduler.status(),
            "cache": {
                "hits": self.session.cache.hits,
                "misses": self.session.cache.misses,
                "corrupt": self.session.cache.corrupt,
            },
        }
        return out

    # ---------------------------------------------------------- dispatch

    async def dispatch(self, request: dict) -> dict:
        """Answer one protocol request; always a structured response.

        ``subscribe`` is not dispatched here: it switches a *connection*
        into streaming mode (:meth:`_stream_events`), which a
        single-response entry point cannot express.  In-process callers
        stream via ``scheduler.subscribe()`` /
        :meth:`ServiceClient.subscribe` instead.
        """
        op = request.get("op")
        req_id = request.get("id")
        if op == "ping":
            resp: dict = {"ok": True, "pong": time.time(), "protocol": PROTOCOL_VERSION}
        elif op == "status":
            resp = {"ok": True, "status": self.status()}
        elif op == "shutdown":
            resp = {"ok": True, "stopping": True}
        elif op == "submit":
            resp = await self._dispatch_submit(request)
        elif op in ("subscribe", "unsubscribe"):
            resp = error_response(
                "protocol", f"{op} requires a streaming connection (socket transport)"
            )
        else:
            resp = error_response("protocol", f"unknown op {op!r}")
        if req_id is not None:
            resp["id"] = req_id
        return resp

    async def _dispatch_submit(self, request: dict) -> dict:
        raw = request.get("runs")
        if not isinstance(raw, list) or not raw:
            return error_response("protocol", "submit needs a non-empty 'runs' list")
        client = request.get("client") or "anon"
        try:
            runs = [run_from_wire(w) for w in raw]
        except ProtocolError as e:
            return error_response("protocol", str(e))
        try:
            outcomes = await self.scheduler.submit(runs, client=str(client))
        except OverloadedError as e:
            return error_response(
                "overloaded", str(e), queued=e.queued, limit=e.limit
            )
        return {"ok": True, "results": outcomes}

    # ------------------------------------------------------------ server

    async def _stream_events(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: dict
    ) -> bool:
        """Streaming mode for one subscribed connection.

        Acks the ``subscribe``, then interleaves scheduler events (one
        JSON line each, ``"event"`` key set) with reads from the client.
        The only request honoured while subscribed is ``unsubscribe``,
        which acks and returns the connection to request/response mode;
        anything else gets a protocol error (submit from a second
        connection — events are global, not per-client).  Returns
        whether the connection should keep being served.
        """
        sub_id, queue = self.scheduler.subscribe()
        ack: dict = {"ok": True, "subscribed": True, "protocol": PROTOCOL_VERSION}
        if request.get("id") is not None:
            ack["id"] = request["id"]
        writer.write(encode_line(ack))
        await writer.drain()
        read_task: asyncio.Task | None = None
        event_task: asyncio.Task | None = None
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(reader.readline())
                if event_task is None:
                    event_task = asyncio.ensure_future(queue.get())
                await asyncio.wait(
                    {read_task, event_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if event_task.done():
                    event = event_task.result()
                    event_task = None
                    writer.write(encode_line({"ok": True, **event}))
                    await writer.drain()
                    if event.get("event") == "shutdown":
                        return False
                if read_task.done():
                    line = read_task.result()
                    read_task = None
                    if not line:
                        return False  # client went away
                    try:
                        req = decode_line(line)
                    except ProtocolError as e:
                        writer.write(encode_line(error_response("protocol", str(e))))
                        await writer.drain()
                        continue
                    if req.get("op") == "unsubscribe":
                        resp: dict = {"ok": True, "subscribed": False}
                        if req.get("id") is not None:
                            resp["id"] = req["id"]
                        writer.write(encode_line(resp))
                        await writer.drain()
                        return True
                    writer.write(encode_line(error_response(
                        "protocol",
                        "connection is subscribed; send {\"op\": \"unsubscribe\"} first",
                    )))
                    await writer.drain()
        finally:
            self.scheduler.unsubscribe(sub_id)
            for task in (read_task, event_task):
                if task is not None:
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = decode_line(line)
                except ProtocolError as e:
                    writer.write(encode_line(error_response("protocol", str(e))))
                    await writer.drain()
                    continue
                if request.get("op") == "subscribe":
                    if not await self._stream_events(reader, writer, request):
                        break
                    continue
                response = await self.dispatch(request)
                writer.write(encode_line(response))
                await writer.drain()
                if request.get("op") == "shutdown":
                    if self._stop_event is not None:
                        self._stop_event.set()
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # a vanished client is routine, not an error
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def serve(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | Path | None = None,
        resume: bool = False,
        ready: Callable[[tuple | str], None] | None = None,
    ) -> None:
        """Run the JSON-lines server until a ``shutdown`` op arrives.

        ``unix_path`` switches to a unix socket; otherwise a localhost
        TCP listener on ``port`` (0 picks a free one).  ``ready`` is
        called with the bound address once the listener — and any
        ``--resume`` replay — is up, so callers can synchronize.
        """
        self._stop_event = asyncio.Event()
        await self.scheduler.start()
        if resume:
            await self.resume_incomplete()
        if unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=str(unix_path)
            )
            bound: tuple | str = str(unix_path)
        else:
            server = await asyncio.start_server(self._handle_connection, host, port)
            bound = server.sockets[0].getsockname()[:2]
        try:
            if ready is not None:
                ready(bound)
            async with server:
                await self._stop_event.wait()
        finally:
            await self.scheduler.stop()
            if unix_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(str(unix_path))

    # ----------------------------------------------- in-process lifecycle

    def start_background(self, *, resume: bool = False) -> None:
        """Run the scheduler on a background event-loop thread.

        No socket is opened; an in-process :class:`ServiceClient`
        (``ServiceClient(service=...)``) drives :meth:`dispatch`
        directly.  Idempotent.
        """
        if self._loop is not None:
            return
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(started.set)
            loop.run_forever()

        self._thread = threading.Thread(
            target=runner, name="repro-service", daemon=True
        )
        self._thread.start()
        started.wait()
        self._loop = loop
        self._call(self.scheduler.start())
        if resume:
            self._call(self.resume_incomplete())

    def _call(self, coro):
        """Run a coroutine on the background loop, synchronously."""
        if self._loop is None:
            raise RuntimeError("service not started; call start_background() first")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def close(self) -> None:
        """Stop the background loop (if any) and owned resources."""
        if self._loop is not None:
            with contextlib.suppress(Exception):
                self._call(self.scheduler.stop())
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=5)
            self._loop.close()
            self._loop = None
            self._thread = None
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "ExperimentService":
        self.start_background()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------- client


class ServiceClient:
    """One client for both transports.

    * ``ServiceClient(service=svc)`` — in-process: requests go straight
      to :meth:`ExperimentService.dispatch` on the service's background
      loop (``svc.start_background()`` is called if needed).
    * ``ServiceClient(host=..., port=...)`` / ``ServiceClient(path=...)``
      — socket: speaks the JSON-lines protocol to a running daemon.

    Every method returns the decoded response dict; :meth:`submit`
    returns the per-run outcome list and raises nothing on run
    failures — failures arrive as structured per-run errors, and an
    ``overloaded``/``protocol`` refusal is the returned response's
    ``error`` object.
    """

    def __init__(
        self,
        *,
        service: ExperimentService | None = None,
        host: str | None = None,
        port: int | None = None,
        path: str | Path | None = None,
        timeout_s: float | None = 120.0,
        client_name: str = "anon",
    ) -> None:
        if service is None and path is None and (host is None or port is None):
            raise ValueError("need service=, path=, or host= and port=")
        self._service = service
        self._addr = (host, port) if host is not None else None
        self._path = str(path) if path is not None else None
        self._timeout_s = timeout_s
        self.client_name = client_name
        self._sock: socket.socket | None = None
        self._file = None
        self._sub: tuple[int, asyncio.Queue] | None = None
        self._sub_socket = False
        if service is not None:
            service.start_background()

    # --------------------------------------------------------- transport

    def _connect(self):
        if self._sock is None:
            if self._path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._timeout_s)
                sock.connect(self._path)
            else:
                sock = socket.create_connection(self._addr, timeout=self._timeout_s)
            self._sock = sock
            self._file = sock.makefile("rwb")
        return self._file

    def request(self, body: dict) -> dict:
        """Send one request, return its decoded response."""
        if self._service is not None:
            return self._service._call(self._service.dispatch(body))
        f = self._connect()
        f.write(encode_line(body))
        f.flush()
        line = f.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return decode_line(line)

    # --------------------------------------------------------------- ops

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def status(self) -> dict:
        return self.request({"op": "status"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def submit(
        self, runs: Iterable[PlannedRun] | Sequence[dict], *, client: str | None = None
    ) -> dict:
        """Submit a batch of runs (:class:`PlannedRun` or wire dicts)."""
        wire = [r if isinstance(r, dict) else run_to_wire(r) for r in runs]
        return self.request({
            "op": "submit",
            "client": client or self.client_name,
            "runs": wire,
        })

    # -------------------------------------------------------- subscriptions

    def subscribe(self) -> dict:
        """Start streaming per-run completion events to this client.

        Socket transport: the connection enters streaming mode — the
        only further requests it accepts are event reads
        (:meth:`next_event`) and :meth:`unsubscribe`; submit from a
        *second* client/connection (events are global).  In-process: a
        scheduler queue is attached directly.  Idempotent per client.
        """
        if self._sub is not None or self._sub_socket:
            return {"ok": True, "subscribed": True}
        if self._service is not None:
            svc = self._service

            async def _attach():
                return svc.scheduler.subscribe()

            self._sub = svc._call(_attach())
            return {"ok": True, "subscribed": True}
        resp = self.request({"op": "subscribe"})
        self._sub_socket = bool(resp.get("ok")) and resp.get("subscribed", False)
        return resp

    def next_event(self, *, timeout_s: float | None = None) -> dict:
        """Block for the next streamed event (``subscribe`` first).

        Raises ``TimeoutError`` when ``timeout_s`` elapses with no
        event; the subscription stays live.
        """
        if self._sub is not None:
            _sub_id, queue = self._sub
            fut = asyncio.run_coroutine_threadsafe(queue.get(), self._service._loop)
            try:
                return fut.result(timeout=timeout_s)
            except TimeoutError:
                fut.cancel()
                raise
        if not self._sub_socket:
            raise RuntimeError("not subscribed; call subscribe() first")
        f = self._file
        prior = self._sock.gettimeout()
        self._sock.settimeout(timeout_s if timeout_s is not None else self._timeout_s)
        try:
            line = f.readline()
        except socket.timeout:
            raise TimeoutError("no event within the timeout") from None
        finally:
            self._sock.settimeout(prior)
        if not line:
            raise ConnectionError("service closed the connection")
        return decode_line(line)

    def unsubscribe(self) -> dict:
        """Stop streaming; the connection returns to request/response mode.

        Socket transport may deliver a few already-queued event lines
        before the acknowledgement; they are drained here.
        """
        if self._sub is not None:
            (sub_id, _queue), self._sub = self._sub, None
            svc = self._service

            async def _detach():
                return svc.scheduler.unsubscribe(sub_id)

            svc._call(_detach())
            return {"ok": True, "subscribed": False}
        if not self._sub_socket:
            return {"ok": True, "subscribed": False}
        f = self._connect()
        f.write(encode_line({"op": "unsubscribe"}))
        f.flush()
        while True:
            line = f.readline()
            if not line:
                raise ConnectionError("service closed the connection")
            resp = decode_line(line)
            if "event" not in resp:  # in-flight events drain first
                self._sub_socket = False
                return resp

    def close(self) -> None:
        if self._sub is not None:
            with contextlib.suppress(Exception):
                self.unsubscribe()
        if self._file is not None:
            with contextlib.suppress(Exception):
                self._file.close()
            self._file = None
        if self._sock is not None:
            with contextlib.suppress(Exception):
                self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
