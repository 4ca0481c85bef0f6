"""Crash-consistent sweep journal: an append-only JSONL write-ahead log.

A sweep that dies — worker crash, OOM kill, ``kill -9`` on the whole
service — must be resumable without re-running completed keys and
without trusting anything the crash may have torn.  The journal makes
that possible with two write disciplines:

* the **plan segment** (first line: sweep id, schema, every planned key
  with its wire spec) is written to a temp file, fsynced, and
  ``os.replace``d into place — a journal either exists with its whole
  plan or not at all;
* **event lines** (``started`` / ``finished`` / ``failed`` / ``sealed``)
  are appended to the open file and fsynced on batch boundaries
  (every :attr:`SweepJournal.flush_every` events and at the end of each
  execute round), so a crash loses at most the tail of the current
  batch — never a record the caller was already told about.

Replay (:meth:`SweepJournal.load`) tolerates exactly the damage a crash
can cause: a torn final line (no newline, or truncated JSON) is
ignored.  Torn *interior* lines cannot happen under the append
discipline, so they raise :class:`JournalError` — that file was
corrupted by something other than a crash and should not be trusted.

Completed payloads live in the result cache, not the journal; a
``finished`` key replays from the cache and is bit-identical to an
uninterrupted run (differential-tested in
``tests/service/test_journal.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import uuid
from pathlib import Path
from typing import IO, Iterable

__all__ = ["JOURNAL_SCHEMA_VERSION", "JournalError", "SweepJournal"]

JOURNAL_SCHEMA_VERSION = 1

EVENT_PLAN = "plan"
EVENT_STARTED = "started"
EVENT_FINISHED = "finished"
EVENT_FAILED = "failed"
EVENT_SEALED = "sealed"


class JournalError(RuntimeError):
    """A journal file that cannot be trusted (not mere crash damage)."""


def _encode(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


class SweepJournal:
    """One sweep's write-ahead log at ``<root>/<sweep_id>.jsonl``.

    Create fresh with :meth:`create` (atomic plan segment), reopen an
    existing one with :meth:`load`.  :meth:`incomplete` lists the
    unsealed journals under a root — what ``repro serve --resume``
    picks up after a crash.
    """

    #: Events between forced fsyncs; the trailing partial batch is
    #: flushed by :meth:`flush` at execute boundaries and on close.
    flush_every = 8

    def __init__(
        self,
        path: Path,
        *,
        sweep_id: str,
        plan: dict[str, dict],
        events: list[dict] | None = None,
    ) -> None:
        self.path = Path(path)
        self.sweep_id = sweep_id
        #: key -> wire spec (see :func:`repro.service.protocol.run_to_wire`).
        self.plan = dict(plan)
        self._events: list[dict] = list(events or [])
        #: Whether the sweep completed; sealed journals are never resumed.
        self.sealed = any(e.get("event") == EVENT_SEALED for e in self._events)
        self._fh: IO[bytes] | None = None
        self._unsynced = 0

    # ------------------------------------------------------------ create

    @classmethod
    def create(
        cls,
        root: str | Path,
        planned: dict[str, dict],
        *,
        sweep_id: str | None = None,
    ) -> "SweepJournal":
        """Start a journal for ``planned`` (``{key: wire_spec}``).

        The plan line is written tmp+fsync+``os.replace`` so a crash
        during creation leaves no half-planned journal behind.
        """
        root = Path(root).expanduser()
        root.mkdir(parents=True, exist_ok=True)
        sweep_id = sweep_id or uuid.uuid4().hex[:16]
        path = root / f"{sweep_id}.jsonl"
        if path.exists():
            raise JournalError(f"journal {path} already exists")
        plan_line = _encode({
            "event": EVENT_PLAN,
            "schema": JOURNAL_SCHEMA_VERSION,
            "sweep": sweep_id,
            "runs": [{"key": k, "spec": spec} for k, spec in planned.items()],
        })
        fd, tmp = tempfile.mkstemp(dir=root, prefix=f".{sweep_id}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(plan_line)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return cls(path, sweep_id=sweep_id, plan=dict(planned))

    # -------------------------------------------------------------- load

    @classmethod
    def load(cls, path: str | Path) -> "SweepJournal":
        """Reopen a journal, tolerating a crash-torn final line."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as e:
            raise JournalError(f"cannot read journal {path}: {e}") from None
        lines = raw.split(b"\n")
        # A well-formed file ends with a newline, leaving one empty
        # trailing chunk; anything else is a torn tail to discard.
        torn_tail = lines and lines[-1] != b""
        body = lines[:-1]
        records: list[dict] = []
        for i, line in enumerate(body):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(body) - 1 and not torn_tail:
                    # Crash between write() and the newline landing.
                    break
                raise JournalError(
                    f"journal {path} line {i + 1} is corrupt mid-file"
                ) from None
        if not records or records[0].get("event") != EVENT_PLAN:
            raise JournalError(f"journal {path} has no plan segment")
        head = records[0]
        if head.get("schema") != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"journal {path} written under schema {head.get('schema')!r}, "
                f"expected {JOURNAL_SCHEMA_VERSION}"
            )
        plan = {r["key"]: r["spec"] for r in head.get("runs", [])}
        return cls(path, sweep_id=head.get("sweep", path.stem), plan=plan,
                   events=records[1:])

    @classmethod
    def incomplete(cls, root: str | Path) -> list["SweepJournal"]:
        """Every unsealed journal under ``root``, oldest first.

        Journals that cannot be parsed at all are skipped (they never
        recorded a trustworthy plan); resumable ones are returned.
        """
        root = Path(root).expanduser()
        if not root.is_dir():
            return []
        out: list[SweepJournal] = []
        for path in sorted(root.glob("*.jsonl"), key=lambda p: p.stat().st_mtime):
            try:
                j = cls.load(path)
            except JournalError:
                continue
            if not j.sealed:
                out.append(j)
        return out

    # ------------------------------------------------------------ events

    def _append(self, record: dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(_encode(record))
        self._events.append(record)
        self._unsynced += 1
        if self._unsynced >= self.flush_every:
            self.flush()

    def record_started(self, key: str) -> None:
        self._append({"event": EVENT_STARTED, "key": key})

    def record_finished(self, key: str) -> None:
        self._append({"event": EVENT_FINISHED, "key": key})

    def record_failed(self, key: str, error: str) -> None:
        self._append({"event": EVENT_FAILED, "key": key, "error": error})

    def seal(self) -> None:
        """Mark the sweep complete; sealed journals are never resumed."""
        if not self.sealed:
            self._append({"event": EVENT_SEALED})
            self.sealed = True
        self.flush()

    def flush(self) -> None:
        """Force buffered events to disk (the batch-boundary fsync)."""
        if self._fh is not None and self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._unsynced = 0

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- state

    def finished_keys(self) -> set[str]:
        return {e["key"] for e in self._events if e.get("event") == EVENT_FINISHED}

    def failed_keys(self) -> dict[str, str]:
        """Keys whose last recorded outcome was a failure."""
        out: dict[str, str] = {}
        for e in self._events:
            if e.get("event") == EVENT_FAILED:
                out[e["key"]] = e.get("error", "unknown failure")
            elif e.get("event") == EVENT_FINISHED:
                out.pop(e["key"], None)
        return out

    def pending_keys(self) -> list[str]:
        """Planned keys with no ``finished`` record, in plan order.

        ``started``-but-unfinished keys are pending too: the crash may
        have killed them mid-run, and re-running a deterministic run is
        always safe.
        """
        done = self.finished_keys()
        return [k for k in self.plan if k not in done]

    def pending_specs(self) -> Iterable[dict]:
        """The wire specs for :meth:`pending_keys`."""
        return [self.plan[k] for k in self.pending_keys()]
