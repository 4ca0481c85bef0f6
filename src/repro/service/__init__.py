"""The experiment service: a resilient front door for the engine.

``repro.service`` promotes :class:`~repro.experiments.engine.ExperimentSession`
from a library into a long-running daemon (``repro serve``) that many
concurrent clients share.  Robustness is the organizing principle:

* :mod:`repro.service.scheduler` — asyncio **single-flight** scheduler:
  one execution per cache key across every connected client, bounded
  admission with per-client fairness, structured ``overloaded``
  responses instead of unbounded queues;
* :mod:`repro.service.journal` — crash-consistent **sweep journal**: an
  append-only JSONL write-ahead log of planned/started/finished runs so
  ``repro serve --resume`` (and ``ExperimentSession.execute(resume=)``)
  replays a killed sweep without re-running completed keys;
* :mod:`repro.service.server` / :mod:`repro.service.protocol` — the
  localhost TCP / unix-socket JSON-lines front door and the in-process
  :class:`ServiceClient`.

See ``docs/robustness.md`` ("The experiment service") for the failure-
mode table and ``repro chaos --scenario service`` for the contract gate.
"""

from repro.service.journal import JournalError, SweepJournal
from repro.service.protocol import (
    ProtocolError,
    run_from_wire,
    run_to_wire,
)
from repro.service.scheduler import OverloadedError, SchedulerConfig, SingleFlightScheduler
from repro.service.server import ExperimentService, ServiceClient

__all__ = [
    "ExperimentService",
    "JournalError",
    "OverloadedError",
    "ProtocolError",
    "SchedulerConfig",
    "ServiceClient",
    "SingleFlightScheduler",
    "SweepJournal",
    "run_from_wire",
    "run_to_wire",
]
