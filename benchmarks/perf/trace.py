"""Span tracer installed from outside, around the layers' public entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces a function *where it is looked up* — a method on its class, a
module-level function in every ``repro`` module that binds it (so a
``from x import f`` call site is covered as well as ``x.f``) — with a
timing wrapper, and puts the originals back on :meth:`Tracer.uninstall`.

A span is ``[name, thread, start, end, cause, tag, kind]``.  ``cause``
is the span that was current when this one began; it rides a
``ContextVar``, so it crosses ``asyncio.to_thread`` and
``run_coroutine_threadsafe`` hops, and a hook on ``Thread.start``
carries it into plain threads (the lockstep members).

Self time is computed per thread from interval nesting.  Cross-thread
blocking is made visible by one more hook: ``threading.Condition.wait``
(which ``Event.wait`` and ``Future.result`` sit on) records a ``wait``
span, so the time the lockstep scheduler spends parked on a member, or a
client on the service loop, is subtracted from the waiter and stays with
whichever span was actually running on the other thread.  Event-loop
callbacks are spans too (``asyncio.Handle._run``), which is what lets
loop-thread time outside any named span show up as ``service.loop``
instead of vanishing.
"""

from __future__ import annotations

import asyncio.events
import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

NAME, THREAD, START, END, CAUSE, TAG, KIND = range(7)
SYNC, ASYNC, WAIT = "sync", "async", "wait"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self._current: contextvars.ContextVar = contextvars.ContextVar("perf_span", default=None)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def wrap(self, fn: Callable, name: str, *, tag=None, after=None, kind: str = SYNC) -> Callable:
        """``fn`` timed as span ``name``.

        ``tag(*args, **kwargs)`` labels the span; ``after(counters,
        result, *args, **kwargs)`` runs on success and bumps counters at
        the boundary where the work happened.
        """
        spans, current, counters = self.spans, self._current, self.counters
        clock, ident = time.perf_counter, threading.get_ident

        if kind == ASYNC:
            # Awaits inside let other tasks run on this thread, so an
            # async span is inclusive-only: it takes no part in the
            # per-thread self-time nesting.
            async def traced(*args, **kwargs):
                rec = [name, ident(), 0.0, 0.0, current.get(),
                       tag(*args, **kwargs) if tag else None, kind]
                spans.append(rec)
                token = current.set(rec)
                rec[START] = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec[END] = clock()
                    current.reset(token)
        else:
            def traced(*args, **kwargs):
                rec = [name, ident(), 0.0, 0.0, current.get(),
                       tag(*args, **kwargs) if tag else None, kind]
                spans.append(rec)
                token = current.set(rec)
                rec[START] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[END] = clock()
                    current.reset(token)
                if after is not None:
                    after(counters, result, *args, **kwargs)
                return result

        return functools.update_wrapper(traced, fn)

    def counted(self, fn: Callable, key: str) -> Callable:
        """``fn`` with a call counter and no span (for very cheap calls)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def span(self, name: str):
        """Context manager for a span the harness times by hand."""
        return _ManualSpan(self, name)

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:function`` or ``module:Class.method`` by ``make(original)``."""
        module_name, _, attr_path = path.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr_path:
            cls_name, attr = attr_path.split(".")
            owner = getattr(module, cls_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return
        original = getattr(module, attr_path)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != module_name.split(".")[0]:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def install_thread_hooks(self) -> None:
        """The three stdlib hooks the module docstring describes."""
        self._set(threading.Condition, "wait",
                  self.wrap(threading.Condition.wait, "wait", kind=WAIT))
        self._set(asyncio.events.Handle, "_run",
                  self.wrap(asyncio.events.Handle._run, "service.loop"))
        start = threading.Thread.start

        def start_in_context(thread):
            ctx = contextvars.copy_context()
            run = thread.run
            thread.run = lambda: ctx.run(run)
            return start(thread)

        self._set(threading.Thread, "start", start_in_context)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def dump(self, path: Path, *, origin: float, **header) -> None:
        """Write every finished span once, times relative to ``origin``."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            {
                "id": i, "name": rec[NAME], "thread": rec[THREAD],
                "start": rec[START] - origin, "end": rec[END] - origin,
                "cause": index.get(id(rec[CAUSE])), "kind": rec[KIND],
                "tag": rec[TAG] if isinstance(rec[TAG], (str, type(None))) else None,
            }
            for i, rec in enumerate(self.spans) if rec[END]
        ]
        path.write_text(json.dumps({**header, "spans": rows}))


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        t = self.tracer
        self.rec = [self.name, threading.get_ident(), 0.0, 0.0, t._current.get(), None, SYNC]
        t.spans.append(self.rec)
        self.token = t._current.set(self.rec)
        self.rec[START] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.rec[END] = time.perf_counter()
        self.tracer._current.reset(self.token)


class Totals:
    """Per-name aggregates over one traced region."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        #: start to end, waits included: what a caller of the span sees
        self.incl: defaultdict = defaultdict(float)
        #: ``incl`` minus the time blocked on other threads inside the span
        self.busy: defaultdict = defaultdict(float)
        self.self_: defaultdict = defaultdict(float)
        #: (name, tag) -> self seconds, for spans that carry a string tag
        self.tagged_self: defaultdict = defaultdict(float)
        #: tag -> seconds of ``outer`` spans not inside a nested ``inner`` span
        self.outer_self: defaultdict = defaultdict(float)
        self.attributed = 0.0

    def self_s(self, *names: str) -> float:
        return sum(self.self_[n] for n in names)


class _Frame:
    __slots__ = ("rec", "children", "waits", "inner")

    def __init__(self, rec: list) -> None:
        self.rec, self.children, self.waits, self.inner = rec, 0.0, 0.0, 0.0


def totals(spans: list[list], *, outer: str, inner: str) -> Totals:
    """Fold spans into per-name calls / inclusive / busy / self seconds.

    Spans of one thread were appended in start order and nest strictly,
    so a stack per thread recovers parent/child by containment.  ``wait``
    spans are children like any other — that is what removes blocked
    time from the waiter — but are not a layer, so they add nothing to
    ``attributed``.  For every ``outer`` span the time inside nested
    ``inner`` spans (at any depth) is tracked separately: ``outer`` minus
    that is the controller's own cost however many stages sit between.
    """
    out = Totals()
    by_thread: dict[int, list[list]] = defaultdict(list)
    for rec in spans:
        if not rec[END]:
            continue  # still open when the region ended (an idle waiter)
        if rec[KIND] == ASYNC:
            out.calls[rec[NAME]] += 1
            out.incl[rec[NAME]] += rec[END] - rec[START]
        else:
            by_thread[rec[THREAD]].append(rec)

    def close(frame: _Frame) -> None:
        rec = frame.rec
        name, dur = rec[NAME], rec[END] - rec[START]
        out.calls[name] += 1
        out.incl[name] += dur
        if rec[KIND] == WAIT:
            return
        own = dur - frame.children
        out.busy[name] += dur - frame.waits
        out.self_[name] += own
        out.attributed += own
        if isinstance(rec[TAG], str):
            out.tagged_self[name, rec[TAG]] += own
        if name == outer:
            out.outer_self[rec[TAG]] += dur - frame.inner

    for recs in by_thread.values():
        stack: list[_Frame] = []
        for rec in recs:
            while stack and stack[-1].rec[END] <= rec[START]:
                close(stack.pop())
            dur = rec[END] - rec[START]
            if stack:
                stack[-1].children += dur
            if rec[KIND] == WAIT:
                for frame in stack:
                    frame.waits += dur
            elif rec[NAME] == inner:
                for frame in reversed(stack):
                    if frame.rec[NAME] == outer:
                        frame.inner += dur
                        break
            stack.append(_Frame(rec))
        while stack:
            close(stack.pop())
    return out
