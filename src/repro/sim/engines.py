"""Simulation-engine choice: a closed table of three engines.

Engines implement the machine's hot path:

* ``reference`` — the original per-access object-oriented kernel
  (:mod:`repro.sim.cache` + ``Machine._run_core_chunk_reference``).
  Simple, audited, and the semantic source of truth.
* ``fast`` — the scalar batched-chunk kernel (:mod:`repro.sim.fastcache`
  / :mod:`repro.sim.fastengine`): run-length-collapsed chunk pipeline
  and fused cache/prefetcher loops on the cores, the batch engine's
  ``GroupedLLC`` at width 1 for the shared LLC.  Differential tests
  assert it is bit-identical to ``reference``, LLC image included.
* ``batch`` — the multi-run batch kernel (:mod:`repro.sim.batch`): N
  runs of the same mix advance together over one
  materialized trace, the fast kernel's core phase run once per
  state-equality class of runs (``GroupedCore``) and the LLC as a
  ``(runs, sets, ways)`` tensor (``GroupedLLC``) — static CAT sweeps
  and controller-driven runs with divergent per-quantum policies
  alike.  Bit-identical to ``fast`` (and therefore to ``reference``);
  whatever cannot be batched runs on a scalar fast ``Machine``, which
  is also what ``engine="batch"`` builds outside a batch group (batch
  width 1 ≡ fast).

Because every engine is pinned bit-identical, results never depend on
the engine choice and the experiment cache keys never contain it.

Selection order: an explicit name beats the ``REPRO_SIM_ENGINE``
environment variable beats the caller's default — ``fast`` for a
``Machine``, ``batch`` for an ``ExperimentSession``.  ``auto`` (or
``None``) defers to the next rung.  Every path resolves through
:func:`resolve_engine`; unknown names raise
:class:`EngineSelectionError` listing the engines and ``auto``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
ENGINE_BATCH = "batch"
ENGINE_AUTO = "auto"

ENV_VAR = "REPRO_SIM_ENGINE"

DEFAULT_ENGINE = ENGINE_FAST


class EngineSelectionError(ValueError):
    """An engine name is not one of the engines or ``auto``."""


@dataclass(frozen=True)
class EngineSpec:
    """One simulation engine: its ``name`` and the scalar ``kernel``
    (``"reference"`` or ``"fast"``) a ``Machine`` built with it runs."""

    name: str
    kernel: str

    @property
    def batched(self) -> bool:
        """Whether a session dispatches mix-affine runs as batch groups."""
        return self.name == ENGINE_BATCH


_ENGINES = {
    spec.name: spec
    for spec in (
        EngineSpec(ENGINE_REFERENCE, ENGINE_REFERENCE),
        EngineSpec(ENGINE_FAST, ENGINE_FAST),
        EngineSpec(ENGINE_BATCH, ENGINE_FAST),
    )
}


def available_engines() -> tuple[str, ...]:
    """The engine names: ``("reference", "fast", "batch")``."""
    return tuple(_ENGINES)


def resolve_engine(name: str | None = None, default: str = DEFAULT_ENGINE) -> EngineSpec:
    """Resolve ``name``, then ``$REPRO_SIM_ENGINE``, then ``default``;
    ``auto`` and ``None`` defer to the next rung."""
    n = (name or ENGINE_AUTO).strip().lower()
    if n == ENGINE_AUTO:
        n = os.environ.get(ENV_VAR, "").strip().lower() or ENGINE_AUTO
    if n == ENGINE_AUTO:
        n = default
    try:
        return _ENGINES[n]
    except KeyError:
        raise EngineSelectionError(
            f"unknown simulation engine {name!r} (resolved {n!r}); "
            f"one of {available_engines() + (ENGINE_AUTO,)}"
        ) from None
