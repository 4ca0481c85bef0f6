"""Simulation-engine registry and selection.

Engines implement the machine's hot path.  Each is described by an
:class:`EngineSpec` in a process-wide registry:

* ``reference`` — the original per-access object-oriented kernel
  (:mod:`repro.sim.cache` + ``Machine._run_core_chunk_reference``).
  Simple, audited, and the semantic source of truth.
* ``fast`` — the scalar batched-chunk kernel (:mod:`repro.sim.fastcache`
  / :mod:`repro.sim.fastengine`): run-length-collapsed chunk pipeline
  and fused cache/prefetcher loops on the cores, the batch engine's
  ``GroupedLLC`` at width 1 for the shared LLC.  Differential tests
  assert it is bit-identical to ``reference``, LLC image included.
* ``batch`` — the multi-run batch kernel (:mod:`repro.sim.batch`): N
  runs of the same mix advance together over one zero-copy
  materialized trace, the fast kernel's core phase run once per
  state-equality class of runs (``GroupedCore``) and the LLC as a
  ``(runs, sets, ways)`` tensor (``GroupedLLC``) — static CAT sweeps
  and controller-driven runs with divergent per-quantum policies
  alike.  Bit-identical to ``fast`` (and therefore to ``reference``);
  whatever cannot be batched runs on a scalar fast ``Machine``, which
  is also what ``engine="batch"`` builds outside a batch group (batch
  width 1 ≡ fast).

Because every engine is pinned bit-identical, results never depend on
the engine choice and the experiment cache keys deliberately exclude it
(see ``PlannedRun.key_payload``).

Selection order: an explicit ``Machine(engine=...)`` argument beats
``MachineParams.sim_engine`` beats the ``REPRO_SIM_ENGINE`` environment
variable beats the default (``fast``).  All selection paths resolve
through :func:`resolve_engine`, which returns the full
:class:`EngineSpec`; unknown names raise :class:`EngineSelectionError`
listing the registered engines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
ENGINE_BATCH = "batch"
ENGINE_AUTO = "auto"

ENV_VAR = "REPRO_SIM_ENGINE"

DEFAULT_ENGINE = ENGINE_FAST


class EngineSelectionError(ValueError):
    """An engine name did not resolve against the registry.

    Subclasses :class:`ValueError` so pre-registry callers that caught
    ``ValueError`` keep working.
    """


@dataclass(frozen=True)
class EngineSpec:
    """Registered description of one simulation engine.

    ``kernel`` names the scalar kernel a ``Machine`` runs when built
    with this engine (``"reference"`` or ``"fast"``); ``batch_width``
    is the maximum number of runs one dispatch may advance together
    (1 = scalar-only).  ``capabilities`` is a free-form tag set used by
    the experiment layer (e.g. ``"multi-run"`` gates batch dispatch).
    """

    name: str
    kernel: str = ENGINE_FAST
    batch_width: int = 1
    description: str = ""
    capabilities: frozenset[str] = field(default_factory=frozenset)

    @property
    def batched(self) -> bool:
        return self.batch_width > 1

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip().lower():
            raise EngineSelectionError(
                f"engine name must be a lowercase identifier, got {self.name!r}"
            )
        if self.kernel not in (ENGINE_REFERENCE, ENGINE_FAST):
            raise EngineSelectionError(
                f"engine kernel must be {ENGINE_REFERENCE!r} or {ENGINE_FAST!r}, "
                f"got {self.kernel!r}"
            )
        if self.batch_width < 1:
            raise EngineSelectionError(
                f"engine batch_width must be >= 1, got {self.batch_width}"
            )


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Add an engine to the registry; returns the spec for chaining."""
    if spec.name == ENGINE_AUTO:
        raise EngineSelectionError(f"{ENGINE_AUTO!r} is reserved for deferred selection")
    if spec.name in _REGISTRY and not replace:
        raise EngineSelectionError(
            f"engine {spec.name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def available_engines() -> tuple[str, ...]:
    """Names of all registered engines, in registration order."""
    return tuple(_REGISTRY)


def get_engine(name: str) -> EngineSpec:
    """Look up a concrete engine name (no ``auto`` resolution)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineSelectionError(
            f"unknown simulation engine {name!r}; "
            f"registered engines: {available_engines() + (ENGINE_AUTO,)}"
        ) from None


def resolve_engine(name: str | None = None) -> EngineSpec:
    """Resolve an engine name (or ``auto``/None/env var) to its spec."""
    n = (name or ENGINE_AUTO).strip().lower()
    if n == ENGINE_AUTO:
        n = os.environ.get(ENV_VAR, "").strip().lower() or DEFAULT_ENGINE
    if n not in _REGISTRY:
        raise EngineSelectionError(
            f"unknown simulation engine {name!r} (resolved {n!r}); "
            f"one of {available_engines() + (ENGINE_AUTO,)}"
        )
    return _REGISTRY[n]


register_engine(
    EngineSpec(
        name=ENGINE_REFERENCE,
        kernel=ENGINE_REFERENCE,
        description="per-access object-oriented kernel; semantic source of truth",
    )
)
register_engine(
    EngineSpec(
        name=ENGINE_FAST,
        kernel=ENGINE_FAST,
        description="run-length-collapsed scalar chunk kernel, bit-identical to reference",
    )
)
register_engine(
    EngineSpec(
        name=ENGINE_BATCH,
        kernel=ENGINE_FAST,
        batch_width=64,
        capabilities=frozenset({"multi-run"}),
        description=(
            "multi-run masked-lockstep kernel over a shared materialized "
            "trace (static sweeps and runs with divergent per-quantum "
            "policies), bit-identical to fast; scalar fallback is the "
            "fast kernel"
        ),
    )
)
