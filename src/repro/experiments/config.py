"""Experiment scale presets."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from functools import lru_cache

from repro.sim.params import MachineParams, scaled_params


@dataclass(frozen=True)
class ScaleConfig:
    """Everything that sizes an experiment run."""

    name: str
    llc_scale: int              # machine capacity divisor
    n_cores: int = 8
    quantum: int = 1024         # simulator interleave granularity
    sample_units: int = 1024    # sampling-interval accesses/core
    exec_units: int = 16384     # execution-epoch accesses/core
    n_epochs: int = 1
    workloads_per_category: int = 2
    alone_accesses: int = 16384     # measured window for alone-IPC runs
    profile_accesses: int = 40960   # Figs. 1-3 profiling runs
    seed: int = 2019

    def __post_init__(self) -> None:
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"ScaleConfig.{name} must be a positive int, got {value!r}")

    def params(self) -> MachineParams:
        return scaled_params(self.llc_scale, n_cores=self.n_cores)

    def cache_key(self) -> dict:
        """The fields that size one simulated run, as a stable dict.

        The experiment engine hashes this into its content-addressed
        result keys.  ``name`` and ``workloads_per_category`` are
        presentation/sweep-shape knobs that don't change any single
        run's outcome, and ``seed`` is already captured by the concrete
        mix a run executes, so all three are excluded: two scales with
        identical simulation parameters share cache entries.
        """
        d = asdict(self)
        for presentation_only in ("name", "workloads_per_category", "seed"):
            d.pop(presentation_only)
        return d


#: Every size a run is built from: zero or negative is not a scale.
_POSITIVE_FIELDS = (
    "llc_scale", "n_cores", "quantum", "sample_units", "exec_units", "n_epochs",
    "workloads_per_category", "alone_accesses", "profile_accesses",
)


@lru_cache(maxsize=128)
def key_inputs(sc: ScaleConfig) -> tuple[dict, dict]:
    """``(sc.cache_key(), machine parameters)`` as hashed into result keys.

    Both are pure functions of the frozen ``sc`` and cost ~100 us to
    rebuild, so they are built once per distinct scale (equal scales
    rebuilt from the wire share an entry).  The dicts are shared by every
    caller: read-only.
    """
    return sc.cache_key(), asdict(sc.params())


TINY = ScaleConfig(
    name="tiny",
    llc_scale=16,
    quantum=512,
    sample_units=768,
    exec_units=12288,
    n_epochs=1,
    workloads_per_category=2,
    alone_accesses=12288,
    # long enough that the slowest pointer-chase lap fits in both the
    # warm-up and the measured window (soplex: ~31k accesses per lap)
    profile_accesses=40960,
)

SMALL = ScaleConfig(
    name="small",
    llc_scale=16,
    quantum=1024,
    sample_units=1536,
    exec_units=24576,
    n_epochs=2,
    workloads_per_category=4,
    alone_accesses=24576,
    profile_accesses=40960,
)

FULL = ScaleConfig(
    name="full",
    llc_scale=8,
    quantum=2048,
    sample_units=2048,
    exec_units=102400,  # the paper's 50:1 epoch-to-interval ratio
    n_epochs=3,
    workloads_per_category=10,
    alone_accesses=65536,
    profile_accesses=131072,
)

SCALES: dict[str, ScaleConfig] = {"tiny": TINY, "small": SMALL, "full": FULL}


def get_scale(name: str | None = None) -> ScaleConfig:
    """Resolve a scale by argument, ``REPRO_SCALE`` env var, or default."""
    raw = name if name is not None else os.environ.get("REPRO_SCALE", "tiny")
    normalized = raw.strip().lower()
    try:
        return SCALES[normalized]
    except KeyError:
        raise KeyError(
            f"unknown scale {raw!r} (looked up as {normalized!r}); one of {sorted(SCALES)}"
        ) from None
