"""Policy registry: the seven mechanisms of the paper's Fig. 13 plus baseline.

Each factory imports its policy class on first call, so checking a
name against the registry (a planned run, a CLI option) loads no
policy module, and with it none of the controller or pipeline.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.core.policy_base import Policy


def _factory(path: str, *args) -> Callable[..., Policy]:
    """A factory for the class at ``"module:Class"``; keywords go to its constructor."""
    module, _, cls = path.partition(":")

    def make(**params) -> Policy:
        return getattr(importlib.import_module(module), cls)(*args, **params)

    return make


POLICIES: dict[str, Callable[..., Policy]] = {
    "baseline": _factory("repro.core.policy_base:BaselinePolicy"),
    "pt": _factory("repro.core.throttling:PrefetchThrottlingPolicy"),
    "dunn": _factory("repro.core.dunn:DunnPolicy"),
    "pref-cp": _factory("repro.core.partitioning:PrefCPPolicy"),
    "pref-cp2": _factory("repro.core.partitioning:PrefCP2Policy"),
    "cmm-a": _factory("repro.core.coordinated:CMMPolicy", "a"),
    "cmm-b": _factory("repro.core.coordinated:CMMPolicy", "b"),
    "cmm-c": _factory("repro.core.coordinated:CMMPolicy", "c"),
    # Related-work baseline (Panda et al. SPAC-style): PPM 2-group
    # throttling, kept out of MECHANISMS (not one of the paper's seven).
    "ppm-group": _factory("repro.core.ppm_baseline:PPMGroupThrottlingPolicy"),
}

#: The seven managed mechanisms compared in Fig. 13 (baseline excluded).
MECHANISMS = ("pt", "dunn", "pref-cp", "pref-cp2", "cmm-a", "cmm-b", "cmm-c")


def make_policy(name: str, **params) -> Policy:
    """The policy ``name``, its constructor given the overrides ``params``."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; one of {sorted(POLICIES)}") from None
    return factory(**params)


def policy_names() -> list[str]:
    return list(POLICIES)
