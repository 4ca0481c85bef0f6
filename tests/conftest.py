"""Shared fixtures: small geometries and machines that run in milliseconds."""

from __future__ import annotations

import functools
import os
import random

import numpy as np
import pytest
from hypothesis import settings

from repro.sim.machine import Machine
from repro.sim.params import CacheGeometry, MachineParams
from repro.sim.trace import RandomStream, SequentialStream, TraceGenerator
from repro.sim.tracestore import SHM_PREFIX, shm_residue


#: Set to any string to run the collected tests in an order shuffled
#: with it as the seed; the same value replays the same order.
SHUFFLE_ENV = "TEST_SHUFFLE_SEED"


#: Names the Hypothesis profile to run under.  Tests that pin
#: ``max_examples`` keep it under any profile; the engine harness
#: (tests/property/test_engine_differential.py) draws what the profile
#: sets, and 5 examples when none is named.
PROFILE_ENV = "HYPOTHESIS_PROFILE"
settings.register_profile("deep", max_examples=40)
if os.environ.get(PROFILE_ENV):
    settings.load_profile(os.environ[PROFILE_ENV])


def pytest_report_header(config):
    lines = []
    seed = os.environ.get(SHUFFLE_ENV)
    if seed:
        lines.append(f"test order shuffled: {SHUFFLE_ENV}={seed}")
    profile = os.environ.get(PROFILE_ENV)
    if profile:
        lines.append(f"hypothesis profile: {PROFILE_ENV}={profile}")
    return lines


def pytest_collection_modifyitems(config, items):
    """Tier-1 must pass in any order: shuffle it when a seed is set."""
    seed = os.environ.get(SHUFFLE_ENV)
    if seed:
        random.Random(seed).shuffle(items)


@pytest.fixture(scope="session", autouse=True)
def _result_cache_dir(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a throwaway dir for the whole run.

    Session-scoped, so it is in place before any module-scoped fixture
    builds the default session: test runs neither read nor pollute the
    user's real ``~/.cache/repro`` store, yet still exercise the disk
    tier.
    """
    path = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(path))
        yield path


@pytest.fixture(autouse=True)
def _isolated_default_session():
    """Give every test a fresh default session.

    Closes whatever default session the test created:
    ``set_default_session(None)`` only drops the reference, and a
    dropped session's pool workers and published ``/dev/shm`` segments
    would otherwise outlive the test that made them.
    """
    from repro.experiments import engine

    yield
    if engine._DEFAULT_SESSION is not None:
        engine._DEFAULT_SESSION.close()
    engine.set_default_session(None)


@pytest.fixture
def plenty_of_cpus(monkeypatch):
    """Defeat the worker clamp on small CI boxes.

    Tests that need the *pool* path (a run faulted to crash its worker
    would take pytest down with it in-process) request this; on a 1-CPU
    container the clamp would silently force every session serial.
    """
    monkeypatch.setattr("os.cpu_count", lambda: 8)


@pytest.fixture
def own_residue():
    """Lists this process's trace-plane segments still in ``/dev/shm``.

    Segment names start with the publishing pid, so a leak check that
    reads only these is not failed by another process's live session.
    """
    return functools.partial(shm_residue, f"{SHM_PREFIX}{os.getpid():x}-")


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """4 sets x 4 ways x 64 B."""
    return CacheGeometry(4 * 4 * 64, 4)


@pytest.fixture
def tiny_params() -> MachineParams:
    """A 2-core machine with very small caches for fast unit tests."""
    return MachineParams(
        n_cores=2,
        l1=CacheGeometry(8 * 64 * 2, 2),      # 16 sets x 2 ways
        l2=CacheGeometry(32 * 64 * 4, 4),     # 32 sets x 4 ways
        llc=CacheGeometry(64 * 64 * 8, 8),    # 64 sets x 8 ways
    )


@pytest.fixture
def tiny_machine(tiny_params) -> Machine:
    return Machine(tiny_params, quantum=256)


def make_seq_trace(base: int = 0, region: int = 4096, *, ipm: float = 4.0, seed: int = 1) -> TraceGenerator:
    return TraceGenerator(
        [SequentialStream(ctx=1, base_line=base, region_lines=region)],
        [1.0],
        inst_per_mem=ipm,
        mlp=8.0,
        seed=seed,
    )


def make_random_trace(base: int = 0, region: int = 65536, *, ipm: float = 2.0, seed: int = 2) -> TraceGenerator:
    rng = np.random.default_rng(seed)
    return TraceGenerator(
        [RandomStream(ctx=2, base_line=base, region_lines=region, rng=rng)],
        [1.0],
        inst_per_mem=ipm,
        mlp=4.0,
        seed=seed,
    )
