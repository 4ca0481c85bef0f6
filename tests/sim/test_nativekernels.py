"""Differential and forced-fallback tests for the compiled kernel tier.

The ``native`` engine (``repro.sim.nativekernels``) fuses the grouped
LLC serve, the masked-lockstep core advance and the scalar fast
engine's per-access loops into numba-JIT-able kernels.  Nothing about
that tier may be observable in results: under ``REPRO_NATIVE_KERNELS=
force`` (interpreted kernels — the test hook that works without numba,
and exercises the exact code numba compiles) every PMU total, wall
cycle, LLC stat and occupancy must match the pure-NumPy/dict paths bit
for bit; and whenever the tier is unavailable (env off, numba absent,
a kernel raising) it must degrade to those paths bit-identically while
counting the fallback.

Digest discipline mirrors ``test_batch_engine``: one sha256 over every
run's totals and wall cycles, compared across lanes.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.experiments.batch import BatchRunSpec, simulate_batch
from repro.experiments.config import ScaleConfig
from repro.experiments.runner import build_machine
from repro.sim import PF_ALL_OFF, PF_ALL_ON, Machine
from repro.sim import nativekernels
from repro.sim.engines import ENGINE_FAST, ENGINE_NATIVE, resolve_engine
from repro.sim.engines import ENV_VAR as SIM_ENGINE_ENV
from repro.sim.nativekernels import ENV_VAR as NATIVE_ENV
from repro.sim.pmu import PmuSample
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import make_mixes

SC = ScaleConfig(name="native-unit", llc_scale=16, n_cores=4, quantum=512)
MECH_SC = dataclasses.replace(SC, sample_units=512, exec_units=2048, n_epochs=1)
N_ACCESSES = 6000

CATEGORIES = ("pref_agg", "pref_unfri", "pref_no_agg")
WIDTHS = (1, 3, 8)
AXES = ("shared", "cat", "mixed")

MASKS = {
    "pf_on": (PF_ALL_ON,) * 4,
    "pf_off": (PF_ALL_OFF,) * 4,
    "pf_mixed": (0x5, 0xA, 0x3, 0xC),
}


@pytest.fixture(scope="module")
def store():
    return TraceStore(None, mode="memory")


@pytest.fixture(autouse=True)
def _tier_hygiene():
    """Tier decisions are cached process-wide; never leak one test's
    forced/disabled state into the next test (or the rest of the suite)."""
    nativekernels._reset_for_tests()
    yield
    nativekernels._reset_for_tests()


@pytest.fixture
def forced(monkeypatch):
    monkeypatch.setenv(NATIVE_ENV, "force")
    nativekernels._reset_for_tests()
    yield


@pytest.fixture
def native_off(monkeypatch):
    monkeypatch.setenv(NATIVE_ENV, "off")
    nativekernels._reset_for_tests()
    yield


def _mix(category):
    return make_mixes(category, 1, n_cores=4, seed=2019)[0]


def _cat_split(k, w, n_cores):
    cbm0 = (1 << k) - 1
    cbm1 = ((1 << w) - 1) ^ cbm0
    return ((0, cbm0), (1, cbm1)), tuple(c % 2 for c in range(n_cores))


def _specs(mix, masks, axis, width):
    """``width`` static specs: all shared, all CAT (distinct split per
    run) or mixed (runs alternate shared/partitioned)."""
    w = SC.params().llc.ways
    out = []
    for i in range(width):
        clos_cbms, core_clos = (), ()
        if axis == "cat" or (axis == "mixed" and i % 2):
            clos_cbms, core_clos = _cat_split(2 + i, w, mix.n_cores)
        out.append(
            BatchRunSpec(
                mix=mix,
                n_accesses=N_ACCESSES,
                masks=masks,
                clos_cbms=clos_cbms,
                core_clos=core_clos,
            )
        )
    return out


def _digest(stats_list):
    h = hashlib.sha256()
    for rs in stats_list:
        h.update(np.ascontiguousarray(rs.totals).tobytes())
        h.update(repr(rs.wall_cycles).encode())
    return h.hexdigest()


def _scalar_observables(m: Machine) -> dict:
    sample = PmuSample(m.pmu.counts.copy(), m.pmu.wall_cycles)
    out = {"pmu": m.pmu.counts.copy(), "ipc": sample.ipc_all()}
    for i, cs in enumerate(m.cores):
        for lvl in ("l1", "l2"):
            s = getattr(cs, lvl).stats
            out[f"{lvl}{i}"] = (
                s.accesses,
                s.hits,
                s.pref_fills,
                s.pref_used,
                s.pref_evicted_unused,
            )
        out[f"occ_l1_{i}"] = cs.l1.occupancy()
        out[f"occ_l2_{i}"] = cs.l2.occupancy()
    s = m.llc.stats
    out["llc"] = (s.accesses, s.hits, s.pref_fills, s.pref_used, s.pref_evicted_unused)
    out["llc_occ"] = m.llc.occupancy()
    return out


def _assert_identical(ref: dict, native: dict, label: str) -> None:
    for key in ref:
        a, b = ref[key], native[key]
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"{label}: {key} diverged"
        else:
            assert a == b, f"{label}: {key} diverged (fast={a}, native={b})"


def _scalar_machine(store, engine, mix, masks, partitioned):
    m = build_machine(mix, SC, trace_store=store, engine=engine)
    for cpu, mask in enumerate(masks):
        m.prefetch_msr.set_mask(cpu, mask)
    if partitioned:
        w = m.params.llc.ways
        clos_cbms, core_clos = _cat_split(w // 2, w, mix.n_cores)
        for clos, cbm in clos_cbms:
            m.cat.set_cbm(clos, cbm)
        for cpu, clos in enumerate(core_clos):
            m.cat.assign_core(cpu, clos)
    return m


class TestNativeScalarBitIdentity:
    """Forced-native scalar machines vs. the fast engine, every
    observable the experiment layer consumes."""

    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    @pytest.mark.parametrize("partitioned", [False, True], ids=["shared", "cat"])
    def test_bit_identical(self, store, forced, category, mask_name, partitioned):
        mix = _mix(category)
        fast = _scalar_machine(store, ENGINE_FAST, mix, MASKS[mask_name], partitioned)
        native = _scalar_machine(store, ENGINE_NATIVE, mix, MASKS[mask_name], partitioned)
        assert native.native_fallbacks() == 0, "forced tier did not engage"
        fast.run_accesses(N_ACCESSES)
        native.run_accesses(N_ACCESSES)
        _assert_identical(
            _scalar_observables(fast),
            _scalar_observables(native),
            f"{category}/{mask_name}/{'cat' if partitioned else 'shared'}",
        )

    def test_midrun_control_flips(self, store, forced):
        """Mask and CAT flips between quanta land identically on the
        array-backed caches and prefetcher tables."""
        mix = _mix("pref_agg")
        machines = [
            _scalar_machine(store, e, mix, MASKS["pf_on"], False)
            for e in (ENGINE_FAST, ENGINE_NATIVE)
        ]
        for m in machines:
            m.run_accesses(3000)
            m.prefetch_msr.set_mask(0, PF_ALL_OFF)
            m.prefetch_msr.set_mask(2, 0x9)
            w = m.params.llc.ways
            m.cat.set_cbm(0, (1 << (w // 4)) - 1)
            for cpu in range(mix.n_cores):
                m.cat.assign_core(cpu, 0)
            m.run_accesses(3000)
        _assert_identical(
            _scalar_observables(machines[0]), _scalar_observables(machines[1]), "midrun"
        )

    def test_idle_cores(self, store, forced):
        machines = []
        for e in (ENGINE_FAST, ENGINE_NATIVE):
            m = _scalar_machine(store, e, _mix("pref_unfri"), MASKS["pf_mixed"], True)
            m.set_idle(1)
            m.run_accesses(4000)
            machines.append(m)
        _assert_identical(
            _scalar_observables(machines[0]), _scalar_observables(machines[1]), "idle"
        )


# Latin square over (category, axis) -> width: each (category, axis)
# cell runs once, and every axis and every category sees every batch
# width across the matrix without the full 27-run cross product.
def _width_for(category, axis):
    return WIDTHS[(CATEGORIES.index(category) + AXES.index(axis)) % len(WIDTHS)]


class TestNativeBatchSha256:
    """Forced-native batched sweeps vs. the pure-NumPy lockstep lanes:
    the full-result sha256 must be identical, with zero fallbacks."""

    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize("axis", AXES)
    def test_static_matrix(self, store, monkeypatch, category, axis):
        width = _width_for(category, axis)
        specs = _specs(_mix(category), MASKS["pf_mixed"], axis, width)

        monkeypatch.setenv(NATIVE_ENV, "off")
        nativekernels._reset_for_tests()
        pure = simulate_batch(specs, SC, trace_store=store)

        monkeypatch.setenv(NATIVE_ENV, "force")
        nativekernels._reset_for_tests()
        before = nativekernels.native_fallback_count()
        native = simulate_batch(specs, SC, trace_store=store)

        label = f"{category}/{axis}/w{width}"
        assert _digest(native) == _digest(pure), f"{label}: digest diverged"
        assert nativekernels.native_fallback_count() == before, f"{label}: fell back"

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_dynamic_mechanisms(self, store, monkeypatch, category):
        """Controller-driven lockstep runs flip masks and CAT every
        epoch; the native tier must reproduce them exactly."""
        mix = _mix(category)
        specs = [BatchRunSpec(mix=mix, mechanism=m) for m in ("pt", "cmm-a")]

        monkeypatch.setenv(NATIVE_ENV, "off")
        nativekernels._reset_for_tests()
        pure = simulate_batch(specs, MECH_SC, trace_store=store)

        monkeypatch.setenv(NATIVE_ENV, "force")
        nativekernels._reset_for_tests()
        native = simulate_batch(specs, MECH_SC, trace_store=store)

        assert _digest(native) == _digest(pure), f"{category}: digest diverged"


class TestForcedFallback:
    """Every unavailability path degrades bit-identically and counts."""

    def test_env_off_disables_and_counts(self, store, native_off):
        assert not nativekernels.kernels_enabled()
        before = nativekernels.native_fallback_count()
        mix = _mix("pref_agg")
        fast = _scalar_machine(store, ENGINE_FAST, mix, MASKS["pf_mixed"], True)
        native = _scalar_machine(store, ENGINE_NATIVE, mix, MASKS["pf_mixed"], True)
        assert native.native_fallbacks() == 1
        assert nativekernels.native_fallback_count() == before + 1
        fast.run_accesses(4000)
        native.run_accesses(4000)
        _assert_identical(
            _scalar_observables(fast), _scalar_observables(native), "env-off"
        )

    def test_numba_absent_auto_falls_back(self, store, monkeypatch):
        """``auto`` without an importable numba is the stock degraded
        install: requesting ``native`` runs the fast paths unchanged."""
        monkeypatch.delenv(NATIVE_ENV, raising=False)
        monkeypatch.setattr(nativekernels, "_numba", None)
        nativekernels._reset_for_tests()
        assert not nativekernels.kernels_enabled()
        mix = _mix("pref_unfri")
        fast = _scalar_machine(store, ENGINE_FAST, mix, MASKS["pf_on"], False)
        native = _scalar_machine(store, ENGINE_NATIVE, mix, MASKS["pf_on"], False)
        assert native.native_fallbacks() == 1
        fast.run_accesses(4000)
        native.run_accesses(4000)
        _assert_identical(
            _scalar_observables(fast), _scalar_observables(native), "no-numba"
        )

    def test_raising_kernel_fails_selfcheck(self, store, monkeypatch):
        """A kernel that raises at first call (e.g. a numba compile
        error) fails the off-clock self-check: the tier stays off for
        the process, the fallback is counted, results are unchanged."""

        def _boom(*args, **kwargs):
            raise RuntimeError("synthetic kernel failure")

        monkeypatch.setenv(NATIVE_ENV, "force")
        monkeypatch.setattr(nativekernels, "K_SERVE_LLC", _boom)
        nativekernels._reset_for_tests()
        before = nativekernels.native_fallback_count()
        assert not nativekernels.kernels_enabled()
        assert nativekernels.native_fallback_count() == before + 1
        mix = _mix("pref_no_agg")
        fast = _scalar_machine(store, ENGINE_FAST, mix, MASKS["pf_mixed"], True)
        native = _scalar_machine(store, ENGINE_NATIVE, mix, MASKS["pf_mixed"], True)
        assert native.native_fallbacks() == 1
        fast.run_accesses(4000)
        native.run_accesses(4000)
        _assert_identical(
            _scalar_observables(fast), _scalar_observables(native), "raising-kernel"
        )

    def test_runtime_failure_degrades_batch_bit_identically(
        self, store, monkeypatch
    ):
        """A kernel raising *mid-run* (after the self-check passed)
        sticky-disables the tier; the batch plane's degradation path
        reruns the affected runs on fresh pure-path machines and the
        results still match the native-off lane exactly."""
        specs = _specs(_mix("pref_agg"), MASKS["pf_mixed"], "cat", 3)
        # Ways 8-11 shared by both CLOS: the stack-distance serve cannot
        # take this row, so the compiled serve (and its failure) runs.
        w = SC.params().llc.ways
        overlap = ((0, (1 << 12) - 1), (1, ((1 << w) - 1) ^ 0xFF))
        specs[1] = dataclasses.replace(specs[1], clos_cbms=overlap)

        monkeypatch.setenv(NATIVE_ENV, "off")
        nativekernels._reset_for_tests()
        pure = simulate_batch(specs, SC, trace_store=store)

        monkeypatch.setenv(NATIVE_ENV, "force")
        nativekernels._reset_for_tests()
        assert nativekernels.kernels_enabled()  # self-check warm, tier live

        def _boom(*args, **kwargs):
            raise RuntimeError("synthetic mid-run kernel failure")

        monkeypatch.setattr(nativekernels, "K_SERVE_LLC", _boom)
        before = nativekernels.native_fallback_count()
        degraded = simulate_batch(specs, SC, trace_store=store)

        assert _digest(degraded) == _digest(pure), "degraded lane diverged"
        assert nativekernels.native_fallback_count() > before
        status = nativekernels.tier_status()
        assert not status["enabled"]
        assert "kernel failed" in (status["disabled_reason"] or "")

    def test_disable_runtime_is_sticky_under_force(self, monkeypatch):
        monkeypatch.setenv(NATIVE_ENV, "force")
        nativekernels._reset_for_tests()
        assert nativekernels.kernels_enabled()
        nativekernels.disable_runtime("unit test")
        assert not nativekernels.kernels_enabled()
        assert nativekernels.tier_status()["disabled_reason"] == "unit test"


class TestTierIntrospection:
    def test_tier_status_shape(self):
        status = nativekernels.tier_status()
        assert set(status) == {"numba", "mode", "enabled", "fallbacks", "disabled_reason"}
        assert status["mode"] in ("off", "auto", "force")
        assert isinstance(status["fallbacks"], int)

    def test_force_mode_enables_without_numba(self, forced):
        """``force`` runs the interpreted kernels — the no-numba test
        hook this whole module leans on."""
        assert nativekernels.kernels_enabled()

    def test_auto_resolution_tracks_tier(self, monkeypatch):
        monkeypatch.delenv(SIM_ENGINE_ENV, raising=False)
        monkeypatch.setenv(NATIVE_ENV, "force")
        nativekernels._reset_for_tests()
        assert resolve_engine(None).name == ENGINE_NATIVE
        monkeypatch.setenv(NATIVE_ENV, "off")
        nativekernels._reset_for_tests()
        assert resolve_engine(None).name == ENGINE_FAST
