"""The ``fast`` engine's hand-picked cases, and engine selection.

Three 4-core mixes spanning the trace taxonomy (streaming/prefetch
friendly, irregular/prefetch hostile, a blend), each under three
prefetcher mask sets on a shared or half-split CAT LLC, plus a mid-run
mask and CAT flip and an idle core: ``fast`` against ``reference``
through :func:`~tests.property.test_engine_differential.assert_engines_agree`
(counters, wall cycles, stats, occupancy, the way-exact L1/L2/LLC
images and the prefetcher tables).
"""

from __future__ import annotations

import pytest

from repro.sim import Machine
from repro.sim.engines import DEFAULT_ENGINE, ENGINE_FAST, ENV_VAR, resolve_engine
from repro.workloads.mixes import WorkloadMix
from tests.property.test_engine_differential import (
    PF_MIXED,
    PF_OFF,
    PF_ON,
    WAYS,
    Script,
    assert_engines_agree,
    split_ways,
    static_script,
)

MIXES = {
    name: WorkloadMix(name, "fixed", benchmarks, seed=0)
    for name, benchmarks in {
        "stream_heavy": ("410.bwaves", "462.libquantum", "433.milc", "450.soplex"),
        "irregular": ("rand_access", "429.mcf", "471.omnetpp", "483.xalancbmk"),
        "blend": ("410.bwaves", "rand_access", "453.povray", "416.gamess"),
    }.items()
}

MASKS = {"pf_on": PF_ON, "pf_off": PF_OFF, "pf_mixed": PF_MIXED}

N_ACCESSES = 6000
#: Half the ways each to CLOS 0 and 1; cores alternate.
HALF = split_ways(WAYS // 2)
FAST = ("fast",)


class TestEngineEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    @pytest.mark.parametrize("partitioned", [False, True], ids=["shared", "cat"])
    def test_bit_identical(self, mix_name, mask_name, partitioned):
        cat = HALF if partitioned else None
        run = static_script(MASKS[mask_name], cat, N_ACCESSES)
        assert_engines_agree(MIXES[mix_name], [run], engines=FAST)

    def test_identical_across_midrun_control_changes(self):
        """Mask and CAT flips between quanta are picked up identically."""
        narrow = (((0, (1 << (WAYS // 4)) - 1),), (0, 0, 0, 0))
        script = Script(((PF_ON, None, 3000), ((0xF, 0x0, 0x9, 0x0), narrow, 3000)))
        assert_engines_agree(MIXES["blend"], [script], engines=FAST)

    def test_identical_with_idle_cores(self):
        run = static_script(PF_MIXED, HALF, 4000)
        assert_engines_agree(MIXES["irregular"], [run], idle=(1,), engines=FAST)


class TestEngineSelection:
    def test_default_is_fast(self, tiny_params, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert DEFAULT_ENGINE == ENGINE_FAST
        assert Machine(tiny_params).engine == ENGINE_FAST

    def test_invalid_engine_rejected(self, tiny_params, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            Machine(tiny_params, engine="warp")
        monkeypatch.setenv(ENV_VAR, "warp")
        with pytest.raises(ValueError, match="unknown simulation engine"):
            resolve_engine(None)
