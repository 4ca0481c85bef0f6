"""Per-quantum timing solver, and its batch form against the scalar one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import core_model
from repro.sim.core_model import QuantumCounts, solve_quantum
from repro.sim.params import MachineParams


@pytest.fixture
def params():
    return MachineParams()


def solve(params, counts, ipm=None, mlp=None, active=None):
    n = len(counts)
    return solve_quantum(
        params,
        counts,
        ipm or [4.0] * n,
        mlp or [4.0] * n,
        active if active is not None else [True] * n,
    )


class TestSolveQuantum:
    def test_pure_exec_cycles(self, params):
        c = QuantumCounts(n_access=1000)
        t = solve(params, [c], ipm=[4.0])
        expected = 1000 * 5 * params.cpi_exec
        assert t.cycles[0] == pytest.approx(expected)
        assert t.stalls_l2_pending[0] == pytest.approx(0.0)

    def test_l2_hits_add_stall(self, params):
        base = solve(params, [QuantumCounts(n_access=1000)]).cycles[0]
        t = solve(params, [QuantumCounts(n_access=1000, n_l2_hit_d=100)])
        assert t.cycles[0] == pytest.approx(base + 100 * params.lat_l2 / 4.0)

    def test_llc_hits_counted_in_l2_pending_stalls(self, params):
        t = solve(params, [QuantumCounts(n_access=1000, n_llc_hit_d=50)])
        assert t.stalls_l2_pending[0] == pytest.approx(50 * params.lat_llc / 4.0)

    def test_memory_latency_scales_with_queue_factor(self, params):
        light = QuantumCounts(n_access=1000, n_mem_d=100, demand_bytes=100 * 64.0)
        t_light = solve(params, [light])
        heavy = QuantumCounts(n_access=1000, n_mem_d=800, demand_bytes=800 * 64.0)
        t_heavy = solve(params, [heavy])
        assert t_heavy.queue_factor[0] > t_light.queue_factor[0]

    def test_higher_mlp_fewer_stall_cycles(self, params):
        c = QuantumCounts(n_access=1000, n_mem_d=200, demand_bytes=200 * 64.0)
        t_low = solve(params, [c], mlp=[1.0])
        t_high = solve(params, [c], mlp=[8.0])
        assert t_high.cycles[0] < t_low.cycles[0]

    def test_prefetch_bytes_raise_queue_factor_without_direct_stall(self, params):
        no_pf = QuantumCounts(n_access=1000, n_mem_d=100, demand_bytes=6400.0)
        with_pf = QuantumCounts(
            n_access=1000, n_mem_d=100, demand_bytes=6400.0, pref_bytes=80_000.0
        )
        t0 = solve(params, [no_pf])
        t1 = solve(params, [with_pf])
        assert t1.queue_factor[0] > t0.queue_factor[0]
        assert t1.cycles[0] > t0.cycles[0]

    def test_shared_bandwidth_couples_cores(self, params):
        quiet = QuantumCounts(n_access=1000, n_mem_d=50, demand_bytes=50 * 64.0)
        noisy = QuantumCounts(n_access=1000, n_mem_d=50, demand_bytes=50 * 64.0,
                              pref_bytes=500_000.0)
        t_alone = solve(params, [quiet, QuantumCounts()], active=[True, False])
        t_corun = solve(params, [quiet, noisy])
        assert t_corun.cycles[0] > t_alone.cycles[0]

    def test_idle_core_minimal_cycles(self, params):
        t = solve(params, [QuantumCounts(), QuantumCounts(n_access=100)], active=[False, True])
        assert t.cycles[0] == pytest.approx(1.0)

    def test_machine_cycles_mean_of_active(self, params):
        counts = [QuantumCounts(n_access=1000), QuantumCounts(n_access=2000)]
        t = solve(params, counts)
        assert t.machine_cycles == pytest.approx(float(t.cycles.mean()))

    def test_alignment_check(self, params):
        with pytest.raises(ValueError):
            solve_quantum(params, [QuantumCounts()], [1.0], [1.0, 2.0], [True])

    def test_total_bytes_property(self):
        c = QuantumCounts(demand_bytes=10.0, pref_bytes=5.0)
        assert c.total_bytes == 15.0


# ---------------------------------------------------------------- batch solve

#: Active-core counts at the boundaries of ``_scalar_sum``'s pairwise tree.
TREE_BOUNDARIES = (0, 1, 7, 8, 9, 16)
#: Traffic scales (bytes per access): none, light, and enough to saturate
#: the socket so rho hits ``RHO_CLIP`` and the factor hits its cap.
TRAFFIC = (0.0, 8.0, 64.0, 4096.0)


@st.composite
def batches(draw, n_active):
    """A (rows, cores) batch: ``n_active`` active cores among idle columns."""
    n_idle = draw(st.integers(0, 3))
    active = [True] * n_active + [False] * n_idle
    active = draw(st.permutations(active)) if active else []
    rows = draw(st.integers(1, 4))
    counts = {f: [] for f in ("n_access", "n_l2_hit_d", "n_llc_hit_d", "n_mem_d",
                              "demand_bytes", "pref_bytes")}
    ipm, mlp = [], []
    for _ in range(rows):
        row = {f: [] for f in counts}
        ipm_r, mlp_r = [], []
        for on in active:
            if not on:  # an idle core: zero counts, as the machine leaves them
                for f in row:
                    row[f].append(0 if f.startswith("n_") else 0.0)
                ipm_r.append(0.0)
                mlp_r.append(1.0)
                continue
            n_acc = draw(st.sampled_from((0, 1, 512, 4096)))
            n_l2 = draw(st.integers(0, n_acc))
            n_llc = draw(st.integers(0, n_acc - n_l2))
            n_mem = draw(st.integers(0, n_acc - n_l2 - n_llc))
            scale = draw(st.sampled_from(TRAFFIC))
            row["n_access"].append(n_acc)
            row["n_l2_hit_d"].append(n_l2)
            row["n_llc_hit_d"].append(n_llc)
            row["n_mem_d"].append(n_mem)
            row["demand_bytes"].append(n_mem * min(scale, 64.0))
            row["pref_bytes"].append(n_acc * scale * draw(st.floats(0.0, 4.0)))
            ipm_r.append(draw(st.floats(0.0, 20.0)))
            mlp_r.append(draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0), st.floats(1.0, 16.0))))
        for f in counts:
            counts[f].append(row[f])
        ipm.append(ipm_r)
        mlp.append(mlp_r)
    return counts, ipm, mlp, active


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_rows_match_scalar(params, counts, ipm, mlp, active):
    shape = (len(ipm), len(active))
    batch = solve_quantum(
        params,
        QuantumCounts(**{f: np.array(v).reshape(shape) for f, v in counts.items()}),
        np.array(ipm).reshape(shape),
        np.array(mlp).reshape(shape),
        active,
    )
    for b in range(len(ipm)):
        row = [QuantumCounts(*vals) for vals in zip(*(counts[f][b] for f in counts))]
        ref = solve_quantum(params, row, ipm[b], mlp[b], active)
        assert _bits(batch.cycles[b]) == _bits(ref.cycles), f"row {b}: cycles"
        assert _bits(batch.stalls_l2_pending[b]) == _bits(ref.stalls_l2_pending), f"row {b}: stalls"
        assert _bits(batch.queue_factor[b]) == _bits(ref.queue_factor), f"row {b}: queue factor"
        assert _bits(batch.machine_cycles[b]) == _bits(ref.machine_cycles), f"row {b}: machine"


class TestBatchSolve:
    """A batched solve equals the scalar solve of every row, bit for bit."""

    @pytest.mark.parametrize("exact", [True, False], ids=["replica", "numpy-sums"])
    @pytest.mark.parametrize("n_active", TREE_BOUNDARIES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rows_equal_scalar(self, n_active, exact, data):
        counts, ipm, mlp, active = data.draw(batches(n_active))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_model, "_SCALAR_SUM_EXACT", exact)
            _assert_rows_match_scalar(MachineParams(), counts, ipm, mlp, active)

    def test_clip_and_cap_rows(self, params):
        """Zero traffic, light traffic and a row that saturates: the last
        one clips rho and caps the factor on every iteration."""
        active = [True, True, False]
        counts = {
            "n_access": [[1000, 0, 0], [1000, 1000, 0], [1000, 1000, 0]],
            "n_l2_hit_d": [[100, 0, 0], [100, 10, 0], [100, 10, 0]],
            "n_llc_hit_d": [[0, 0, 0], [50, 5, 0], [50, 5, 0]],
            "n_mem_d": [[0, 0, 0], [100, 900, 0], [100, 900, 0]],
            "demand_bytes": [[0.0, 0.0, 0.0], [6400.0, 57600.0, 0.0], [6400.0, 57600.0, 0.0]],
            "pref_bytes": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4e7, 4e7, 0.0]],
        }
        ipm = [[4.0, 1.0, 0.0]] * 3
        mlp = [[0.5, 4.0, 1.0]] * 3
        _assert_rows_match_scalar(params, counts, ipm, mlp, active)
        t = solve_quantum(
            params,
            QuantumCounts(**{f: np.array(v) for f, v in counts.items()}),
            np.array(ipm), np.array(mlp), active,
        )
        assert t.queue_factor[0, 0] == 1.0  # no traffic: the unloaded factor
        damped = 1.0
        for _ in range(6):
            damped = 0.5 * damped + 0.5 * params.max_queue_factor
        assert t.queue_factor[2, 0] == t.queue_factor[2, 1] == damped

    def test_shared_per_core_inputs_broadcast(self, params):
        """Per-core (cores,) inputs broadcast over the rows of the batch."""
        mem = np.array([[10, 0], [200, 0]])
        t = solve_quantum(
            params,
            QuantumCounts(n_access=np.array([1000, 0]), n_mem_d=mem, demand_bytes=mem * 64.0),
            [4.0, 0.0], [2.0, 1.0], [True, False],
        )
        assert t.cycles.shape == (2, 2) and t.machine_cycles.shape == (2,)
        for b in range(2):
            ref = solve(params, [QuantumCounts(n_access=1000, n_mem_d=int(mem[b, 0]),
                                               demand_bytes=mem[b, 0] * 64.0), QuantumCounts()],
                        ipm=[4.0, 0.0], mlp=[2.0, 1.0], active=[True, False])
            assert _bits(t.cycles[b]) == _bits(ref.cycles)
            assert t.machine_cycles[b] == ref.machine_cycles

    def test_batch_shape_must_match_cores(self, params):
        with pytest.raises(ValueError):
            solve_quantum(params, QuantumCounts(n_access=np.ones((2, 3))), [1.0] * 3, [1.0] * 3, [True] * 2)
