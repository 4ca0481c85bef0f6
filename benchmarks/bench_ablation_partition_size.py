"""Ablation: the 1.5x partition-sizing rule (paper Sec. III-B3).

"It was experimentally determined that a partition size of 1.5 times
the size of the Agg set works well."  We sweep the factor for Pref-CP
on the aggressive categories.  The shape that must hold: gains decay
monotonically as the partition grows (a too-large partition stops
protecting the victims), and 1.5 captures most of the achievable gain.
On our substrate even smaller partitions do marginally better than
1.5x because the synthetic streamers are *fully* LLC-insensitive by
construction (Fig. 3: one way suffices); on real hardware friendly
apps still derive some benefit from residual LLC space, which is what
the paper's 1.5x compromise protects.
"""

from conftest import ablation_means

from repro.workloads.mixes import make_mixes

FACTORS = (0.5, 1.0, 1.5, 2.5, 4.0)


def _sweep(scale):
    mixes = make_mixes("pref_agg", scale.workloads_per_category, seed=scale.seed) + make_mixes(
        "pref_unfri", scale.workloads_per_category, seed=scale.seed
    )
    cells = {f: ("pref-cp", {"partition_factor": f}, scale) for f in FACTORS}
    return ablation_means(scale, mixes, cells)


def test_partition_factor_ablation(run_once, scale):
    means = run_once(_sweep, scale)
    print()
    for f in FACTORS:
        print(f"  factor {f:>4}: normalized HS {means[f]:.3f}")
    # partitioning helps at the paper's operating point ...
    assert means[1.5] > 1.0
    # ... and the benefit decays monotonically as the partition grows
    assert means[1.5] >= means[2.5] >= means[4.0] - 0.005
    # 1.5x captures the bulk of the achievable gain
    best = max(means.values())
    assert means[1.5] - 1.0 >= 0.5 * (best - 1.0)
