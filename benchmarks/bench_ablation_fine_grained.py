"""Ablation: coarse vs. fine-grained prefetch throttling.

The paper treats a core's four prefetchers as one on/off entity but
notes Intel exposes them individually.  The ``fine_grained`` PT option
additionally probes L2-only-off and L1-only-off for the winning
off-set; it must never be worse than coarse PT (it only adds
candidates under the same selection rule).
"""

from conftest import ablation_means

from repro.workloads.mixes import make_mixes


def _sweep(scale):
    mixes = make_mixes("pref_unfri", scale.workloads_per_category, seed=scale.seed) + make_mixes(
        "pref_agg", scale.workloads_per_category, seed=scale.seed
    )
    cells = {
        "coarse": ("pt", {}, scale),
        "fine": ("pt", {"fine_grained": True}, scale),
    }
    return ablation_means(scale, mixes, cells)


def test_fine_grained_ablation(run_once, scale):
    means = run_once(_sweep, scale)
    print()
    print(f"  coarse PT : normalized HS {means['coarse']:.3f}")
    print(f"  fine PT   : normalized HS {means['fine']:.3f}")
    assert means["coarse"] > 1.0
    # extra candidates under the same margin rule can only help or tie
    # (tolerance covers sampling-position noise)
    assert means["fine"] >= means["coarse"] - 0.02
