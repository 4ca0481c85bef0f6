"""Ablation: sampling-interval length (paper Sec. IV-B).

The paper reports that several (epoch, interval) length pairs give
similar results (they settle on a 50:1 ratio).  We run PT with the
sampling interval halved and doubled and check the outcome is stable.
"""

from dataclasses import replace

from conftest import ablation_means

from repro.workloads.mixes import make_mixes


def _sweep(scale):
    mixes = make_mixes("pref_unfri", scale.workloads_per_category, seed=scale.seed)
    # The PT run's scale carries the interval; the baseline keeps the default.
    cells = {
        mult: ("pt", {}, replace(scale, sample_units=max(128, int(scale.sample_units * mult))))
        for mult in (0.5, 1.0, 2.0)
    }
    return ablation_means(scale, mixes, cells)


def test_sampling_interval_ablation(run_once, scale):
    means = run_once(_sweep, scale)
    print()
    for mult, v in means.items():
        print(f"  sample interval x{mult}: normalized HS {v:.3f}")
    # all three lengths improve over baseline ...
    for v in means.values():
        assert v > 1.0
    # ... and agree within a few percent (the paper's robustness claim)
    assert max(means.values()) - min(means.values()) < 0.06
