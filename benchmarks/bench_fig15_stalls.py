"""Fig. 15: normalized STALLS_L2_PENDING per workload."""

from conftest import category_means, print_category_means


def test_fig15_stalls(figure):
    table = figure("fig15")
    print_category_means(table, "stalls_norm")
    means = category_means(table, "stalls_norm")
    # paper shape: CMM-a/c show the lowest stall counts on the
    # categories with aggressive prefetching (best isolation).
    for cat in ("pref_agg", "pref_unfri"):
        cmm_best = min(means[cat]["cmm-a"], means[cat]["cmm-c"])
        assert cmm_best < 1.0, cat
        assert cmm_best <= means[cat]["dunn"], cat
        assert cmm_best <= means[cat]["pref-cp"] + 0.01, cat
