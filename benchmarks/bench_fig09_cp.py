"""Fig. 9: cache partitioning — Dunn vs. Pref-CP vs. Pref-CP2."""

from conftest import category_means, print_category_means


def test_fig09_cp(figure):
    table = figure("fig09")
    print_category_means(table, "hs_norm")
    means = category_means(table, "hs_norm")
    # paper shape: the prefetch-aware plans beat Dunn on every category
    # that actually contains aggressive prefetching.
    for cat in ("pref_fri", "pref_agg", "pref_unfri"):
        best_pref_cp = max(means[cat]["pref-cp"], means[cat]["pref-cp2"])
        assert best_pref_cp >= means[cat]["dunn"] - 0.01, cat
    # and deliver real gains where aggressors exist
    assert means["pref_unfri"]["pref-cp"] > 1.01
    assert means["pref_agg"]["pref-cp"] > 1.0
