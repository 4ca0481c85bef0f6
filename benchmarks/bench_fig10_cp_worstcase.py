"""Fig. 10: CP worst-case per-application speedup."""

from conftest import category_means, print_category_means


def test_fig10_cp_worstcase(figure):
    table = figure("fig10")
    print_category_means(table, "worst")
    means = category_means(table, "worst")
    # paper shape: the prefetch-aware CP plans keep worst-case speedups
    # high (no application is destroyed by partitioning).
    for cat, m in means.items():
        assert m["pref-cp"] > 0.85, cat
        assert m["pref-cp2"] > 0.80, cat
