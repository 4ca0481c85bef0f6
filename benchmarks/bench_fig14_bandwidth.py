"""Fig. 14: normalized memory traffic of the seven mechanisms."""

from conftest import category_means, print_category_means


def test_fig14_bandwidth(figure):
    table = figure("fig14")
    print_category_means(table, "bw_norm")
    means = category_means(table, "bw_norm")
    for cat in ("pref_agg", "pref_unfri"):
        # paper shape: PT has the lowest bandwidth consumption (it
        # disables prefetching outright)...
        assert means[cat]["pt"] < 0.95, cat
        # ...while pure CP does not reduce prefetch traffic.
        assert means[cat]["pref-cp"] > 0.95, cat
        assert means[cat]["dunn"] > 0.95, cat
        # CMM throttles the useless prefetchers, landing at or below CP.
        assert means[cat]["cmm-a"] < means[cat]["pref-cp"], cat
