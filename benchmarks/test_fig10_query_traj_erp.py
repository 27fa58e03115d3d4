"""Figure 10: query cost on TRAJ with ERP, plus the distance distribution.

The paper plots the query cost of RN, CT and MV-20 (ten times the space of
the reference net) together with the pairwise distance distribution, and
observes that (a) the index cost tracks the distance CDF and (b) RN and CT
behave similarly here, both much better than MV-20 at larger ranges.
"""

from _baselines import CoverTree, ReferenceIndex
from _harness import average_fraction, load_windows, paper_distance, run_query_figure, scaled
from repro.analysis.distributions import distance_distribution
from repro.analysis.reporting import format_table
from repro.indexing.reference_net import ReferenceNet

import pytest

pytestmark = pytest.mark.benchmark


def test_fig10_query_cost_traj_erp(benchmark):
    windows = load_windows("traj", 400, seed=0)
    distance = paper_distance("traj", "erp")
    items = [window.sequence for window in windows]
    queries = items[:: len(items) // 4][:4]

    sample = distance_distribution(items, distance, max_pairs=scaled(800))
    radii = [sample.quantile(q) for q in (0.001, 0.01, 0.05, 0.15, 0.3)]

    def run():
        suite = {
            "RN": ReferenceNet(distance),
            "CT": CoverTree(distance),
            "MV-20": ReferenceIndex(distance, num_references=20),
        }
        for index in suite.values():
            for window in windows:
                index.add(window.sequence, key=window.key)
        return run_query_figure(
            "Figure 10 -- TRAJ / ERP: query cost vs naive scan", suite, queries, radii
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(
        format_table(
            ["range", "distance CDF"],
            [[radius, sample.cdf(radius)] for radius in radii],
            title="Figure 10 -- TRAJ / ERP: pairwise distance CDF at the query ranges",
        )
    )

    rn = average_fraction(series, "RN")
    ct = average_fraction(series, "CT")
    assert rn <= ct * 1.1, "RN and CT should be comparable, RN not worse"

    # The index cost follows the distance distribution: larger ranges (higher
    # CDF) cost more computations (allowing for per-query noise at the
    # near-identical smallest radii).
    rn_fractions = [point.fraction_of_naive for point in series["RN"]]
    for earlier, later in zip(rn_fractions, rn_fractions[1:]):
        assert later >= earlier - 0.02
    assert rn_fractions[-1] >= rn_fractions[0]

    # At the largest range MV-20's advantage disappears (paper: RN and CT
    # "perform much better than the MV-20").
    assert series["RN"][-1].fraction_of_naive <= series["MV-20"][-1].fraction_of_naive * 1.2
