"""Figure 11: query cost on TRAJ with the discrete Fréchet distance.

Same setting as Figure 10 with the other trajectory metric; the paper
reports "similar results", i.e. RN comparable to CT and both better than the
larger-space MV configuration at non-trivial ranges.
"""

from _baselines import CoverTree, ReferenceIndex
from _harness import average_fraction, load_windows, paper_distance, run_query_figure, scaled
from repro.analysis.distributions import distance_distribution
from repro.indexing.reference_net import ReferenceNet

import pytest

pytestmark = pytest.mark.benchmark


def test_fig11_query_cost_traj_dfd(benchmark):
    windows = load_windows("traj", 400, seed=0)
    distance = paper_distance("traj", "frechet")
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
            "Figure 11 -- TRAJ / DFD: query cost vs naive scan", suite, queries, radii
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    rn = average_fraction(series, "RN")
    ct = average_fraction(series, "CT")
    assert rn <= ct * 1.1

    # Cost grows with the range, tracking the distance distribution (small
    # per-query noise tolerated at the near-identical smallest radii).
    rn_fractions = [point.fraction_of_naive for point in series["RN"]]
    for earlier, later in zip(rn_fractions, rn_fractions[1:]):
        assert later >= earlier - 0.02
    assert rn_fractions[-1] >= rn_fractions[0]

    # At the largest range the reference net is no worse than MV-20 despite
    # using an order of magnitude less space.
    assert series["RN"][-1].fraction_of_naive <= series["MV-20"][-1].fraction_of_naive * 1.2
