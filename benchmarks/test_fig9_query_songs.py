"""Figure 9: query cost on SONGS with the discrete Fréchet distance.

Compared configurations: the reference net (RN), the nummax-capped RN-5,
the cover tree (CT) and reference-based indexing with similar space (MV-5).
The paper's claims checked here: RN-5 performs about as well as the
unconstrained RN, and both beat the cover tree.
"""

from _baselines import CoverTree, ReferenceIndex
from _harness import average_fraction, load_windows, paper_distance, run_query_figure
from repro.indexing.reference_net import ReferenceNet

import pytest

pytestmark = pytest.mark.benchmark


def test_fig9_query_cost_songs_dfd(benchmark):
    windows = load_windows("songs", 400, seed=0)
    distance = paper_distance("songs", "frechet")
    queries = [window.sequence for window in windows[:: len(windows) // 4][:4]]
    radii = [1.0, 2.0, 3.0, 4.0]

    def run():
        suite = {
            "RN": ReferenceNet(distance),
            "RN-5": ReferenceNet(distance, nummax=5),
            "CT": CoverTree(distance),
            "MV-5": ReferenceIndex(distance, num_references=5),
        }
        for index in suite.values():
            for window in windows:
                index.add(window.sequence, key=window.key)
        return run_query_figure(
            "Figure 9 -- SONGS / DFD: query cost vs naive scan", suite, queries, radii
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    rn = average_fraction(series, "RN")
    rn5 = average_fraction(series, "RN-5")
    ct = average_fraction(series, "CT")
    # The nummax cap costs little query performance (paper: "similar
    # performance with the unconstrained reference net").
    assert rn5 <= rn * 1.3 + 0.05
    # Both reference-net variants beat the cover tree on this dataset.
    assert rn < ct
    assert rn5 < ct
