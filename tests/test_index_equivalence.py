"""Cross-index integration tests: every index answers range queries identically.

The same windows, the same distances the paper uses, the same queries -- the
reference net (plain and ``nummax``-capped) must return exactly the linear
scan's result sets, differing only in how many distance computations it
spends.
"""

import pytest

from repro import DiscreteFrechet, ERP, Levenshtein, LinearScanIndex, ReferenceNet
from repro.datasets.loaders import dataset_windows


INDEXES = {
    "linear": LinearScanIndex,
    "linear+prefilter": lambda distance: LinearScanIndex(distance, prefilter=True),
    "reference-net": ReferenceNet,
    "reference-net+prefilter": lambda distance: ReferenceNet(distance, prefilter=True),
    "reference-net-5": lambda distance: ReferenceNet(distance, nummax=5),
}


def _all_indexes(distance, names=INDEXES):
    return {name: INDEXES[name](distance) for name in names}


def _load(indexes, windows):
    for index in indexes.values():
        for window in windows:
            index.add(window.sequence, key=window.key)


@pytest.mark.parametrize("name", [name for name in INDEXES if name != "linear"])
@pytest.mark.parametrize(
    "dataset, distance, radii",
    [
        ("proteins", Levenshtein(), [1.0, 3.0, 8.0]),
        ("songs", DiscreteFrechet(), [1.0, 3.0]),
        ("traj", ERP(), [10.0, 80.0]),
    ],
)
def test_all_indexes_agree(dataset, distance, radii, name):
    windows = dataset_windows(dataset, 120, seed=3)
    indexes = _all_indexes(distance, ("linear", name))
    _load(indexes, windows)
    queries = [windows[0].sequence, windows[37].sequence]
    for radius in radii:
        for query in queries:
            reference = sorted(match.key for match in indexes["linear"].range_query(query, radius))
            result = sorted(match.key for match in indexes[name].range_query(query, radius))
            assert result == reference, f"{name} disagreed at radius {radius}"


def test_metric_indexes_do_not_exceed_scan_cost_much():
    windows = dataset_windows("traj", 150, seed=1)
    distance = ERP()
    indexes = _all_indexes(distance)
    _load(indexes, windows)
    query = windows[10].sequence
    costs = {}
    for name, index in indexes.items():
        mark = index.counter.mark()
        index.range_query(query, 30.0)
        costs[name] = index.counter.since(mark).total
    assert costs["linear"] == len(windows)
    # The net never needs more distance computations than the scan.
    for name in ("reference-net", "reference-net+prefilter", "reference-net-5"):
        assert costs[name] <= costs["linear"]

