"""``benchmarks/_baselines.py``: the paper's count-only comparison indexes.

The figure benchmarks report the cover tree (CT) and reference-based
indexing (MV-k) in distance counts; those counts only mean something if the
baselines answer range queries exactly, so their answers are held to the
linear scan's here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DTW,
    DiscreteFrechet,
    DistanceError,
    ERP,
    Euclidean,
    IndexError_,
    Levenshtein,
    LinearScanIndex,
    ReferenceNet,
)
from repro.analysis.space import space_overhead_curve
from repro.datasets.loaders import dataset_windows

MODULE = Path(__file__).resolve().parents[1] / "benchmarks" / "_baselines.py"
_spec = importlib.util.spec_from_file_location("_baselines", MODULE)
baselines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(baselines)


def _mp_index(distance):
    def selector(items, distance, count):
        return baselines.select_max_pruning(items, distance, count, items[:4], radius=2.0)

    return baselines.ReferenceIndex(distance, num_references=3, selector=selector)


BASELINES = {
    "CT": lambda distance: baselines.CoverTree(distance),
    "MV-3": lambda distance: baselines.ReferenceIndex(distance, num_references=3),
    "MV-5": lambda distance: baselines.ReferenceIndex(distance, num_references=5),
    "MP-3": _mp_index,
}


def _filled(index, windows):
    for window in windows:
        index.add(window.sequence, key=window.key)
    return index


@pytest.mark.parametrize("label", list(BASELINES))
@pytest.mark.parametrize(
    "dataset, distance, radii",
    [
        ("proteins", Levenshtein(), [1.0, 3.0, 8.0]),
        ("songs", DiscreteFrechet(), [1.0, 3.0]),
        ("traj", ERP(), [10.0, 80.0]),
    ],
)
def test_range_answers_equal_the_linear_scan(label, dataset, distance, radii):
    windows = dataset_windows(dataset, 60, seed=3)
    scan = _filled(LinearScanIndex(distance), windows)
    index = _filled(BASELINES[label](distance), windows)
    queries = [windows[0].sequence, windows[37].sequence]
    for radius in radii:
        expected = [sorted(m.key for m in row) for row in scan.batch_range_query(queries, radius)]
        actual = [sorted(m.key for m in row) for row in index.batch_range_query(queries, radius)]
        assert actual == expected, f"{label} disagreed at radius {radius}"
        for query, keys in zip(queries, expected):
            assert sorted(m.key for m in index.range_query(query, radius)) == keys


def test_query_cost_stays_within_the_scan():
    windows = dataset_windows("traj", 150, seed=1)
    distance = ERP()
    tree = _filled(baselines.CoverTree(distance), windows)
    mv = _filled(baselines.ReferenceIndex(distance, num_references=3), windows)
    query = windows[10].sequence
    costs = {}
    for name, index in (("CT", tree), ("MV-3", mv)):
        index.range_query(query, 30.0)  # MV-k selects its references on the first query
        mark = index.counter.mark()
        index.range_query(query, 30.0)
        costs[name] = index.counter.since(mark).total
    assert costs["CT"] <= len(windows)
    # MV-k may additionally measure its references.
    assert costs["MV-3"] <= len(windows) + 3


def test_reference_net_not_worse_than_cover_tree_on_clustered_data():
    windows = dataset_windows("traj", 200, seed=5)
    distance = DiscreteFrechet()
    net = _filled(ReferenceNet(distance), windows)
    tree = _filled(baselines.CoverTree(distance), windows)
    net_cost = tree_cost = 0
    for query in [windows[i].sequence for i in (0, 50, 120)]:
        mark = net.counter.mark()
        net.range_query(query, 5.0)
        net_cost += net.counter.since(mark).total
        mark = tree.counter.mark()
        tree.range_query(query, 5.0)
        tree_cost += tree.counter.since(mark).total
    # The paper's headline claim (Figures 8-11): for comparable space the
    # reference net prunes at least as well as the cover tree.  A small
    # tolerance keeps the test robust to dataset randomness.
    assert net_cost <= tree_cost * 1.1


def test_space_curve_reads_the_cover_tree_stats_dict():
    windows = dataset_windows("traj", 50, seed=0)
    points = space_overhead_curve(lambda: baselines.CoverTree(ERP()), windows, checkpoints=[20, 50])
    assert points[-1].average_parents == pytest.approx(1.0)
    assert points[-1].parent_link_count == points[-1].node_count - 1


def test_reference_index_stats_count_the_matrix():
    windows = dataset_windows("songs", 40, seed=2)
    index = _filled(baselines.ReferenceIndex(DiscreteFrechet(), num_references=6), windows)
    stats = index.stats()
    assert stats["reference_count"] == 6
    assert stats["stored_distances"] == 6 * len(windows)


@pytest.mark.parametrize("label", ["CT", "MV-3"])
def test_baselines_are_count_only(label):
    windows = dataset_windows("songs", 10, seed=4)
    index = _filled(BASELINES[label](DiscreteFrechet()), windows)
    with pytest.raises(NotImplementedError):
        index.remove(windows[0].key)
    with pytest.raises(DistanceError):
        BASELINES[label](DTW())


class TestReferenceSelection:
    @pytest.fixture
    def items(self):
        return [window.sequence for window in dataset_windows("songs", 40, seed=6)]

    def test_max_variance_picks_distinct_references(self, items):
        chosen = baselines.select_max_variance(items, DiscreteFrechet(), 5)
        assert len(chosen) == len(set(chosen)) == 5

    def test_max_variance_caps_at_population(self, items):
        assert len(baselines.select_max_variance(items[:3], DiscreteFrechet(), 10)) == 3

    def test_max_variance_is_deterministic_for_a_seed(self, items):
        first, second = (
            baselines.select_max_variance(items, DiscreteFrechet(), 4, rng=np.random.default_rng(1))
            for _ in range(2)
        )
        assert first == second

    def test_max_pruning_returns_at_most_count(self, items):
        chosen = baselines.select_max_pruning(items, DiscreteFrechet(), 3, items[:5], radius=1.0)
        assert 1 <= len(chosen) <= 3 and len(set(chosen)) == len(chosen)

    @pytest.mark.parametrize(
        "select",
        [
            lambda items: baselines.select_max_variance(items, DiscreteFrechet(), 0),
            lambda items: baselines.select_max_variance([], DiscreteFrechet(), 3),
            lambda items: baselines.select_max_pruning(items, DiscreteFrechet(), 0, items[:2], 1.0),
            lambda items: baselines.select_max_pruning(items, DiscreteFrechet(), 3, [], 1.0),
        ],
        ids=["mv-count", "mv-empty", "mp-count", "mp-no-queries"],
    )
    def test_invalid_selection_rejected(self, items, select):
        with pytest.raises(IndexError_):
            select(items)


class TestConstruction:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: baselines.CoverTree(DiscreteFrechet(), eps_prime=0.0),
            lambda: baselines.ReferenceIndex(DiscreteFrechet(), num_references=0),
        ],
        ids=["CT-eps-prime", "MV-references"],
    )
    def test_invalid_parameters_rejected(self, build):
        with pytest.raises(IndexError_):
            build()

    @pytest.mark.parametrize("label", ["CT", "MV-3"])
    def test_duplicate_key_and_negative_radius_rejected(self, label):
        windows = dataset_windows("songs", 10, seed=4)
        index = _filled(BASELINES[label](DiscreteFrechet()), windows)
        with pytest.raises(IndexError_):
            index.add(windows[0].sequence, key=windows[0].key)
        with pytest.raises(IndexError_):
            index.range_query(windows[0].sequence, -1.0)

    @pytest.mark.parametrize("label", ["CT", "MV-3"])
    def test_empty_index_answers_nothing(self, label):
        query = dataset_windows("songs", 1, seed=4)[0].sequence
        assert BASELINES[label](DiscreteFrechet()).range_query(query, 5.0) == []

    def test_custom_and_unknown_selectors(self):
        windows = dataset_windows("songs", 12, seed=8)
        index = _filled(
            baselines.ReferenceIndex(
                DiscreteFrechet(), num_references=2, selector=lambda items, d, k: [0, 1]
            ),
            windows,
        )
        index.build()
        assert index._reference_keys == [windows[0].key, windows[1].key]
        unknown = _filled(baselines.ReferenceIndex(DiscreteFrechet(), selector="random"), windows)
        with pytest.raises(IndexError_):
            unknown.build()

    def test_adding_after_a_query_reselects_and_stays_exact(self):
        windows = dataset_windows("songs", 50, seed=9)
        index = _filled(baselines.ReferenceIndex(DiscreteFrechet(), num_references=3), windows[:30])
        scan = _filled(LinearScanIndex(DiscreteFrechet()), windows)
        query = windows[3].sequence
        index.range_query(query, 2.0)
        _filled(index, windows[30:])
        assert sorted(m.key for m in index.range_query(query, 2.0)) == sorted(
            m.key for m in scan.range_query(query, 2.0)
        )


@settings(max_examples=30, deadline=None)
@given(
    coords=st.lists(
        st.tuples(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            st.floats(min_value=-30, max_value=30, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    ),
    radius=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
)
def test_cover_tree_equals_the_scan_on_random_points(coords, radius):
    tree = baselines.CoverTree(Euclidean())
    scan = LinearScanIndex(Euclidean())
    for position, point in enumerate(coords):
        tree.add(np.array(point), key=position)
        scan.add(np.array(point), key=position)
    query = np.array(coords[0])
    assert sorted(m.key for m in tree.range_query(query, radius)) == sorted(
        m.key for m in scan.range_query(query, radius)
    )
