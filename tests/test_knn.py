"""Tests for k-nearest-neighbour queries on the metric indexes."""

import numpy as np
import pytest

from repro import Euclidean, IndexError_, LinearScanIndex, ReferenceNet


@pytest.fixture
def points(rng):
    return [rng.normal(scale=3.0, size=2) for _ in range(60)]


def _fill(index, points):
    for position, point in enumerate(points):
        index.add(point, key=position)
    return index


def _exact_knn(points, query, k):
    distance = Euclidean()
    order = sorted(range(len(points)), key=lambda i: distance(points[i], query))
    return order[:k]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LinearScanIndex(Euclidean()),
        lambda: LinearScanIndex(Euclidean(), prefilter=True),
        lambda: ReferenceNet(Euclidean()),
        lambda: ReferenceNet(Euclidean(), nummax=2),
    ],
    ids=["linear-scan", "linear-scan+prefilter", "reference-net", "reference-net-nummax2"],
)
class TestKnnAcrossIndexes:
    def test_matches_exact_knn(self, factory, points):
        index = _fill(factory(), points)
        query = points[7]
        for k in (1, 3, 10):
            result = [match.key for match in index.knn_query(query, k)]
            assert result == _exact_knn(points, query, k)

    def test_distances_sorted_and_exact(self, factory, points):
        index = _fill(factory(), points)
        query = np.array([0.5, -0.5])
        matches = index.knn_query(query, 5)
        distance = Euclidean()
        values = [match.distance for match in matches]
        assert values == sorted(values)
        for match in matches:
            assert match.distance == pytest.approx(distance(query, points[match.key]))

    def test_k_larger_than_index(self, factory, points):
        index = _fill(factory(), points[:4])
        matches = index.knn_query(points[0], 10)
        assert len(matches) == 4

    def test_invalid_k(self, factory, points):
        index = _fill(factory(), points[:4])
        with pytest.raises(IndexError_):
            index.knn_query(points[0], 0)

    def test_empty_index(self, factory, points):
        assert factory().knn_query(points[0], 3) == []


class TestNearestNeighbourDelegation:
    def test_nearest_neighbour_is_first_knn(self, points):
        index = _fill(ReferenceNet(Euclidean()), points)
        query = np.array([1.0, 1.0])
        nearest = index.nearest_neighbour(query)
        top = index.knn_query(query, 1)[0]
        assert nearest.key == top.key
        assert nearest.distance == pytest.approx(top.distance)

    def test_invalid_growth_parameters(self, points):
        index = _fill(LinearScanIndex(Euclidean()), points[:5])
        with pytest.raises(IndexError_):
            index.knn_query(points[0], 2, initial_radius=0.0)
        with pytest.raises(IndexError_):
            index.knn_query(points[0], 2, growth=0.5)
