"""Tests for the linear-scan index."""

import pytest

from repro import DTW, Euclidean, IndexError_, LinearScanIndex


@pytest.fixture
def index():
    scan = LinearScanIndex(Euclidean())
    for position, value in enumerate([0.0, 1.0, 2.0, 5.0, 10.0]):
        scan.add([value, value], key=position)
    return scan


class TestContentManagement:
    def test_add_and_len(self, index):
        assert len(index) == 5

    def test_auto_keys(self):
        scan = LinearScanIndex(Euclidean())
        first = scan.add([1.0])
        second = scan.add([2.0])
        assert first != second

    def test_duplicate_key_rejected(self, index):
        with pytest.raises(IndexError_):
            index.add([0.0, 0.0], key=0)

    def test_remove(self, index):
        index.remove(0)
        assert len(index) == 4
        assert 0 not in index

    def test_remove_missing(self, index):
        with pytest.raises(IndexError_):
            index.remove(99)

    def test_get(self, index):
        assert index.get(3) == [5.0, 5.0]
        with pytest.raises(IndexError_):
            index.get(99)

    def test_keys_and_items(self, index):
        assert set(index.keys()) == {0, 1, 2, 3, 4}
        assert len(index.items()) == 5


class TestRangeQuery:
    def test_returns_matches_within_radius(self, index):
        matches = index.range_query([0.0, 0.0], 1.5)
        assert sorted(match.key for match in matches) == [0, 1]

    def test_exact_distances_reported(self, index):
        matches = index.range_query([0.0, 0.0], 1.5)
        assert all(match.distance is not None for match in matches)

    def test_zero_radius(self, index):
        matches = index.range_query([5.0, 5.0], 0.0)
        assert [match.key for match in matches] == [3]

    def test_negative_radius_rejected(self, index):
        with pytest.raises(IndexError_):
            index.range_query([0.0, 0.0], -1.0)

    def test_counts_one_distance_per_item(self, index):
        mark = index.counter.mark()
        index.range_query([0.0, 0.0], 1.0)
        assert index.counter.since(mark).total == len(index)

    def test_empty_index(self):
        scan = LinearScanIndex(Euclidean())
        assert scan.range_query([0.0], 10.0) == []

    def test_accepts_non_metric_distances(self):
        scan = LinearScanIndex(DTW())
        scan.add([1.0, 2.0, 3.0], key="a")
        matches = scan.range_query([1.0, 2.0, 3.0], 0.1)
        assert [match.key for match in matches] == ["a"]
