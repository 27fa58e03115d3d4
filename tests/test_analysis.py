"""Tests for the analysis helpers (distributions, pruning, space, reporting)."""

import numpy as np
import pytest

from repro import ConfigurationError, Euclidean, LinearScanIndex, ReferenceNet
from repro.analysis import (
    compare_indexes,
    distance_distribution,
    format_histogram,
    format_table,
    measure_pruning,
    space_overhead_curve,
)
from repro.sequences.sequence import Sequence, SequenceKind
from repro.sequences.windows import Window


@pytest.fixture
def vectors(rng):
    return [rng.normal(size=3) for _ in range(50)]


@pytest.fixture
def windows(vectors):
    built = []
    for position, vector in enumerate(vectors):
        sequence = Sequence(np.tile(vector, 2), SequenceKind.TIME_SERIES, f"s{position}")
        built.append(Window(sequence=sequence, source_id=f"s{position}", start=0, ordinal=0))
    return built


class TestDistanceDistribution:
    def test_exhaustive_pair_count(self, vectors):
        sample = distance_distribution(vectors[:10], Euclidean(), max_pairs=None)
        assert len(sample.values) == 45

    def test_sampled_pair_count(self, vectors):
        sample = distance_distribution(vectors, Euclidean(), max_pairs=100)
        assert len(sample.values) == 100

    def test_summary_statistics(self, vectors):
        sample = distance_distribution(vectors, Euclidean(), max_pairs=200)
        assert sample.minimum <= sample.mean <= sample.maximum
        assert sample.std >= 0
        assert 0.0 <= sample.cdf(sample.maximum) <= 1.0
        assert sample.cdf(sample.maximum) == 1.0
        assert sample.quantile(0.5) <= sample.maximum

    def test_histogram_consistent(self, vectors):
        sample = distance_distribution(vectors, Euclidean(), max_pairs=100, bins=12)
        assert len(sample.counts) == 12
        assert len(sample.bin_edges) == 13
        assert sample.counts.sum() == len(sample.values)
        assert sample.normalised_counts().sum() == pytest.approx(1.0)

    def test_requires_two_items(self):
        with pytest.raises(ConfigurationError):
            distance_distribution([np.zeros(3)], Euclidean())

    def test_skewness_sign(self):
        symmetric = distance_distribution(
            [np.array([float(i)]) for i in range(10)], Euclidean(), max_pairs=None
        )
        assert abs(symmetric.skewness) < 2.0


class TestPruning:
    def test_linear_scan_fraction_is_one(self, vectors):
        scan = LinearScanIndex(Euclidean())
        for position, vector in enumerate(vectors):
            scan.add(vector, key=position)
        result = measure_pruning(scan, vectors[:3], radius=1.0)
        assert result.fraction_of_naive == pytest.approx(1.0)
        assert result.pruning_ratio == pytest.approx(0.0)

    def test_reference_net_prunes(self, vectors):
        net = ReferenceNet(Euclidean())
        for position, vector in enumerate(vectors):
            net.add(vector, key=position)
        result = measure_pruning(net, vectors[:3], radius=0.5)
        assert result.distance_computations < len(vectors)
        assert 0.0 < result.pruning_ratio <= 1.0

    def test_requires_queries(self, vectors):
        scan = LinearScanIndex(Euclidean())
        scan.add(vectors[0], key=0)
        with pytest.raises(ConfigurationError):
            measure_pruning(scan, [], radius=1.0)

    def test_compare_indexes_label_override(self, vectors):
        scan = LinearScanIndex(Euclidean())
        net = ReferenceNet(Euclidean())
        for position, vector in enumerate(vectors):
            scan.add(vector, key=position)
            net.add(vector, key=position)
        results = compare_indexes({"NAIVE": scan, "RN": net}, vectors[:2], [0.5, 2.0])
        assert len(results) == 4
        assert {result.index_name for result in results} == {"NAIVE", "RN"}
        radii = {result.radius for result in results}
        assert radii == {0.5, 2.0}


class TestSpaceCurve:
    def test_checkpoints_recorded(self, windows):
        points = space_overhead_curve(
            lambda: ReferenceNet(Euclidean()), windows, checkpoints=[10, 25, 50]
        )
        assert [point.windows_inserted for point in points] == [10, 25, 50]
        assert points[0].node_count == 10
        assert points[-1].node_count == 50

    def test_space_monotone(self, windows):
        points = space_overhead_curve(
            lambda: ReferenceNet(Euclidean()), windows, checkpoints=[10, 30, 50]
        )
        links = [point.parent_link_count for point in points]
        assert links == sorted(links)

    def test_invalid_checkpoints(self, windows):
        with pytest.raises(ConfigurationError):
            space_overhead_curve(lambda: ReferenceNet(Euclidean()), windows, checkpoints=[])
        with pytest.raises(ConfigurationError):
            space_overhead_curve(lambda: ReferenceNet(Euclidean()), windows, checkpoints=[100])


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.23456], ["beta", 2.0]],
            title="My table",
        )
        assert "My table" in text
        assert "alpha" in text and "1.235" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_format_table_without_title(self):
        text = format_table(["a"], [[1]])
        assert text.splitlines()[0].strip() == "a"

    def test_format_histogram(self):
        edges = np.array([0.0, 1.0, 2.0])
        counts = np.array([3, 1])
        text = format_histogram(edges, counts, width=10, title="hist")
        assert "hist" in text
        assert "#" in text
        assert text.count("\n") == 2

    def test_format_histogram_empty_counts(self):
        text = format_histogram(np.array([0.0, 1.0]), np.array([0]))
        assert "0" in text
