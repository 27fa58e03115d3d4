"""Tests for the lockstep distances (Euclidean, Hamming) and the base layer."""

import numpy as np
import pytest

from repro import (
    DNA_ALPHABET,
    DistanceError,
    Euclidean,
    Hamming,
    IncompatibleSequencesError,
    Sequence,
)
from repro.distances import combined_bound
from repro.distances.base import ElementMetric, as_array


class TestAsArray:
    def test_sequence_input(self):
        array = as_array(Sequence.from_values([1.0, 2.0]))
        assert array.shape == (2, 1)

    def test_list_input(self):
        assert as_array([1.0, 2.0, 3.0]).shape == (3, 1)

    def test_trajectory_input(self):
        assert as_array(Sequence.from_points([[0, 0], [1, 1]])).shape == (2, 2)

    def test_scalar_rejected(self):
        with pytest.raises(DistanceError):
            as_array(np.float64(3.0))

    def test_empty_rejected(self):
        with pytest.raises(DistanceError):
            as_array(np.empty((0, 2)))

    def test_three_dimensional_rejected(self):
        with pytest.raises(DistanceError):
            as_array(np.zeros((2, 2, 2)))


class TestElementMetric:
    def test_euclidean_matrix(self):
        metric = ElementMetric("euclidean")
        a = np.array([[0.0], [3.0]])
        b = np.array([[0.0], [4.0]])
        matrix = metric.matrix(a, b)
        assert matrix.shape == (2, 2)
        assert matrix[1, 1] == pytest.approx(1.0)
        assert matrix[0, 1] == pytest.approx(4.0)

    def test_manhattan_matrix(self):
        metric = ElementMetric("manhattan")
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 2.0]])
        assert metric.matrix(a, b)[0, 0] == pytest.approx(3.0)

    def test_discrete_matrix(self):
        metric = ElementMetric("discrete")
        a = np.array([[1.0], [2.0]])
        b = np.array([[1.0], [3.0]])
        matrix = metric.matrix(a, b)
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 1.0

    def test_single(self):
        metric = ElementMetric("euclidean")
        assert metric.single(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_to_origin_default(self):
        metric = ElementMetric("euclidean")
        values = metric.to_origin(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert values.tolist() == pytest.approx([5.0, 0.0])

    def test_to_origin_custom_gap(self):
        metric = ElementMetric("manhattan")
        values = metric.to_origin(np.array([[2.0]]), np.array([5.0]))
        assert values[0] == pytest.approx(3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DistanceError):
            ElementMetric("chebyshev")

    def test_equality(self):
        assert ElementMetric("euclidean") == ElementMetric("euclidean")
        assert ElementMetric("euclidean") != ElementMetric("manhattan")

    def test_dimension_mismatch(self):
        metric = ElementMetric("euclidean")
        with pytest.raises(IncompatibleSequencesError):
            metric.matrix(np.zeros((2, 1)), np.zeros((2, 2)))


class TestEuclidean:
    def test_identical_sequences(self):
        distance = Euclidean()
        assert distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_value(self):
        assert Euclidean()([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_requires_equal_lengths(self):
        with pytest.raises(IncompatibleSequencesError):
            Euclidean()([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_trajectory_distance(self):
        a = Sequence.from_points([[0, 0], [1, 0]])
        b = Sequence.from_points([[0, 1], [1, 1]])
        assert Euclidean()(a, b) == pytest.approx(np.sqrt(2.0))

    def test_dimension_mismatch_rejected(self):
        a = Sequence.from_points([[0, 0], [1, 0]])
        b = Sequence.from_values([0.0, 1.0])
        with pytest.raises(IncompatibleSequencesError):
            Euclidean()(a, b)

    def test_flags(self):
        distance = Euclidean()
        assert distance.is_metric and distance.is_consistent
        assert not distance.supports_unequal_lengths

    def test_lower_bound_is_valid(self):
        a = [1.0, 5.0, 2.0]
        b = [0.0, 1.0, 0.5]
        distance = Euclidean()
        assert combined_bound(distance, a, b) <= distance(a, b) + 1e-12

    def test_pairwise_matrix(self):
        items = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        matrix = np.stack([Euclidean().batch(item, items) for item in items])
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)


class TestHamming:
    def test_identical_strings(self):
        a = Sequence.from_string("ACGT", DNA_ALPHABET)
        assert Hamming()(a, a) == 0.0

    def test_counts_mismatches(self):
        a = Sequence.from_string("ACGT", DNA_ALPHABET)
        b = Sequence.from_string("ACCA", DNA_ALPHABET)
        assert Hamming()(a, b) == 2.0

    def test_normalised(self):
        a = Sequence.from_string("ACGT", DNA_ALPHABET)
        b = Sequence.from_string("ACCA", DNA_ALPHABET)
        assert Hamming(normalised=True)(a, b) == pytest.approx(0.5)

    def test_requires_equal_lengths(self):
        a = Sequence.from_string("ACG", DNA_ALPHABET)
        b = Sequence.from_string("ACGT", DNA_ALPHABET)
        with pytest.raises(IncompatibleSequencesError):
            Hamming()(a, b)

    def test_flags(self):
        assert Hamming().is_metric and Hamming().is_consistent

    def test_repr(self):
        assert "normalised" in repr(Hamming())
