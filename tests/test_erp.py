"""Tests for ERP (Edit distance with Real Penalty)."""

import numpy as np
import pytest

from repro import ERP, DistanceError, Sequence
from repro.distances import combined_bound
from repro.distances.base import ElementMetric, as_array
from repro.distances.rounding import accepts, bound_prunes, prunes


class TestERPValues:
    def test_identical_sequences(self):
        assert ERP()([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_gap_costs_distance_to_gap_element(self):
        # [1,2,3] vs [1,3]: the unmatched 2 is charged |2 - 0| = 2.
        assert ERP()([1.0, 2.0, 3.0], [1.0, 3.0]) == pytest.approx(2.0)

    def test_substitution_vs_gap_tradeoff(self):
        # [5] vs [1]: matching costs 4, two gaps cost 5 + 1 = 6 -> match.
        assert ERP()([5.0], [1.0]) == pytest.approx(4.0)

    def test_empty_against_sequence_is_sum_to_gap(self):
        # Compare via two gaps: [3,4] vs [3,4,5] adds a gap for 5.
        assert ERP()([3.0, 4.0], [3.0, 4.0, 5.0]) == pytest.approx(5.0)

    def test_custom_gap_element(self):
        distance = ERP(gap=2.0)
        # Unmatched 2 now costs |2 - 2| = 0.
        assert distance([1.0, 2.0, 3.0], [1.0, 3.0]) == pytest.approx(0.0)

    def test_trajectory_gap_broadcast(self):
        a = Sequence.from_points([[0.0, 0.0], [3.0, 4.0]])
        b = Sequence.from_points([[0.0, 0.0]])
        assert ERP()(a, b) == pytest.approx(5.0)

    def test_explicit_vector_gap(self):
        distance = ERP(gap=[1.0, 1.0])
        a = Sequence.from_points([[1.0, 1.0], [2.0, 2.0]])
        b = Sequence.from_points([[2.0, 2.0]])
        assert distance(a, b) == pytest.approx(0.0)

    def test_gap_dimension_mismatch_rejected(self):
        distance = ERP(gap=[1.0, 2.0, 3.0])
        a = Sequence.from_points([[0.0, 0.0]])
        with pytest.raises(DistanceError):
            distance(a, a)

    def test_invalid_gap_shape_rejected(self):
        with pytest.raises(DistanceError):
            ERP(gap=np.zeros((2, 2)))


class TestERPProperties:
    def test_symmetry(self):
        distance = ERP()
        a = [0.0, 1.0, 4.0, 2.0]
        b = [1.0, 4.0, 4.0]
        assert distance(a, b) == pytest.approx(distance(b, a))

    def test_triangle_inequality_sampled(self, rng):
        distance = ERP()
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 6))
            b = rng.normal(size=rng.integers(2, 6))
            c = rng.normal(size=rng.integers(2, 6))
            # As the reference net's reject: query a, pivot c, child b at
            # radius d(a, b) -- the one prune rule must not reject b; nor
            # may its mirror accept b one ulp below that radius.
            link, pivot, exact = distance(c, b), distance(a, c), distance(a, b)
            width = 2 * max(len(a), len(b), len(c)) + 1
            assert not prunes(distance, pivot - link, exact, link, width)
            assert not accepts(distance, pivot, link, np.nextafter(exact, -np.inf), width)

    def test_flags(self):
        distance = ERP()
        assert distance.is_metric and distance.is_consistent

    def test_lower_bound_valid(self, rng):
        distance = ERP()
        for _ in range(20):
            a = rng.normal(size=5)
            b = rng.normal(size=7)
            first, second = as_array(a), as_array(b)
            bound = np.array([combined_bound(distance, a, b)])
            assert not bound_prunes(distance, bound, distance(a, b), first, second[None])[0]

    def test_alignment_cost_does_not_exceed_distance(self):
        distance = ERP()
        a = [0.0, 1.0, 2.0]
        b = [0.0, 2.0]
        alignment = distance.alignment(a, b)
        assert alignment.cost == pytest.approx(distance(a, b))

    def test_manhattan_element_metric(self):
        distance = ERP(element_metric=ElementMetric("manhattan"))
        a = Sequence.from_points([[1.0, 1.0]])
        b = Sequence.from_points([[2.0, 3.0]])
        assert distance(a, b) == pytest.approx(3.0)

    def test_repr(self):
        assert "gap" in repr(ERP())
