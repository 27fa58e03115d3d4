"""Tests for the discrete Fréchet distance."""

import pytest

from repro import DiscreteFrechet, Sequence
from repro.distances import combined_bound
from repro.distances.base import ElementMetric


class TestFrechetValues:
    def test_identical_sequences(self):
        assert DiscreteFrechet()([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_time_shift_absorbed(self):
        long = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        short = [1.0, 2.0, 3.0]
        assert DiscreteFrechet()(long, short) == 0.0

    def test_bottleneck_not_sum(self):
        # Two mismatches of size 1 each: DFD is 1 (max), not 2 (sum).
        a = [0.0, 5.0, 10.0]
        b = [1.0, 5.0, 11.0]
        assert DiscreteFrechet()(a, b) == pytest.approx(1.0)

    def test_constant_offset(self):
        a = [0.0, 1.0, 2.0]
        b = [3.0, 4.0, 5.0]
        assert DiscreteFrechet()(a, b) == pytest.approx(3.0)

    def test_trajectory_distance(self):
        a = Sequence.from_points([[0, 0], [1, 0], [2, 0]])
        b = Sequence.from_points([[0, 1], [1, 1], [2, 1]])
        assert DiscreteFrechet()(a, b) == pytest.approx(1.0)

    def test_classic_leash_example(self):
        # The dog walks straight; the owner detours. The leash must span
        # the largest simultaneous separation.
        dog = Sequence.from_points([[0, 0], [1, 0], [2, 0], [3, 0]])
        owner = Sequence.from_points([[0, 1], [1, 3], [2, 1], [3, 1]])
        assert DiscreteFrechet()(dog, owner) == pytest.approx(3.0)

    def test_manhattan_element_metric(self):
        distance = DiscreteFrechet(element_metric=ElementMetric("manhattan"))
        a = Sequence.from_points([[0.0, 0.0]])
        b = Sequence.from_points([[1.0, 2.0]])
        assert distance(a, b) == pytest.approx(3.0)


class TestFrechetProperties:
    def test_symmetry(self, rng):
        distance = DiscreteFrechet()
        for _ in range(20):
            a = rng.normal(size=rng.integers(2, 6))
            b = rng.normal(size=rng.integers(2, 6))
            assert distance(a, b) == pytest.approx(distance(b, a))

    def test_triangle_inequality_sampled(self, rng):
        distance = DiscreteFrechet()
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 6))
            b = rng.normal(size=rng.integers(2, 6))
            c = rng.normal(size=rng.integers(2, 6))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_never_below_endpoint_costs(self, rng):
        distance = DiscreteFrechet()
        for _ in range(20):
            a = rng.normal(size=4)
            b = rng.normal(size=6)
            assert combined_bound(distance, a, b) <= distance(a, b) + 1e-12

    def test_flags(self):
        distance = DiscreteFrechet()
        assert distance.is_metric and distance.is_consistent

    def test_alignment_cost_matches_distance(self):
        distance = DiscreteFrechet()
        a = [0.0, 2.0, 4.0]
        b = [0.0, 4.0]
        alignment = distance.alignment(a, b)
        assert alignment.cost == pytest.approx(distance(a, b))
        assert alignment.covers_all_indices(3, 2)

    def test_dfd_at_most_dtw(self, rng):
        # The maximum coupling cost can never exceed the sum of couplings of
        # the DTW-optimal path, so DFD <= DTW always.
        from repro import DTW

        dtw = DTW()
        dfd = DiscreteFrechet()
        for _ in range(15):
            a = rng.normal(size=5)
            b = rng.normal(size=6)
            assert dfd(a, b) <= dtw(a, b) + 1e-9

    def test_repr(self):
        assert "element_metric" in repr(DiscreteFrechet())
