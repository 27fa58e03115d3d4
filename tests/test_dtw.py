"""Tests for dynamic time warping."""

import numpy as np
import pytest

from repro import DTW, DistanceError, Sequence
from repro.distances import combined_bound


class TestDTWValues:
    def test_identical_sequences(self):
        assert DTW()([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_time_shift_absorbed(self):
        # The paper's example: 111222333 has DTW distance 0 to 123.
        long = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        short = [1.0, 2.0, 3.0]
        assert DTW()(long, short) == 0.0

    def test_known_small_case(self):
        # Align [0, 1] with [0, 2]: couple 0-0 and 1-2 -> cost 1.
        assert DTW()([0.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_unequal_lengths_supported(self):
        assert DTW()([0.0, 1.0, 2.0], [0.0, 2.0]) >= 0.0

    def test_trajectories(self):
        a = Sequence.from_points([[0, 0], [1, 1], [2, 2]])
        b = Sequence.from_points([[0, 0], [2, 2]])
        assert DTW()(a, b) == pytest.approx(np.sqrt(2.0))

    def test_triangle_inequality_violated_example(self):
        # A counterexample showing DTW is not a metric: the "stretchy"
        # middle sequence absorbs both ends cheaply.
        distance = DTW()
        a = [1.0, 1.0, 1.0]
        b = [1.0, 2.0]
        c = [2.0, 2.0, 2.0]
        assert distance(a, c) > distance(a, b) + distance(b, c)

    def test_flags(self):
        distance = DTW()
        assert not distance.is_metric
        assert distance.is_consistent


class TestDTWBand:
    def test_band_zero_on_equal_lengths(self):
        # A zero-width band forces the diagonal alignment.
        assert DTW(band=0)([1.0, 2.0, 3.0], [2.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_band_too_narrow_raises(self):
        with pytest.raises(DistanceError):
            DTW(band=0)([1.0, 2.0, 3.0, 4.0], [1.0, 2.0])

    def test_wide_band_equals_unconstrained(self):
        a = [0.0, 1.0, 3.0, 2.0, 1.0]
        b = [0.0, 2.0, 3.0, 1.0]
        assert DTW(band=10)(a, b) == pytest.approx(DTW()(a, b))

    def test_band_is_upper_bounded_by_unconstrained(self):
        a = [0.0, 1.0, 3.0, 2.0, 1.0, 0.5]
        b = [0.0, 2.0, 3.0, 1.0, 0.0, 0.0]
        assert DTW()(a, b) <= DTW(band=1)(a, b) + 1e-12

    def test_negative_band_rejected(self):
        with pytest.raises(DistanceError):
            DTW(band=-1)


class TestDTWAlignment:
    def test_alignment_cost_matches_distance(self):
        distance = DTW()
        a = [0.0, 1.0, 2.0, 1.0]
        b = [0.0, 2.0, 1.0]
        alignment = distance.alignment(a, b)
        assert alignment.cost == pytest.approx(distance(a, b))

    def test_alignment_covers_all_indices(self):
        alignment = DTW().alignment([0.0, 1.0, 2.0], [0.0, 2.0])
        assert alignment.covers_all_indices(3, 2)

    def test_alignment_boundary_conditions(self):
        alignment = DTW().alignment([0.0, 1.0, 2.0], [0.0, 2.0])
        assert alignment.couplings[0] == (0, 0)
        assert alignment.couplings[-1] == (2, 1)

    def test_lower_bound_valid(self):
        distance = DTW()
        a = [0.0, 5.0, 1.0]
        b = [1.0, 2.0, 4.0]
        assert combined_bound(distance, a, b) <= distance(a, b) + 1e-12

    def test_repr(self):
        assert "band" in repr(DTW(band=3))
