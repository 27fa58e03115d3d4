"""Tests for the explicit alignments of the elastic distances.

Every ``alignment()`` traces back over the table of one full-band C sweep
(``prefix_block(a, b, 1, max(n, m) - 1, None).table(m)``), so its cost is
the distance's value bit for bit; the property suite at the end holds every
member to that, and to the shape of its couplings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DistanceError
from repro.distances import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Levenshtein,
    WeightedLevenshtein,
)
from repro.distances.alignment import Alignment, edit_traceback, warping_traceback
from repro.distances.base import as_array


def table_of(distance, first, second):
    """The C-filled DP table ``alignment()`` traces back over."""
    a, b = as_array(first), as_array(second)
    shift = max(len(a), len(b)) - 1
    return distance.prefix_block(a, b, 1, shift, None).table(len(b))


class TestWarpingTable:
    def test_sum_aggregation_matches_manual(self):
        # Cost matrix [[0, 2], [2, 0]]: the diagonal is free.
        assert DTW().alignment([0.0, 2.0], [0.0, 2.0]).cost == 0.0

    def test_max_aggregation(self):
        # Cost matrix [[0, 2], [3, 1]]: the diagonal's bottleneck is 1.
        assert DiscreteFrechet().alignment([0.0, 3.0], [0.0, 2.0]).cost == 1.0

    def test_single_cell(self):
        assert DTW().alignment([3.0], [0.0]).cost == 3.0
        assert table_of(DTW(), [3.0], [0.0]).tolist() == [[3.0]]

    def test_band_blocks_far_cells(self):
        table = table_of(DTW(band=1), np.zeros(4), np.zeros(4))
        assert np.isinf(table[0, 3])
        assert not np.isinf(table[3, 3])

    def test_band_infeasible_leaves_inf(self):
        table = table_of(DTW(band=1), np.zeros(1), np.zeros(5))
        assert np.isinf(table[0, 4])

    def test_empty_sequence_rejected(self):
        with pytest.raises(DistanceError):
            DTW().alignment([], [1.0, 2.0])

    def test_monotone_in_costs(self):
        low = DTW().alignment(np.zeros(3), np.ones(3)).cost
        high = DTW().alignment(np.zeros(3), np.full(3, 2.0)).cost
        assert high >= low

    def test_table_is_a_view_of_the_block(self):
        a, b = np.arange(3.0), np.arange(5.0)
        block = DTW().prefix_block(as_array(a), as_array(b), 1, 4, None)
        table = block.table(5)
        assert np.shares_memory(table, block.cells)
        for i in range(3):
            for j in range(5):
                assert table[i, j] == block.value(i + 1, j + 1)


class TestWarpingTraceback:
    def test_path_endpoints(self):
        alignment = DTW().alignment([0.0, 2.0], [0.0, 1.0, 2.0])
        assert alignment.couplings[0] == (0, 0)
        assert alignment.couplings[-1] == (1, 2)

    def test_path_is_monotone_and_continuous(self):
        alignment = DTW().alignment(np.arange(5.0), np.arange(4.0))
        for (i1, j1), (i2, j2) in zip(alignment.couplings, alignment.couplings[1:]):
            assert 0 <= i2 - i1 <= 1
            assert 0 <= j2 - j1 <= 1
            assert (i2 - i1) + (j2 - j1) >= 1

    def test_infeasible_band_raises(self):
        table = table_of(DTW(band=1), np.zeros(1), np.zeros(5))
        with pytest.raises(DistanceError):
            warping_traceback(table)
        with pytest.raises(DistanceError):
            DTW(band=1).alignment(np.zeros(1), np.zeros(5))


class TestEditTable:
    def test_unit_costs_reproduce_levenshtein(self):
        # "ab" -> "b": one deletion.
        alignment = Levenshtein().alignment([0, 1], [1])
        assert alignment.cost == 1.0
        assert alignment.couplings == ((1, 0),)

    def test_first_row_and_column_are_cumulative_gaps(self):
        # "a" -> "xya" pays two insertions before the match; the traceback
        # can only find the coupling through row 0's cumulative gap costs.
        distance = WeightedLevenshtein(insertion_cost=3.0, deletion_cost=1.0)
        alignment = distance.alignment([0], [1, 2, 0])
        assert alignment.cost == 6.0
        assert alignment.couplings == ((0, 2),)
        # ... and column 0's, the other way round.
        alignment = distance.alignment([1, 2, 0], [0])
        assert alignment.cost == 2.0
        assert alignment.couplings == ((2, 0),)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(DistanceError):
            ERP().alignment(np.zeros((3, 1)), np.zeros((2, 2)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(DistanceError):
            Levenshtein().alignment([], [1, 2])


class TestEditTraceback:
    def test_couplings_are_strictly_increasing(self):
        alignment = Levenshtein().alignment([0, 1, 2], [0, 1, 2])
        assert alignment.cost == 0.0
        assert alignment.couplings == ((0, 0), (1, 1), (2, 2))

    def test_alignment_length_bounded(self):
        alignment = Levenshtein().alignment([0, 1, 2], [3, 4, 5, 6])
        assert len(alignment) <= 3

    def test_traceback_of_a_c_table(self):
        a, b = as_array([0, 1, 2]), as_array([0, 2])
        distance = Levenshtein()
        alignment = edit_traceback(
            table_of(distance, a, b),
            distance.substitution(a, b),
            distance.deletion(a),
            distance.insertion(b),
        )
        assert alignment.cost == 1.0
        assert alignment.couplings == ((0, 0), (2, 1))


class TestAlignmentDataclass:
    def test_covers_all_indices(self):
        alignment = Alignment(((0, 0), (1, 1)), cost=0.0)
        assert alignment.covers_all_indices(2, 2)
        assert not alignment.covers_all_indices(3, 2)

    def test_len(self):
        assert len(Alignment(((0, 0),), cost=1.0)) == 1


# --------------------------------------------------------------------- #
# Property suite: the alignment is the distance, bit for bit
# --------------------------------------------------------------------- #
WARPING_MEMBERS = {
    "dtw": DTW(),
    "dtw-band": DTW(band=2),
    "dfd": DiscreteFrechet(),
}
EDIT_MEMBERS = {
    "erp": ERP(),
    "edr": EDR(epsilon=0.3),
    "levenshtein": Levenshtein(),
    "weighted-levenshtein": WeightedLevenshtein(
        {(0, 1): 0.4, (2, 3): 2.5}, insertion_cost=0.7, deletion_cost=1.3,
        default_substitution=0.9,
    ),
}
SYMBOLIC = ("levenshtein", "weighted-levenshtein")

#: Magnitudes 1e-6 .. 1e6, where rounding differs between summation orders.
value = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=-6, max_value=6),
)


@st.composite
def operands(draw, name):
    lengths = st.integers(min_value=1, max_value=9)
    if name in SYMBOLIC:
        symbols = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=9)
        return (
            np.asarray(draw(symbols), dtype=float),
            np.asarray(draw(symbols), dtype=float),
        )
    dim = draw(st.sampled_from([1, 2]))

    def points():
        rows = draw(lengths)
        return np.asarray(draw(st.lists(value, min_size=rows * dim, max_size=rows * dim))).reshape(
            rows, dim
        )

    return points(), points()


def warping_is_a_path(couplings, n, m):
    assert couplings[0] == (0, 0) and couplings[-1] == (n - 1, m - 1)
    for (i1, j1), (i2, j2) in zip(couplings, couplings[1:]):
        assert (i2 - i1, j2 - j1) in ((0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("name", sorted(WARPING_MEMBERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_warping_alignment_is_the_distance(name, data):
    distance = WARPING_MEMBERS[name]
    first, second = data.draw(operands(name))
    n, m = len(first), len(second)
    if distance.band is not None and abs(n - m) > distance.band:
        with pytest.raises(DistanceError):
            distance.alignment(first, second)
        with pytest.raises(DistanceError):
            distance(first, second)
        return
    alignment = distance.alignment(first, second)
    assert alignment.cost == distance(first, second)
    warping_is_a_path(alignment.couplings, n, m)
    assert alignment.covers_all_indices(n, m)


@pytest.mark.parametrize("name", sorted(EDIT_MEMBERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edit_alignment_is_the_distance(name, data):
    distance = EDIT_MEMBERS[name]
    first, second = data.draw(operands(name))
    alignment = distance.alignment(first, second)
    assert alignment.cost == distance(first, second)
    for (i1, j1), (i2, j2) in zip(alignment.couplings, alignment.couplings[1:]):
        assert i2 > i1 and j2 > j1
    for i, j in alignment.couplings:
        assert 0 <= i < len(first) and 0 <= j < len(second)
