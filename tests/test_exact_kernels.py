"""The C sweeps equal the scalar reference bit for bit, at every magnitude.

``_kernels.c`` runs the direct recurrences of ``kernel_reference.py``, in the
same order, so no tolerance is needed anywhere: every call form of every
member -- ``compute``, ``compute_bounded``, ``compute_batch``,
``compute_pairs``, ``prefix_block`` and ``alignment`` -- returns the
reference table's bits, on operands whose elements span 1e-6 to 1e6 (where
any reordered sum rounds apart) at point widths 1, 2 and 7.  A row-minimum
abandon at a cutoff equal to the value keeps the value, and one an ulp
below it returns something beyond the cutoff: the abandon needs no slack.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_reference import reference_edit_table, reference_warping_table
from repro.distances import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Levenshtein,
    WeightedLevenshtein,
)
from repro.distances.base import ElementMetric
from repro.distances.elastic import WarpingDistance
from repro.exceptions import DistanceError

MEMBERS = {
    "dtw": DTW(),
    "dtw-band": DTW(band=2),
    "dtw-manhattan": DTW(element_metric=ElementMetric("manhattan")),
    "dfd": DiscreteFrechet(),
    "erp": ERP(gap=0.25),
    "erp-manhattan": ERP(element_metric=ElementMetric("manhattan")),
    "edr": EDR(epsilon=0.4),
    "levenshtein": Levenshtein(),
    "weighted-levenshtein": WeightedLevenshtein(
        {(0, 1): 0.3, (1, 0): 0.7, (2, 3): 0.45, (3, 3): 0.1},
        insertion_cost=1.3,
        deletion_cost=0.6,
        default_substitution=0.9,
    ),
}
SYMBOLIC = ("levenshtein", "weighted-levenshtein")
WIDTHS = (1, 2, 7)

CASES = [
    pytest.param(name, width, id=f"{name}-dim{width}")
    for name in MEMBERS
    for width in WIDTHS
    if width == 1 or name != "weighted-levenshtein"
]

#: One coordinate: a mantissa in [-1, 1] times 10**-6 .. 10**6.
coordinate = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=-6, max_value=6),
)
symbol = st.integers(min_value=0, max_value=3).map(float)


@st.composite
def operands(draw, name, width):
    """A query and a same-shape stack of three items."""
    element = symbol if name in SYMBOLIC else coordinate
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=1, max_value=7))

    def sequence(length):
        values = draw(st.lists(element, min_size=length * width, max_size=length * width))
        return np.asarray(values, dtype=np.float64).reshape(length, width)

    return sequence(n), np.stack([sequence(m) for _ in range(3)])


def reference_table(distance, first, second):
    """The reference table over ``first x second`` as the C block lays it out:
    ``(n, m)``, entry ``(i, j)`` = cell ``(i + 1, j + 1)``."""
    if isinstance(distance, WarpingDistance):
        cost = distance.element_metric.matrix(first, second)
        return reference_warping_table(cost, distance.aggregate, distance.band)
    table = reference_edit_table(
        distance.substitution(first, second), distance.deletion(first), distance.insertion(second)
    )
    return table[1:, 1:]


def same_bits(actual, expected):
    return repr(float(actual)) == repr(float(expected))


@pytest.mark.parametrize("name, width", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_call_form_is_the_reference_bit_for_bit(name, width, data):
    distance = MEMBERS[name]
    query, items = data.draw(operands(name, width))
    n, m = len(query), items.shape[1]
    tables = [reference_table(distance, query, item) for item in items]
    expected = np.array([table[-1, -1] for table in tables])

    for item, table, value in zip(items, tables, expected):
        if np.isinf(value):  # a band that admits no path
            with pytest.raises(DistanceError):
                distance.compute(query, item)
        else:
            assert same_bits(distance.compute(query, item), value)
            assert same_bits(distance.alignment(query, item).cost, value)
        assert same_bits(distance.compute_bounded(query, item, None), value)
        # The abandon is exact at the caller's cutoff.
        assert same_bits(distance.compute_bounded(query, item, value), value)
        below = np.nextafter(value, -np.inf)
        assert distance.compute_bounded(query, item, below) > below
        # Every cell of one full-band sweep is the reference cell.
        block = distance.prefix_block(query, item, 1, max(n, m) - 1, None)
        assert np.array_equal(block.table(m), table)

    query_rows, item_rows = np.zeros(3, dtype=np.intp), np.arange(3)
    for cutoffs in (None, expected.copy()):
        if cutoffs is None and np.isinf(expected).any():
            with pytest.raises(DistanceError):
                distance.compute_batch(query, items, None)
            continue
        assert np.array_equal(distance.compute_batch(query, items, cutoffs), expected)
        pairs = distance.compute_pairs(query[None], query_rows, items, item_rows, cutoffs)
        assert np.array_equal(pairs, expected)


def test_close_large_sequences_keep_every_digit():
    """The direct recurrence rounds at the value's own scale, not at the
    scale of a row's prefix sums (which left 0.3999999761581421)."""
    value = DTW()([0.1, 1e6 + 0.3], [0.1] * 999 + [1e6 + 0.7])
    assert repr(value) == "0.39999999990686774"
