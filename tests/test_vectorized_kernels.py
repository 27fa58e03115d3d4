"""The C-filled DP tables against the retained references.

The tables ``alignment()`` traces back over -- one full-band
``prefix_block`` sweep of the C kernels -- must agree with the cell-by-cell
implementations retained in ``kernel_reference.py`` across random inputs,
Sakoe-Chiba bands, and unequal lengths; so must LCSS's row-vectorized
length in :mod:`repro.distances.alignment`.  The bounded
(early-abandoning) API of every distance is checked against its contract:
exact at or below the cutoff, strictly above the cutoff otherwise.
"""

import numpy as np
import pytest

from repro.distances.alignment import lcss_length
from repro.distances.base import ElementMetric
from repro.distances.elastic import WarpingDistance
from kernel_reference import (
    reference_edit_table,
    reference_lcss_length,
    reference_warping_table,
)
from repro.distances import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Euclidean,
    Hamming,
    LCSS,
    Levenshtein,
    WeightedLevenshtein,
)

# Degenerate, square and strongly unequal shapes.
SHAPES = [(1, 1), (1, 9), (9, 1), (7, 23), (20, 20), (21, 80), (40, 40), (13, 57)]
BANDS = [None, 0, 1, 3, 100]


class _Warping(WarpingDistance):
    """A warping member with any aggregate and band (DiscreteFrechet has no band)."""

    name = "warping"
    is_metric = False

    def __init__(self, aggregate, band):
        self.element_metric = ElementMetric("euclidean")
        self.aggregate = aggregate
        self.band = band


def _c_table(distance, first, second):
    """The table ``alignment()`` traces back over: one full-band C sweep."""
    shift = max(len(first), len(second)) - 1
    return distance.prefix_block(first, second, 1, shift, None).table(len(second))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("aggregate", ["sum", "max"])
def test_warping_table_matches_reference(shape, band, aggregate):
    rng = np.random.default_rng(hash((shape, band, aggregate)) % (2**32))
    first = rng.uniform(0.0, 5.0, size=(shape[0], 1))
    second = rng.uniform(0.0, 5.0, size=(shape[1], 1))
    distance = _Warping(aggregate, band)
    reference = reference_warping_table(
        distance.element_metric.matrix(first, second), aggregate, band
    )
    table = _c_table(distance, first, second)
    assert np.array_equal(reference, table)


EDIT_MEMBERS = [
    ERP(),
    EDR(epsilon=0.4),
    Levenshtein(),
    WeightedLevenshtein({(0, 1): 0.3}, insertion_cost=0.7, deletion_cost=1.3),
]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("distance", EDIT_MEMBERS, ids=lambda d: d.name)
def test_edit_table_matches_reference(shape, distance):
    rng = np.random.default_rng(hash((shape, 3)) % (2**32))
    if isinstance(distance, (Levenshtein, WeightedLevenshtein)):
        first = rng.integers(0, 4, size=(shape[0], 1)).astype(float)
        second = rng.integers(0, 4, size=(shape[1], 1)).astype(float)
    else:
        first = rng.uniform(0.0, 5.0, size=(shape[0], 1))
        second = rng.uniform(0.0, 5.0, size=(shape[1], 1))
    reference = reference_edit_table(
        distance.substitution(first, second), distance.deletion(first), distance.insertion(second)
    )
    table = _c_table(distance, first, second)
    assert np.array_equal(reference[1:, 1:], table)


@pytest.mark.parametrize("shape", SHAPES)
def test_lcss_length_matches_reference(shape):
    rng = np.random.default_rng(hash((shape, 5)) % (2**32))
    matches = rng.uniform(size=shape) < 0.3
    assert lcss_length(matches) == reference_lcss_length(matches)


# --------------------------------------------------------------------- #
# Distance.bounded across every kernel class
# --------------------------------------------------------------------- #
ELASTIC_DISTANCES = [
    DTW(),
    DTW(band=3),
    ERP(),
    DiscreteFrechet(),
    EDR(epsilon=0.4),
    Levenshtein(),
    WeightedLevenshtein(insertion_cost=0.7, deletion_cost=1.3, default_substitution=0.9),
    LCSS(epsilon=0.4),
]
LOCKSTEP_DISTANCES = [Euclidean(), Hamming()]


def _operands(rng, distance, equal_lengths):
    if isinstance(distance, (Levenshtein, WeightedLevenshtein)):
        first = rng.integers(0, 4, size=30).astype(float)
        second = rng.integers(0, 4, size=30 if equal_lengths else 24).astype(float)
    else:
        first = rng.normal(size=30)
        second = rng.normal(size=30 if equal_lengths else 24)
    return first, second


@pytest.mark.parametrize(
    "distance", ELASTIC_DISTANCES + LOCKSTEP_DISTANCES, ids=lambda d: repr(d)
)
def test_bounded_agrees_with_call(distance):
    rng = np.random.default_rng(99)
    # A narrow Sakoe-Chiba band cannot align strongly unequal lengths.
    banded = isinstance(distance, DTW) and distance.band is not None
    for trial in range(10):
        equal = not distance.supports_unequal_lengths or banded or trial % 2 == 0
        first, second = _operands(rng, distance, equal)
        exact = distance(first, second)
        assert distance.bounded(first, second, exact) == exact
        if exact > 0:
            cutoff = exact * 0.5 - 1e-9
            assert distance.bounded(first, second, cutoff) > cutoff
