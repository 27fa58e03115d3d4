"""The row-vectorized table fills against the retained references.

The traceback tables of :mod:`repro.distances.alignment` must agree with
the cell-by-cell implementations retained in ``kernel_reference.py`` across
random inputs, Sakoe-Chiba bands, and unequal lengths.  The bounded
(early-abandoning) API of every distance is checked against its contract:
exact at or below the cutoff, strictly above the cutoff otherwise.
"""

import numpy as np
import pytest

from repro.distances.alignment import edit_table, lcss_length, warping_table
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


def _random_cost(rng, shape):
    return rng.uniform(0.0, 5.0, size=shape)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("aggregate", ["sum", "max"])
def test_warping_table_matches_reference(shape, band, aggregate):
    rng = np.random.default_rng(hash((shape, band, aggregate)) % (2**32))
    cost = _random_cost(rng, shape)
    reference = reference_warping_table(cost, aggregate, band)
    vectorized = warping_table(cost, aggregate, band)
    assert np.array_equal(np.isinf(reference), np.isinf(vectorized))
    finite = ~np.isinf(reference)
    assert np.allclose(reference[finite], vectorized[finite], atol=1e-9, rtol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_edit_table_matches_reference(shape):
    rng = np.random.default_rng(hash((shape, 3)) % (2**32))
    substitution = _random_cost(rng, shape)
    deletion = rng.uniform(0.0, 3.0, size=shape[0])
    insertion = rng.uniform(0.0, 3.0, size=shape[1])
    reference = reference_edit_table(substitution, deletion, insertion)
    vectorized = edit_table(substitution, deletion, insertion)
    assert np.allclose(reference, vectorized, atol=1e-9, rtol=1e-12)


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
        assert distance.bounded(first, second, exact + 1e-9) == pytest.approx(
            exact, abs=1e-9
        )
        if exact > 0:
            cutoff = exact * 0.5 - 1e-9
            assert distance.bounded(first, second, cutoff) > cutoff
