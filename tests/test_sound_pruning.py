"""Pruning that is sound to the last bit: a pair at radius = its distance is found.

A lower bound, a bound-table entry and a triangle-inequality reject are all
computed in floating point, in another order than the C value they bound.
Without a rounding slack, a summed bound (DTW's ``kim``, ERP's ``erp-gap``)
can exceed the C value by an ulp and prune a true match; the one prune rule
(:func:`repro.distances.rounding.prunes`) decides every such prune.
Every test here runs a range query whose radius *equals* an item's exact
single-call distance, with the prefilter on, on every index the distance
may use.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distances import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Hamming,
    Levenshtein,
    WeightedLevenshtein,
)
from repro.distances.base import as_array
from repro.distances.lower_bounds import combined_bound
from repro.distances.rounding import bound_prunes, prunes
from repro.indexing.linear_scan import LinearScanIndex
from repro.indexing.reference_net import ReferenceNet


def indexes_for(distance):
    yield LinearScanIndex(distance, prefilter=True)
    if distance.is_metric:
        yield ReferenceNet(distance, prefilter=True)


#: ``(distance, Q, X)``: a bound exceeded the exact value by one ulp and the
#: prefilter dropped X at radius ``d(Q, X)``.
REPRODUCERS = [
    pytest.param(
        DTW(),
        [260.96128137621304, 191.32434130303943],
        [565.1082740619902, 403.11676792652753],
        id="dtw-kim",
    ),
    pytest.param(
        ERP(),
        [-1300.226149723866, -666.9795399597353],
        [-245.68438420983108],
        id="erp-gap",
    ),
]


@pytest.mark.parametrize("distance, query, item", REPRODUCERS)
def test_reproducer_is_found_with_the_prefilter_on(distance, query, item):
    query, item = np.asarray(query), np.asarray(item)
    radius = distance(query, item)
    # The bound the prefilter evaluates sits above the C value ...
    assert combined_bound(distance, query, item) > radius
    # ... and the rule does not prune on it.
    a, b = as_array(query), as_array(item)
    bound = np.array([combined_bound(distance, a, b)])
    assert not bound_prunes(distance, bound, radius, a, b[None])[0]
    for index in indexes_for(distance):
        index.add(item, key="x")
        assert [match.key for match in index.range_query(query, radius)] == ["x"], index


def test_integer_members_compare_exactly():
    for distance in (Levenshtein(), EDR(), Hamming()):
        assert prunes(distance, 3.0, 2.0, 1e300, 10**6)
        assert not prunes(distance, 2.0, 2.0)


def test_summed_members_prune_only_past_the_slack():
    distance = ERP()
    radius = 100.0
    assert not prunes(distance, np.nextafter(radius, np.inf), radius, 1.0, 4)
    assert prunes(distance, radius * (1 + 1e-9), radius, 1.0, 4)
    # The slack grows with the magnitudes that entered the comparison.
    assert not prunes(distance, radius * (1 + 1e-9), radius, 1e9, 4)


MEMBERS = {
    "dtw": DTW(),
    "dfd": DiscreteFrechet(),
    "erp": ERP(),
    "edr": EDR(epsilon=0.3),
    "levenshtein": Levenshtein(),
    "weighted-levenshtein": WeightedLevenshtein(
        insertion_cost=0.7, deletion_cost=0.7, default_substitution=0.9, metric=True
    ),
}
SYMBOLIC = ("levenshtein", "weighted-levenshtein")

#: Magnitudes 1e-6 .. 1e6, where summation orders round apart.
value = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=-6, max_value=6),
)
symbol = st.integers(min_value=0, max_value=3).map(float)


@st.composite
def databases(draw, name):
    element = symbol if name in SYMBOLIC else value
    sequence = st.lists(element, min_size=1, max_size=5).map(np.asarray)
    return draw(sequence), draw(st.lists(sequence, min_size=1, max_size=8))


@pytest.mark.parametrize("name", sorted(MEMBERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_item_is_found_at_radius_equal_to_its_distance(name, data):
    distance = MEMBERS[name]
    query, items = data.draw(databases(name))
    for index in indexes_for(distance):
        for key, item in enumerate(items):
            index.add(item, key=key)
        for key, item in enumerate(items):
            radius = distance(query, item)
            found = {match.key for match in index.range_query(query, radius)}
            assert key in found, (type(index).__name__, key, radius)
