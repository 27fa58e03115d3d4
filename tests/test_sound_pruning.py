"""Pruning that is sound to the last bit: a pair at radius = its distance is found.

A lower bound, a bound-table entry and a triangle-inequality reject are all
computed in floating point, in another order than the C value they bound.
Without a rounding slack, a summed bound (``keogh``'s pairwise sum against
the sweep's sequential one) can exceed the C value by an ulp and prune a
true match; the one prune rule (:func:`repro.distances.rounding.prunes`)
decides every such prune, and its mirror
(:func:`repro.distances.rounding.accepts`) every accept the net makes
without measuring.  Every test here runs a range query whose radius
*equals* an item's exact single-call distance -- or sits one ulp below it
-- with the prefilter on, on every index the distance may use.
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
from repro.distances.lower_bounds import bounds_for, combined_bound
from repro.distances.rounding import accepts, bound_prunes, prunes
from repro.indexing.linear_scan import LinearScanIndex
from repro.indexing.reference_net import ReferenceNet


def indexes_for(distance):
    yield LinearScanIndex(distance, prefilter=True)
    if distance.is_metric:
        yield ReferenceNet(distance, prefilter=True)


#: ``(distance, Q, X)``: the prefilter's bound exceeds the C value by one ulp,
#: so a plain ``bound > radius`` drops X at radius ``d(Q, X)``.  Both are
#: ``keogh``: NumPy sums eight or more deficits pairwise, the sweep its path
#: costs one by one.
REPRODUCERS = [
    pytest.param(
        DTW(),
        [94.837, 0.08, 0.069, -21.519, -0.0, 0.004, -0.088, 1.112],
        [74.02],
        id="dtw-keogh",
    ),
    pytest.param(
        ERP(),
        [-0.545, 0.008, 0.074, -0.01, -69.79, -0.998, 0.0, -0.001],
        [-70.19],
        id="erp-keogh",
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


#: ``(distance, bound, Q, X)``: the witnesses while the DTW and edit sweeps
#: ran in reduced coordinates.  Neither bound can exceed the C value now:
#: ``kim`` adds a path's first and last costs as the sweep does, after
#: every cost between them, and rounding is monotone; ``erp-gap`` takes its
#: sums' rounding off first, which is more than the value's own rounding.
FORMER_REPRODUCERS = [
    pytest.param(
        DTW(),
        "kim",
        [260.96128137621304, 191.32434130303943],
        [565.1082740619902, 403.11676792652753],
        id="dtw-kim",
    ),
    pytest.param(
        ERP(),
        "erp-gap",
        [-1300.226149723866, -666.9795399597353],
        [-245.68438420983108],
        id="erp-gap",
    ),
]


def named_bound(distance, name):
    return next(bound for bound in bounds_for(distance) if bound.name == name)


@pytest.mark.parametrize("distance, name, query, item", FORMER_REPRODUCERS)
def test_former_reproducer_is_found_and_its_bound_stays_below(distance, name, query, item):
    a, b = as_array(np.asarray(query)), as_array(np.asarray(item))
    radius = distance(a, b)
    assert named_bound(distance, name).pair(distance, a, b) <= radius
    bound = np.array([combined_bound(distance, a, b)])
    assert not bound_prunes(distance, bound, radius, a, b[None])[0]
    for index in indexes_for(distance):
        index.add(b, key="x")
        assert [match.key for match in index.range_query(a, radius)] == ["x"], index


def test_integer_members_compare_exactly():
    for distance in (Levenshtein(), EDR(), Hamming()):
        assert prunes(distance, 3.0, 2.0, 1e300, 10**6)
        assert not prunes(distance, 2.0, 2.0, 0.0, 4)


def test_summed_members_prune_only_past_the_slack():
    distance = ERP()
    radius = 100.0
    assert not prunes(distance, np.nextafter(radius, np.inf), radius, 1.0, 4)
    assert prunes(distance, radius * (1 + 1e-9), radius, 1.0, 4)
    # The slack grows with the magnitudes that entered the comparison.
    assert not prunes(distance, radius * (1 + 1e-9), radius, 1e9, 4)


def test_accepts_mirror_prunes():
    for distance in (Levenshtein(), EDR(), Hamming()):
        assert accepts(distance, 1.0, 1.0, 2.0, 10**6)
        assert not accepts(distance, 1.0, 1.5, 2.0, 4)
    distance = ERP()
    radius = 100.0
    # An exact tie is measured, not accepted: the pivot's distance may have
    # rounded down.
    assert not accepts(distance, 60.0, 40.0, radius, 4)
    assert accepts(distance, 60.0, 40.0 * (1 - 1e-9), radius, 4)


@pytest.mark.parametrize("name", ["dfd", "erp"])
def test_the_net_accepts_nothing_beyond_the_radius(name):
    """8-item nets of 1-4-point items, magnitudes 1e-3 .. 1e3, each item
    queried at one ulp below its distance.  With plain float accepts the
    net returned an item beyond the radius on 71 of these 4 800 DFD
    queries and 69 of the ERP ones."""
    distance = MEMBERS[name]
    rng = np.random.default_rng(7)
    beyond = []
    for _net in range(600):
        items = [
            rng.uniform(-1, 1, (rng.integers(1, 5), 1)) * 10.0 ** rng.uniform(-3, 3)
            for _ in range(8)
        ]
        query = rng.uniform(-1, 1, (rng.integers(1, 5), 1)) * 10.0 ** rng.uniform(-3, 3)
        net = ReferenceNet(distance)
        for key, item in enumerate(items):
            net.add(item, key=key)
        for item in items:
            radius = np.nextafter(distance(query, item), -np.inf)
            for match in net.range_query(query, radius):
                if distance(query, items[match.key]) > radius:
                    beyond.append((match.key, radius))
    assert beyond == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kim_and_erp_gap_never_exceed_the_c_value(data):
    """No operands make a witness of ``kim`` or ``erp-gap`` any more."""
    sequence = st.lists(value, min_size=1, max_size=8).map(lambda values: as_array(values))
    first, second = data.draw(sequence), data.draw(sequence)
    for distance, name in ((DTW(), "kim"), (ERP(), "erp-gap")):
        assert named_bound(distance, name).pair(distance, first, second) <= distance(first, second)


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
