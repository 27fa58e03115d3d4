"""Admissibility tests for the registered lower bounds.

Every bound in :mod:`repro.distances.lower_bounds` must never exceed the
exact distance it applies to -- that is what makes prefilter pruning safe --
and the batched form must agree with the scalar form.  The table form (every
segment of a query against every stored window, read off the packed store's
summaries) must equal the batched form bit for bit, whatever the store has
been through.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Euclidean,
    Hamming,
    Levenshtein,
    ReferenceNet,
    Sequence,
    SequenceKind,
)
from repro.distances import (
    WeightedLevenshtein,
    bounds_for,
    combined_batch_bound,
    combined_bound,
    has_bound_table,
    registered_lower_bounds,
)
from repro.distances.base import ElementMetric, as_array
from repro.distances.lower_bounds import _sliding_max
from repro.distances.rounding import bound_prunes

RNG = np.random.default_rng(99)


def prunes_at_exact(distance, value, first, second):
    """The prune rule for bound ``value`` at radius = the exact single-call value.

    Admissibility as the indexes need it: a bound never prunes a pair whose
    C value equals the radius (:func:`~repro.distances.rounding.prunes`).
    """
    a, b = as_array(first), as_array(second)
    exact = distance.bounded(a, b, np.inf)  # inf where a band admits no path
    return bool(bound_prunes(distance, np.array([value]), exact, a, b[None])[0])

SERIES_DISTANCES = [
    DTW(),
    DTW(element_metric=ElementMetric("manhattan")),
    DTW(band=5),
    ERP(),
    ERP(gap=2.0),
    DiscreteFrechet(),
    EDR(epsilon=0.3),
]
STRING_DISTANCES = [
    Levenshtein(),
    WeightedLevenshtein(insertion_cost=0.5, deletion_cost=2.0),
]


def _random_series_pairs(count=40):
    pairs = []
    for _ in range(count):
        a = RNG.normal(size=int(RNG.integers(5, 30))) * RNG.uniform(0.5, 4.0)
        b = RNG.normal(size=int(RNG.integers(5, 30))) * RNG.uniform(0.5, 4.0)
        pairs.append((a, b))
    return pairs


def _random_trajectory_pairs(count=30):
    pairs = []
    for _ in range(count):
        a = RNG.normal(size=(int(RNG.integers(5, 20)), 2)) * 3.0
        b = RNG.normal(size=(int(RNG.integers(5, 20)), 2)) * 3.0
        pairs.append((a, b))
    return pairs


def _random_string_pairs(count=40):
    pairs = []
    for _ in range(count):
        a = RNG.integers(0, 5, size=int(RNG.integers(4, 25)))
        b = RNG.integers(0, 5, size=int(RNG.integers(4, 25)))
        pairs.append((a, b))
    return pairs


class TestAdmissibility:
    @pytest.mark.parametrize("distance", SERIES_DISTANCES, ids=lambda d: repr(d))
    def test_series_bounds_never_exceed_exact(self, distance):
        band = distance.band if isinstance(distance, DTW) else None
        for a, b in _random_series_pairs():
            if band is not None and abs(len(a) - len(b)) > band:
                continue  # infeasible band: compute() raises by design
            for bound in bounds_for(distance):
                value = bound.pair(distance, as_array(a), as_array(b))
                assert not prunes_at_exact(distance, value, a, b), (bound.name, value)

    @pytest.mark.parametrize(
        "distance",
        [DTW(), ERP(gap=[0.0, 0.0]), DiscreteFrechet()],
        ids=lambda d: d.name,
    )
    def test_trajectory_bounds_never_exceed_exact(self, distance):
        for a, b in _random_trajectory_pairs():
            assert not prunes_at_exact(distance, combined_bound(distance, a, b), a, b)

    @pytest.mark.parametrize("distance", STRING_DISTANCES, ids=lambda d: d.name)
    def test_string_bounds_never_exceed_exact(self, distance):
        for a, b in _random_string_pairs():
            assert not prunes_at_exact(distance, combined_bound(distance, a, b), a, b)

    def test_euclidean_norm_bound(self):
        distance = Euclidean()
        for _ in range(30):
            a = RNG.normal(size=15)
            b = RNG.normal(size=15)
            assert not prunes_at_exact(distance, combined_bound(distance, a, b), a, b)

    def test_kim_bound_admissible_for_single_element_pairs(self):
        # Both endpoints of a 1x1 pair are the same coupling: summing them
        # would double-count and exceed the exact DTW distance.
        distance = DTW()
        for _ in range(20):
            a = RNG.normal(size=1)
            b = RNG.normal(size=1)
            assert not prunes_at_exact(distance, combined_bound(distance, a, b), a, b)
        batched = combined_batch_bound(
            distance, as_array(RNG.normal(size=1)), np.stack([as_array(RNG.normal(size=1))])
        )
        assert batched.shape == (1,)

    def test_tiny_window_matcher_results_unchanged_by_prefilter(self):
        # End-to-end guard for the 1x1 case: window_length 1 (min_length 2).
        from repro import (
            MatcherConfig,
            RangeQuery,
            Sequence,
            SequenceDatabase,
            SequenceKind,
            SubsequenceMatcher,
        )

        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        db.add(Sequence.from_values(RNG.normal(size=12), seq_id="a"))
        db.add(Sequence.from_values(RNG.normal(size=12), seq_id="b"))
        query = Sequence.from_values(RNG.normal(size=6), seq_id="q")
        spec = RangeQuery(radius=1.5, exhaustive=True)
        results = {}
        for prefilter in (True, False):
            config = MatcherConfig(
                min_length=2, max_shift=0, index="linear-scan", prefilter=prefilter
            )
            matcher = SubsequenceMatcher(db, DTW(), config)
            found = matcher.execute(spec.bind(query)).matches
            results[prefilter] = sorted(
                (m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop)
                for m in found
            )
        assert results[True] == results[False]

    @pytest.mark.parametrize(
        "distance, lengths",
        [
            (distance, lengths)
            for distance in SERIES_DISTANCES + STRING_DISTANCES + [Euclidean()]
            for lengths in ((1, 1), (1, 6), (6, 1))
            if distance.supports_unequal_lengths or lengths == (1, 1)
        ],
        ids=str,
    )
    def test_single_element_and_one_vs_many_operands(self, distance, lengths):
        # The 1x1 case once let a second copy of the Kim bound (on DTW
        # itself) count the one coupling twice; every (bound, distance) pair
        # must stay admissible where start and end couplings coincide.
        n, m = lengths
        strings = any(distance is other for other in STRING_DISTANCES)
        assert bounds_for(distance)
        for _ in range(20):
            if strings:
                a, b = RNG.integers(0, 3, size=n), RNG.integers(0, 3, size=m)
            else:
                a, b = RNG.normal(size=n) * 3.0, RNG.normal(size=m) * 3.0
            for bound in bounds_for(distance):
                value = bound.pair(distance, as_array(a), as_array(b))
                assert not prunes_at_exact(distance, value, a, b), (bound.name, lengths, value)
            assert not prunes_at_exact(distance, combined_bound(distance, a, b), a, b)

    def test_every_registered_bound_applies_somewhere(self):
        distances = SERIES_DISTANCES + STRING_DISTANCES + [Euclidean()]
        for bound in registered_lower_bounds():
            assert any(bound.applies_to(distance) for distance in distances), bound.name


class TestBatchAgreesWithScalar:
    @pytest.mark.parametrize(
        "distance",
        [DTW(), ERP(), DiscreteFrechet(), Levenshtein(), EDR(), Euclidean()],
        ids=lambda d: d.name,
    )
    def test_batch_bound_matches_pairwise(self, distance):
        query = as_array(RNG.normal(size=12))
        items = np.stack([RNG.normal(size=(12, 1)) for _ in range(10)])
        batched = combined_batch_bound(distance, query, items)
        for index in range(items.shape[0]):
            scalar = combined_bound(distance, query, items[index])
            assert batched[index] == pytest.approx(scalar, abs=1e-9)

    def test_batch_bound_on_trajectories(self):
        distance = DTW()
        query = as_array(RNG.normal(size=(10, 2)))
        items = np.stack([RNG.normal(size=(14, 2)) for _ in range(8)])
        batched = combined_batch_bound(distance, query, items)
        for index in range(items.shape[0]):
            assert batched[index] == pytest.approx(
                combined_bound(distance, query, items[index]), abs=1e-9
            )


class TestNoBoundsCases:
    def test_unbounded_distance_gets_zero(self):
        assert combined_bound(Hamming(), RNG.integers(0, 3, 8), RNG.integers(0, 3, 8)) == 0.0

    def test_batch_zero_for_unbounded_distance(self):
        items = np.stack([RNG.normal(size=(8, 1)) for _ in range(4)])
        values = combined_batch_bound(Hamming(), as_array(RNG.normal(size=8)), items)
        assert np.all(values == 0.0)


# --------------------------------------------------------------------- #
# The table form: one S x W matrix per query, from per-window summaries
# --------------------------------------------------------------------- #
#: Elements mostly on a coarse grid, so equal windows, equal bounds and
#: bounds that sit exactly on a box edge are the rule rather than the
#: exception -- with arbitrary floats mixed in, so that square roots round.
grid = st.one_of(
    st.integers(min_value=-12, max_value=12).map(lambda step: step / 4.0),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@st.composite
def table_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    half = draw(st.integers(min_value=2, max_value=4))  # lambda / 2
    shift = draw(st.integers(min_value=0, max_value=min(2, half - 1)))  # lambda0

    def windows(length, **sizes):
        element = st.lists(grid, min_size=dim, max_size=dim)
        return st.lists(st.lists(element, min_size=length, max_size=length), **sizes)

    # Two window lengths -> two shape groups; a small pool picked with
    # repetition -> planted duplicate windows.
    pool = draw(windows(half, min_size=1, max_size=5)) + draw(windows(half + 1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=14))
    writes = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, len(pool) - 1)),
                st.tuples(st.just("remove"), st.integers(0, 10**6)),
                st.tuples(st.just("remove-extreme"), st.just(0)),
            ),
            max_size=8,
        )
    )
    length = draw(st.integers(min_value=half + shift, max_value=half + shift + 5))
    query = draw(windows(length, min_size=1, max_size=1))[0]
    return {
        "metric": draw(st.sampled_from(["euclidean", "manhattan"])),
        "kind": SequenceKind.TIME_SERIES if dim == 1 else SequenceKind.TRAJECTORY,
        "pool": pool,
        "picks": picks,
        "writes": writes,
        "query": query,
        "spans": [
            (start, span)
            for span in range(half - shift, half + shift + 1)
            for start in range(length - span + 1)
        ],
    }


def as_sequence(content, kind):
    values = np.asarray(content, dtype=float)
    return Sequence(values[:, 0] if kind is SequenceKind.TIME_SERIES else values, kind)


def check_table(net, query, spans):
    """``net.bound_table`` against the per-call bounds and the exact distance.

    Returns the table as one ``{window key: bound}`` dict per segment.
    """
    table = net.bound_table(query, spans)
    assert table.matrix.shape == (len(spans), len(net)) and len(table) == len(spans)
    assert table.epoch == net._packed.epoch
    # Columns are the flat layout's node ids: the packed store's order.
    column = {key: position for position, key in enumerate(net._layout().keys.tolist())}
    array = as_array(query)
    for row, (start, span) in zip(table.matrix.tolist(), spans):
        segment = array[start : start + span]
        for key, item in net.items():
            entry = row[column[key]]
            window = as_array(item)
            assert entry == combined_batch_bound(net.distance, segment, window[None])[0]
            assert not prunes_at_exact(net.distance, entry, segment, window)
    return [
        {key: row[position] for key, position in column.items()}
        for row in table.matrix.tolist()
    ]


class TestBoundTable:
    @settings(max_examples=80, deadline=None)
    @given(case=table_cases())
    def test_table_equals_per_call_bounds_through_writes_and_restore(self, case):
        kind = case["kind"]
        distance = DiscreteFrechet(element_metric=ElementMetric(case["metric"]))
        net = ReferenceNet(distance, prefilter=True)
        for key, pick in enumerate(case["picks"]):
            net.insert(as_sequence(case["pool"][pick], kind), key=key)
        query = as_sequence(case["query"], kind)
        check_table(net, query, case["spans"])

        # Writes drop the summaries and shift the rows; a table built
        # afterwards must follow.  "remove-extreme" takes out the window
        # holding the store's largest element -- the one an aggregated
        # (store-level) box would have been defined by.
        next_key = len(case["picks"])
        for kind_of_write, argument in case["writes"]:
            if kind_of_write == "add":
                net.insert(as_sequence(case["pool"][argument], kind), key=next_key)
                next_key += 1
            elif len(net) > 1:
                keys = net.keys()
                if kind_of_write == "remove-extreme":
                    victim = max(keys, key=lambda key: as_array(net.get(key)).max())
                else:
                    victim = keys[argument % len(keys)]
                net.delete(victim)
            check_table(net, query, case["spans"])

        before = check_table(net, query, case["spans"])
        state = json.loads(json.dumps(net.export_structure()))
        restored = ReferenceNet(distance, prefilter=True)
        restored.restore_structure(state, dict(net.items()))
        after = check_table(restored, query, case["spans"])
        assert restored.counter.total == 0 and restored.counter.cache_hits == 0
        assert after == before

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(grid, min_size=2, max_size=2), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_sliding_max_is_the_windowed_maximum(self, rows, data):
        matrix = np.asarray(rows)
        length = data.draw(st.integers(min_value=1, max_value=len(rows)))
        expected = np.stack(
            [matrix[i : i + length].max(axis=0) for i in range(len(rows) - length + 1)]
        )
        assert np.array_equal(_sliding_max(matrix, length), expected)

    def test_a_group_of_another_dimensionality_bounds_nothing(self):
        net = ReferenceNet(DiscreteFrechet(), prefilter=True)
        net.add(as_sequence([[0.0], [1.0], [2.0]], SequenceKind.TIME_SERIES), key="series")
        trajectory = as_sequence([[5.0, 5.0], [6.0, 6.0]], SequenceKind.TRAJECTORY)
        table = net.bound_table(trajectory, [(0, 2)])
        assert table.matrix.tolist() == [[0.0]]

    def test_which_distances_have_a_table(self):
        assert has_bound_table(DiscreteFrechet())
        assert has_bound_table(DiscreteFrechet(element_metric=ElementMetric("manhattan")))
        # Sum-aggregated bounds have no table form yet; no bounds, no table.
        for distance in (DTW(), ERP(), Levenshtein(), Euclidean(), Hamming()):
            assert not has_bound_table(distance)
        for distance in (ERP(), Levenshtein()):
            net = ReferenceNet(distance, prefilter=True)
            net.add(RNG.integers(0, 3, size=5).astype(float), key=0)
            assert net.bound_table(RNG.integers(0, 3, size=5).astype(float), [(0, 5)]) is None
        off = ReferenceNet(DiscreteFrechet())
        off.add(RNG.normal(size=5), key=0)
        assert off.bound_table(RNG.normal(size=5), [(0, 5)]) is None


WIDE_POINT_DISTANCES = [
    DTW(),
    DTW(element_metric=ElementMetric("manhattan")),
    DTW(band=2),
    DiscreteFrechet(),
    DiscreteFrechet(element_metric=ElementMetric("manhattan")),
    ERP(),
    ERP(gap=0.5, element_metric=ElementMetric("manhattan")),
]

coordinate = st.floats(min_value=-50.0, max_value=50.0, allow_subnormal=False)


@st.composite
def wide_point_pairs(draw):
    """Two point sequences of 8-10 coordinates (past NumPy's pairwise
    summation threshold), of 1-9 points each; near-duplicates are likely."""
    dim = draw(st.integers(min_value=8, max_value=10))

    def points(rows):
        point = st.lists(coordinate, min_size=dim, max_size=dim)
        return np.asarray(draw(st.lists(point, min_size=rows, max_size=rows)))

    first = points(draw(st.integers(min_value=1, max_value=9)))
    if draw(st.booleans()):
        second = first[: draw(st.integers(min_value=1, max_value=len(first)))] + draw(coordinate)
    else:
        second = points(draw(st.integers(min_value=1, max_value=9)))
    return first, second


class TestWidePointsStayAdmissible:
    """No bound prunes at radius = the C distance, at 8-10 coordinates per point.

    The bounds and the kernels accumulate element costs in one order
    (:meth:`ElementMetric.norm`), so the bottleneck distance -- an exact
    selection of element costs -- is never exceeded by even an ulp.  The
    summed distances round relative to their own value (the direct
    recurrence); a bound that sums in another order can exceed them by an
    ulp, which the prune rule's slack, relative to the radius, absorbs.
    """

    @settings(max_examples=300, deadline=None)
    @given(pair=wide_point_pairs(), which=st.integers(0, len(WIDE_POINT_DISTANCES) - 1))
    def test_every_bound_is_at_most_the_distance(self, pair, which):
        distance = WIDE_POINT_DISTANCES[which]
        first, second = pair
        exact = distance.bounded(first, second, np.inf)
        for bound in bounds_for(distance):
            value = bound.pair(distance, first, second)
            assert not prunes_at_exact(distance, value, first, second), (bound.name, value)
            if isinstance(distance, DiscreteFrechet):
                assert value <= exact, (bound.name, value, exact)
