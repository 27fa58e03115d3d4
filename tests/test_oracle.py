"""The paper's guarantee against brute force: where the differential oracle will live.

ROADMAP item 1 (open): every Type I / II / III answer must equal
``core/bruteforce.py`` for any consistent metric distance.  Exhaustive
Type I evaluates every start pair that some candidate chain allows (from
before the chain up to its last window) with every admissible stop, on the
same start-pair block engine as brute force.  So its answer is always a
subset of brute force's with bit-equal distances, and a subsequence that
starts inside a chain, or runs past windows whose segments do not chain, is
found (the two reproducers below).  What it still misses are answers whose
start pair no chain allows: the random-case test pins those seeds as a
strict set, ROADMAP item 1's remaining gap.

Type III's contract, until ROADMAP items 1(b) and 4(b) make it exact, is
"within one radius increment of the optimum": whenever brute force finds a
pair within ``max_radius``, the nearest query returns one, never better than the
optimum and at most the sweep's increment above it.  The random-case test
holds every case to it except the listed seeds where verification misses
the optimum's anchoring (item 1); the smallest of those is a strict
expected failure.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    MatcherConfig,
    NearestSubsequenceQuery,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
)
from repro.core.bruteforce import brute_force_matches, brute_force_nearest

INDEXES = ["linear-scan", "reference-net"]


def _keys(matches):
    return [
        (match.source_id, match.query_start, match.query_stop, match.db_start, match.db_stop)
        for match in matches
    ]


def _identities(matches):
    return set(_keys(matches))


def _exhaustive_and_brute_matches(x, q, radius, config):
    """The matches of exhaustive Type I and brute force, in that order."""
    database = SequenceDatabase(SequenceKind.TIME_SERIES)
    database.add(Sequence(np.asarray(x, dtype=float), SequenceKind.TIME_SERIES), seq_id="x")
    query = Sequence(np.asarray(q, dtype=float), SequenceKind.TIME_SERIES)
    matcher = SubsequenceMatcher(database, DiscreteFrechet(), config)
    ours = matcher.execute(RangeQuery(radius=radius, exhaustive=True).bind(query)).matches
    return ours, brute_force_matches(query, database, DiscreteFrechet(), radius, config)


def _exhaustive_and_brute(x, q, radius, config):
    """Identity sets of exhaustive Type I and brute force, in that order."""
    ours, brute = _exhaustive_and_brute_matches(x, q, radius, config)
    return _identities(ours), _identities(brute)


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("index", INDEXES)
def test_exhaustive_range_query_reaches_inner_offsets(index, executor):
    rng = np.random.default_rng(0)
    x = rng.normal(size=24).cumsum() * 3
    config = MatcherConfig(min_length=8, max_shift=0, index=index, executor=executor, workers=2)
    # windows: x[0:4], x[4:8], ...; (q 1:9, x 1:9), (q 1:10, x 1:10) and
    # (q 2:10, x 2:10) start inside the chain's first window.
    ours, brute = _exhaustive_and_brute(x, x[0:10].copy(), 0.0, config)
    assert len(brute) == 6
    assert ours == brute


@pytest.mark.parametrize("index", INDEXES)
def test_exhaustive_range_query_spans_windows_matched_by_unchained_segments(index):
    x = [-4.2, 0.6, 3.8, 2.0, 2.2, 1.8, -1.9, -1.6, -1.7, -0.8, 0.8, 3.5, 3.2, 3.9]
    q = [3.7, 1.9, 1.7, 1.6, -1.8, -1.2, -1.9, -0.7, 0.9, 3.1]
    config = MatcherConfig(min_length=8, max_shift=0, index=index)
    # Segments q[1:5] ~ x[4:8] and q[6:10] ~ x[8:12] do not chain (their
    # starts are 5 apart, not 4), and neither chain's span reaches the
    # other's end; every stop of the first chain's start pairs is read, so
    # (q 0:10, x 2:12), (q 1:10, x 3:12) and (q 1:10, x 4:13) are found.
    ours, brute = _exhaustive_and_brute(x, q, 0.5, config)
    assert len(brute) == 7
    assert ours == brute


# --------------------------------------------------------------------- #
# Type III: within one radius increment of the optimum
# --------------------------------------------------------------------- #
MAX_RADIUS = 2.0

#: ``NearestSubsequenceQuery``'s default sweep step at ``MAX_RADIUS``.
INCREMENT = max(NearestSubsequenceQuery(MAX_RADIUS).tolerance, 0.05 * MAX_RADIUS)

#: Seeds of :func:`_random_case` where the answer is more than one
#: increment above the optimum (verification misses the optimum's
#: anchoring, item 1).  Strict: a fix must empty this set.
BEYOND_ONE_INCREMENT = {5, 26, 36, 54, 65, 102, 103, 111, 113}


def _random_case(seed):
    """A random walk ``x`` and a query that is mostly a noisy slice of it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=int(rng.integers(16, 29))).cumsum()
    length = int(rng.integers(8, 13))
    if rng.random() < 0.7:
        start = int(rng.integers(0, len(x) - length + 1))
        q = x[start : start + length] + rng.normal(scale=0.3, size=length)
    else:
        q = rng.normal(size=length).cumsum()
    return x, q, int(rng.integers(0, 2))


def _nearest_and_brute(x, q, config):
    """Type III's answer and brute force's optimum, in that order.

    The query runs only when brute force finds a pair within
    ``MAX_RADIUS``; otherwise the answer is ``None``.
    """
    database = SequenceDatabase(SequenceKind.TIME_SERIES)
    database.add(Sequence(np.asarray(x, dtype=float), SequenceKind.TIME_SERIES), seq_id="x")
    query = Sequence(np.asarray(q, dtype=float), SequenceKind.TIME_SERIES)
    brute = brute_force_nearest(query, database, DiscreteFrechet(), config)
    if brute.distance > MAX_RADIUS:
        return None, brute
    matcher = SubsequenceMatcher(database, DiscreteFrechet(), config)
    spec = NearestSubsequenceQuery(max_radius=MAX_RADIUS).bind(query)
    return matcher.execute(spec).best, brute


#: Seeds of :func:`_random_case` where exhaustive Type I at
#: ``EXHAUSTIVE_RADIUS`` misses brute-force matches: their start pair lies
#: in no chain's start ranges (ROADMAP item 1's remaining gap).  Strict: a
#: wider candidate set must empty it.
EXHAUSTIVE_MISSES = {15, 37, 46, 72, 73, 89, 91, 94, 98, 124, 137}

EXHAUSTIVE_RADIUS = 1.0


@pytest.mark.parametrize("index", INDEXES)
def test_exhaustive_range_query_is_a_subset_of_brute_force(index):
    answered, missed = 0, set()
    for seed in range(150):
        x, q, max_shift = _random_case(seed)
        config = MatcherConfig(min_length=8, max_shift=max_shift, index=index)
        ours, brute = _exhaustive_and_brute_matches(x, q, EXHAUSTIVE_RADIUS, config)
        truth = {key: match.distance for key, match in zip(_keys(brute), brute)}
        found = {key: match.distance for key, match in zip(_keys(ours), ours)}
        # A subset with bit-equal distances, in brute force's order.
        assert all(truth.get(key) == value for key, value in found.items()), seed
        assert _keys(ours) == [key for key in _keys(brute) if key in found], seed
        answered += bool(brute)
        if len(ours) < len(brute):
            missed.add(seed)
    assert answered >= 100
    assert missed == EXHAUSTIVE_MISSES


@pytest.mark.parametrize("index", INDEXES)
def test_nearest_is_within_one_increment_of_the_optimum(index):
    checked, beyond = 0, set()
    for seed in range(120):
        x, q, max_shift = _random_case(seed)
        config = MatcherConfig(min_length=8, max_shift=max_shift, index=index)
        ours, brute = _nearest_and_brute(x, q, config)
        if brute.distance > MAX_RADIUS:
            continue
        checked += 1
        assert ours is not None, seed
        assert ours.distance >= brute.distance - 1e-12, seed
        pair = (q[ours.query_start : ours.query_stop], x[ours.db_start : ours.db_stop])
        assert ours.distance == DiscreteFrechet()(*pair), seed
        if ours.distance > brute.distance + INCREMENT + 1e-12:
            beyond.add(seed)
    assert checked >= 100
    assert beyond == BEYOND_ONE_INCREMENT


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: verification misses the optimum's anchor")
@pytest.mark.parametrize("index", INDEXES)
def test_nearest_reaches_an_optimum_one_element_in(index):
    x = [0.2, 1.4, -0.1, -0.8, -1.5, -1.4, -1.3, -2.5, -2.3, -1.6]
    q = [1.2, -0.1, -0.8, -1.2, -0.9, -1.3, -3.0, -2.5]
    config = MatcherConfig(min_length=8, max_shift=0, index=index)
    # Brute force's optimum is (q 0:8, x 1:9) at 0.5; the sweep stops at
    # (q 0:8, x 0:8) at 1.0, five increments above it.
    ours, brute = _nearest_and_brute(x, q, config)
    assert brute.distance == pytest.approx(0.5)
    assert ours.distance <= brute.distance + INCREMENT
