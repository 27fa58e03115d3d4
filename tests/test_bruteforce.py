"""Tests for the brute-force oracle.

Brute force runs on the start-pair block engine; ``pair_reference.py``
holds the one-call-per-pair enumeration it replaced, and
:class:`TestEngineEqualsPerPairReference` holds the two equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_reference import every_pair, reference_matches, reference_nearest

from repro import (
    DTW,
    EDR,
    ERP,
    LCSS,
    DiscreteFrechet,
    Euclidean,
    Hamming,
    Levenshtein,
    MatcherConfig,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    WeightedLevenshtein,
    brute_force_longest,
    brute_force_matches,
    brute_force_nearest,
)
from repro.exceptions import ConfigurationError


@pytest.fixture
def tiny_db():
    db = SequenceDatabase(SequenceKind.TIME_SERIES)
    db.add(Sequence.from_values([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], seq_id="x"))
    db.add(Sequence.from_values([10.0, 11.0, 12.0, 13.0, 14.0, 15.0], seq_id="y"))
    return db


@pytest.fixture
def config():
    return MatcherConfig(min_length=4, max_shift=1)


class TestBruteForceMatches:
    def test_finds_exact_copy(self, tiny_db, config):
        query = Sequence.from_values([2.0, 3.0, 4.0, 5.0], seq_id="q")
        matches = brute_force_matches(query, tiny_db, DiscreteFrechet(), 0.0, config)
        spans = {(m.source_id, m.db_start, m.db_stop) for m in matches if m.distance == 0.0}
        assert ("x", 2, 6) in spans

    def test_all_results_satisfy_constraints(self, tiny_db, config):
        query = Sequence.from_values([2.0, 3.0, 4.0, 5.0, 6.0], seq_id="q")
        matches = brute_force_matches(query, tiny_db, DiscreteFrechet(), 1.5, config)
        for match in matches:
            assert match.distance <= 1.5
            assert match.query_length >= config.min_length
            assert match.db_length >= config.min_length
            assert abs(match.query_length - match.db_length) <= config.max_shift

    def test_no_matches_at_tiny_radius_for_distant_query(self, tiny_db, config):
        query = Sequence.from_values([100.0, 101.0, 102.0, 103.0], seq_id="q")
        assert brute_force_matches(query, tiny_db, DiscreteFrechet(), 0.5, config) == []

    def test_respects_equal_length_for_lockstep(self, tiny_db):
        config = MatcherConfig(min_length=4, max_shift=0)
        query = Sequence.from_values([2.0, 3.0, 4.0, 5.0], seq_id="q")
        matches = brute_force_matches(query, tiny_db, Euclidean(), 0.0, config)
        assert matches
        assert all(m.query_length == m.db_length for m in matches)


class TestBruteForceLongest:
    def test_prefers_longer_matches(self, tiny_db, config):
        query = Sequence.from_values([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], seq_id="q")
        best = brute_force_longest(query, tiny_db, DiscreteFrechet(), 0.0, config)
        assert best is not None
        assert best.length == 6

    def test_none_when_no_match(self, tiny_db, config):
        query = Sequence.from_values([50.0, 51.0, 52.0, 53.0], seq_id="q")
        assert brute_force_longest(query, tiny_db, DiscreteFrechet(), 0.1, config) is None


class TestBruteForceNearest:
    def test_nearest_is_zero_for_planted_copy(self, tiny_db, config):
        query = Sequence.from_values([3.0, 4.0, 5.0, 6.0], seq_id="q")
        best = brute_force_nearest(query, tiny_db, DiscreteFrechet(), config)
        assert best is not None
        assert best.distance == 0.0
        assert best.source_id == "x"

    def test_nearest_reports_smallest_distance(self, tiny_db, config):
        query = Sequence.from_values([9.4, 10.4, 11.4, 12.4], seq_id="q")
        best = brute_force_nearest(query, tiny_db, DiscreteFrechet(), config)
        all_matches = brute_force_matches(query, tiny_db, DiscreteFrechet(), 100.0, config)
        assert best.distance == pytest.approx(min(m.distance for m in all_matches))


class TestLockstepShift:
    def test_brute_force_refuses_a_shift_for_a_lockstep_distance(self, tiny_db, config):
        query = Sequence.from_values([2.0, 3.0, 4.0, 5.0], seq_id="q")
        for distance in (Euclidean(), Hamming()):
            with pytest.raises(ConfigurationError, match="max_shift"):
                brute_force_matches(query, tiny_db, distance, 1.0, config)
            with pytest.raises(ConfigurationError, match=distance.name):
                brute_force_nearest(query, tiny_db, distance, config)
            with pytest.raises(ConfigurationError, match="max_shift"):
                brute_force_longest(query, tiny_db, distance, 1.0, config)

    def test_no_shift_still_answers(self, tiny_db):
        config = MatcherConfig(min_length=4, max_shift=0)
        query = Sequence.from_values([2.0, 3.0, 4.0, 5.0], seq_id="q")
        best = brute_force_nearest(query, tiny_db, Euclidean(), config)
        assert (best.source_id, best.db_start, best.db_stop, best.distance) == ("x", 2, 6, 0.0)


def _key(match):
    if match is None:
        return None
    return (
        match.source_id,
        match.query_start,
        match.query_stop,
        match.db_start,
        match.db_stop,
        match.distance,
    )


DISTANCES = {
    "dtw": DTW,
    "frechet": DiscreteFrechet,
    "erp": ERP,
    "edr": EDR,
    "levenshtein": Levenshtein,
    "weighted-levenshtein": lambda: WeightedLevenshtein({(0, 1): 0.5, (1, 2): 0.25}),
    "euclidean": Euclidean,
    "hamming": Hamming,
    "lcss": LCSS,
}


class TestEngineEqualsPerPairReference:
    """The three ``brute_force_*`` functions equal the one-call-per-pair
    enumeration: the same lists in the same order, bit-equal distances.
    Small-integer values make tied distances common, and the radius is
    always some pair's exact distance."""

    @pytest.mark.parametrize("name", sorted(DISTANCES))
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        integers=st.booleans(),
        pick=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_same_answers(self, name, seed, integers, pick):
        distance = DISTANCES[name]()
        generator = np.random.default_rng(seed)

        def values(low, high):
            size = int(generator.integers(low, high + 1))
            if integers:
                return generator.integers(0, 3, size=size).astype(float)
            return generator.normal(size=size).cumsum()

        min_length = int(generator.integers(2, 6))
        shift = int(generator.integers(0, 3)) if distance.supports_unequal_lengths else 0
        config = MatcherConfig(min_length=min_length, max_shift=shift)
        database = SequenceDatabase(SequenceKind.TIME_SERIES)
        for number in range(int(generator.integers(1, 3))):
            database.add(Sequence.from_values(values(2, 11), seq_id=f"s{number}"))
        query = Sequence.from_values(values(2, 9), seq_id="q")

        pairs = every_pair(query, database, distance, config)
        radius = pairs[int(pick * len(pairs))].distance if pairs else 1.0
        expected = reference_matches(pairs, radius)
        got = brute_force_matches(query, database, distance, radius, config)
        assert [_key(m) for m in got] == [_key(m) for m in expected]
        longest = min(expected, key=lambda m: (-m.length, m.distance), default=None)
        assert _key(brute_force_longest(query, database, distance, radius, config)) == _key(
            longest
        )
        assert _key(brute_force_nearest(query, database, distance, config)) == _key(
            reference_nearest(pairs)
        )
