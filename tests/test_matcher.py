"""Integration tests for the SubsequenceMatcher (the full five-step pipeline)."""

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    DTW,
    DiscreteFrechet,
    ERP,
    LCSS,
    Euclidean,
    Hamming,
    Levenshtein,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    QueryError,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    SubsequenceMatcher,
    brute_force_longest,
)


@pytest.fixture
def planted_db():
    """Three time series; the first two share an identical 24-point pattern."""
    generator = np.random.default_rng(11)
    pattern = np.cumsum(generator.normal(size=24))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted")
    first = np.concatenate([generator.uniform(30, 40, 8), pattern, generator.uniform(30, 40, 8)])
    second = np.concatenate([generator.uniform(-40, -30, 14), pattern, generator.uniform(-40, -30, 2)])
    third = generator.uniform(80, 90, size=40)
    db.add(Sequence.from_values(first, seq_id="with-pattern-1"))
    db.add(Sequence.from_values(second, seq_id="with-pattern-2"))
    db.add(Sequence.from_values(third, seq_id="background"))
    return db


@pytest.fixture
def pattern_query(planted_db):
    """A query equal to the shared pattern plus mild noise."""
    source = planted_db["with-pattern-1"]
    return Sequence(np.asarray(source.values[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")


@pytest.fixture
def config():
    return MatcherConfig(min_length=12, max_shift=1)


class TestConstruction:
    def test_requires_consistent_distance(self, planted_db, config):
        with pytest.raises(ConfigurationError):
            SubsequenceMatcher(planted_db, LCSS(), config)

    def test_requires_metric_distance_for_metric_indexes(self, planted_db, config):
        with pytest.raises(ConfigurationError):
            SubsequenceMatcher(planted_db, DTW(), config)

    @pytest.mark.parametrize("index", ["reference-net", "linear-scan"])
    def test_lockstep_distance_refuses_a_shift(self, planted_db, pattern_query, index):
        """Refused at construction, not with IncompatibleSequencesError out of
        a query; without a shift the same matcher answers."""
        for distance in (Euclidean(), Hamming()):
            for build in (SubsequenceMatcher, ShardedMatcher):
                with pytest.raises(ConfigurationError, match="max_shift"):
                    build(planted_db, distance, MatcherConfig(min_length=8, max_shift=1, index=index))
        config = MatcherConfig(min_length=8, max_shift=0, index=index)
        matcher = SubsequenceMatcher(planted_db, Euclidean(), config)
        for spec in (RangeQuery(radius=0.5), RangeQuery(radius=0.5, exhaustive=True)):
            assert matcher.execute(spec.bind(pattern_query)).matches

    def test_dtw_allowed_with_linear_scan(self, planted_db):
        config = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")
        matcher = SubsequenceMatcher(planted_db, DTW(), config)
        assert len(matcher.windows) > 0

    def test_windows_built_at_construction(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        expected = planted_db.window_count(config.window_length)
        assert len(matcher.windows) == expected
        assert len(matcher.index) == expected

    def test_refresh_picks_up_new_sequences(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        before = len(matcher.windows)
        planted_db.add(Sequence.from_values(np.zeros(30), seq_id="extra"))
        matcher.refresh()
        assert len(matcher.windows) > before

    def test_every_index_backend_works(self, planted_db, pattern_query, index_options):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        best = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(pattern_query)).best
        assert best is not None
        assert best.source_id.startswith("with-pattern")

    def test_repr(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        assert "frechet" in repr(matcher)


class TestSegmentMatches:
    def test_finds_planted_windows(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        matches = matcher.segment_matches(pattern_query, 0.5)
        assert matches
        sources = {match.window.source_id for match in matches}
        assert "with-pattern-1" in sources

    def test_stats_populated(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        matcher.segment_matches(pattern_query, 0.5)
        stats = matcher.last_query_stats
        assert stats.segments_extracted > 0
        assert stats.naive_distance_computations == stats.segments_extracted * len(matcher.windows)
        assert 0 < stats.index_distance_computations <= stats.naive_distance_computations

    def test_no_matches_for_alien_query(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        assert matcher.segment_matches(alien, 0.5) == []


class TestTypeII:
    def test_finds_planted_pattern(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        best = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(pattern_query)).best
        assert best is not None
        assert best.source_id.startswith("with-pattern")
        assert best.length >= config.min_length
        assert best.distance <= 0.5

    def test_match_overlaps_planted_region(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        best = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(pattern_query)).best
        if best.source_id == "with-pattern-1":
            planted = range(8, 32)
        else:
            planted = range(14, 38)
        overlap = set(range(best.db_start, best.db_stop)) & set(planted)
        assert len(overlap) >= config.min_length // 2

    def test_length_close_to_brute_force_optimum(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        fast = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(pattern_query)).best
        exact = brute_force_longest(pattern_query, planted_db, DiscreteFrechet(), 0.5, config)
        assert exact is not None and fast is not None
        assert fast.length >= exact.length * 0.7

    def test_none_when_radius_too_small(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        assert matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(alien)).best is None

    def test_erp_distance(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, ERP(), config)
        best = matcher.execute(LongestSubsequenceQuery(radius=5.0).bind(pattern_query)).best
        assert best is not None
        assert best.source_id.startswith("with-pattern")


class TestTypeI:
    def test_all_results_verified(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        results = matcher.execute(RangeQuery(radius=0.5).bind(pattern_query)).matches
        assert results
        for match in results:
            assert match.distance <= 0.5
            assert match.length >= config.min_length

    def test_max_results_cap(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        results = matcher.execute(RangeQuery(radius=0.5, max_results=1).bind(pattern_query)).matches
        assert len(results) == 1

    def test_exhaustive_returns_superset(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        concise = matcher.execute(RangeQuery(radius=0.3).bind(pattern_query)).matches
        exhaustive = matcher.execute(
            RangeQuery(radius=0.3, exhaustive=True).bind(pattern_query)
        ).matches
        assert len(exhaustive) >= len(concise)

    def test_empty_for_alien_query(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        assert matcher.execute(RangeQuery(radius=1.0).bind(alien)).matches == []

    def test_results_deduplicated(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        results = matcher.execute(RangeQuery(radius=0.5).bind(pattern_query)).matches
        spans = [(m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop) for m in results]
        assert len(spans) == len(set(spans))


class TestTypeIII:
    def test_finds_near_zero_distance(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        best = matcher.execute(NearestSubsequenceQuery(max_radius=10.0).bind(pattern_query)).best
        assert best is not None
        assert best.distance <= 0.5
        assert best.source_id.startswith("with-pattern")

    def test_raises_when_max_radius_too_small(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        with pytest.raises(QueryError):
            matcher.execute(NearestSubsequenceQuery(max_radius=1.0).bind(alien))

    def test_stats_accumulate_over_radius_search(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        matcher.execute(NearestSubsequenceQuery(max_radius=10.0).bind(pattern_query))
        assert matcher.last_query_stats.index_distance_computations > 0


class TestStringMatching:
    def test_levenshtein_end_to_end(self, string_database):
        config = MatcherConfig(min_length=8, max_shift=1)
        matcher = SubsequenceMatcher(string_database, Levenshtein(), config)
        query = Sequence.from_string(
            "ACDEFGHIKL", string_database["s1"].alphabet
        )
        best = matcher.execute(LongestSubsequenceQuery(radius=2.0).bind(query)).best
        assert best is not None
        assert best.source_id in {"s1", "s2"}
        # The planted motif sits at offset 10 in both s1 and s2.
        overlap = set(range(best.db_start, best.db_stop)) & set(range(10, 20))
        assert overlap


class TestFigure12Report:
    def test_matching_window_report(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        report = matcher.matching_window_report(pattern_query, 0.5)
        assert report["total_windows"] == len(matcher.windows)
        assert 0 < report["unique_matching_windows"] <= report["total_windows"]
        assert report["consecutive_matching_windows"] <= report["unique_matching_windows"]
        assert 0.0 < report["unique_fraction"] <= 1.0

    def test_report_grows_with_radius(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        small = matcher.matching_window_report(pattern_query, 0.2)
        large = matcher.matching_window_report(pattern_query, 5.0)
        assert large["unique_matching_windows"] >= small["unique_matching_windows"]
