"""Tests for database partitioning and query segment extraction (steps 1 & 3)."""

import pytest

from repro import MatcherConfig, QueryError, Sequence, SequenceDatabase, SequenceKind
from repro.core.segmentation import (
    count_segment_pairs,
    extract_query_segments,
    partition_database,
)


@pytest.fixture
def database():
    db = SequenceDatabase(SequenceKind.TIME_SERIES)
    db.add(Sequence.from_values(range(40), seq_id="a"))
    db.add(Sequence.from_values(range(27), seq_id="b"))
    return db


@pytest.fixture
def config():
    return MatcherConfig(min_length=10, max_shift=1)


class TestPartitionDatabase:
    def test_window_length_is_half_lambda(self, database, config):
        windows = partition_database(database, config)
        assert all(window.length == 5 for window in windows)

    def test_window_count(self, database, config):
        windows = partition_database(database, config)
        assert len(windows) == 40 // 5 + 27 // 5

    def test_windows_carry_provenance(self, database, config):
        windows = partition_database(database, config)
        sources = {window.source_id for window in windows}
        assert sources == {"a", "b"}

    def test_short_sequences_contribute_nothing(self, config):
        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        db.add(Sequence.from_values(range(3), seq_id="short"))
        assert partition_database(db, config) == []


class TestExtractQuerySegments:
    def test_lengths_cover_shift_budget(self, config):
        query = Sequence.from_values(range(20), seq_id="q")
        segments = extract_query_segments(query, config)
        lengths = {segment.length for segment in segments}
        assert lengths == {4, 5, 6}

    def test_count_matches_formula(self, config):
        query = Sequence.from_values(range(20), seq_id="q")
        segments = extract_query_segments(query, config)
        expected = sum(20 - length + 1 for length in (4, 5, 6))
        assert len(segments) == expected

    def test_paper_upper_bound(self, config):
        query = Sequence.from_values(range(30), seq_id="q")
        segments = extract_query_segments(query, config)
        assert len(segments) <= (2 * config.max_shift + 1) * len(query)

    def test_query_too_short_rejected(self, config):
        query = Sequence.from_values(range(3), seq_id="q")
        with pytest.raises(QueryError, match="shorter than the smallest segment length 4"):
            extract_query_segments(query, config)

    def test_segments_longer_than_query_skipped(self):
        config = MatcherConfig(min_length=10, max_shift=3)
        query = Sequence.from_values(range(6), seq_id="q")
        segments = extract_query_segments(query, config)
        assert all(segment.length <= 6 for segment in segments)


class TestSegmentPairCount:
    def test_framework_cost_far_below_brute_force(self, database, config):
        query = Sequence.from_values(range(20), seq_id="q")
        counts = count_segment_pairs(query, database, config)
        assert counts["segment_pairs"] < counts["brute_force_pairs"]
        assert counts["windows"] == database.window_count(config.window_length)

    def test_segment_pair_scaling_is_linear_in_database(self, config):
        query = Sequence.from_values(range(20), seq_id="q")
        small = SequenceDatabase(SequenceKind.TIME_SERIES)
        small.add(Sequence.from_values(range(50), seq_id="x"))
        large = SequenceDatabase(SequenceKind.TIME_SERIES)
        large.add(Sequence.from_values(range(200), seq_id="x"))
        small_counts = count_segment_pairs(query, small, config)
        large_counts = count_segment_pairs(query, large, config)
        ratio = large_counts["segment_pairs"] / small_counts["segment_pairs"]
        assert ratio == pytest.approx(4.0)
