"""Tests for query descriptions, results, and statistics dataclasses."""

import pytest

from repro import (
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    QueryError,
    QueryStats,
    RangeQuery,
    SubsequenceMatch,
    TopKQuery,
)
from repro.core.queries import as_query_spec


class TestQuerySpecs:
    def test_range_query_defaults(self):
        spec = RangeQuery(radius=2.0)
        assert spec.max_results is None
        assert not spec.exhaustive

    def test_range_query_validation(self):
        with pytest.raises(QueryError):
            RangeQuery(radius=-1.0)
        with pytest.raises(QueryError):
            RangeQuery(radius=1.0, max_results=0)

    def test_longest_query_validation(self):
        assert LongestSubsequenceQuery(radius=0.0).radius == 0.0
        with pytest.raises(QueryError):
            LongestSubsequenceQuery(radius=-0.5)

    def test_nearest_query_validation(self):
        spec = NearestSubsequenceQuery(max_radius=5.0)
        assert spec.tolerance > 0
        with pytest.raises(QueryError):
            NearestSubsequenceQuery(max_radius=0.0)
        with pytest.raises(QueryError):
            NearestSubsequenceQuery(max_radius=1.0, tolerance=0.0)
        with pytest.raises(QueryError):
            NearestSubsequenceQuery(max_radius=1.0, radius_increment=-0.1)

    def test_topk_query_validation(self):
        spec = TopKQuery(k=3, max_radius=5.0)
        assert spec.k == 3 and spec.limit is None and spec.offset == 0
        with pytest.raises(QueryError):
            TopKQuery(k=0, max_radius=5.0)
        with pytest.raises(QueryError):
            TopKQuery(k=1, max_radius=-1.0)

    def test_specs_are_unbound_templates_by_default(self):
        for spec in (
            RangeQuery(radius=1.0),
            LongestSubsequenceQuery(radius=1.0),
            NearestSubsequenceQuery(max_radius=1.0),
            TopKQuery(k=2, max_radius=1.0),
        ):
            assert spec.query is None
            assert spec.describe()["type"] == spec.kind

    def test_as_query_spec_coerces_numbers_to_range(self):
        spec = as_query_spec(2)
        assert isinstance(spec, RangeQuery) and spec.radius == 2.0
        assert as_query_spec(spec) is spec
        with pytest.raises(QueryError):
            as_query_spec("nope")
        with pytest.raises(QueryError):
            as_query_spec(True)


class TestSubsequenceMatch:
    def test_lengths(self):
        match = SubsequenceMatch(
            distance=1.0, source_id="s", query_start=2, query_stop=12, db_start=5, db_stop=16
        )
        assert match.query_length == 10
        assert match.db_length == 11
        assert match.length == 10

    def test_ordering_by_distance(self):
        near = SubsequenceMatch(0.5, "s", 0, 10, 0, 10)
        far = SubsequenceMatch(2.0, "s", 0, 10, 0, 10)
        assert near < far
        assert min([far, near]) is near

    def test_repr(self):
        match = SubsequenceMatch(1.25, "seq-9", 0, 10, 3, 13)
        text = repr(match)
        assert "seq-9" in text and "1.25" in text


class TestQueryStats:
    def test_totals(self):
        stats = QueryStats(
            index_distance_computations=30, verification_distance_computations=12
        )
        assert stats.total_distance_computations == 42

    def test_pruning_ratio(self):
        stats = QueryStats(index_distance_computations=25, naive_distance_computations=100)
        assert stats.pruning_ratio == pytest.approx(0.75)

    def test_pruning_ratio_zero_naive(self):
        assert QueryStats().pruning_ratio == 0.0

    def test_pruning_ratio_never_negative(self):
        stats = QueryStats(index_distance_computations=150, naive_distance_computations=100)
        assert stats.pruning_ratio == 0.0

    def test_merged_sums_work_and_keeps_the_final_shape(self):
        passes = [
            QueryStats(
                segments_extracted=5, segment_matches=9, index_cache_hits=40, index_kernel_calls=12
            ),
            QueryStats(
                segments_extracted=5,
                segment_matches=2,
                table_segments=5,
                verification_kernel_calls=4,
            ),
            QueryStats(
                segments_extracted=5,
                segment_matches=4,
                table_segments=3,
                index_cache_hits=7,
                index_kernel_calls=3,
                verification_kernel_calls=9,
            ),
        ]
        merged = QueryStats.merged(passes)
        assert merged.table_segments == 8 and merged.index_cache_hits == 47
        assert merged.index_kernel_calls == 15
        assert merged.verification_kernel_calls == 13
        assert merged.segment_matches == 4 and merged.passes == passes
