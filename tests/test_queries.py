"""Tests for query descriptions, results, and statistics dataclasses."""

import dataclasses

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
from repro.indexing.stats import DistanceCounter


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

    @pytest.mark.parametrize("name", [spec.name for spec in dataclasses.fields(QueryStats)])
    def test_merged_sums_work_and_keeps_the_final_shape(self, name):
        # Three records in which every integer field holds a distinct value.
        records = []
        for position in range(3):
            stats = QueryStats(executor=f"engine-{position}")
            for offset, spec in enumerate(dataclasses.fields(QueryStats)):
                if isinstance(getattr(stats, spec.name), int):
                    setattr(stats, spec.name, offset + 1 + 100 * position)
            stats.stage_timings = {"segment": 0.5, "probe": 0.25 * (position + 1)}
            stats.cpu_stage_timings = {"probe": 0.125 * (position + 1), "verify": 1.0}
            records.append(stats)
        merged, across = QueryStats.merged(records), QueryStats.across_shards(records)
        values = [getattr(stats, name) for stats in records]
        if name in QueryStats.WORK:
            assert getattr(merged, name) == getattr(across, name) == sum(values)
        elif name in QueryStats.SHAPE:
            assert getattr(merged, name) == values[-1]
            assert getattr(across, name) == (
                values[0] if name == "segments_extracted" else sum(values)
            )
        elif name in ("stage_timings", "cpu_stage_timings"):
            summed = {}
            for timings in values:
                for stage, seconds in timings.items():
                    summed[stage] = summed.get(stage, 0.0) + seconds
            assert getattr(merged, name) == getattr(across, name) == summed
        elif name in ("executor", "workers"):
            assert (getattr(merged, name), getattr(across, name)) == (values[-1], values[0])
        elif name == "shards":
            assert (merged.shards, across.shards) == (values[-1], len(records))
        else:
            # A new field must be declared: work, shape, or one of the above.
            assert name == "passes"
            assert merged.passes == across.passes == records
        # A stage's counter fills its declared field with the work since a mark.
        for stage in (QueryStats.INDEX_COUNTER, QueryStats.VERIFICATION_COUNTER):
            for tally in [tally for tally, target in stage.items() if target == name]:
                counter = DistanceCounter()
                for offset, field_name in enumerate(DistanceCounter.FIELDS):
                    setattr(counter, field_name, 50 + offset)
                mark = counter.mark()
                for offset, field_name in enumerate(DistanceCounter.FIELDS):
                    setattr(counter, field_name, getattr(counter, field_name) + offset + 1)
                work = counter.since(mark)
                assert work.mark() == tuple(range(1, len(DistanceCounter.FIELDS) + 1))
                filled = QueryStats()
                filled.fill(stage, work)
                assert getattr(filled, name) == DistanceCounter.FIELDS.index(tally) + 1
