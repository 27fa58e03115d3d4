"""The sweep probe table: later passes of a radius sweep answered from pass 1.

Inside ``QueryPipeline.sweep(query)`` the widest probe is kept as a flat
table and every later probe at a covered radius answers its *complete*
segments (every hit measured) with a ``distance <= radius`` filter instead of
an index traversal.  The contract pinned here:

* a table-answered probe returns exactly the (segment, window) pairs, in the
  same order, a table-less pipeline gets from the index, with exact distances
  and never more index distance computations;
* the table lives for the sweep only -- outside one, repeated executions of
  one query object do and count the same index work;
* Type III / top-k answers, pass counts and shape counters are those of a
  sweep that asks the index every time.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DiscreteFrechet,
    IndexError_,
    MatcherConfig,
    NearestSubsequenceQuery,
    QueryError,
    RangeQuery,
    SegmentMatch,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    SubsequenceMatcher,
    TopKQuery,
)
from repro.core.pipeline import QueryPipeline
from repro.indexing.stats import DistanceCounter

from test_query_api import match_identities, work_counters
from test_topk import config, pattern_query, planted_db  # noqa: F401  (fixtures)

ALL_INDEXES = ["reference-net", "linear-scan"]
#: The net accepts whole subtrees unmeasured: on the planted database (two
#: copies of one pattern, so twin windows at link distance 0) every matching
#: segment holds such a hit and stays on the index.
SUBTREE_ACCEPTING = "reference-net"
#: The scan measures every hit, so its table is always complete.
SCAN = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")


def probe_keys(probe):
    return [(m.query_start, m.query_length, m.window.key) for m in probe.matches]


def random_case(seed, planted):
    """A small random-walk database and a planted or unplanted query."""
    generator = np.random.default_rng(seed)
    database = SequenceDatabase(SequenceKind.TIME_SERIES)
    for number in range(3):
        length = int(generator.integers(20, 40))
        database.add(Sequence.from_values(np.cumsum(generator.normal(size=length)), f"s{number}"))
    if planted:
        source = database["s1"].values
        start = int(generator.integers(0, len(source) - 16))
        values = source[start : start + 16] + generator.normal(scale=0.05, size=16)
    else:
        values = np.cumsum(generator.normal(size=16))
    return database, Sequence(values, SequenceKind.TIME_SERIES)


def copy_of(database):
    """A database a test may write to."""
    copy = SequenceDatabase(database.kind)
    for seq_id in database.ids():
        copy.add(database[seq_id], seq_id=seq_id)
    return copy


@contextmanager
def matchers(database, **config):
    """A matcher that will sweep and a table-less twin with its own cache."""
    base = dict(min_length=8, max_shift=1)
    swept = SubsequenceMatcher(database, DiscreteFrechet(), MatcherConfig(**base, **config))
    plain = SubsequenceMatcher(
        database, DiscreteFrechet(), MatcherConfig(**base, index=swept.config.index)
    )
    try:
        yield swept, plain
    finally:
        swept.close()
        plain.close()


class TestTableAnsweredProbes:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        planted=st.booleans(),
        index=st.sampled_from(ALL_INDEXES),
        executor=st.sampled_from(["serial", "thread"]),
        widest=st.floats(0.3, 6.0),
        down=st.lists(st.floats(0.0, 1.0), max_size=4),
        up=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_equal_the_index_probe(self, seed, planted, index, executor, widest, down, up):
        database, query = random_case(seed, planted)
        schedule = [widest]
        schedule += [share * widest for share in sorted(down, reverse=True)]
        schedule += [share * widest for share in sorted(up)]
        distance = DiscreteFrechet()
        with matchers(database, index=index, executor=executor, workers=2) as (swept, plain):
            spent = expected_spent = 0
            with swept.pipeline.sweep(query):
                for number, radius in enumerate(schedule):
                    got = swept.pipeline.probe(query, radius)
                    want = plain.pipeline.probe(query, radius)
                    assert probe_keys(got) == probe_keys(want)

                    # Pass 1 asks the index about every segment, a later
                    # (covered) pass about the table's incomplete ones only.
                    scratch = swept.pipeline.scratch_for(query)
                    everything = set(range(len(scratch.segments)))
                    asked = set(scratch.table.incomplete.tolist()) if number else everything
                    assert got.stats.table_segments == len(everything - asked)
                    position_of = {(s.start, s.length): p for p, s in enumerate(scratch.segments)}
                    for match in got.matches:
                        if position_of[match.query_start, match.query_length] not in asked:
                            assert match.distance is not None
                        if match.distance is not None:
                            exact = distance(
                                query.subsequence(match.query_start, match.query_stop),
                                match.window.sequence,
                            )
                            assert match.distance == exact <= radius

                    # Complete segments do no index work, incomplete ones the
                    # traversal they always did: the running total can only fall.
                    spent += got.stats.index_distance_computations
                    expected_spent += want.stats.index_distance_computations
                    assert spent <= expected_spent
                    assert got.stats.naive_distance_computations == (
                        want.stats.naive_distance_computations
                    )

    def test_linear_scan_asks_the_index_once(self, planted_db, pattern_query):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), SCAN)
        pipeline = matcher.pipeline
        with pipeline.sweep(pattern_query):
            first = pipeline.probe(pattern_query, 10.0).stats
            assert first.table_segments == 0
            assert first.index_distance_computations + first.index_cache_hits > 0
            for radius in (5.0, 0.0, 10.0):
                later = pipeline.probe(pattern_query, radius).stats
                assert later.table_segments == later.segments_extracted
                assert later.index_distance_computations == later.index_cache_hits == 0
                assert later.prefilter_evaluations == 0
                assert later.naive_distance_computations == first.naive_distance_computations
                assert later.executor == first.executor and later.kernel_backend
                assert set(later.stage_timings) == {"segment", "probe"}

    def test_unmeasured_hits_keep_their_segment_on_the_index(self):
        """A triangle-accepted hit is not knowledge: its segment is re-traversed,
        with its own bound-table row, and counts what it always counted."""
        database, query = random_case(1, planted=True)
        with matchers(database, index="reference-net") as (swept, plain):
            with swept.pipeline.sweep(query):
                wide = swept.pipeline.probe(query, 2.0)
                assert any(match.distance is None for match in wide.matches)
                table = swept.pipeline.scratch_for(query).table
                assert 0 < len(table.incomplete) < wide.stats.segments_extracted
                plain.pipeline.probe(query, 2.0)
                got = swept.pipeline.probe(query, 0.8)
                want = plain.pipeline.probe(query, 0.8)
            assert probe_keys(got) == probe_keys(want)
            assert got.stats.table_segments == got.stats.segments_extracted - len(table.incomplete)
            assert 0 < got.stats.prefilter_evaluations < want.stats.prefilter_evaluations
            assert got.stats.index_distance_computations <= want.stats.index_distance_computations

    def test_chaining_and_verification_never_read_segment_distances(
        self, planted_db, pattern_query, config
    ):
        """A table-derived match reports an exact distance where a re-traversal
        at the smaller radius may report ``None``; nothing downstream may care."""
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        pipeline = matcher.pipeline
        probe = pipeline.probe(pattern_query, 1.0)
        blind = [
            SegmentMatch(match.query_start, match.query_length, match.window, None)
            for match in probe.matches
        ]
        chains, blind_chains = (
            pipeline.chain(matches, probe.stats) for matches in (probe.matches, blind)
        )
        assert [chain.window_count for chain in chains] == [c.window_count for c in blind_chains]
        verified = [
            pipeline.verify_with_fallback(chain, pattern_query, 1.0, DistanceCounter())
            for chain in chains
        ]
        blind_verified = [
            pipeline.verify_with_fallback(chain, pattern_query, 1.0, DistanceCounter())
            for chain in blind_chains
        ]
        assert verified == blind_verified and any(match is not None for match in verified)


class TestTableLifetime:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize(
        "spec", [TopKQuery(k=3, max_radius=10.0), RangeQuery(radius=0.5)], ids=["topk", "range"]
    )
    def test_repeated_execution_of_one_query_object_counts_the_same(
        self, planted_db, pattern_query, config, shards, spec
    ):
        """Nothing outlives a query: the second and third execution of the same
        ``Sequence`` object (both warm) report identical, non-zero index work --
        what a live matcher and its snapshot-loaded twin rely on."""
        if shards == 1:
            matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        else:
            matcher = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=shards)
        bound = spec.bind(pattern_query)
        matcher.execute(bound)
        second, third = matcher.execute(bound), matcher.execute(bound)
        assert work_counters(second.stats) == work_counters(third.stats)
        assert second.stats.index_cache_hits > 0
        assert match_identities(second.matches) == match_identities(third.matches)

    def test_table_exists_only_inside_the_block(self, planted_db, pattern_query):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), SCAN)
        pipeline = matcher.pipeline
        assert pipeline.scratch_for(pattern_query).table is None
        before = pipeline.probe(pattern_query, 2.0).stats
        with pipeline.sweep(pattern_query):
            assert pipeline.scratch_for(pattern_query).table is not None
            pipeline.probe(pattern_query, 2.0)
            assert pipeline.probe(pattern_query, 1.0).stats.table_segments > 0
        assert pipeline.scratch_for(pattern_query).table is None
        # Outside: consulted by nothing, recorded by nothing.
        after = pipeline.probe(pattern_query, 1.0).stats
        assert after.table_segments == 0
        assert after.index_cache_hits + after.index_distance_computations > 0
        assert pipeline.scratch_for(pattern_query).table is None
        assert before.table_segments == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_table_is_dropped_when_the_sweep_raises(self, planted_db, config, shards):
        if shards == 1:
            matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
            pipelines = [matcher.pipeline]
        else:
            matcher = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=shards)
            pipelines = [shard.pipeline for shard in matcher.shards]
        alien = Sequence.from_values(np.full(24, 500.0))
        with pytest.raises(QueryError, match="no segment matches even at max_radius"):
            matcher.execute(NearestSubsequenceQuery(max_radius=1.0).bind(alien))
        assert len(matcher.last_query_stats.passes) == 1
        for pipeline in pipelines:
            assert pipeline.scratch_for(alien).table is None

    def test_a_write_between_two_sweeps_is_seen_by_the_second(
        self, planted_db, pattern_query, config
    ):
        database = copy_of(planted_db)
        matcher = SubsequenceMatcher(database, DiscreteFrechet(), config)
        spec = TopKQuery(k=2, max_radius=10.0).bind(pattern_query)
        first = matcher.execute(spec)
        added = matcher.add_sequence(Sequence.from_values(pattern_query.values), seq_id="twin")
        second = matcher.execute(spec)
        assert second.matches[0].source_id == added and second.matches[0].distance == 0.0
        matcher.remove_sequence(added)
        third = matcher.execute(spec)
        assert match_identities(third.matches) == match_identities(first.matches)
        rebuilt = SubsequenceMatcher(database, DiscreteFrechet(), config)
        assert match_identities(third.matches) == match_identities(rebuilt.execute(spec).matches)

    def test_a_write_inside_a_sweep_drops_the_table(self, planted_db, pattern_query):
        matcher = SubsequenceMatcher(copy_of(planted_db), DiscreteFrechet(), SCAN)
        pipeline = matcher.pipeline
        with pipeline.sweep(pattern_query):
            pipeline.probe(pattern_query, 2.0)
            assert pipeline.probe(pattern_query, 1.0).stats.table_segments > 0
            matcher.add_sequence(Sequence.from_values(pattern_query.values), seq_id="twin")
            probe = pipeline.probe(pattern_query, 1.0)
        assert probe.stats.table_segments == 0
        assert "twin" in {match.window.source_id for match in probe.matches}

    def test_wider_and_nan_radii_fall_through_negative_raises(self, planted_db, pattern_query):
        # Serial: the scan's parallel work units never checked the radius.
        serial = dataclasses.replace(SCAN, executor="serial")
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), serial)
        plain = SubsequenceMatcher(planted_db, DiscreteFrechet(), serial)
        pipeline = matcher.pipeline
        with pipeline.sweep(pattern_query):
            pipeline.probe(pattern_query, 1.0)
            assert pipeline.probe(pattern_query, 1.0).stats.table_segments > 0
            # NaN asks the index (which finds nothing) and records nothing.
            nan = pipeline.probe(pattern_query, math.nan)
            assert nan.stats.table_segments == 0 and nan.matches == []
            assert pipeline.scratch_for(pattern_query).table.radius == 1.0
            # A radius past the table asks the index and, being wider, replaces it.
            wider = pipeline.probe(pattern_query, 1.0 + 1e-9)
            assert wider.stats.table_segments == 0
            assert pipeline.scratch_for(pattern_query).table.radius == 1.0 + 1e-9
            wide = pipeline.probe(pattern_query, 3.0)
            assert wide.stats.table_segments == 0
            assert probe_keys(wide) == probe_keys(plain.pipeline.probe(pattern_query, 3.0))
            between = pipeline.probe(pattern_query, 2.0)
            assert between.stats.table_segments > 0
            assert probe_keys(between) == probe_keys(plain.pipeline.probe(pattern_query, 2.0))
            # The index's own argument check comes before any table look-up.
            with pytest.raises(IndexError_, match="radius must be non-negative"):
                pipeline.probe(pattern_query, -1.0)
            assert pipeline.scratch_for(pattern_query).table.radius == 3.0


class TestSweepsMatchTableLessSweeps:
    """The sweep visits the same radii and returns the same answers as one that
    asks the index on every pass (``QueryPipeline.sweep`` turned into a no-op)."""

    SHAPE = ("segments_extracted", "segment_matches", "candidate_chains",
             "naive_distance_computations", "verification_distance_computations",
             "verification_cache_hits")  # fmt: skip

    @pytest.mark.parametrize(
        "spec",
        [NearestSubsequenceQuery(max_radius=10.0)] + [TopKQuery(k=k, max_radius=10.0) for k in (1, 3, 10)],
        ids=["nearest", "top1", "top3", "top10"],
    )
    def test_on_the_topk_oracle_set(
        self, planted_db, pattern_query, index_options, spec, monkeypatch
    ):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        swept = SubsequenceMatcher(planted_db, DiscreteFrechet(), config).execute(
            spec.bind(pattern_query)
        )

        @contextmanager
        def no_table(self, query):
            yield

        monkeypatch.setattr(QueryPipeline, "sweep", no_table)
        plain = SubsequenceMatcher(planted_db, DiscreteFrechet(), config).execute(
            spec.bind(pattern_query)
        )
        assert plain.stats.table_segments == 0
        assert (swept.stats.table_segments > 0) == (config.index != SUBTREE_ACCEPTING)
        assert match_identities(swept.matches) == match_identities(plain.matches)
        assert len(swept.stats.passes) == len(plain.stats.passes)
        for got, want in zip(swept.stats.passes, plain.stats.passes):
            assert [getattr(got, name) for name in self.SHAPE] == [
                getattr(want, name) for name in self.SHAPE
            ]
            assert got.index_distance_computations <= want.index_distance_computations
            assert got.index_cache_hits <= want.index_cache_hits
        assert swept.stats.index_distance_computations == plain.stats.index_distance_computations
