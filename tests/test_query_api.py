"""Tests for the declarative query API: execute(), QueryResult, spec routing.

The redesign's contract: the query spec dataclasses are the single source
of truth for what a query means, ``execute(spec)`` is the one entry point
every backend serves, and ``execute_many`` accepts heterogeneous query types.
"""

import numpy as np
import pytest

from repro import (
    PROTEIN_ALPHABET,
    DiscreteFrechet,
    Levenshtein,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    QueryError,
    QueryResult,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    SubsequenceMatcher,
    TopKQuery,
)
from repro.core.queries import QueryStats, match_ranking_key


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
    source = planted_db["with-pattern-1"]
    return Sequence(np.asarray(source.values[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")


@pytest.fixture
def config():
    return MatcherConfig(min_length=12, max_shift=1)


@pytest.fixture
def matcher(planted_db, config):
    return SubsequenceMatcher(planted_db, DiscreteFrechet(), config)


def match_identities(matches):
    return [
        (m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop, m.distance)
        for m in matches
    ]


def work_counters(stats: QueryStats) -> dict:
    """The deterministic accounting of a QueryStats (timings excluded)."""
    return {
        "segments_extracted": stats.segments_extracted,
        "segment_matches": stats.segment_matches,
        "candidate_chains": stats.candidate_chains,
        "index_distance_computations": stats.index_distance_computations,
        "verification_distance_computations": stats.verification_distance_computations,
        "index_cache_hits": stats.index_cache_hits,
        "verification_cache_hits": stats.verification_cache_hits,
        "prefilter_evaluations": stats.prefilter_evaluations,
        "prefilter_pruned": stats.prefilter_pruned,
        "naive_distance_computations": stats.naive_distance_computations,
        "executor": stats.executor,
        "workers": stats.workers,
        "shards": stats.shards,
        "passes": [work_counters(p) for p in stats.passes],
    }


class TestSpecBinding:
    def test_bind_returns_new_bound_spec(self, pattern_query):
        template = RangeQuery(radius=1.0)
        bound = template.bind(pattern_query)
        assert template.query is None
        assert bound.query is pattern_query
        assert bound.radius == template.radius

    def test_execute_requires_bound_query(self, matcher):
        with pytest.raises(QueryError):
            matcher.execute(RangeQuery(radius=1.0))

    def test_unsupported_spec_rejected(self, matcher, pattern_query):
        with pytest.raises(QueryError):
            matcher.execute("not a spec")

    def test_describe_is_json_safe_echo(self, pattern_query):
        spec = TopKQuery(k=3, max_radius=5.0).bind(pattern_query)
        description = spec.describe()
        assert description["type"] == "topk"
        assert description["k"] == 3
        assert description["max_radius"] == 5.0
        assert "query" not in description


class TestQueryResultEnvelope:
    def test_envelope_fields(self, matcher, pattern_query):
        spec = RangeQuery(radius=0.5).bind(pattern_query)
        result = matcher.execute(spec)
        assert isinstance(result, QueryResult)
        assert result.query is spec
        assert result.error is None
        assert result.total_matches == len(result.matches)
        assert result.stats is matcher.last_query_stats
        assert list(result) == result.matches
        assert len(result) == len(result.matches)
        assert bool(result) == bool(result.matches)

    def test_best_is_first_match_or_none(self, matcher, pattern_query):
        hit = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(pattern_query))
        assert hit.best is hit.matches[0]
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        miss = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(alien))
        assert miss.best is None and not miss

    def test_paging(self, matcher, pattern_query):
        full = matcher.execute(RangeQuery(radius=0.5).bind(pattern_query))
        assert full.total_matches >= 3  # the planted pattern yields several pairs
        paged = matcher.execute(
            RangeQuery(radius=0.5, limit=2, offset=1).bind(pattern_query)
        )
        assert paged.total_matches == full.total_matches
        assert match_identities(paged.matches) == match_identities(full.matches[1:3])

    def test_paging_validation(self):
        with pytest.raises(QueryError):
            RangeQuery(radius=1.0, limit=0)
        with pytest.raises(QueryError):
            RangeQuery(radius=1.0, offset=-1)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda bad: RangeQuery(radius=bad), "radius"),
            (lambda bad: RangeQuery(radius=1.0, max_results=bad), "max_results"),
            (lambda bad: RangeQuery(radius=1.0, limit=bad), "limit"),
            (lambda bad: LongestSubsequenceQuery(radius=1.0, offset=bad), "offset"),
            (lambda bad: NearestSubsequenceQuery(max_radius=bad), "max_radius"),
            (lambda bad: NearestSubsequenceQuery(max_radius=1.0, tolerance=bad), "tolerance"),
            (lambda bad: TopKQuery(k=bad, max_radius=1.0), "k"),
            (lambda bad: TopKQuery(k=2, max_radius=1.0, radius_increment=bad), "radius_increment"),
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float32("nan")])
    def test_non_finite_fields_are_rejected_by_name(self, make, field, bad):
        with pytest.raises(QueryError, match=f"^{field} must be a finite number"):
            make(bad)

    def test_integers_too_large_for_a_float_are_finite(self):
        assert TopKQuery(k=10**400, max_radius=1.0).k == 10**400
        assert RangeQuery(radius=1.0, limit=10**400, offset=10**400).limit == 10**400

    def test_sharded_pages_after_the_merge(self, planted_db, pattern_query, config):
        sharded = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        full = sharded.execute(RangeQuery(radius=0.5).bind(pattern_query))
        paged = sharded.execute(
            RangeQuery(radius=0.5, limit=2, offset=1).bind(pattern_query)
        )
        assert match_identities(paged.matches) == match_identities(full.matches[1:3])


class TestExecuteMany:
    def test_heterogeneous_batch(self, matcher, pattern_query):
        specs = [
            RangeQuery(radius=0.5).bind(pattern_query),
            LongestSubsequenceQuery(radius=0.5).bind(pattern_query),
            TopKQuery(k=2, max_radius=10.0).bind(pattern_query),
        ]
        results = matcher.execute_many(specs)
        assert [r.query for r in results] == specs
        assert all(r.error is None for r in results)
        assert len(results[0].matches) >= 1
        assert len(results[1].matches) == 1
        assert len(results[2].matches) == 2
        assert len(matcher.last_batch_stats) == 3

    def test_non_spec_entry_propagates(self, matcher, pattern_query):
        """A batch entry that is not a spec at all is a programming error."""
        with pytest.raises(QueryError):
            matcher.execute_many([RangeQuery(radius=0.5).bind(pattern_query), "bogus"])

    def test_unbound_spec_gets_empty_stats_not_previous_querys(self, matcher, pattern_query):
        results = matcher.execute_many(
            [
                RangeQuery(radius=0.5).bind(pattern_query),
                RangeQuery(radius=5.0),  # unbound: fails before doing any work
            ]
        )
        assert results[1].error is not None
        assert results[1].stats is not results[0].stats
        assert results[1].stats.index_distance_computations == 0
        assert matcher.last_batch_stats[1] is results[1].stats

    def test_failed_sweep_keeps_its_own_stats(self, matcher):
        """A Type III query that fails mid-sweep reports the sweep's work."""
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        results = matcher.execute_many(
            [NearestSubsequenceQuery(max_radius=0.01).bind(alien)]
        )
        assert results[0].error is not None
        assert results[0].stats.segments_extracted > 0  # the probe that found nothing

    def test_failed_query_yields_error_envelope(self, matcher, pattern_query):
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        results = matcher.execute_many(
            [
                NearestSubsequenceQuery(max_radius=0.01).bind(alien),
                LongestSubsequenceQuery(radius=0.5).bind(pattern_query),
            ]
        )
        assert results[0].error is not None and "max_radius" in results[0].error
        assert results[0].matches == []
        assert results[1].error is None and results[1].best is not None


ALL_KINDS_OF_SPEC = [
    RangeQuery(radius=0.5),
    LongestSubsequenceQuery(radius=0.5),
    NearestSubsequenceQuery(max_radius=10.0),
    TopKQuery(k=2, max_radius=10.0),
]


def _trajectory_db():
    generator = np.random.default_rng(3)
    db = SequenceDatabase(SequenceKind.TRAJECTORY, name="traj")
    for number in range(3):
        points = np.cumsum(generator.normal(size=(40, 2)), axis=0)
        db.add(Sequence.from_points(points, f"t{number}"))
    return db


def _protein_db():
    generator = np.random.default_rng(4)
    db = SequenceDatabase(SequenceKind.STRING, name="proteins")
    for number in range(3):
        text = "".join(generator.choice(list(PROTEIN_ALPHABET.symbols), size=40))
        db.add(Sequence.from_string(text, PROTEIN_ALPHABET, f"p{number}"))
    return db


class TestIncompatibleQueries:
    """A query the database cannot pair -- another kind, or another element
    width -- is refused before any work with a ``QueryError`` naming both."""

    @pytest.mark.parametrize("index", ["reference-net", "linear-scan"])
    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    @pytest.mark.parametrize(
        "make_db, distance, query, named",
        [
            (
                _trajectory_db,
                DiscreteFrechet(),
                Sequence.from_values(np.arange(30.0)),
                ("time_series", "trajectory"),
            ),
            (
                _trajectory_db,
                DiscreteFrechet(),
                Sequence.from_points(np.zeros((30, 3))),
                ("width 3", "width 2"),
            ),
            (
                _protein_db,
                Levenshtein(),
                Sequence.from_values(np.arange(30.0)),
                ("time_series", "string"),
            ),
        ],
        ids=["kind", "width", "series-on-strings"],
    )
    def test_every_query_type_is_refused_naming_both(
        self, index, sharded, make_db, distance, query, named
    ):
        config = MatcherConfig(min_length=10, max_shift=1, index=index)
        backend = (
            ShardedMatcher(make_db(), distance, config, shards=2)
            if sharded
            else SubsequenceMatcher(make_db(), distance, config)
        )
        for spec in ALL_KINDS_OF_SPEC:
            with pytest.raises(QueryError) as error:
                backend.execute(spec.bind(query))
            assert all(name in str(error.value) for name in named), error.value
        (result,) = backend.execute_many([RangeQuery(radius=0.5).bind(query)])
        assert all(name in result.error for name in named)
        assert result.stats.index_distance_computations == 0


class TestRankingKey:
    def test_total_order_breaks_distance_ties(self):
        from repro import SubsequenceMatch

        shorter = SubsequenceMatch(1.0, "a", 0, 12, 0, 12)
        longer = SubsequenceMatch(1.0, "a", 0, 20, 0, 20)
        other_source = SubsequenceMatch(1.0, "b", 0, 20, 0, 20)
        ranked = sorted([other_source, shorter, longer], key=match_ranking_key)
        assert ranked == [longer, other_source, shorter]

    def test_distance_dominates(self):
        from repro import SubsequenceMatch

        near = SubsequenceMatch(0.5, "z", 0, 12, 0, 12)
        far = SubsequenceMatch(2.0, "a", 0, 40, 0, 40)
        assert match_ranking_key(near) < match_ranking_key(far)
