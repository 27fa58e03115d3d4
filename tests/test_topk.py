"""Top-k (Type III, k > 1) correctness: oracle, equivalence matrix, k=1 parity.

The acceptance contract of the top-k redesign:

* the result is verified against the brute-force oracle
  (:mod:`repro.core.bruteforce`) for k in {1, 3, 10};
* matches are byte-identical across {serial, thread} executors and
  {plain, sharded} backends (the global k-bounded heap with the
  deterministic ranking key makes sharded == unsharded, ties included);
* ``TopKQuery(k=1)`` is byte-identical -- results *and* work counters --
  to ``nearest_subsequence``.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    MatcherConfig,
    NearestSubsequenceQuery,
    QueryError,
    SequenceDatabase,
    Sequence,
    SequenceKind,
    ShardedMatcher,
    SubsequenceMatch,
    SubsequenceMatcher,
    TopKQuery,
)
from repro.core.bruteforce import brute_force_nearest
from repro.core.queries import TopKCandidates, match_identity, match_ranking_key

from test_query_api import match_identities, work_counters

DISTANCE = DiscreteFrechet


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


SPEC = TopKQuery(k=3, max_radius=10.0)
NEAREST = NearestSubsequenceQuery(max_radius=10.0)


class TestTopKQueryValidation:
    def test_defaults(self):
        spec = TopKQuery(k=5, max_radius=2.0)
        assert spec.tolerance > 0 and spec.radius_increment is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(QueryError):
            TopKQuery(k=0, max_radius=1.0)
        with pytest.raises(QueryError):
            TopKQuery(k=1, max_radius=0.0)
        with pytest.raises(QueryError):
            TopKQuery(k=1, max_radius=1.0, tolerance=0.0)
        with pytest.raises(QueryError):
            TopKQuery(k=1, max_radius=1.0, radius_increment=-1.0)


class TestTopKCandidates:
    def _match(self, distance, source="s", start=0):
        return SubsequenceMatch(distance, source, start, start + 12, start, start + 12)

    def test_keeps_k_best_and_dedupes(self):
        pool = TopKCandidates(2)
        best = self._match(0.1)
        assert pool.add(best)
        assert not pool.add(best)  # same identity: not a new candidate
        assert pool.add(self._match(0.5, start=1))
        assert pool.full
        assert not pool.add(self._match(0.9, start=2))  # worse than the worst kept
        assert pool.add(self._match(0.2, start=3))  # displaces the 0.5 entry
        assert [m.distance for m in pool.ranked()] == [0.1, 0.2]

    def test_contents_are_arrival_order_independent(self):
        matches = [self._match(d, start=i) for i, d in enumerate([0.9, 0.1, 0.5, 0.3, 0.7])]
        forward, backward = TopKCandidates(3), TopKCandidates(3)
        for match in matches:
            forward.add(match)
        for match in reversed(matches):
            backward.add(match)
        assert match_identities(forward.ranked()) == match_identities(backward.ranked())

    def test_rejects_invalid_k(self):
        with pytest.raises(QueryError):
            TopKCandidates(0)


class TestTopKOracle:
    """Verified against exhaustive enumeration on the planted database."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_against_brute_force(self, planted_db, pattern_query, config, k):
        distance = DISTANCE()
        matcher = SubsequenceMatcher(planted_db, distance, config)
        spec = TopKQuery(k=k, max_radius=10.0)
        result = matcher.execute(spec.bind(pattern_query))
        matches = result.matches

        # The sweep filled the heap (the planted database has >= 10 pairs).
        assert len(matches) == k
        # Ranked best-first by the deterministic key, identities distinct.
        keys = [match_ranking_key(match) for match in matches]
        assert keys == sorted(keys)
        identities = [match_identity(match) for match in matches]
        assert len(set(identities)) == len(identities)

        # Every reported match is a real admissible pair whose distance is
        # exactly what the oracle recomputes for its spans.
        for match in matches:
            assert match.query_length >= config.min_length
            assert match.db_length >= config.min_length
            assert abs(match.query_length - match.db_length) <= config.max_shift
            recomputed = distance(
                pattern_query.subsequence(match.query_start, match.query_stop),
                planted_db[match.source_id].subsequence(match.db_start, match.db_stop),
            )
            assert match.distance == pytest.approx(recomputed, abs=1e-9)

        # The top-1 is within one sweep increment of the true nearest pair
        # (the same guarantee the classic Type III query gives).
        oracle = brute_force_nearest(pattern_query, planted_db, distance, config)
        increment = 0.05 * spec.max_radius
        assert matches[0].distance <= oracle.distance + increment
        # ... and no reported distance beats the global optimum.
        assert all(match.distance >= oracle.distance - 1e-9 for match in matches)

    def test_top1_equals_nearest_result(self, planted_db, pattern_query, config):
        topk = SubsequenceMatcher(planted_db, DISTANCE(), config)
        nearest = SubsequenceMatcher(planted_db, DISTANCE(), config)
        via_topk = topk.execute(TopKQuery(k=5, max_radius=10.0).bind(pattern_query))
        via_nearest = nearest.execute(NEAREST.bind(pattern_query)).best
        assert match_identities(via_topk.matches[:1]) == match_identities([via_nearest])


class TestK1NearestParity:
    """TopKQuery(k=1) is byte-identical to NearestSubsequenceQuery."""

    def test_results_and_stats_identical(self, planted_db, pattern_query, config):
        distance = DISTANCE()
        via_nearest = SubsequenceMatcher(planted_db, distance, config)
        via_topk = SubsequenceMatcher(planted_db, DISTANCE(), config)
        best = via_nearest.execute(NEAREST.bind(pattern_query)).best
        result = via_topk.execute(TopKQuery(k=1, max_radius=10.0).bind(pattern_query))
        assert match_identities(result.matches) == match_identities([best])
        assert work_counters(result.stats) == work_counters(via_nearest.last_query_stats)

    def test_error_paths_identical(self, planted_db, config):
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        via_nearest = SubsequenceMatcher(planted_db, DISTANCE(), config)
        via_topk = SubsequenceMatcher(planted_db, DISTANCE(), config)
        with pytest.raises(QueryError):
            via_nearest.execute(NearestSubsequenceQuery(max_radius=0.01).bind(alien))
        with pytest.raises(QueryError):
            via_topk.execute(TopKQuery(k=1, max_radius=0.01).bind(alien))
        assert work_counters(via_topk.last_query_stats) == work_counters(
            via_nearest.last_query_stats
        )

    def test_sharded_parity(self, planted_db, pattern_query, config):
        via_nearest = ShardedMatcher(planted_db, DISTANCE(), config, shards=2)
        via_topk = ShardedMatcher(planted_db, DISTANCE(), config, shards=2)
        best = via_nearest.execute(NEAREST.bind(pattern_query)).best
        result = via_topk.execute(TopKQuery(k=1, max_radius=10.0).bind(pattern_query))
        assert match_identities(result.matches) == match_identities([best])
        assert work_counters(result.stats) == work_counters(via_nearest.last_query_stats)


class TestTopKEquivalenceMatrix:
    """top-k x {serial, thread} executors x {plain, sharded} backends."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_identical_across_the_matrix(self, planted_db, pattern_query, k):
        spec = TopKQuery(k=k, max_radius=10.0)
        outcomes = {}
        counters = {}
        for executor in ("serial", "thread"):
            config = MatcherConfig(min_length=12, max_shift=1, executor=executor, workers=2)
            plain = SubsequenceMatcher(planted_db, DISTANCE(), config)
            result = plain.execute(spec.bind(pattern_query))
            outcomes[("plain", executor)] = match_identities(result.matches)
            counters[("plain", executor)] = work_counters(result.stats)
            sharded = ShardedMatcher(planted_db, DISTANCE(), config, shards=2)
            result = sharded.execute(spec.bind(pattern_query))
            outcomes[("sharded", executor)] = match_identities(result.matches)
            counters[("sharded", executor)] = work_counters(result.stats)

        # Matches: one answer, whatever the backend or engine.
        reference = outcomes[("plain", "serial")]
        assert len(reference) == k
        for key, matches in outcomes.items():
            assert matches == reference, f"{key} diverged"

        # Work counters: executor-independent within each backend (the
        # engine contract); sharded counters legitimately differ from plain
        # (per-shard caches), but must agree across engines too.  The
        # executor/workers stamp is the one field that names the engine.
        for backend in ("plain", "sharded"):
            serial = dict(counters[(backend, "serial")])
            threaded = dict(counters[(backend, "thread")])
            for stamped in (serial, threaded):
                stamped.pop("executor")
                stamped.pop("workers")
                for passed in stamped["passes"]:
                    passed.pop("executor")
                    passed.pop("workers")
            assert serial == threaded, f"{backend} counters diverged across executors"
