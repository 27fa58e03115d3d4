"""Equivalence tests for the sharded matcher.

The contract: partitioning by sequence is lossless, so a
:class:`ShardedMatcher` over any shard count returns the same Type I match
*set*, a Type II match of the same (length, distance), and a Type III match
of the same distance as a single :class:`SubsequenceMatcher` over the same
database -- under every executor, with deterministic merged statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DiscreteFrechet,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    QueryStats,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    SubsequenceMatcher,
    load_matcher,
    save_matcher,
)
from repro.exceptions import StorageError

SHARD_COUNTS = [1, 2, 3, 5]


def _make_database(num_sequences=6, seed=7):
    """A planted time-series database large enough to spread over shards."""
    generator = np.random.default_rng(seed)
    pattern = np.cumsum(generator.normal(size=24))
    database = SequenceDatabase(SequenceKind.TIME_SERIES, name="sharded-fixture")
    for position in range(num_sequences):
        noise = generator.uniform(20 + 10 * position, 30 + 10 * position, size=40)
        if position % 2 == 0:
            values = np.concatenate(
                [noise[:8], pattern + 0.02 * position, noise[8:16]]
            )
        else:
            values = noise
        database.add(Sequence.from_values(values, seq_id=f"s{position}"))
    return database


def _copy_database(database):
    clone = SequenceDatabase(database.kind, name=database.name)
    for sequence in database:
        clone.add(sequence)
    return clone


def _match_key(match):
    return (
        match.source_id,
        match.query_start,
        match.query_stop,
        match.db_start,
        match.db_stop,
        match.distance,
    )


@pytest.fixture(scope="module")
def planted_db():
    return _make_database()


@pytest.fixture(scope="module")
def planted_query(planted_db):
    return Sequence(
        np.asarray(planted_db["s0"].values[8:32]) + 0.01,
        SequenceKind.TIME_SERIES,
        "query",
    )


class TestShardedVersusSingle:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_three_query_types(self, planted_db, planted_query, shards, executor):
        single = SubsequenceMatcher(
            planted_db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(
                min_length=12, max_shift=1, executor=executor, workers=4, shards=shards
            ),
        )
        assert sharded.shard_count == shards

        # Type I: identical match sets.
        single_range = single.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
        sharded_range = sharded.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
        assert sorted(map(_match_key, sharded_range)) == sorted(
            map(_match_key, single_range)
        )
        # The naive denominator is conserved by the partition.
        assert (
            sharded.last_query_stats.naive_distance_computations
            == single.last_query_stats.naive_distance_computations
        )
        assert sharded.last_query_stats.shards == shards

        # Type II: same length and distance.
        longest = LongestSubsequenceQuery(radius=0.5).bind(planted_query)
        single_longest = single.execute(longest).best
        sharded_longest = sharded.execute(longest).best
        assert (single_longest is None) == (sharded_longest is None)
        if single_longest is not None:
            assert sharded_longest.length == single_longest.length
            assert sharded_longest.distance == pytest.approx(
                single_longest.distance, abs=1e-12
            )

        # Type III: the global radius sweep visits the same radii, so the
        # pass count and the answer's distance both line up.
        spec = NearestSubsequenceQuery(max_radius=10.0)
        single_nearest = single.execute(spec.bind(planted_query)).best
        sharded_nearest = sharded.execute(spec.bind(planted_query)).best
        assert (single_nearest is None) == (sharded_nearest is None)
        if single_nearest is not None:
            assert sharded_nearest.distance == pytest.approx(
                single_nearest.distance, abs=1e-12
            )
        assert len(sharded.last_query_stats.passes) == len(
            single.last_query_stats.passes
        )

    def test_parallel_fan_out_matches_serial_fan_out(self, planted_db, planted_query):
        """Thread fan-out must not change the merged counters: shards are
        fully independent, so the merge is order-insensitive by design."""
        counters = (
            "index_distance_computations",
            "verification_distance_computations",
            "index_cache_hits",
            "verification_cache_hits",
            "segment_matches",
            "candidate_chains",
            "naive_distance_computations",
        )
        outcomes = {}
        for executor in ("serial", "thread"):
            sharded = ShardedMatcher(
                _copy_database(planted_db),
                DiscreteFrechet(),
                MatcherConfig(
                    min_length=12, max_shift=1, executor=executor, workers=4, shards=3
                ),
            )
            results = sharded.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
            outcomes[executor] = (
                list(map(_match_key, results)),
                {name: getattr(sharded.last_query_stats, name) for name in counters},
            )
        assert outcomes["serial"] == outcomes["thread"]

    def test_execute_many_and_failure_isolation(self, planted_db, planted_query):
        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=2),
        )
        alien = Sequence.from_values(np.full(20, 5000.0), seq_id="alien")
        spec = NearestSubsequenceQuery(max_radius=1.0)
        results = sharded.execute_many([spec.bind(planted_query), spec.bind(alien)])
        assert len(results) == 2
        assert results[1].error is not None and not results[1].matches
        assert len(sharded.last_batch_stats) == 2


class TestShardedUpdates:
    def test_add_and_remove_track_single_matcher(self, planted_db, planted_query):
        generator = np.random.default_rng(3)
        single_db = _copy_database(planted_db)
        single = SubsequenceMatcher(
            single_db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=3),
        )
        pattern = np.asarray(planted_db["s0"].values[8:32])
        extra = Sequence.from_values(
            np.concatenate([generator.uniform(80, 90, 6), pattern + 0.03]),
            seq_id="added-0",
        )
        single.add_sequence(extra, seq_id="added-0")
        sharded.add_sequence(extra, seq_id="added-0")
        single.remove_sequence("s1")
        sharded.remove_sequence("s1")

        single_range = single.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
        sharded_range = sharded.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
        assert sorted(map(_match_key, sharded_range)) == sorted(
            map(_match_key, single_range)
        )

    def test_duplicate_id_rejected_atomically(self, planted_db):
        """A duplicate id must fail like the single matcher: no shard state
        may change, even when the target shard does not hold the id."""
        from repro.exceptions import SequenceError

        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=3),
        )
        # The round-robin cursor points at shard 0; "s1" lives on shard 1,
        # so without the outer-database-first check the add would land a
        # phantom copy of "s1" on shard 0 before failing.
        target_shard = sharded.shards[sharded._assigned % 3]
        windows_before = [len(shard.windows) for shard in sharded.shards]
        assigned_before = sharded._assigned
        generator = np.random.default_rng(2)
        with pytest.raises(SequenceError):
            sharded.add_sequence(
                Sequence.from_values(generator.normal(size=30)), seq_id="s1"
            )
        assert [len(shard.windows) for shard in sharded.shards] == windows_before
        assert "s1" not in target_shard.database
        assert sharded._assigned == assigned_before

    def test_round_robin_assignment_is_deterministic(self, planted_db):
        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=3),
        )
        assignments = [sharded.shard_of(f"s{i}") for i in range(6)]
        assert assignments == [0, 1, 2, 0, 1, 2]
        generator = np.random.default_rng(0)
        for position in range(4):
            seq_id = sharded.add_sequence(
                Sequence.from_values(generator.normal(size=30)),
                seq_id=f"added-{position}",
            )
            assert sharded.shard_of(seq_id) == (6 + position) % 3

    @settings(max_examples=10, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        script=st.lists(
            st.sampled_from(["add_planted", "add_noise", "remove"]),
            min_size=0,
            max_size=4,
        ),
    )
    def test_property_sharded_equals_single(self, shards, seed, script):
        """Random shard counts and add/remove interleavings never diverge."""
        database = _make_database(num_sequences=4, seed=seed)
        query = Sequence(
            np.asarray(database["s0"].values[8:32]) + 0.01,
            SequenceKind.TIME_SERIES,
            "query",
        )
        single = SubsequenceMatcher(
            _copy_database(database),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1),
        )
        sharded = ShardedMatcher(
            _copy_database(database),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=shards),
        )
        generator = np.random.default_rng(seed + 1)
        pattern = np.asarray(database["s0"].values[8:32])
        added = 0
        for step, action in enumerate(script):
            if action == "remove":
                removable = [
                    seq_id for seq_id in single.database.ids() if seq_id in sharded.database
                ]
                if not removable:
                    continue
                target = removable[int(generator.integers(len(removable)))]
                single.remove_sequence(target)
                sharded.remove_sequence(target)
                continue
            if action == "add_planted":
                values = np.concatenate(
                    [generator.uniform(60, 70, 6), pattern + 0.05 * (step + 1)]
                )
            else:
                values = generator.uniform(100, 120, size=30)
            sequence = Sequence.from_values(values, seq_id=f"extra-{added}")
            single.add_sequence(sequence, seq_id=f"extra-{added}")
            sharded.add_sequence(sequence, seq_id=f"extra-{added}")
            added += 1

        single_range = single.execute(RangeQuery(radius=0.5).bind(query)).matches
        sharded_range = sharded.execute(RangeQuery(radius=0.5).bind(query)).matches
        assert sorted(map(_match_key, sharded_range)) == sorted(
            map(_match_key, single_range)
        )
        single_longest = single.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        sharded_longest = sharded.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        assert (single_longest is None) == (sharded_longest is None)
        if single_longest is not None:
            assert sharded_longest.length == single_longest.length
            assert sharded_longest.distance == pytest.approx(
                single_longest.distance, abs=1e-12
            )


class TestShardedSnapshots:
    def test_round_trip(self, tmp_path, planted_db, planted_query):
        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=3),
        )
        before = sharded.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
        path = tmp_path / "sharded.npz"
        save_matcher(sharded, path)
        loaded = load_matcher(path)
        assert isinstance(loaded, ShardedMatcher)
        assert loaded.shard_count == 3
        after = loaded.execute(RangeQuery(radius=0.5).bind(planted_query)).matches
        assert list(map(_match_key, after)) == list(map(_match_key, before))
        # Zero rebuild on load: the loaded matcher answers from the
        # persisted caches exactly like the (now warm) saved matcher does.
        sharded.execute(RangeQuery(radius=0.5).bind(planted_query))
        assert (
            loaded.last_query_stats.index_distance_computations
            == sharded.last_query_stats.index_distance_computations
        )
        assert (
            loaded.last_query_stats.index_cache_hits
            == sharded.last_query_stats.index_cache_hits
        )

    def test_round_robin_cursor_survives(self, tmp_path, planted_db):
        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=3),
        )
        generator = np.random.default_rng(1)
        sharded.add_sequence(
            Sequence.from_values(generator.normal(size=30)), seq_id="pre-save"
        )
        path = tmp_path / "sharded.npz"
        save_matcher(sharded, path)
        loaded = load_matcher(path)
        seq_id = loaded.add_sequence(
            Sequence.from_values(generator.normal(size=30)), seq_id="post-load"
        )
        assert loaded.shard_of(seq_id) == 7 % 3
        assert loaded.database["post-load"] is not None

    def test_external_cache_rejected(self, tmp_path, planted_db):
        from repro.distances.cache import DistanceCache

        sharded = ShardedMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, shards=2),
        )
        path = tmp_path / "sharded.npz"
        save_matcher(sharded, path)
        with pytest.raises(StorageError, match="external"):
            load_matcher(path, cache=DistanceCache())

    def test_plain_snapshots_keep_version_one(self, tmp_path, planted_db):
        """Sharded support must not bump the plain snapshot format."""
        import json

        matcher = SubsequenceMatcher(
            _copy_database(planted_db),
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1),
        )
        path = tmp_path / "plain.npz"
        save_matcher(matcher, path)
        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        assert metadata["snapshot_version"] == 1


class TestShardedStats:
    def test_across_shards_conserves_work(self):
        first = QueryStats(
            segments_extracted=5,
            index_distance_computations=10,
            naive_distance_computations=50,
            segment_matches=3,
            table_segments=4,
            index_kernel_calls=6,
            verification_kernel_calls=2,
        )
        second = QueryStats(
            segments_extracted=5,
            index_distance_computations=7,
            naive_distance_computations=25,
            segment_matches=2,
            table_segments=5,
            index_kernel_calls=8,
            verification_kernel_calls=5,
        )
        merged = QueryStats.across_shards([first, second])
        assert merged.segments_extracted == 5
        assert merged.index_distance_computations == 17
        assert merged.table_segments == 9
        assert merged.index_kernel_calls == 14
        assert merged.verification_kernel_calls == 7
        assert merged.naive_distance_computations == 75
        assert merged.segment_matches == 5
        assert merged.shards == 2
        assert merged.passes == [first, second]
