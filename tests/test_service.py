"""Tests for the backend-agnostic SearchService facade.

One ``execute()``/``execute_many()`` surface over a plain matcher, a
sharded matcher, and a lazily-loaded snapshot path -- byte-identical
answers from all of them, with per-call executor overrides that never leak
into the backend's configuration.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    LongestSubsequenceQuery,
    MatcherConfig,
    RangeQuery,
    SearchService,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    StorageError,
    SubsequenceMatcher,
    TopKQuery,
    config_fingerprint,
    save_matcher,
)

from test_query_api import match_identities, work_counters


@pytest.fixture
def planted_db():
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


TOPK = TopKQuery(k=3, max_radius=10.0)


class TestBackends:
    def test_wraps_plain_matcher(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        service = SearchService(matcher)
        result = service.execute(TOPK.bind(pattern_query))
        assert len(result.matches) == 3
        assert service.backend is matcher
        assert service.last_query_stats is matcher.last_query_stats

    def test_wraps_sharded_matcher(self, planted_db, pattern_query, config):
        plain = SearchService(SubsequenceMatcher(planted_db, DiscreteFrechet(), config))
        sharded = SearchService(
            ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        )
        spec = TOPK.bind(pattern_query)
        assert match_identities(sharded.execute(spec).matches) == match_identities(
            plain.execute(spec).matches
        )

    def test_snapshot_path_loads_lazily(self, planted_db, pattern_query, config, tmp_path):
        path = tmp_path / "matcher.npz"
        save_matcher(SubsequenceMatcher(planted_db, DiscreteFrechet(), config), path)
        service = SearchService(str(path))
        assert service._backend is None  # nothing read yet
        assert "unloaded" in repr(service)
        result = service.execute(TOPK.bind(pattern_query))
        assert len(result.matches) == 3
        assert isinstance(service.backend, SubsequenceMatcher)

    def test_missing_snapshot_surfaces_storage_error(self, tmp_path, pattern_query):
        service = SearchService(tmp_path / "absent.npz")
        with pytest.raises(StorageError):
            service.execute(TOPK.bind(pattern_query))

    def test_unqueried_service_close_does_not_load(self, tmp_path):
        service = SearchService(tmp_path / "missing-snapshot.json")
        service.close()
        assert not service.loaded

    def test_execute_many_delegates(self, planted_db, pattern_query, config):
        service = SearchService(SubsequenceMatcher(planted_db, DiscreteFrechet(), config))
        results = service.execute_many(
            [
                RangeQuery(radius=0.5).bind(pattern_query),
                LongestSubsequenceQuery(radius=0.5).bind(pattern_query),
            ]
        )
        assert len(results) == 2 and all(r.error is None for r in results)
        assert len(service.last_batch_stats) == 2


class TestSnapshotParity:
    """snapshot -> service -> top-k query == the in-memory matcher."""

    def test_plain_snapshot_round_trip(self, planted_db, pattern_query, config, tmp_path):
        in_memory = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        to_save = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(to_save, path)

        spec = TOPK.bind(pattern_query)
        expected = in_memory.execute(spec)
        service = SearchService(path)
        loaded = service.execute(spec)
        assert match_identities(loaded.matches) == match_identities(expected.matches)
        assert work_counters(loaded.stats) == work_counters(expected.stats)

    def test_sharded_snapshot_round_trip(self, planted_db, pattern_query, config, tmp_path):
        in_memory = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        to_save = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        path = tmp_path / "sharded.npz"
        save_matcher(to_save, path)

        spec = TOPK.bind(pattern_query)
        expected = in_memory.execute(spec)
        service = SearchService(path)
        loaded = service.execute(spec)
        assert isinstance(service.backend, ShardedMatcher)
        assert match_identities(loaded.matches) == match_identities(expected.matches)
        assert work_counters(loaded.stats) == work_counters(expected.stats)


class TestExecutorOverrides:
    def test_override_applies_and_restores(self, planted_db, pattern_query, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        service = SearchService(matcher)
        baseline = service.execute(TOPK.bind(pattern_query))
        assert baseline.stats.executor == config.executor

        overridden = service.execute(TOPK.bind(pattern_query), executor="thread", workers=2)
        assert overridden.stats.executor == "thread"
        assert overridden.stats.workers == 2
        # Same answer, same deterministic work counters (engine contract).
        assert match_identities(overridden.matches) == match_identities(baseline.matches)
        # The override never leaks into the backend configuration.
        assert matcher.config.executor == config.executor
        assert matcher.config.workers == config.workers

    def test_override_restored_on_error(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        service = SearchService(matcher)
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        from repro import QueryError

        with pytest.raises(QueryError):
            service.execute(
                TopKQuery(k=1, max_radius=0.01).bind(alien), executor="thread", workers=2
            )
        assert matcher.config.executor == config.executor

    def test_override_on_sharded_backend(self, planted_db, pattern_query, config):
        sharded = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        service = SearchService(sharded)
        result = service.execute(TOPK.bind(pattern_query), executor="thread", workers=2)
        assert result.stats.executor == "thread"
        assert sharded.config.executor == config.executor


class TestMutations:
    """add_sequence/remove_sequence/save_snapshot through the facade."""

    def fresh_sequence(self):
        generator = np.random.default_rng(99)
        return Sequence.from_values(generator.uniform(0, 1, 30), seq_id="grown")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_add_and_remove_change_fingerprint(
        self, planted_db, pattern_query, config, shards
    ):
        if shards > 1:
            backend = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=shards)
        else:
            backend = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        service = SearchService(backend)
        before = service.fingerprint()
        seq_id = service.add_sequence(self.fresh_sequence())
        assert seq_id == "grown"
        after_add = service.fingerprint()
        assert after_add != before
        # The grown corpus still answers queries.
        assert len(service.execute(TOPK.bind(pattern_query)).matches) == 3
        removed = service.remove_sequence("grown")
        assert len(removed) == 30
        assert service.fingerprint() == before

    def test_save_snapshot_defaults_to_origin_path(
        self, planted_db, pattern_query, config, tmp_path
    ):
        path = tmp_path / "matcher.npz"
        save_matcher(SubsequenceMatcher(planted_db, DiscreteFrechet(), config), path)
        service = SearchService(path)
        service.add_sequence(self.fresh_sequence())
        expected = service.execute(TOPK.bind(pattern_query))
        assert service.save_snapshot() == path

        reloaded = SearchService(path)
        assert reloaded.fingerprint() == service.fingerprint()
        result = reloaded.execute(TOPK.bind(pattern_query))
        assert match_identities(result.matches) == match_identities(expected.matches)

    def test_save_snapshot_explicit_path(self, planted_db, config, tmp_path):
        service = SearchService(SubsequenceMatcher(planted_db, DiscreteFrechet(), config))
        target = tmp_path / "explicit.npz"
        assert service.save_snapshot(target) == target
        assert target.exists()

    def test_save_snapshot_without_path_errors(self, planted_db, config):
        service = SearchService(SubsequenceMatcher(planted_db, DiscreteFrechet(), config))
        with pytest.raises(StorageError):
            service.save_snapshot()

    def test_loaded_property_does_not_trigger_load(self, planted_db, config, tmp_path):
        path = tmp_path / "matcher.npz"
        save_matcher(SubsequenceMatcher(planted_db, DiscreteFrechet(), config), path)
        service = SearchService(path)
        assert service.loaded is False
        assert service._backend is None  # observing loaded didn't read the file
        service.backend
        assert service.loaded is True


class TestFingerprint:
    def test_stable_for_equal_configuration(self, planted_db, config):
        first = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        second = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        assert config_fingerprint(first) == config_fingerprint(second)

    def test_differs_across_configurations(self, planted_db, config):
        base = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        other_config = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")
        other_index = SubsequenceMatcher(planted_db, DiscreteFrechet(), other_config)
        sharded = ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        prints = {
            config_fingerprint(base),
            config_fingerprint(other_index),
            config_fingerprint(sharded),
        }
        assert len(prints) == 3

    def test_service_exposes_fingerprint(self, planted_db, config):
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        service = SearchService(matcher)
        assert service.fingerprint() == config_fingerprint(matcher)
