"""Matcher snapshots: save/load round-trips must be byte-identical.

The acceptance bar: a snapshot saved, reloaded, and incrementally updated
returns byte-identical query results -- all query types, all five index
classes -- to the matcher it was saved from, without ``refresh()`` on load.
"Byte-identical" here includes the :class:`~repro.core.queries.QueryStats`
work counters, which only holds because the snapshot persists the built
index structure *and* the distance-cache contents.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    Levenshtein,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    PROTEIN_ALPHABET,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    StorageError,
    SubsequenceMatcher,
    load_matcher,
    save_database,
    save_matcher,
)

INDEX_NAMES = ["reference-net", "cover-tree", "reference-based", "vp-tree", "linear-scan"]

WORK_COUNTERS = (
    "segments_extracted",
    "segment_matches",
    "candidate_chains",
    "naive_distance_computations",
    "index_distance_computations",
    "verification_distance_computations",
    "index_cache_hits",
    "verification_cache_hits",
    "prefilter_evaluations",
    "prefilter_pruned",
)


def assert_same_stats(first, second, context=""):
    for name in WORK_COUNTERS:
        assert getattr(first, name) == getattr(second, name), (context, name)


def run_all_query_types(matcher, query):
    """Run Type I, II, and III; return (results repr, stats list)."""
    outputs = []
    stats = []
    outputs.append(repr(matcher.range_search(query, 0.5)))
    stats.append(matcher.last_query_stats)
    outputs.append(repr(matcher.longest_similar(query, LongestSubsequenceQuery(radius=0.5))))
    stats.append(matcher.last_query_stats)
    outputs.append(
        repr(matcher.nearest_subsequence(query, NearestSubsequenceQuery(max_radius=10.0)))
    )
    stats.append(matcher.last_query_stats)
    return outputs, stats


@pytest.fixture
def planted_db():
    generator = np.random.default_rng(11)
    pattern = np.cumsum(generator.normal(size=24))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted")
    first = np.concatenate([generator.uniform(30, 40, 8), pattern, generator.uniform(30, 40, 8)])
    second = np.concatenate([generator.uniform(-40, -30, 14), pattern, generator.uniform(-40, -30, 2)])
    db.add(Sequence.from_values(first, seq_id="with-pattern-1"))
    db.add(Sequence.from_values(second, seq_id="with-pattern-2"))
    db.add(Sequence.from_values(generator.uniform(80, 90, size=40), seq_id="background"))
    return db


@pytest.fixture
def pattern_query(planted_db):
    source = planted_db["with-pattern-1"]
    return Sequence(np.asarray(source.values[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("index_name", INDEX_NAMES)
    def test_loaded_matcher_is_byte_identical(
        self, planted_db, pattern_query, tmp_path, index_name
    ):
        config = MatcherConfig(min_length=12, max_shift=1, index=index_name)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(original, path)

        loaded = load_matcher(path)
        assert not loaded.index.is_stale
        assert loaded.config == original.config
        assert len(loaded.windows) == len(original.windows)
        assert len(loaded.distance_cache) == len(original.distance_cache)

        original_out, original_stats = run_all_query_types(original, pattern_query)
        loaded_out, loaded_stats = run_all_query_types(loaded, pattern_query)
        assert loaded_out == original_out
        for first, second, label in zip(
            original_stats, loaded_stats, ("type-I", "type-II", "type-III")
        ):
            assert_same_stats(first, second, context=f"{index_name}/{label}")

    @pytest.mark.parametrize("index_name", INDEX_NAMES)
    def test_interleaved_add_sequence_stays_identical(
        self, planted_db, pattern_query, tmp_path, index_name
    ):
        config = MatcherConfig(min_length=12, max_shift=1, index=index_name)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)

        new_values = np.cumsum(np.random.default_rng(23).normal(size=36))
        original.add_sequence(Sequence.from_values(new_values, seq_id="late"))
        loaded.add_sequence(Sequence.from_values(new_values, seq_id="late"))

        original_out, original_stats = run_all_query_types(original, pattern_query)
        loaded_out, loaded_stats = run_all_query_types(loaded, pattern_query)
        assert loaded_out == original_out
        for first, second in zip(original_stats, loaded_stats):
            assert_same_stats(first, second, context=index_name)

        # Re-snapshot the incrementally-updated matcher and load it again:
        # the update history (stats, staleness counters) must survive too.
        second_path = tmp_path / "matcher-2.npz"
        save_matcher(loaded, second_path)
        reloaded = load_matcher(second_path)
        assert reloaded.index.update_stats.inserts == loaded.index.update_stats.inserts
        reloaded_out, _ = run_all_query_types(reloaded, pattern_query)
        assert reloaded_out == loaded_out

    def test_snapshot_after_deleting_a_reference_window(
        self, planted_db, pattern_query, tmp_path
    ):
        """Regression: a deleted reference left stale election state behind,
        and exporting it crashed with a raw KeyError."""
        config = MatcherConfig(min_length=12, max_shift=1, index="reference-based")
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        matcher.range_search(pattern_query, 0.5)  # elect references
        reference_source = matcher.index._reference_keys[0][0]
        matcher.remove_sequence(reference_source)
        assert matcher.index.is_stale
        path = tmp_path / "stale.npz"
        save_matcher(matcher, path)
        loaded = load_matcher(path)
        assert loaded.index.is_stale  # staleness persisted faithfully
        assert repr(loaded.range_search(pattern_query, 0.5)) == repr(
            matcher.range_search(pattern_query, 0.5)
        )

    def test_string_database_snapshot(self, string_database, tmp_path):
        config = MatcherConfig(min_length=8, max_shift=1)
        original = SubsequenceMatcher(string_database, Levenshtein(), config)
        path = tmp_path / "strings.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)
        query = Sequence.from_string("ACDEFGHIKL", PROTEIN_ALPHABET)
        assert repr(loaded.longest_similar(query, 2.0)) == repr(
            original.longest_similar(query, 2.0)
        )
        assert_same_stats(original.last_query_stats, loaded.last_query_stats)

    def test_trajectory_database_snapshot(self, tmp_path):
        generator = np.random.default_rng(4)
        db = SequenceDatabase(SequenceKind.TRAJECTORY, name="trajs")
        pattern = np.cumsum(generator.normal(size=(30, 2)), axis=0)
        db.add(Sequence.from_points(pattern, seq_id="a"))
        db.add(Sequence.from_points(pattern[::-1] + 0.05, seq_id="b"))
        config = MatcherConfig(min_length=10, max_shift=1)
        original = SubsequenceMatcher(db, DiscreteFrechet(), config)
        path = tmp_path / "trajs.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)
        query = Sequence.from_points(pattern[5:25] + 0.01, seq_id="q")
        assert repr(loaded.range_search(query, 0.5)) == repr(
            original.range_search(query, 0.5)
        )
        assert_same_stats(original.last_query_stats, loaded.last_query_stats)


class TestSnapshotErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_matcher(tmp_path / "absent.npz")

    def test_plain_database_is_not_a_snapshot(self, planted_db, tmp_path):
        path = tmp_path / "db.npz"
        save_database(planted_db, path)
        with pytest.raises(StorageError, match="snapshot"):
            load_matcher(path)

    def test_distance_mismatch_rejected(self, planted_db, tmp_path):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        from repro import ERP

        with pytest.raises(StorageError, match="distance"):
            load_matcher(path, distance=ERP())

    def test_explicit_distance_accepted(self, planted_db, tmp_path):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        loaded = load_matcher(path, distance=DiscreteFrechet())
        assert loaded.distance.name == "frechet"

    def test_external_cache_is_seeded_not_owned(self, planted_db, tmp_path):
        from repro import DistanceCache

        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(matcher, path)
        external = DistanceCache()
        loaded = load_matcher(path, cache=external)
        assert loaded.distance_cache is external
        assert len(external) == len(matcher.distance_cache)
        # refresh() must not clear a cache the matcher does not own
        loaded.refresh()
        assert len(external) > 0


class TestOldCachePoolLayout:
    """Archives written before the cache was keyed by content keys pooled
    the operand *values*; they must keep loading, to the same cache."""

    @staticmethod
    def rewrite_with_value_pool(new_path, old_path, operands):
        """Re-save ``new_path`` with the cache pool in the old layout.

        ``operands`` maps every content key in the pool back to a sequence
        with that content (the old writer had the operands at hand).
        """
        with np.load(new_path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        pool = [operands[row.tobytes()] for row in arrays.pop("cache_pool_keys")]
        arrays["cache_pool_data"] = np.concatenate([s.values.reshape(-1) for s in pool])
        arrays["cache_pool_lengths"] = np.array([len(s) for s in pool], dtype=np.int64)
        arrays["cache_pool_dims"] = np.array(
            [s.values.shape[1] if s.values.ndim == 2 else 0 for s in pool], dtype=np.int64
        )
        np.savez_compressed(old_path, **arrays)

    @pytest.mark.parametrize("index_name", ["reference-net", "linear-scan"])
    def test_value_pool_archive_loads_to_the_same_cache(
        self, planted_db, pattern_query, tmp_path, index_name
    ):
        config = MatcherConfig(min_length=12, max_shift=1, index=index_name)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        run_all_query_types(original, pattern_query)  # warm: probe + verify entries
        new_path, old_path = tmp_path / "new.npz", tmp_path / "old.npz"
        save_matcher(original, new_path)
        # Every cached operand is a contiguous cut of the query or a database sequence.
        operands = {}
        for source in [pattern_query, *planted_db]:
            for start in range(len(source)):
                for stop in range(start + 1, len(source) + 1):
                    cut = source.subsequence(start, stop)
                    operands[cut.content_key] = cut
        self.rewrite_with_value_pool(new_path, old_path, operands)

        from_new, from_old = load_matcher(new_path), load_matcher(old_path)
        assert len(from_old.distance_cache) > 0
        assert list(from_old.distance_cache.iter_entries()) == list(
            original.distance_cache.iter_entries()
        )
        new_out, new_stats = run_all_query_types(from_new, pattern_query)
        old_out, old_stats = run_all_query_types(from_old, pattern_query)
        assert old_out == new_out
        for first, second in zip(new_stats, old_stats):
            assert_same_stats(first, second, context=index_name)
