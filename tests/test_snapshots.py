"""Matcher snapshots: save/load round-trips must be byte-identical.

The acceptance bar: a snapshot saved, reloaded, and incrementally updated
returns byte-identical query results -- all query types, all five index
classes -- to the matcher it was saved from, without ``refresh()`` on load.
"Byte-identical" here includes the :class:`~repro.core.queries.QueryStats`
work counters, which only holds because the snapshot persists the built
index structure *and* the distance-cache contents.
"""

import json

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    Levenshtein,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    PROTEIN_ALPHABET,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    StorageError,
    SubsequenceMatcher,
    TopKQuery,
    load_matcher,
    save_database,
    save_matcher,
)

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
    outputs.append(repr(matcher.execute(RangeQuery(radius=0.5).bind(query)).matches))
    stats.append(matcher.last_query_stats)
    outputs.append(repr(matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best))
    stats.append(matcher.last_query_stats)
    outputs.append(
        repr(matcher.execute(NearestSubsequenceQuery(max_radius=10.0).bind(query)).best)
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
    def test_loaded_matcher_is_byte_identical(
        self, planted_db, pattern_query, tmp_path, index_options
    ):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / "matcher.npz"
        save_matcher(original, path)

        loaded = load_matcher(path)
        assert loaded.config == original.config
        assert len(loaded.windows) == len(original.windows)
        assert len(loaded.distance_cache) == len(original.distance_cache)

        original_out, original_stats = run_all_query_types(original, pattern_query)
        loaded_out, loaded_stats = run_all_query_types(loaded, pattern_query)
        assert loaded_out == original_out
        for first, second, label in zip(
            original_stats, loaded_stats, ("type-I", "type-II", "type-III")
        ):
            assert_same_stats(first, second, context=f"{index_options}/{label}")

    def test_interleaved_add_sequence_stays_identical(
        self, planted_db, pattern_query, tmp_path, index_options
    ):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
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
            assert_same_stats(first, second, context=str(index_options))

        # Re-snapshot the incrementally-updated matcher and load it again:
        # the update history (the update counters) must survive too.
        second_path = tmp_path / "matcher-2.npz"
        save_matcher(loaded, second_path)
        reloaded = load_matcher(second_path)
        assert reloaded.index.update_stats.inserts == loaded.index.update_stats.inserts
        reloaded_out, _ = run_all_query_types(reloaded, pattern_query)
        assert reloaded_out == loaded_out

    def test_string_database_snapshot(self, string_database, tmp_path):
        config = MatcherConfig(min_length=8, max_shift=1)
        original = SubsequenceMatcher(string_database, Levenshtein(), config)
        path = tmp_path / "strings.npz"
        save_matcher(original, path)
        loaded = load_matcher(path)
        query = Sequence.from_string("ACDEFGHIKL", PROTEIN_ALPHABET)
        spec = LongestSubsequenceQuery(radius=2.0).bind(query)
        assert repr(loaded.execute(spec).best) == repr(original.execute(spec).best)
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
        spec = RangeQuery(radius=0.5).bind(query)
        assert repr(loaded.execute(spec).matches) == repr(original.execute(spec).matches)
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


class TestAtomicSnapshotWrite:
    """A write that fails part-way must leave the previous snapshot intact."""

    @staticmethod
    def _fail_on_second_array(monkeypatch):
        # The archive is open and its first member written when this raises.
        original = np.lib.format.write_array
        calls = []

        def write_array(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise OSError("disk full")
            return original(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", write_array)
        return calls

    @pytest.mark.parametrize("name", ["matcher.npz", "matcher"], ids=["suffix", "no-suffix"])
    def test_failed_write_keeps_the_previous_snapshot(
        self, planted_db, pattern_query, tmp_path, monkeypatch, name
    ):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        path = tmp_path / name
        save_matcher(matcher, path)
        expected, _stats = run_all_query_types(load_matcher(path), pattern_query)
        before = sorted(tmp_path.iterdir())

        calls = self._fail_on_second_array(monkeypatch)
        with pytest.raises(StorageError, match="disk full"):
            save_matcher(matcher, path)
        assert len(calls) == 2
        monkeypatch.undo()

        assert sorted(tmp_path.iterdir()) == before  # no temporary file left
        answers, _stats = run_all_query_types(load_matcher(path), pattern_query)
        assert answers == expected

    def test_failed_database_write_keeps_the_previous_file(
        self, planted_db, tmp_path, monkeypatch
    ):
        from repro import load_database

        path = tmp_path / "db.npz"
        save_database(planted_db, path)
        original = path.read_bytes()
        self._fail_on_second_array(monkeypatch)
        with pytest.raises(StorageError):
            save_database(planted_db, path)
        monkeypatch.undo()
        assert path.read_bytes() == original
        assert [entry.name for entry in tmp_path.iterdir()] == ["db.npz"]
        assert load_database(path).ids() == planted_db.ids()


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

    def test_value_pool_archive_loads_to_the_same_cache(
        self, planted_db, pattern_query, tmp_path, index_options
    ):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
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
            assert_same_stats(first, second, context=str(index_options))


class TestRetiredExecutionOptions:
    """Snapshots written when ``MatcherConfig`` still carried a payload
    transport, a replay-log format and a kernel tier keep loading."""

    @staticmethod
    def rewrite_config(path, **options):
        """Add ``options`` to every config block of the snapshot at ``path``."""
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        for block in [metadata, *metadata.get("shards", [])]:
            block["config"].update(options)
        arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("kernel", ["numpy", "auto", "cc", "pyloop"])
    def test_old_config_loads_and_answers_like_a_fresh_matcher(
        self, planted_db, pattern_query, tmp_path, kernel, shards
    ):
        config = MatcherConfig(min_length=12, max_shift=1, shards=shards)
        build = SubsequenceMatcher if shards == 1 else ShardedMatcher
        path = tmp_path / "old.npz"
        save_matcher(build(planted_db, DiscreteFrechet(), config), path)
        self.rewrite_config(path, transport="shared", log_format="object", kernel=kernel)

        loaded = load_matcher(path)
        fresh = build(planted_db, DiscreteFrechet(), config)
        assert loaded.config == config
        assert not hasattr(loaded.config, "transport") and not hasattr(loaded.config, "kernel")
        for spec in (
            RangeQuery(radius=0.5),
            LongestSubsequenceQuery(radius=0.5),
            NearestSubsequenceQuery(max_radius=10.0),
            TopKQuery(k=3, max_radius=10.0),
        ):
            got, want = loaded.execute(spec.bind(pattern_query)), fresh.execute(
                spec.bind(pattern_query)
            )
            assert got.matches and repr(got.matches) == repr(want.matches)
            assert_same_stats(got.stats, want.stats, context=spec.kind)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_a_segment_step_of_one_loads_and_any_other_is_refused(
        self, planted_db, tmp_path, shards
    ):
        config = MatcherConfig(min_length=12, max_shift=1, shards=shards)
        build = SubsequenceMatcher if shards == 1 else ShardedMatcher
        path = tmp_path / "old.npz"
        save_matcher(build(planted_db, DiscreteFrechet(), config), path)
        self.rewrite_config(path, query_segment_step=1)
        assert load_matcher(path).config == config
        self.rewrite_config(path, query_segment_step=3)
        with pytest.raises(StorageError, match="query_segment_step=3.*rebuild"):
            load_matcher(path)

    @pytest.mark.parametrize(
        "option",
        [
            {"transport": "pickle"},
            {"log_format": "columnar"},
            {"kernel": "numpy"},
            {"query_segment_step": 1},
        ],
    )
    def test_each_retired_option_is_a_type_error(self, option):
        # Only a snapshot's saved config is forgiven; a caller is told.
        with pytest.raises(TypeError):
            MatcherConfig(min_length=12, **option)

    @pytest.mark.parametrize("variable", ["REPRO_TRANSPORT", "REPRO_LOG_FORMAT"])
    def test_retired_environment_variables_are_ignored(
        self, planted_db, pattern_query, monkeypatch, variable
    ):
        config = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")
        want = SubsequenceMatcher(planted_db, DiscreteFrechet(), config).execute(
            RangeQuery(radius=0.5).bind(pattern_query)
        )
        monkeypatch.setenv(variable, "no-such-value")
        config = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")
        got = SubsequenceMatcher(planted_db, DiscreteFrechet(), config).execute(
            RangeQuery(radius=0.5).bind(pattern_query)
        )
        assert got.matches and repr(got.matches) == repr(want.matches)
        assert_same_stats(got.stats, want.stats, context=variable)


class TestRetiredIndexes:
    """Snapshots of the indexes earlier builds offered beside the net and
    the scan: their saved structure is unusable, so loading names the index
    and says what to rebuild with; their leftover config keys are harmless."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("index_name", ["cover-tree", "reference-based", "vp-tree"])
    def test_retired_index_snapshot_raises_storage_error(
        self, planted_db, tmp_path, index_name, shards
    ):
        config = MatcherConfig(min_length=12, max_shift=1, shards=shards)
        build = SubsequenceMatcher if shards == 1 else ShardedMatcher
        path = tmp_path / "retired.npz"
        save_matcher(build(planted_db, DiscreteFrechet(), config), path)
        TestRetiredExecutionOptions.rewrite_config(path, index=index_name, num_references=5)
        with pytest.raises(StorageError, match=f"'{index_name}'") as error:
            load_matcher(path)
        assert "reference-net" in str(error.value) and "linear-scan" in str(error.value)

    def test_config_with_num_references_loads(
        self, planted_db, pattern_query, tmp_path, index_options
    ):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        original = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        original.add_sequence(Sequence.from_values(np.arange(30.0), seq_id="late"))
        path = tmp_path / "old.npz"
        save_matcher(original, path)
        # An older build also wrote a pending-update count into the index's
        # update counters.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        metadata = json.loads(bytes(arrays["metadata"]).decode("utf-8"))
        metadata["config"]["num_references"] = 7
        metadata["index"]["structure"]["update_stats"]["pending_updates"] = 1
        arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

        loaded = load_matcher(path)
        assert loaded.config == config
        assert loaded.index.update_stats.inserts == original.index.update_stats.inserts
        got, want = run_all_query_types(loaded, pattern_query), run_all_query_types(
            original, pattern_query
        )
        assert got[0] == want[0]
        for first, second in zip(got[1], want[1]):
            assert_same_stats(first, second, context=str(index_options))
