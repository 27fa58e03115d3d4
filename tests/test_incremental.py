"""Incremental updates: index insert/delete and matcher add/remove_sequence.

The contract under test is the incremental-vs-rebuild equivalence: any
interleaving of inserts and deletes followed by queries must return exactly
what a matcher freshly built (``refresh()``) over the final database would
return, for both index classes.
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
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
)
from repro.indexing import LinearScanIndex, ReferenceNet

INDEX_NAMES = ["reference-net", "linear-scan"]

INDEX_FACTORIES = {
    "linear-scan": lambda d: LinearScanIndex(d),
    "linear-scan+prefilter": lambda d: LinearScanIndex(d, prefilter=True),
    "reference-net": lambda d: ReferenceNet(d),
    "reference-net-nummax2": lambda d: ReferenceNet(d, nummax=2),
}


def make_items(count, seed=0, length=8):
    generator = np.random.default_rng(seed)
    return [
        Sequence.from_values(np.cumsum(generator.normal(size=length)), seq_id=f"i{seed}-{n}")
        for n in range(count)
    ]


def result_keys(matches):
    return sorted(match.key for match in matches)


def match_identity(match):
    if match is None:
        return None
    return (
        match.distance,
        match.source_id,
        match.query_start,
        match.query_stop,
        match.db_start,
        match.db_stop,
    )


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


class TestIndexInsertDelete:
    """Index-level: insert/delete vs a fresh linear-scan oracle."""

    @pytest.mark.parametrize("index_name", INDEX_FACTORIES)
    def test_interleaved_updates_match_oracle(self, index_name):
        distance = DiscreteFrechet()
        index = INDEX_FACTORIES[index_name](distance)
        initial = make_items(30, seed=0)
        for position, item in enumerate(initial):
            index.add(item, key=("init", position))

        extra = make_items(12, seed=1)
        for position, item in enumerate(extra):
            index.insert(item, key=("extra", position))
        for key in [("init", 3), ("extra", 5), ("init", 17), ("init", 0)]:
            index.delete(key)

        oracle = LinearScanIndex(distance)
        for key, item in index.items():
            oracle.add(item, key=key)

        query = make_items(1, seed=2)[0]
        for radius in (0.5, 2.0, 6.0):
            assert result_keys(index.range_query(query, radius)) == result_keys(
                oracle.range_query(query, radius)
            )

    @pytest.mark.parametrize("index_name", INDEX_FACTORIES)
    def test_update_stats_recorded(self, index_name):
        index = INDEX_FACTORIES[index_name](DiscreteFrechet())
        for position, item in enumerate(make_items(10, seed=3)):
            index.add(item, key=position)
        index.insert(make_items(1, seed=4)[0], key="new")
        index.delete(5)
        assert index.update_stats.inserts == 1
        assert index.update_stats.deletes == 1

    def test_root_delete_records_one_rebuild(self):
        index = ReferenceNet(DiscreteFrechet())
        items = make_items(10, seed=16)
        for position, item in enumerate(items):
            index.add(item, key=position)
        index.delete(index.root_key)
        assert index.update_stats.deletes == 1
        assert index.update_stats.rebuilds == 1
        assert index.update_stats.last_rebuild_reason == "root deletion"

    @pytest.mark.parametrize("index_name", INDEX_FACTORIES)
    def test_insert_rejects_duplicate_key(self, index_name):
        index = INDEX_FACTORIES[index_name](DiscreteFrechet())
        index.add(make_items(1, seed=14)[0], key="k")
        from repro.exceptions import IndexError_

        with pytest.raises(IndexError_):
            index.insert(make_items(1, seed=15)[0], key="k")


class TestMatcherIncrementalUpdates:
    """Matcher-level: add_sequence / remove_sequence vs a fresh rebuild."""

    def test_add_sequence_equals_rebuild(self, planted_db, pattern_query, index_options):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        generator = np.random.default_rng(21)
        matcher.add_sequence(
            Sequence.from_values(np.cumsum(generator.normal(size=36)), seq_id="late-1")
        )
        matcher.add_sequence(
            Sequence.from_values(generator.uniform(-5, 5, size=30), seq_id="late-2")
        )
        assert len(matcher.windows) == planted_db.window_count(config.window_length)
        matcher.check_incremental_invariants([pattern_query], 0.5)
        matcher.check_incremental_invariants(
            [pattern_query], LongestSubsequenceQuery(radius=0.5)
        )
        matcher.check_incremental_invariants(
            [pattern_query], NearestSubsequenceQuery(max_radius=10.0)
        )

    def test_remove_sequence_equals_rebuild(self, planted_db, pattern_query, index_options):
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        removed = matcher.remove_sequence("with-pattern-2")
        assert removed.seq_id == "with-pattern-2"
        assert "with-pattern-2" not in matcher.database
        assert all(window.source_id != "with-pattern-2" for window in matcher.windows)
        matcher.check_incremental_invariants([pattern_query], 0.5)
        matcher.check_incremental_invariants(
            [pattern_query], LongestSubsequenceQuery(radius=0.5)
        )

    def test_add_sequence_windows_visible_immediately(self, planted_db, config=None):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        before = len(matcher.windows)
        pattern = np.asarray(planted_db["with-pattern-1"].values[8:32])
        matcher.add_sequence(Sequence.from_values(pattern, seq_id="clone"))
        assert len(matcher.windows) > before
        assert len(matcher.index) == len(matcher.windows)
        query = Sequence(pattern + 0.01, SequenceKind.TIME_SERIES, "q")
        results = matcher.execute(RangeQuery(radius=0.5).bind(query)).matches
        assert any(match.source_id == "clone" for match in results)

    def test_naive_count_tracks_live_window_count(self, planted_db, pattern_query):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        matcher.segment_matches(pattern_query, 0.5)
        before = matcher.last_query_stats.naive_distance_computations
        matcher.add_sequence(
            Sequence.from_values(np.full(24, 200.0), seq_id="padding")
        )
        matcher.segment_matches(pattern_query, 0.5)
        after = matcher.last_query_stats.naive_distance_computations
        assert after == before + matcher.last_query_stats.segments_extracted * 4

    def test_remove_then_readd_roundtrips(self, planted_db, pattern_query):
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(planted_db, DiscreteFrechet(), config)
        spec = RangeQuery(radius=0.5).bind(pattern_query)
        reference = [match_identity(m) for m in matcher.execute(spec).matches]
        sequence = matcher.remove_sequence("with-pattern-1")
        matcher.add_sequence(sequence)
        # The re-added sequence lands at the end of the database, exactly
        # where a fresh build would put it, so results must still agree
        # with a rebuild (content identical, order canonical).
        matcher.check_incremental_invariants([pattern_query], 0.5)
        roundtrip = [match_identity(m) for m in matcher.execute(spec).matches]
        assert sorted(roundtrip) == sorted(reference)


@st.composite
def update_script(draw):
    """A list of (op, payload) updates over a pool of small sequences."""
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 7)),
            min_size=1,
            max_size=8,
        )
    )
    return ops


class TestIncrementalProperty:
    @settings(max_examples=12, deadline=None)
    @given(script=update_script(), index_name=st.sampled_from(INDEX_NAMES))
    def test_any_interleaving_equals_rebuild(self, script, index_name):
        generator = np.random.default_rng(99)
        db = SequenceDatabase(SequenceKind.TIME_SERIES, name="prop")
        for n in range(3):
            db.add(
                Sequence.from_values(
                    np.cumsum(generator.normal(size=30)), seq_id=f"base-{n}"
                )
            )
        config = MatcherConfig(min_length=10, max_shift=1, index=index_name)
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)

        pool = np.random.default_rng(7)
        added = 0
        for op, argument in script:
            if op == "add":
                matcher.add_sequence(
                    Sequence.from_values(
                        np.cumsum(pool.normal(size=20 + argument)),
                        seq_id=f"dyn-{added}",
                    )
                )
                added += 1
            else:
                ids = matcher.database.ids()
                if len(ids) <= 1:
                    continue
                matcher.remove_sequence(ids[argument % len(ids)])

        query = Sequence.from_values(np.cumsum(np.random.default_rng(5).normal(size=18)))
        matcher.check_incremental_invariants([query], 2.0)
        matcher.check_incremental_invariants(
            [query], LongestSubsequenceQuery(radius=2.0)
        )
