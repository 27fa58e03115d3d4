"""Tests for repro.sequences.database."""

import pytest

from repro import Sequence, SequenceDatabase, SequenceError, SequenceKind


@pytest.fixture
def db():
    database = SequenceDatabase(SequenceKind.TIME_SERIES, name="db")
    database.add(Sequence.from_values(range(10), seq_id="a"))
    database.add(Sequence.from_values(range(25), seq_id="b"))
    return database


class TestAddAndRemove:
    def test_add_returns_id(self, db):
        key = db.add(Sequence.from_values(range(5), seq_id="c"))
        assert key == "c"
        assert "c" in db

    def test_add_generates_id_when_missing(self):
        database = SequenceDatabase(SequenceKind.TIME_SERIES, name="anon")
        key = database.add(Sequence.from_values([1.0, 2.0]))
        assert key.startswith("anon-")
        assert database[key].seq_id == key

    def test_generated_id_skips_live_ids_after_a_delete(self):
        database = SequenceDatabase(SequenceKind.TIME_SERIES, name="anon")
        keys = [database.add(Sequence.from_values([float(i)])) for i in range(3)]
        assert keys == ["anon-0", "anon-1", "anon-2"]
        database.remove("anon-0")
        # Two sequences are live, and "anon-2" is one of them.
        assert database.add(Sequence.from_values([3.0])) == "anon-3"
        assert database.add(Sequence.from_values([4.0])) == "anon-4"
        assert database.ids() == ["anon-1", "anon-2", "anon-3", "anon-4"]

    def test_add_with_explicit_id_overrides(self, db):
        db.add(Sequence.from_values([1.0]), seq_id="explicit")
        assert db["explicit"].seq_id == "explicit"

    def test_duplicate_id_rejected(self, db):
        with pytest.raises(SequenceError):
            db.add(Sequence.from_values([1.0]), seq_id="a")

    def test_kind_mismatch_rejected(self, db):
        from repro import DNA_ALPHABET

        with pytest.raises(SequenceError):
            db.add(Sequence.from_string("ACGT", DNA_ALPHABET))

    def test_add_all(self):
        database = SequenceDatabase(SequenceKind.TIME_SERIES)
        keys = database.add_all(
            [Sequence.from_values([1.0], seq_id="x"), Sequence.from_values([2.0], seq_id="y")]
        )
        assert keys == ["x", "y"]

    def test_remove(self, db):
        removed = db.remove("a")
        assert removed.seq_id == "a"
        assert "a" not in db
        assert len(db) == 1

    def test_remove_missing_raises(self, db):
        with pytest.raises(SequenceError):
            db.remove("nope")


class TestAccess:
    def test_len_and_contains(self, db):
        assert len(db) == 2
        assert "a" in db and "zzz" not in db

    def test_getitem(self, db):
        assert len(db["b"]) == 25

    def test_getitem_missing(self, db):
        with pytest.raises(SequenceError):
            db["missing"]

    def test_get_with_default(self, db):
        assert db.get("missing") is None
        assert db.get("a") is not None

    def test_ids_in_insertion_order(self, db):
        assert db.ids() == ["a", "b"]

    def test_iteration(self, db):
        assert [sequence.seq_id for sequence in db] == ["a", "b"]

    def test_total_length(self, db):
        assert db.total_length == 35

    def test_repr(self, db):
        text = repr(db)
        assert "db" in text and "2" in text


class TestWindowView:
    def test_windows(self, db):
        windows = db.windows(5)
        assert len(windows) == 2 + 5
        sources = {window.source_id for window in windows}
        assert sources == {"a", "b"}

    def test_window_count_matches_windows(self, db):
        assert db.window_count(5) == len(db.windows(5))

    def test_window_count_short_sequences(self):
        database = SequenceDatabase(SequenceKind.TIME_SERIES)
        database.add(Sequence.from_values([1.0, 2.0], seq_id="tiny"))
        assert database.window_count(5) == 0
        assert database.windows(5) == []
