"""Tests for persistence of databases, windows and matcher snapshots."""

import re
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro import (
    DNA_ALPHABET,
    DiscreteFrechet,
    MatcherConfig,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    StorageError,
    SubsequenceMatcher,
)
from repro.storage import (
    load_database,
    load_matcher,
    load_windows,
    save_database,
    save_matcher,
    save_windows,
)


@pytest.fixture
def string_db():
    db = SequenceDatabase(SequenceKind.STRING, name="strings")
    db.add(Sequence.from_string("ACGTACGT", DNA_ALPHABET, seq_id="a"))
    db.add(Sequence.from_string("TTTTCCCC", DNA_ALPHABET, seq_id="b"))
    return db


@pytest.fixture
def trajectory_db(rng):
    db = SequenceDatabase(SequenceKind.TRAJECTORY, name="trajs")
    for index in range(3):
        db.add(Sequence.from_points(rng.normal(size=(15, 2)), seq_id=f"t{index}"))
    return db


class TestDatabaseRoundtrip:
    def test_string_database(self, string_db, tmp_path):
        path = tmp_path / "strings.npz"
        save_database(string_db, path)
        loaded = load_database(path)
        assert loaded.name == "strings"
        assert loaded.kind is SequenceKind.STRING
        assert loaded.ids() == ["a", "b"]
        assert loaded["a"].to_string() == "ACGTACGT"
        assert loaded["a"].alphabet == DNA_ALPHABET

    def test_trajectory_database(self, trajectory_db, tmp_path):
        path = tmp_path / "trajs.npz"
        save_database(trajectory_db, path)
        loaded = load_database(path)
        assert loaded.kind is SequenceKind.TRAJECTORY
        for seq_id in trajectory_db.ids():
            assert np.allclose(loaded[seq_id].values, trajectory_db[seq_id].values)

    def test_time_series_database(self, tmp_path):
        db = SequenceDatabase(SequenceKind.TIME_SERIES, name="series")
        db.add(Sequence.from_values([1.5, 2.5, 3.5], seq_id="x"))
        path = tmp_path / "series.npz"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded["x"].to_list() == [1.5, 2.5, 3.5]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(tmp_path / "absent.npz")

    def test_save_path_without_suffix(self, string_db, tmp_path):
        path = tmp_path / "noext"
        save_database(string_db, path)
        loaded = load_database(path)
        assert len(loaded) == 2


class TestWindowRoundtrip:
    def test_roundtrip_preserves_provenance(self, string_db, tmp_path):
        windows = string_db.windows(4)
        path = tmp_path / "windows.npz"
        save_windows(windows, path)
        loaded = load_windows(path)
        assert len(loaded) == len(windows)
        for original, restored in zip(windows, loaded):
            assert restored.source_id == original.source_id
            assert restored.start == original.start
            assert restored.ordinal == original.ordinal
            assert np.array_equal(restored.sequence.values, original.sequence.values)

    def test_roundtrip_time_series_windows(self, tmp_path):
        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        db.add(Sequence.from_values(np.arange(20.0), seq_id="x"))
        windows = db.windows(5)
        path = tmp_path / "tswin.npz"
        save_windows(windows, path)
        loaded = load_windows(path)
        assert [window.key for window in loaded] == [window.key for window in windows]

    def test_load_missing_windows(self, tmp_path):
        with pytest.raises(StorageError):
            load_windows(tmp_path / "absent.npz")

    def test_empty_window_list(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_windows([], path)
        assert load_windows(path) == []


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _empty(path):
    path.write_bytes(b"")


def _flip_member_data(path):
    """Flip a byte in the middle of the largest member's compressed data."""
    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda entry: entry.compress_size)
    raw = path.read_bytes()
    # Local file header: 30 fixed bytes, then the name and the extra field.
    name_length, extra_length = struct.unpack(
        "<HH", raw[info.header_offset + 26 : info.header_offset + 30]
    )
    data_start = info.header_offset + 30 + name_length + extra_length
    _flip(path, data_start + info.compress_size // 2)


def _flip_central_directory(path):
    """Flip a byte of the metadata member's name in the central directory."""
    with zipfile.ZipFile(path) as archive:
        start = archive.start_dir
    raw = path.read_bytes()
    _flip(path, raw.index(b"metadata.npy", start))


DAMAGE = {
    "truncated": _truncate,
    "empty": _empty,
    "member-data": _flip_member_data,
    "central-directory": _flip_central_directory,
}


def _save_database(tmp_path, database):
    path = tmp_path / "db.npz"
    save_database(database, path)
    return path, load_database


def _save_windows(tmp_path, database):
    path = tmp_path / "windows.npz"
    save_windows(database.windows(5), path)
    return path, load_windows


def _save_matcher(tmp_path, database):
    path = tmp_path / "matcher.npz"
    matcher = SubsequenceMatcher(database, DiscreteFrechet(), MatcherConfig(min_length=10))
    save_matcher(matcher, path)
    return path, load_matcher


class TestDamagedArchives:
    """A damaged file raises ``StorageError`` naming it -- never the zip, zlib or
    NumPy error underneath (that stays attached as the cause)."""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("save", [_save_database, _save_windows, _save_matcher])
    def test_damaged_archive_raises_storage_error(self, trajectory_db, tmp_path, save, damage):
        path, load = save(tmp_path, trajectory_db)
        load(path)  # intact, it loads
        DAMAGE[damage](path)
        with pytest.raises(StorageError, match=re.escape(str(path))) as raised:
            load(path)
        assert isinstance(
            raised.value.__cause__,
            (zipfile.BadZipFile, EOFError, zlib.error, KeyError, ValueError, OSError),
        )

    def test_a_missing_file_keeps_its_message(self, tmp_path):
        with pytest.raises(StorageError, match="no matcher snapshot at"):
            load_matcher(tmp_path / "absent.npz")
