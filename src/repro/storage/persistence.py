"""Saving and loading sequence databases, windows, and matcher snapshots.

The on-disk format is a single ``.npz`` archive (numpy's zipped container)
plus a JSON metadata blob stored inside it.  Two tiers exist:

* :func:`save_database` / :func:`save_windows` persist raw data only --
  cheap, stable, and sufficient when rebuilding the index on load is
  acceptable;
* :func:`save_matcher` / :func:`load_matcher` additionally persist the
  *built* index state -- the reference net's topology and link distances,
  the update counters, and the distance-cache contents -- so
  a loaded :class:`~repro.core.matcher.SubsequenceMatcher` answers queries
  immediately, with zero rebuild work and byte-identical results (including
  the :class:`~repro.core.queries.QueryStats` work counters) to the matcher
  that was saved.

Snapshots are versioned independently of the raw-data format
(``snapshot_version``); loading a snapshot written by an incompatible
version raises :class:`~repro.exceptions.StorageError` instead of
misinterpreting it.  Every archive is written to a temporary file beside
its destination and moved into place with ``os.replace``, so a write that
fails part-way leaves the previous file intact.  A damaged file -- empty,
truncated, or with a flipped byte, which the zip container's CRC-32 and
structure checks catch -- raises :class:`~repro.exceptions.StorageError`
naming it, never a zip, zlib or NumPy error.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.exceptions import StorageError
from repro.sequences.alphabet import Alphabet
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import CONTENT_KEY_BYTES, Sequence, SequenceKind
from repro.sequences.windows import Window

_FORMAT_VERSION = 1

#: Version of the matcher-snapshot layout (database + config + distance +
#: index structure + cache pool).  Bump on any incompatible change.
_SNAPSHOT_VERSION = 1

#: Version of the *sharded* matcher-snapshot layout: a ``shards`` manifest
#: plus one version-1 single-matcher payload per shard under an ``s{i}_``
#: array prefix.  Plain matcher snapshots keep writing version 1, so older
#: readers stay compatible with everything but sharded snapshots.
_SHARDED_SNAPSHOT_VERSION = 2

PathLike = Union[str, Path]


def _write_npz(path: Path, arrays: dict, what: str) -> None:
    """``np.savez_compressed(path, **arrays)``, replacing the target atomically.

    The archive goes to a temporary file in the destination directory and is
    moved over the target with ``os.replace``: a write that fails part-way --
    a full disk, a kill during ``repro serve``'s snapshot-on-exit, which
    writes over the file the server loaded -- leaves the previous file as it
    was, and the temporary file is removed.  ``np.savez``'s suffix rule is
    kept: ``.npz`` is appended to a path that does not end with it.
    """
    target = path if str(path).endswith(".npz") else Path(f"{path}.npz")
    temporary = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        try:
            with open(temporary, "xb") as handle:
                np.savez_compressed(handle, **arrays)
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as error:
        raise StorageError(f"could not write {what} to {path}: {error}") from error


#: What reading a damaged archive raises from inside ``np.load`` and its
#: lazy member reads: a bad zip structure or CRC-32 (``BadZipFile``), a file
#: that ends early (``EOFError``), a corrupt deflate stream (``zlib.error``),
#: a member name the central directory no longer lists (``KeyError``), and
#: garbled bytes where NumPy, JSON or UTF-8 expected structure
#: (``ValueError``, ``OSError``).
_DAMAGED = (zipfile.BadZipFile, EOFError, zlib.error, KeyError, ValueError, OSError)


@contextmanager
def _read_npz(path: Path, what: str) -> Iterator[np.lib.npyio.NpzFile]:
    """``np.load(path)`` for the span of a load, failures as :class:`StorageError`.

    Member reads are lazy, so the whole load runs inside the block; the
    :class:`StorageError` a load raises on purpose is none of
    :data:`_DAMAGED` and passes through.
    """
    try:
        with np.load(_with_suffix(path), allow_pickle=False) as archive:
            yield archive
    except FileNotFoundError as error:
        raise StorageError(f"no {what} at {path}") from error
    except _DAMAGED as error:
        raise StorageError(f"{what} {path} is damaged or unreadable: {error!r}") from error


def _database_arrays(database: SequenceDatabase, prefix: str = "seq") -> Tuple[dict, dict]:
    """Split ``database`` into npz arrays (``{prefix}_{i}``) and JSON metadata."""
    arrays = {}
    entries = []
    for position, sequence in enumerate(database):
        arrays[f"{prefix}_{position}"] = np.asarray(sequence.values)
        entry = {
            "seq_id": sequence.seq_id,
            "kind": sequence.kind.value,
            "alphabet": list(sequence.alphabet.symbols) if sequence.alphabet else None,
            "alphabet_name": sequence.alphabet.name if sequence.alphabet else None,
        }
        entries.append(entry)
    metadata = {
        "name": database.name,
        "kind": database.kind.value,
        "entries": entries,
    }
    return arrays, metadata


def _database_from(archive, metadata: dict, prefix: str = "seq") -> SequenceDatabase:
    """Inverse of :func:`_database_arrays`."""
    kind = SequenceKind(metadata["kind"])
    database = SequenceDatabase(kind, name=metadata["name"])
    for position, entry in enumerate(metadata["entries"]):
        values = archive[f"{prefix}_{position}"]
        alphabet = None
        if entry["alphabet"] is not None:
            alphabet = Alphabet(entry["alphabet"], name=entry["alphabet_name"] or "alphabet")
        database.add(Sequence(values, kind, entry["seq_id"], alphabet))
    return database


def save_database(database: SequenceDatabase, path: PathLike) -> None:
    """Persist ``database`` (sequences, ids, kind, alphabet) to ``path``."""
    path = Path(path)
    arrays, metadata = _database_arrays(database)
    metadata["format_version"] = _FORMAT_VERSION
    arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    _write_npz(path, arrays, "database")


def load_database(path: PathLike) -> SequenceDatabase:
    """Load a database previously written by :func:`save_database`."""
    path = Path(path)
    with _read_npz(path, "database file") as archive:
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        if metadata.get("format_version") != _FORMAT_VERSION:
            raise StorageError(
                f"unsupported database format version {metadata.get('format_version')}"
            )
        return _database_from(archive, metadata)


def save_windows(windows: List[Window], path: PathLike) -> None:
    """Persist a window collection (values + provenance) to ``path``."""
    path = Path(path)
    arrays = {}
    entries = []
    for position, window in enumerate(windows):
        arrays[f"win_{position}"] = np.asarray(window.sequence.values)
        entries.append(
            {
                "source_id": window.source_id,
                "start": window.start,
                "ordinal": window.ordinal,
                "kind": window.sequence.kind.value,
                "alphabet": (
                    list(window.sequence.alphabet.symbols) if window.sequence.alphabet else None
                ),
            }
        )
    metadata = {"format_version": _FORMAT_VERSION, "entries": entries}
    arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    _write_npz(path, arrays, "windows")


def load_windows(path: PathLike) -> List[Window]:
    """Load windows previously written by :func:`save_windows`."""
    path = Path(path)
    with _read_npz(path, "window file") as archive:
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        if metadata.get("format_version") != _FORMAT_VERSION:
            raise StorageError(
                f"unsupported window format version {metadata.get('format_version')}"
            )
        windows: List[Window] = []
        for position, entry in enumerate(metadata["entries"]):
            values = archive[f"win_{position}"]
            kind = SequenceKind(entry["kind"])
            alphabet = Alphabet(entry["alphabet"]) if entry["alphabet"] else None
            sequence = Sequence(values, kind, entry["source_id"], alphabet)
            windows.append(
                Window(
                    sequence=sequence,
                    source_id=entry["source_id"],
                    start=entry["start"],
                    ordinal=entry["ordinal"],
                )
            )
        return windows


def _with_suffix(path: Path) -> Path:
    """``np.savez`` appends ``.npz`` when missing; mirror that on load."""
    if path.suffix == ".npz" or path.exists():
        return path
    candidate = path.with_suffix(path.suffix + ".npz")
    return candidate if candidate.exists() else path


# --------------------------------------------------------------------- #
# Matcher snapshots: database + config + built index + distance cache
# --------------------------------------------------------------------- #
def _export_cache(cache, prefix: str = "") -> Tuple[dict, dict]:
    """Serialize the distance-cache contents into compact npz arrays.

    The cache is keyed by fixed-size content keys, and the same windows and
    segments recur in entry after entry, so the keys are deduplicated into
    a *pool* -- one ``(pool, key bytes)`` array, no operand values -- and
    the entries become three parallel arrays of pool positions, values, and
    exact flags, in insertion order, which preserves the eviction order of
    a bounded cache.
    """
    pool: Dict[bytes, int] = {}
    firsts: List[int] = []
    seconds: List[int] = []
    values: List[float] = []
    exacts: List[bool] = []
    for first, second, value, exact in cache.iter_entries():
        firsts.append(pool.setdefault(first, len(pool)))
        seconds.append(pool.setdefault(second, len(pool)))
        values.append(value)
        exacts.append(exact)
    keys = np.frombuffer(b"".join(pool), dtype=np.uint8).reshape(len(pool), CONTENT_KEY_BYTES)
    arrays = {
        f"{prefix}cache_pool_keys": keys,
        f"{prefix}cache_entry_first": np.array(firsts, dtype=np.int64),
        f"{prefix}cache_entry_second": np.array(seconds, dtype=np.int64),
        f"{prefix}cache_entry_values": np.array(values, dtype=np.float64),
        f"{prefix}cache_entry_exact": np.array(exacts, dtype=np.uint8),
    }
    meta = {"entries": len(firsts), "pool": len(pool)}
    return arrays, meta


def _restore_cache(archive, kind: SequenceKind, cache, prefix: str = "") -> None:
    """Seed ``cache`` with the entries exported by :func:`_export_cache`.

    Archives written before the cache was keyed by content keys pool the
    operand *values* (flat data plus per-sequence length/dim) instead; their
    keys are recomputed from the operands, so they load to the same cache.
    """
    if f"{prefix}cache_pool_keys" in archive:
        pool = [row.tobytes() for row in archive[f"{prefix}cache_pool_keys"]]
    else:
        data = archive[f"{prefix}cache_pool_data"]
        lengths = archive[f"{prefix}cache_pool_lengths"]
        dims = archive[f"{prefix}cache_pool_dims"]
        pool = []
        offset = 0
        for length, dim in zip(lengths.tolist(), dims.tolist()):
            span = length * dim if dim else length
            values = data[offset : offset + span]
            offset += span
            if dim:
                values = values.reshape(length, dim)
            pool.append(Sequence(values, kind).content_key)
    firsts = archive[f"{prefix}cache_entry_first"].tolist()
    seconds = archive[f"{prefix}cache_entry_second"].tolist()
    values = archive[f"{prefix}cache_entry_values"].tolist()
    exacts = archive[f"{prefix}cache_entry_exact"].tolist()
    cache.seed_entries(
        (pool[first], pool[second], value, exact)
        for first, second, value, exact in zip(firsts, seconds, values, exacts)
    )


def _matcher_payload(matcher, prefix: str = "") -> Tuple[dict, dict]:
    """One matcher's snapshot as ``(arrays, metadata)`` under ``prefix``.

    Shared by the plain and sharded writers: a sharded snapshot is N of
    these payloads under ``s{i}_`` prefixes plus a manifest.
    """
    database = matcher.database
    arrays, db_meta = _database_arrays(database, prefix=f"{prefix}db_seq")
    cache_arrays, cache_meta = _export_cache(matcher.distance_cache, prefix=prefix)
    arrays.update(cache_arrays)
    metadata = {
        "database": db_meta,
        "config": asdict(matcher.config),
        "distance": matcher.distance.name,
        "window_keys": [list(window.key) for window in matcher.windows],
        "index": {
            "name": matcher.index.index_name,
            "structure": matcher.index.export_structure(),
        },
        "cache": cache_meta,
    }
    return arrays, metadata


def _config_from(saved: dict):
    """The :class:`~repro.core.config.MatcherConfig` a snapshot was saved with.

    Snapshots of older builds may carry options that no longer exist (how
    the process pool shipped its payloads, the replay-log encoding, the
    reference count of a retired index, the kernel tier, a query segment
    step of 1).  None of them changes answers, so they are dropped: every
    snapshot loads into the matcher it described, minus the retired knobs.
    A snapshot of an index this build no longer offers cannot: its saved
    structure is that index's.  Nor can one that skipped query segments
    (a step above 1): this build probes every segment and would answer it
    differently.  Both raise :class:`~repro.exceptions.StorageError` and
    must be rebuilt.
    """
    from repro.core.config import MatcherConfig

    index = saved.get("index", "reference-net")
    if index not in MatcherConfig._KNOWN_INDEXES:
        raise StorageError(
            f"snapshot was built with the {index!r} index, which this build no "
            "longer offers; rebuild it with index 'reference-net' or 'linear-scan'"
        )
    step = saved.get("query_segment_step", 1)
    if step != 1:
        raise StorageError(
            f"snapshot was built with query_segment_step={step}, which this build "
            "no longer offers (it probes every query segment); rebuild it"
        )
    known = {field.name for field in fields(MatcherConfig)}
    saved = {key: value for key, value in saved.items() if key in known}
    return MatcherConfig(**saved)


def _matcher_from_payload(archive, metadata: dict, prefix: str, distance, cache):
    """Restore one matcher from a payload written by :func:`_matcher_payload`."""
    # Imported here: the core layer must stay importable without storage.
    from repro.core.matcher import SubsequenceMatcher, build_index
    from repro.core.segmentation import partition_database
    from repro.distances.cache import DistanceCache
    from repro.distances.registry import get_distance

    database = _database_from(archive, metadata["database"], prefix=f"{prefix}db_seq")
    config = _config_from(metadata["config"])
    saved_name = metadata["distance"]
    if distance is None:
        distance = get_distance(saved_name)
    elif distance.name != saved_name:
        raise StorageError(
            f"snapshot was built with distance {saved_name!r} but "
            f"{distance.name!r} was supplied"
        )
    windows = partition_database(database, config)
    saved_keys = [tuple(key) for key in metadata["window_keys"]]
    if [window.key for window in windows] != saved_keys:
        raise StorageError(
            "snapshot is internally inconsistent: the persisted window "
            "keys do not match the windows derived from the persisted "
            "database"
        )
    target_cache = (
        cache if cache is not None else DistanceCache(max_entries=config.cache_max_entries)
    )
    _restore_cache(archive, database.kind, target_cache, prefix=prefix)
    index = build_index(config, distance, target_cache)
    structure = metadata["index"]["structure"]
    structure["keys"] = [tuple(key) for key in structure["keys"]]
    payloads = {window.key: window.sequence for window in windows}
    index.restore_structure(structure, payloads)
    matcher = SubsequenceMatcher._restore(
        database, distance, config, target_cache, windows, index
    )
    matcher._owns_cache = cache is None
    return matcher


def save_matcher(matcher, path: PathLike) -> None:
    """Persist a versioned snapshot of a built matcher to ``path``.

    The snapshot contains everything the matcher's offline steps produced:
    the database itself, the :class:`~repro.core.config.MatcherConfig`, the
    distance *name* (the distance object is reconstructed through the
    registry on load -- pass an explicitly configured instance to
    :func:`load_matcher` for non-default parameters), the built index
    structure as exported by
    :meth:`~repro.indexing.base.MetricIndex.export_structure` (the net's
    topology and exact link distances, the update counters), and
    the distance-cache contents.  :func:`load_matcher` therefore answers
    queries immediately, with the same results *and the same work counters*
    as the matcher that was saved -- no ``refresh()``, no re-measured pairs.
    Execution layouts derived from that structure (the packed window
    tensors of the scan and the net, the net's flat layout) are not
    persisted: each index rebuilds its own from the links alone -- in
    :meth:`~repro.indexing.base.MetricIndex.restore_structure`, or on the
    first probe after it -- so the snapshot layout is unchanged by them.

    A :class:`~repro.core.sharded.ShardedMatcher` round-trips too: its
    snapshot (layout version 2) carries one single-matcher payload per
    shard plus the shard assignment and round-robin cursor, so a loaded
    sharded matcher keeps answering queries -- and routing future
    :meth:`~repro.core.sharded.ShardedMatcher.add_sequence` calls -- exactly
    like the one that was saved.
    """
    from repro.core.sharded import ShardedMatcher

    path = Path(path)
    if isinstance(matcher, ShardedMatcher):
        arrays: dict = {}
        shard_payloads = []
        for position, shard in enumerate(matcher.shards):
            shard_arrays, shard_meta = _matcher_payload(shard, prefix=f"s{position}_")
            arrays.update(shard_arrays)
            shard_payloads.append(shard_meta)
        metadata = {
            "snapshot_version": _SHARDED_SNAPSHOT_VERSION,
            "sharded": True,
            "config": asdict(matcher.config),
            "distance": matcher.distance.name,
            "database_name": matcher.database.name,
            "database_ids": matcher.database.ids(),
            "assignment": matcher._assignment,
            "assigned": matcher._assigned,
            "shards": shard_payloads,
        }
    else:
        arrays, metadata = _matcher_payload(matcher)
        metadata["snapshot_version"] = _SNAPSHOT_VERSION
    arrays["metadata"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    _write_npz(path, arrays, "matcher snapshot")


def load_matcher(path: PathLike, distance=None, cache=None):
    """Load a matcher snapshot written by :func:`save_matcher`.

    Parameters
    ----------
    path:
        The snapshot ``.npz``.
    distance:
        Optional pre-configured :class:`~repro.distances.base.Distance`
        instance.  When omitted, the snapshot's distance name is resolved
        through :func:`repro.distances.registry.get_distance` with default
        parameters; when given, its ``name`` must match the snapshot's.
    cache:
        Optional externally-owned cache (e.g.
        :func:`repro.distances.cache.shared_cache`) to seed with the
        snapshot's entries; when omitted the matcher owns a private cache
        sized by the snapshot's ``cache_max_entries``.  Sharded snapshots
        refuse an external cache: their shards own one private cache each
        (that independence is what keeps sharded statistics deterministic
        under parallel fan-out).

    Returns
    -------
    SubsequenceMatcher or ShardedMatcher
        Ready to answer queries with **zero rebuild work**: windows are
        re-derived from the database (pure slicing, no distance
        computations) and validated against the snapshot's key list, and
        the index structure and cache contents come straight from disk.
        The loaded matcher serves the full declarative query API --
        ``execute`` / ``execute_many`` over every spec type including
        :class:`~repro.core.queries.TopKQuery` -- with byte-identical
        results and work counters to the in-memory matcher that was saved;
        :class:`~repro.core.service.SearchService` accepts a snapshot path
        directly and defers this load to the first query.
    """
    from repro.core.sharded import ShardedMatcher
    from repro.distances.registry import get_distance

    path = Path(path)
    with _read_npz(path, "matcher snapshot") as archive:
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        version = metadata.get("snapshot_version")
        if version == _SNAPSHOT_VERSION:
            return _matcher_from_payload(archive, metadata, "", distance, cache)
        if version == _SHARDED_SNAPSHOT_VERSION and metadata.get("sharded"):
            if cache is not None:
                raise StorageError(
                    "sharded matcher snapshots cannot load into an external "
                    "cache; each shard owns a private one"
                )
            config = _config_from(metadata["config"])
            saved_name = metadata["distance"]
            if distance is None:
                distance = get_distance(saved_name)
            elif distance.name != saved_name:
                raise StorageError(
                    f"snapshot was built with distance {saved_name!r} but "
                    f"{distance.name!r} was supplied"
                )
            shards = [
                _matcher_from_payload(
                    archive, shard_meta, f"s{position}_", distance, None
                )
                for position, shard_meta in enumerate(metadata["shards"])
            ]
            database = SequenceDatabase(
                shards[0].database.kind if shards else None,
                name=metadata["database_name"],
            )
            assignment = {
                seq_id: int(shard) for seq_id, shard in metadata["assignment"].items()
            }
            for seq_id in metadata["database_ids"]:
                database.add(shards[assignment[seq_id]].database[seq_id])
            return ShardedMatcher._restore(
                database,
                distance,
                config,
                shards,
                assignment,
                int(metadata["assigned"]),
            )
        hint = " (not a snapshot file?)" if version is None else ""
        raise StorageError(
            f"unsupported matcher snapshot version {version!r}; this "
            f"build reads versions {_SNAPSHOT_VERSION} and "
            f"{_SHARDED_SNAPSHOT_VERSION}{hint}"
        )
