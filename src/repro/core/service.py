"""The backend-agnostic search facade: one API over every matcher backend.

The declarative query layer deliberately keeps *what* a query means (the
spec dataclasses of :mod:`repro.core.queries`) separate from *how* it is
executed.  :class:`SearchService` is the deployment-facing half of that
split: it wraps any backend --

* a plain :class:`~repro.core.matcher.SubsequenceMatcher`,
* a :class:`~repro.core.sharded.ShardedMatcher`,
* or a *snapshot path*, loaded lazily through
  :func:`repro.storage.persistence.load_matcher` on first use

-- behind the identical ``execute`` / ``execute_many`` surface, with
per-call executor/worker overrides.  Because every backend routes through
the same spec-in / :class:`~repro.core.queries.QueryResult`-out discipline,
a service answers a given spec with byte-identical matches and work
counters whichever backend serves it (for top-k and Type III the sharded
sweep merges to exactly the unsharded answer; Type I/II keep their
documented ordering/tie-break differences).

The service also exposes a stable :func:`config_fingerprint` so callers
(e.g. the CLI's ``--json`` envelope) can tell results produced under
different configurations apart without diffing configs field by field.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from repro.core.queries import QueryResult, QueryStats
from repro.exceptions import StorageError

from repro.sequences.sequence import Sequence


def config_fingerprint(backend) -> str:
    """A short stable digest of everything that shapes a backend's answers.

    Covers the full :class:`~repro.core.config.MatcherConfig`, the distance
    name, the backend class, the shard count, and the identity of the data
    being searched (sequence ids and total element count).  Two backends
    with equal fingerprints answer every spec with identical matches and
    work counters (executor/workers are part of the config but never change
    results; they are included so the fingerprint also identifies the
    *performance* configuration a measurement was taken under).  Because
    the data block is covered, any ``add_sequence`` / ``remove_sequence``
    mutation invalidates the fingerprint -- a cached envelope can always be
    tied to the exact corpus that produced it.
    """
    database = getattr(backend, "database", None)
    payload = {
        "backend": type(backend).__name__,
        "config": asdict(backend.config),
        "distance": backend.distance.name,
        "shards": getattr(backend, "shard_count", 1),
        "data": None
        if database is None
        else {"sequences": database.ids(), "total_length": database.total_length},
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    )
    return digest.hexdigest()[:16]


class SearchService:
    """One ``execute()`` surface over a matcher, sharded matcher, or snapshot.

    Parameters
    ----------
    backend:
        A ready :class:`~repro.core.matcher.SubsequenceMatcher` or
        :class:`~repro.core.sharded.ShardedMatcher`, **or** a filesystem
        path to a matcher snapshot written by
        :func:`repro.storage.persistence.save_matcher`.  A path is loaded
        lazily -- construction is free, the snapshot is read on the first
        query (or on the first :attr:`backend` access).
    distance / cache:
        Forwarded to :func:`~repro.storage.persistence.load_matcher` for
        path backends (ignored for in-memory backends): an explicitly
        configured distance instance and an externally-owned cache.

    Examples
    --------
    ::

        service = SearchService(matcher)                 # in-memory backend
        service = SearchService("matcher-snapshot.npz")  # lazy snapshot
        result = service.execute(TopKQuery(k=5, max_radius=10).bind(query))
        result.matches, result.stats, result.query
    """

    def __init__(
        self,
        backend,
        distance=None,
        cache=None,
    ) -> None:
        self._backend = None
        self._snapshot_path: Optional[Path] = None
        self._load_distance = distance
        self._load_cache = cache
        # Serialises every execute/mutation: the matcher pipeline keeps
        # per-query scratch state (segment memo, index-counter marks)
        # and _with_executor temporarily rewrites the backend config, so one
        # shared service instance must never run two queries concurrently.
        # Callers (e.g. the HTTP server) may hold many requests in flight;
        # this lock is what makes that safe.
        self._lock = threading.RLock()
        if isinstance(backend, (str, Path)):
            self._snapshot_path = Path(backend)
        else:
            self._backend = backend

    @property
    def backend(self):
        """The wrapped matcher, loading the snapshot on first access."""
        if self._backend is None:
            with self._lock:
                if self._backend is None:
                    # Imported here: the service must stay importable
                    # without storage.
                    from repro.storage.persistence import load_matcher

                    self._backend = load_matcher(
                        self._snapshot_path,
                        distance=self._load_distance,
                        cache=self._load_cache,
                    )
        return self._backend

    @property
    def snapshot_path(self) -> Optional[Path]:
        """The snapshot path this service loads from, if path-backed."""
        return self._snapshot_path

    @property
    def loaded(self) -> bool:
        """Whether a backend is in memory (``False``: snapshot not yet read).

        Observing this never triggers the lazy load -- health checks can
        report on an unloaded service without paying for the snapshot read.
        """
        return self._backend is not None

    @property
    def last_query_stats(self) -> QueryStats:
        """The wrapped backend's most recent query statistics."""
        return self.backend.last_query_stats

    @property
    def last_batch_stats(self) -> List[QueryStats]:
        """The wrapped backend's most recent ``execute_many`` statistics."""
        return self.backend.last_batch_stats

    def cache_stats(self) -> Optional[dict]:
        """Size and lifetime evictions of the backend's distance cache(s).

        Summed over the shards of a sharded backend; ``None`` while a
        path-backed service has not loaded its snapshot (observing this
        never triggers the load).
        """
        backend = self._backend
        if backend is None:
            return None
        caches = [matcher.distance_cache for matcher in getattr(backend, "shards", [backend])]
        return {
            "entries": sum(len(cache) for cache in caches),
            "evictions": sum(cache.evictions for cache in caches),
        }

    def fingerprint(self) -> str:
        """The backend's :func:`config_fingerprint`."""
        return config_fingerprint(self.backend)

    def close(self) -> None:
        """Retire the backend (see ``close`` on the matchers); idempotent.

        Never triggers the lazy snapshot load: a service that was never
        queried has nothing to release.  The service remains usable after
        closing.
        """
        with self._lock:
            backend = self._backend
            if backend is not None:
                backend.close()

    def _with_executor(self, executor: Optional[str], workers: Optional[int], run):
        """Run ``run(backend)`` under a per-call executor/worker override.

        The override is applied through the backend's ``set_executor`` and
        restored afterwards, so a service shared by many callers never
        leaks one caller's engine choice into the next call.  Results and
        work counters are executor-independent, so overrides are always
        safe -- they change wall-clock, not answers.
        """
        with self._lock:
            backend = self.backend
            if executor is None and workers is None:
                return run(backend)
            # Restore the exact prior objects rather than calling set_executor
            # again: set_executor(workers=None) deliberately *keeps* the
            # current worker count, which would leak the override into the
            # backend.
            holder = backend.pipeline if hasattr(backend, "pipeline") else backend
            previous_config = backend.config
            previous_engine = holder.executor
            backend.set_executor(
                executor if executor is not None else previous_config.executor, workers
            )
            try:
                return run(backend)
            finally:
                backend.config = previous_config
                if holder is not backend:
                    holder.config = previous_config
                holder.executor = previous_engine

    def execute(
        self,
        spec,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> QueryResult:
        """Execute one bound spec; see
        :meth:`~repro.core.matcher.SubsequenceMatcher.execute`.

        ``executor`` / ``workers`` override the execution engine for this
        call only.
        """
        return self._with_executor(executor, workers, lambda backend: backend.execute(spec))

    def execute_many(
        self,
        specs: List,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """Execute many bound specs (heterogeneous types allowed); see
        :meth:`~repro.core.matcher.SubsequenceMatcher.execute_many`."""
        return self._with_executor(
            executor, workers, lambda backend: backend.execute_many(specs)
        )

    # ------------------------------------------------------------------ #
    # Mutations: first-class, backend-agnostic
    # ------------------------------------------------------------------ #
    def add_sequence(self, sequence: Sequence, seq_id: Optional[str] = None) -> str:
        """Incrementally add a sequence through the wrapped backend.

        Works identically over a plain matcher, a sharded matcher (which
        continues its round-robin shard assignment), and a lazily-loaded
        snapshot backend.  The service's :meth:`fingerprint` covers the
        database contents, so it changes after every successful add.
        """
        with self._lock:
            return self.backend.add_sequence(sequence, seq_id=seq_id)

    def remove_sequence(self, seq_id: str) -> Sequence:
        """Remove a sequence (and its index windows) through the backend."""
        with self._lock:
            return self.backend.remove_sequence(seq_id)

    def save_snapshot(self, path=None) -> Path:
        """Persist the backend's built state with ``save_matcher``.

        ``path`` defaults to the snapshot path the service was constructed
        from; a service wrapping an in-memory backend must pass one
        explicitly.
        """
        with self._lock:
            target = Path(path) if path is not None else self._snapshot_path
            if target is None:
                raise StorageError(
                    "save_snapshot() needs a path: this service wraps an "
                    "in-memory backend and was not constructed from a snapshot"
                )
            # Imported here: the service must stay importable without storage.
            from repro.storage.persistence import save_matcher

            save_matcher(self.backend, target)
            return target

    def __repr__(self) -> str:
        if self._backend is None:
            return f"SearchService(snapshot={str(self._snapshot_path)!r}, unloaded)"
        return f"SearchService(backend={self._backend!r})"


__all__ = ["SearchService", "config_fingerprint"]
