"""Memoization of sequence-pair distance computations.

The paper's Type III (nearest-neighbour) query repeats steps 3-5 with a
growing radius, and chain verification repeatedly measures overlapping
subsequence pairs.  Without memoization the re-queries *recompute* every
segment-window distance the previous radius already paid for -- which is how
the seed benchmark ended up spending almost twice the naive scan's distance
computations on Type III.  A :class:`DistanceCache` remembers every pair the
matcher has measured so the growing-radius sweep only ever pays for a pair
once (the same "reuse previously computed work to skip recomputation" idea
that provenance-based data skipping applies to whole queries).

Keys are *content keys*, never the sequences themselves: every
:class:`~repro.sequences.sequence.Sequence` carries a fixed-size digest of
its content (:attr:`~repro.sequences.sequence.Sequence.content_key`), and an
entry lives under the pair of its operands' digests.  A probe is therefore a
dict lookup on a tuple of two ``bytes`` objects -- hashed and compared in C,
with no ``Sequence.__eq__`` and no NumPy call, whether or not the probing
object is the one that stored the entry -- and the cache pins no operand
arrays.  Content keys still unify identical windows cut from different
places, exactly as keying on the content itself did.

Early-abandoned computations are remembered too, as *lower bounds*: when
:meth:`~repro.distances.base.Distance.bounded` gives up at cutoff ``c`` the
cache records "distance > c", which still answers any later query with a
cutoff at most ``c`` without recomputing.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from itertools import repeat
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.sequences.sequence import Sequence

_INF = float("inf")

#: ``(first content key, second content key)``.
PairKey = Tuple[bytes, bytes]


def content_keys(items: Iterable[object]) -> List[Optional[bytes]]:
    """Each item's content key; ``None`` marks an uncacheable (non-Sequence) item."""
    return [item.content_key if isinstance(item, Sequence) else None for item in items]


def _answer(entry: Optional[Tuple[float, bool]], cutoff: Optional[float]) -> Optional[float]:
    """What a stored entry answers at ``cutoff``; ``None`` means recompute.

    Exact entries always answer; a ``distance > value`` bound answers
    ``inf`` when ``value`` is at least the cutoff.
    """
    if entry is not None:
        value, exact = entry
        if exact:
            return value
        if cutoff is not None and value >= cutoff:
            return _INF
    return None


class _ReplayView:
    """Lock-free access to a cache whose lock the caller already holds.

    Handed out by :meth:`DistanceCache.replay_view`: ``lookup`` / ``peek``
    / ``store`` take operands like the public methods (``store_key`` takes
    a ready :data:`PairKey`) and share their semantics -- bound entries, the
    no-downgrade rule, insertion-order eviction -- while hit/miss tallies
    stay plain local ints.  The owning context manager folds the tallies
    into the cache statistics on exit, so a replayed log leaves exactly the
    statistics the same requests would have left through ``lookup`` /
    ``store`` one at a time.  :attr:`table` is the raw entry dict, for bulk
    reads (:func:`probe_row`); ``len(view)``, ``peek`` and ``max_entries``
    mirror the cache's, for observers that must not take the lock again.
    """

    __slots__ = ("table", "max_entries", "store_key", "hits", "misses")

    def __init__(self, cache: "DistanceCache") -> None:
        self.table = cache._entries
        self.max_entries = cache.max_entries
        self.store_key = cache._store
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.table)

    def peek(self, first: Sequence, second: Sequence, cutoff=None) -> Optional[float]:
        return _answer(self.table.get((first.content_key, second.content_key)), cutoff)

    def lookup(self, first: Sequence, second: Sequence, cutoff) -> Optional[float]:
        value = self.peek(first, second, cutoff)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, first: Sequence, second: Sequence, value, cutoff) -> None:
        self.store_key((first.content_key, second.content_key), value, cutoff)


def probe_row(
    table: Dict[PairKey, Tuple[float, bool]],
    query_key: bytes,
    item_keys: List[Optional[bytes]],
    cutoff,
    values: np.ndarray,
    positions: Optional[List[int]] = None,
) -> Tuple[List[int], int]:
    """Classify one query against a whole row of items with one bulk probe.

    Equivalent to ``lookup(query, item, cutoff_i)`` item by item, minus the
    per-item calls: the table is read by a single C-level ``map`` over the
    ``(query_key, item_key)`` pairs.  Answers land in ``values``; returns the
    pending (unanswered) positions, in order, and the number of *misses* --
    pending positions that carry a key, i.e. the lookups a per-item loop
    would have counted (``None`` keys mark uncacheable items, which are
    pending without a lookup).  ``cutoff`` is ``None``, a scalar, or one
    value per item; ``positions`` restricts the probe to part of the row.
    """
    if positions is None:
        positions = range(len(item_keys))
        keys = item_keys
    else:
        keys = [item_keys[index] for index in positions]
    found = list(map(table.get, zip(repeat(query_key), keys)))
    if found.count(None) == len(found):
        pending = list(positions)
    else:
        pending = []
        scalar = cutoff is None or np.ndim(cutoff) == 0
        for index, entry in zip(positions, found):
            if entry is not None:
                value, exact = entry
                if exact:
                    values[index] = value
                    continue
                if cutoff is not None and value >= (cutoff if scalar else cutoff[index]):
                    values[index] = _INF
                    continue
            pending.append(index)
    return pending, len(pending) - keys.count(None)


class DistanceCache:
    """A cache of exact distances and early-abandon lower bounds.

    The cache is thread-safe: every operation that touches the entry table
    or the hit/miss statistics takes an internal lock, so one cache may be
    shared between concurrently querying matchers (:func:`shared_cache`) and
    between the parallel work units of a thread-pool executor without
    corrupting the table or the eviction order.

    Parameters
    ----------
    max_entries:
        Optional capacity; when exceeded, the oldest entries are evicted
        (insertion order, O(1) per eviction).  ``None`` (the default) means
        unbounded.  A single query adds at most ``segments x windows`` index
        entries plus its verification pairs, but a long-lived matcher
        serving a stream of *distinct* queries accumulates entries across
        queries, so the matcher bounds its cache
        (``MatcherConfig.cache_max_entries``).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        #: key -> (value, exact).  ``exact=True``: value is the distance.
        #: ``exact=False``: the distance is known to be > value.
        self._entries: Dict[PairKey, Tuple[float, bool]] = {}
        #: Live keys, oldest first, once the cache has filled up (``None``
        #: until then: a cache that never evicts pays nothing for it).
        #: Entries only ever leave from the front, so the queue *is* the
        #: table's insertion order and evicting is a ``popleft`` -- not a
        #: rescan of the dict's dead prefix, which grows with every eviction
        #: since the last resize.
        self._order: Optional[Deque[PairKey]] = None
        #: Entries dropped to hold the capacity bound, over the cache lifetime.
        self.evictions = 0
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        """Number of lookups answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of lookups that required a fresh computation."""
        return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._order = None
            self.evictions = 0
            self._hits = 0
            self._misses = 0

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    @staticmethod
    def cacheable(first: object, second: object) -> bool:
        """Whether a pair of payloads can serve as a cache key."""
        return isinstance(first, Sequence) and isinstance(second, Sequence)

    def lookup(
        self, first: Sequence, second: Sequence, cutoff: Optional[float] = None
    ) -> Optional[float]:
        """The cached distance of ``(first, second)``, or ``None`` on a miss.

        With a ``cutoff``, a stored lower bound of at least ``cutoff``
        answers the query with ``inf`` (the pair provably cannot be within
        the cutoff); exact entries always answer.  Statistics are updated.

        The entry read happens outside the lock -- a single ``dict.get``
        of an immutable tuple, safe under the GIL and under free-threaded
        builds (per-object dict synchronization) alike -- so concurrent
        readers only serialize on the statistics increment, not on each
        other's probes.  That narrow critical section is what lets the
        thread executor scale on no-GIL (PEP 703) interpreters while the
        hit/miss counts stay exact.
        """
        # ``_answer`` spelled out: this is the per-pair path of the tree indexes.
        entry = self._entries.get((first.content_key, second.content_key))
        if entry is not None:
            value, exact = entry
            if exact or (cutoff is not None and value >= cutoff):
                with self._lock:
                    self._hits += 1
                return value if exact else _INF
        with self._lock:
            self._misses += 1
        return None

    def peek(
        self, first: Sequence, second: Sequence, cutoff: Optional[float] = None
    ) -> Optional[float]:
        """:meth:`lookup` without touching the hit/miss statistics.

        Parallel work units read the cache through ``peek`` while they run;
        the accounting-faithful lookups happen later, during the unit-log
        replay (see :mod:`repro.distances.recording`), so a query answered
        in parallel leaves exactly the statistics a serial run would.

        Lock-free on purpose: a single ``dict.get`` is atomic under the
        GIL, entry tuples are immutable, and ``peek`` mutates nothing --
        so the hottest read path of every work unit skips the lock.
        """
        return _answer(self._entries.get((first.content_key, second.content_key)), cutoff)

    def store(
        self,
        first: Sequence,
        second: Sequence,
        value: float,
        cutoff: Optional[float] = None,
    ) -> None:
        """Record a computation of ``(first, second)``.

        A finite ``value`` at most ``cutoff`` (or with no cutoff at all) is
        exact; a value beyond the cutoff means the kernel abandoned early,
        so only the lower bound ``distance > cutoff`` is recorded -- and
        never downgrades an existing exact entry or a larger bound.

        Exact stores into an unbounded cache take the lock-free fast path:
        a single dict assignment of an immutable tuple needs no critical
        section (exact entries always win, so write order between racing
        threads is immaterial), and it is the overwhelmingly common store.
        Bound entries (read-modify-write against the no-downgrade rule) and
        capacity-bounded caches (the eviction queue) keep the lock.
        """
        key = (first.content_key, second.content_key)
        if cutoff is None or value <= cutoff:
            if self.max_entries is None:
                self._entries[key] = (value, True)
                return
            with self._lock:
                self._insert(key, (value, True))
            return
        with self._lock:
            self._store(key, value, cutoff)

    def _store(self, key: PairKey, value: float, cutoff: Optional[float]) -> None:
        """:meth:`store` on a ready key.  Callers must hold :attr:`_lock`."""
        if cutoff is None or value <= cutoff:
            self._insert(key, (value, True))
            return
        existing = self._entries.get(key)
        if existing is None or not (existing[1] or existing[0] >= cutoff):
            self._insert(key, (float(cutoff), False))

    def _insert(self, key: PairKey, entry: Tuple[float, bool]) -> None:
        """Write one entry, then evict oldest-first down to the capacity.

        Overwriting a live key keeps its place in the order, as in the
        dict.  Callers must hold :attr:`_lock`.
        """
        entries = self._entries
        order = self._order
        if order is None:
            entries[key] = entry
            limit = self.max_entries
            if limit is None or len(entries) <= limit:
                return
            # First overflow: the dict's own order seeds the queue (new key included).
            order = self._order = deque(entries)
        else:
            size = len(entries)
            entries[key] = entry
            if len(entries) == size:
                return
            order.append(key)
        while len(entries) > self.max_entries:
            del entries[order.popleft()]
            self.evictions += 1

    @contextmanager
    def replay_view(self):
        """Single-lock bulk access for batched stores and unit-log replays.

        The columnar replay (:mod:`repro.distances.recording`) touches the
        cache once per logged request; going through :meth:`lookup` /
        :meth:`store` would pay a lock round-trip each time.  This context
        manager takes the lock *once*, yields a :class:`_ReplayView` (same
        lookup/store/eviction semantics, local hit/miss tallies), and folds
        the tallies into the statistics on exit -- so a full log replays
        under one critical section and still leaves byte-identical cache
        content, eviction order, and counts.
        """
        view = _ReplayView(self)
        with self._lock:
            try:
                yield view
            finally:
                self._hits += view.hits
                self._misses += view.misses

    def probe_row(
        self, query_key: bytes, item_keys: List[Optional[bytes]], cutoff, values: np.ndarray
    ) -> List[int]:
        """One query against a row of items; see :func:`probe_row`.

        Fills ``values`` where the cache answers, returns the pending
        positions, and tallies the row's hits and misses in one update.
        The bulk read is lock-free for the same reason :meth:`lookup`'s is.
        """
        pending, misses = probe_row(self._entries, query_key, item_keys, cutoff, values)
        with self._lock:
            self._hits += len(item_keys) - len(pending)
            self._misses += misses
        return pending

    def probe_pairs(
        self, pair_keys: List[PairKey], repeats: int = 0
    ) -> List[Optional[float]]:
        """The exact cached distance (or ``None``) of each ready key, in bulk.

        What :meth:`lookup` without a cutoff answers, key by key -- only an
        exact entry does -- as one C-level ``map`` over the table, with the
        hits and misses tallied in one update.  ``repeats`` adds that many
        hits: requests for a pair that occurs earlier in the same bulk, which
        the caller answers from that occurrence instead of asking again.
        Lock-free read, like :meth:`probe_row`.
        """
        found = [
            entry[0] if entry is not None and entry[1] else None
            for entry in map(self._entries.get, pair_keys)
        ]
        misses = found.count(None)
        with self._lock:
            self._hits += len(found) - misses + repeats
            self._misses += misses
        return found

    def store_many(self, pair_keys: List[PairKey], values: List[float]) -> None:
        """Record exact distances under ready keys: one lock, one bulk write.

        Leaves the table, its insertion order and :attr:`evictions` exactly
        as storing the pairs one by one, in order, would.  The keys that fit
        under the capacity whatever else happens -- all of them in a cache
        that is unbounded or far from full -- are one ``dict.update``; only
        the rest go through the per-key write-and-evict path.
        """
        with self._lock:
            entries = self._entries
            room = len(pair_keys)
            if self.max_entries is not None:
                room = min(room, self.max_entries - len(entries))
            if room:
                head = pair_keys[:room]
                if self._order is not None:
                    self._order.extend(
                        key for key in dict.fromkeys(head) if key not in entries
                    )
                entries.update(zip(head, zip(values[:room], repeat(True))))
            for key, value in zip(pair_keys[room:], values[room:]):
                self._insert(key, (value, True))

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def iter_entries(self) -> Iterator[Tuple[bytes, bytes, float, bool]]:
        """Yield ``(first key, second key, value, exact)`` in insertion order.

        Insertion order *is* eviction order, so a consumer that replays the
        stream through :meth:`seed_entries` reproduces not just the contents
        but the future eviction behaviour of a bounded cache.  The entry
        table is snapshotted under the lock first, so iteration is safe
        against concurrent inserts (it yields the state at call time).
        """
        with self._lock:
            entries = list(self._entries.items())
        for (first, second), (value, exact) in entries:
            yield first, second, value, exact

    def seed_entries(self, entries: Iterable[Tuple[bytes, bytes, float, bool]]) -> None:
        """Install :meth:`iter_entries`-shaped rows directly, respecting capacity.

        Unlike :meth:`store` this bypasses the exact/bound bookkeeping: the
        caller asserts each entry is precisely what a live cache held (for
        a bound entry, ``value`` is the cutoff the kernel abandoned at).
        """
        with self._lock:
            for first, second, value, exact in entries:
                self._insert((first, second), (float(value), bool(exact)))

    def seed(self, first: Sequence, second: Sequence, value: float, exact: bool = True) -> None:
        """:meth:`seed_entries` for one pair of operands."""
        self.seed_entries([(first.content_key, second.content_key, value, exact)])

    def __repr__(self) -> str:
        return (
            f"DistanceCache(entries={len(self._entries)}, "
            f"hits={self._hits}, misses={self._misses}, evictions={self.evictions})"
        )


_SHARED_CACHES: Dict[str, DistanceCache] = {}
_SHARED_CACHES_LOCK = threading.Lock()

#: Default capacity of a :func:`shared_cache`; sized for multi-matcher
#: workloads (several matchers' worth of segment-window pairs).
SHARED_CACHE_MAX_ENTRIES = 1_048_576


def shared_cache(name: str = "default", max_entries: Optional[int] = None) -> DistanceCache:
    """A process-wide named :class:`DistanceCache` for multi-matcher workloads.

    Matchers built over the *same distance measure* can pass the returned
    cache to :class:`~repro.core.matcher.SubsequenceMatcher` so that windows
    shared between their databases (or queries probed against several
    matchers) are measured once per process rather than once per matcher.

    The cache is keyed by the operands' content keys only -- nothing in a
    key says which distance produced the value -- so sharing one cache
    between matchers with *different* distances would mix up their values:
    use a distinct ``name`` per distance (e.g. ``shared_cache("frechet")``).

    The first call for a ``name`` creates the cache (with ``max_entries``,
    defaulting to :data:`SHARED_CACHE_MAX_ENTRIES`); later calls return the
    same instance and ignore ``max_entries``.
    """
    with _SHARED_CACHES_LOCK:
        cache = _SHARED_CACHES.get(name)
        if cache is None:
            capacity = SHARED_CACHE_MAX_ENTRIES if max_entries is None else max_entries
            cache = DistanceCache(max_entries=capacity)
            _SHARED_CACHES[name] = cache
        return cache
