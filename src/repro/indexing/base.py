"""The :class:`MetricIndex` interface shared by every index structure.

An index stores arbitrary *items* (in the framework's case,
:class:`~repro.sequences.windows.Window` objects are stored with their
subsequence as the indexed payload) under hashable keys, and answers range
queries: given a query payload and a radius ``eps``, return every stored
item within distance ``eps``.

Every index answers that question in batches, through one entry,
:meth:`MetricIndex.batch_range_query`, and one subclass hook: the linear
scan's grouped kernel sweeps, the reference net's whole-batch frontier.
:meth:`MetricIndex.range_query` is a batch of one.  Under a parallel
executor, :meth:`MetricIndex.probe_batch` may instead split a batch into
the index's work units (:func:`run_query_work_units`), each of which
records its one batched distance request for a serial replay.

Two details matter for faithfully reproducing the paper's evaluation:

* every distance evaluation performed by an index is counted through a
  :class:`~repro.indexing.stats.DistanceCounter`;
* a range result may omit the exact distance (``distance=None``) when the
  index proved membership through the triangle inequality without computing
  the distance -- this "include the whole subtree for free" behaviour is a
  key advantage of the reference net (Lemma 4).
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.distances.base import Distance, SequenceLike
from repro.distances.cache import DistanceCache
from repro.distances.recording import RecordingCounting
from repro.exceptions import DistanceError, IndexError_
from repro.indexing.stats import CountingDistance, DistanceCounter, IndexStats


@dataclass(frozen=True)
class RangeMatch:
    """One item returned by a range query.

    Attributes
    ----------
    key:
        The key under which the item was inserted.
    item:
        The stored payload.
    distance:
        The exact distance to the query when the index computed it, or
        ``None`` when membership was proven by the triangle inequality
        alone.  Call the distance yourself if you need the exact value.
    """

    key: Hashable
    item: object
    distance: Optional[float]


class BoundTable:
    """Admissible lower bounds from every query of one batch to every item.

    Built by :meth:`MetricIndex.bound_table` for all the segments of one
    query at once and handed back, whole, to :meth:`MetricIndex.batch_range_query`
    / :meth:`MetricIndex.probe_batch`; row ``i`` of :attr:`matrix` belongs to
    the ``i``-th query of the batch, and its columns follow the building
    index's own item order at :attr:`epoch` (the index refuses the table
    after any write).  ``matrix[i, c] <= d(query i, item c)``; an entry may
    be NaN (= unknown).  A row is a pure function of (query, stored items)
    -- never of cache state -- so consulting it is identical under every
    executor, and a table stays valid for any radius until the index is
    written to.
    """

    __slots__ = ("epoch", "matrix")

    def __init__(self, epoch: int, matrix: np.ndarray) -> None:
        self.epoch = epoch
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.matrix)

    def take(self, positions: List[int]) -> "BoundTable":
        """The table of the sub-batch made of the queries at ``positions``."""
        return BoundTable(self.epoch, self.matrix[positions])


@dataclass
class QueryWorkUnit:
    """One independently executable slice of a batched range query.

    A unit answers (part of) the range query at ``position`` in the batch.
    ``search`` runs it to completion against a per-unit
    :class:`~repro.distances.recording.RecordingCounting`, through exactly
    one ``batch`` request, and returns ``(order_key, match)`` pairs; the
    runner merges the units of one query position and sorts by
    ``order_key``, which is how a
    split probe (the linear scan's per-shape-group units) reassembles the
    exact serial result order.

    Units that can ship their kernel phase to a process pool also provide
    ``prepare`` (parent-side: cache lookups + payload construction --
    called as ``prepare(recording)``; the payload is pickled to the pool),
    ``remote`` (a picklable module-level function), and ``finish``
    (parent-side: fold the child's values into matches).

    ``cost`` is the unit's scheduling weight -- an estimate proportional
    to its kernel work (e.g. windows x DP cells for a scan group).  The
    executors chunk units by accumulated cost, so one giant shape group
    no longer rides in the same fixed-size chunk as a handful of trivial
    ones and serializes the stage.
    """

    position: int
    search: Callable[[Any], List[Tuple[int, RangeMatch]]]
    prepare: Optional[Callable[[Any], Tuple[Any, Any]]] = None
    remote: Optional[Callable[[Any], Any]] = None
    finish: Optional[Callable[[Any, Any, Any], List[Tuple[int, RangeMatch]]]] = None
    #: Display label for diagnostics (index name + split description).
    label: str = field(default="")
    #: Relative scheduling cost (arbitrary units; 1.0 = nominal).
    cost: float = 1.0


def task_chunk_size(unit_count: int, workers: int) -> int:
    """How many work units ride in one scheduled task.

    Probes routinely produce a few thousand small units (one per segment,
    or per segment x shape group); scheduling each as its own future costs
    more than the unit's work.  Four chunks per worker keeps the pool busy
    while amortising the per-future overhead.
    """
    return max(1, (unit_count + 4 * workers - 1) // (4 * workers))


def chunk_positions(
    count: int, workers: int, costs: Optional[List[float]] = None
) -> List[List[int]]:
    """Contiguous position chunks for scheduling ``count`` units.

    Contiguity matters: consumers replay unit logs chunk by chunk, and
    ascending contiguous chunks preserve the global unit order the
    serial-equivalence replay depends on.

    With ``costs`` (one non-negative weight per position), chunks are cut
    greedily at an accumulated cost of ``total / (4 * workers)`` -- the
    same four-chunks-per-worker budget as the uniform case (for equal
    costs the boundaries coincide exactly), but an expensive unit stops
    dragging a long tail of cheap ones into its chunk.
    """
    if count == 0:
        return []
    if costs is not None:
        total = float(sum(costs))
        if total > 0:
            target = total / (4 * workers)
            chunks: List[List[int]] = []
            current: List[int] = []
            accumulated = 0.0
            for position in range(count):
                current.append(position)
                accumulated += costs[position]
                if accumulated >= target:
                    chunks.append(current)
                    current = []
                    accumulated = 0.0
            if current:
                chunks.append(current)
            return chunks
    size = task_chunk_size(count, workers)
    return [
        list(range(start, min(start + size, count))) for start in range(0, count, size)
    ]


def run_query_work_units(
    index: "MetricIndex",
    units: List[QueryWorkUnit],
    query_count: int,
    executor,
) -> Tuple[List[List[RangeMatch]], float]:
    """Execute ``units`` on ``executor`` with serial-equivalent accounting.

    Each unit gets a private
    :class:`~repro.distances.recording.RecordingCounting` over the index's
    cache; after the executor drains, the unit logs are replayed *in unit
    order* into the index's live counter and cache, so the counters, the
    cache content, and the eviction order come out exactly as a serial run
    would have left them.  Returns one merged match list per query position plus the
    summed per-worker CPU seconds.

    Scheduling granularity: the process executor receives one task per
    unit (its pool already chunks the picklable payloads by cost); every
    other executor receives contiguous cost-weighted *chunks* of units per
    task, which amortises the future/scheduling overhead that thousands of
    small probe units would otherwise pay.
    """
    # Imported lazily: the executor layer lives in ``repro.core`` which
    # imports this module at package-init time.
    from repro.core.executor import WorkTask

    counting = index._counting
    use_remote = executor.name == "process"
    recordings: List[RecordingCounting] = [
        RecordingCounting(counting.inner, counting.cache, counting.prefilter)
        for _unit in units
    ]
    tasks: List[WorkTask] = []
    if use_remote:
        for unit, recording in zip(units, recordings):

            def local(unit=unit, recording=recording):
                return [unit.search(recording)]

            if unit.remote is not None and unit.prepare is not None:
                context_box: dict = {}

                def prepare(unit=unit, recording=recording, box=context_box):
                    context, payload = unit.prepare(recording)
                    box["context"] = context
                    return payload

                def finish(out, unit=unit, recording=recording, box=context_box):
                    return [unit.finish(recording, box["context"], out)]

                tasks.append(
                    WorkTask(
                        local,
                        prepare=prepare,
                        remote=unit.remote,
                        finish=finish,
                        cost=unit.cost,
                    )
                )
            else:
                tasks.append(WorkTask(local, cost=unit.cost))
        chunks = [[position] for position in range(len(units))]
    else:
        chunks = chunk_positions(
            len(units), executor.workers, costs=[unit.cost for unit in units]
        )
        for positions in chunks:

            def local(positions=positions):
                return [units[p].search(recordings[p]) for p in positions]

            tasks.append(WorkTask(local, cost=sum(units[p].cost for p in positions)))

    results = executor.run(tasks)
    merged: List[List[Tuple[int, RangeMatch]]] = [[] for _ in range(query_count)]
    cpu_seconds = 0.0
    for positions, result in zip(chunks, results):
        cpu_seconds += result.worker_cpu_seconds
        for position, keyed_matches in zip(positions, result.value):
            recordings[position].replay_into(counting)
            merged[units[position].position].extend(keyed_matches)
    per_query: List[List[RangeMatch]] = []
    for keyed in merged:
        keyed.sort(key=lambda pair: pair[0])
        per_query.append([match for _key, match in keyed])
    return per_query, cpu_seconds


class MetricIndex(abc.ABC):
    """Base class for metric range-query indexes.

    Parameters
    ----------
    distance:
        The (metric) distance used to compare stored items and queries.
    counter:
        Optional shared :class:`DistanceCounter`; one is created when
        omitted.
    require_metric:
        Indexes that rely on the triangle inequality refuse non-metric
        distances (e.g. DTW) unless this check is explicitly disabled by a
        subclass that does not need metricity (the linear scan).
    cache:
        Optional shared :class:`~repro.distances.cache.DistanceCache`;
        when given, query-time distance requests for already-measured pairs
        are answered from the cache and counted as cache hits instead of
        fresh computations.  The matcher shares one cache between its index
        and its verification step so Type III's growing-radius re-queries
        never pay for a pair twice.
    prefilter:
        When true, the cutoff-carrying distance paths evaluate the
        registered lower bounds of :mod:`repro.distances.lower_bounds`
        before running a kernel (see
        :class:`~repro.indexing.stats.CountingDistance`).  That per-call
        form only serves an index that decides membership with a bounded
        distance -- the linear scan; an index that routes by exact values
        consults bounds through a per-query :class:`BoundTable` instead
        (the reference net's own ``prefilter`` argument).
    """

    #: Human-readable index name used in reports and benchmarks.
    index_name: str = "index"

    #: Human-readable description of how the index absorbs incremental
    #: updates (:meth:`insert` / :meth:`delete`) and when -- if ever -- it
    #: falls back to a bulk rebuild.  Subclasses override this.
    staleness_policy: str = "fully incremental; never rebuilds"

    def __init__(
        self,
        distance: Distance,
        counter: Optional[DistanceCounter] = None,
        require_metric: bool = True,
        cache: Optional[DistanceCache] = None,
        prefilter: bool = False,
    ) -> None:
        if require_metric and not distance.is_metric:
            raise DistanceError(
                f"{type(self).__name__} relies on the triangle inequality but "
                f"{distance.name!r} is not a metric; use LinearScanIndex instead"
            )
        self._counting = CountingDistance(distance, counter, cache, prefilter=prefilter)
        self._items: dict = {}
        #: Incremental-update accounting (inserts, deletes, rebuilds).
        self.update_stats = IndexStats()

    # ------------------------------------------------------------------ #
    # Accounting and common accessors
    # ------------------------------------------------------------------ #
    @property
    def distance(self) -> Distance:
        """The underlying (uncounted) distance measure."""
        return self._counting.inner

    @property
    def counter(self) -> DistanceCounter:
        """The distance-evaluation counter for this index."""
        return self._counting.counter

    @property
    def cache(self) -> Optional[DistanceCache]:
        """The distance cache shared with this index, if any."""
        return self._counting.cache

    def _d(self, first: SequenceLike, second: SequenceLike) -> float:
        """Compute (and count) the exact distance between two payloads."""
        return self._counting(first, second)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def keys(self) -> List[Hashable]:
        """All stored keys."""
        return list(self._items.keys())

    def items(self) -> List[Tuple[Hashable, object]]:
        """All stored ``(key, item)`` pairs."""
        return list(self._items.items())

    def get(self, key: Hashable) -> object:
        """Return the item stored under ``key``."""
        try:
            return self._items[key]
        except KeyError:
            raise IndexError_(f"no item with key {key!r} in this index") from None

    # ------------------------------------------------------------------ #
    # Abstract operations
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def add(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        """Insert ``item`` under ``key`` (auto-generated when omitted)."""

    def remove(self, key: Hashable) -> object:
        """Remove and return the item stored under ``key``."""
        raise NotImplementedError(f"{type(self).__name__} does not support removal")

    def range_query(
        self, query: SequenceLike, radius: float, bounds: Optional[BoundTable] = None
    ) -> List[RangeMatch]:
        """Every stored item within ``radius`` of ``query``: a batch of one.

        ``bounds`` optionally hands back the one-row table
        :meth:`bound_table` built for this query.
        """
        return self.batch_range_query([query], radius, bounds=bounds)[0]

    def bound_table(
        self, query: SequenceLike, spans: List[Tuple[int, int]]
    ) -> Optional[BoundTable]:
        """Lower bounds from ``query[start:start + length]``, per span, to every item.

        ``None`` (the default) means this index consults no table: the
        linear scan evaluates its bounds per call, after the cache; the
        reference net overrides this.  The caller may keep the table for
        further queries over the same segments at any radius, until the
        next write to the index.
        """
        return None

    def batch_range_query(
        self,
        queries: Iterable[SequenceLike],
        radius: float,
        bounds: Optional[BoundTable] = None,
    ) -> List[List[RangeMatch]]:
        """Answer many range queries at once; one result list per query.

        The one search entry of every index: :meth:`range_query` is a batch
        of one, and :meth:`probe_batch` lands here on the calling thread.
        ``bounds`` optionally hands back the table :meth:`bound_table` built
        for exactly these queries (row ``i`` for query ``i``); an index
        whose :meth:`bound_table` is ``None`` never sees one.  A negative
        radius raises :class:`~repro.exceptions.IndexError_`.
        """
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        return self._batch_range_query(list(queries), radius, bounds)

    @abc.abstractmethod
    def _batch_range_query(
        self,
        queries: List[SequenceLike],
        radius: float,
        bounds: Optional[BoundTable],
    ) -> List[List[RangeMatch]]:
        """The index's search: the linear scan's grouped kernel sweeps, the
        reference net's whole-batch frontier.  ``radius`` is non-negative."""

    def probe_batch(
        self,
        queries: List[SequenceLike],
        radius: float,
        bounds: Optional[BoundTable] = None,
        executor=None,
    ) -> Tuple[List[List[RangeMatch]], float]:
        """:meth:`batch_range_query` as the query pipeline asks it.

        One entry for every index and executor: returns the per-query match
        lists plus the CPU seconds burned off the calling thread.  Under a
        parallel executor the index's :meth:`query_work_units` fan out
        through :func:`run_query_work_units`; an index that issues no units
        answers on the calling thread, like the serial path.  A negative
        radius raises :class:`~repro.exceptions.IndexError_` under every
        executor.
        """
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        units = None
        if executor is not None and executor.is_parallel:
            units = self.query_work_units(queries, radius)
        if units is None:
            return self.batch_range_query(queries, radius, bounds=bounds), 0.0
        return run_query_work_units(self, units, len(queries), executor)

    def query_work_units(
        self, queries: List[SequenceLike], radius: float
    ) -> Optional[List[QueryWorkUnit]]:
        """Split a batched range query into independent work units.

        The default issues none: one traversal answers the batch, on the
        calling thread, so the probe is the serial run under every executor
        -- same results, counters and cache order, with nothing to record
        and replay.  That is the reference net (slicing each level's pair
        batch over a pool was measured and moved the probe by less than its
        run-to-run spread; see the README).  The linear scan overrides this
        with one unit per same-shape group of stored items, each a single
        batched kernel sweep that can also ship to a process pool.
        """
        return None

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def insert(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        """Insert ``item`` into the live index, recorded in :attr:`update_stats`.

        Both indexes' :meth:`add` is already incremental (the net runs
        Algorithm 1 in place), so this is :meth:`add` plus the accounting.
        """
        key = self.add(item, key)
        self.update_stats.inserts += 1
        return key

    def delete(self, key: Hashable) -> object:
        """Remove the item under ``key`` from the live index; see :meth:`insert`."""
        item = self.remove(key)
        self.update_stats.deletes += 1
        return item

    # ------------------------------------------------------------------ #
    # Snapshot support (structure export / restore without recomputation)
    # ------------------------------------------------------------------ #
    def export_structure(self) -> dict:
        """JSON-serializable structural state of the built index.

        The returned dictionary always carries ``keys`` (the stored keys in
        iteration order -- which *is* semantically meaningful: probe results
        and therefore downstream accounting depend on it) and the
        :class:`~repro.indexing.stats.IndexStats` counters; subclasses add
        their built state (the net's topology and link distances) through
        :meth:`_export_structure`, referencing items by their position in
        ``keys``.  Payloads themselves are *not* included -- the caller
        (:func:`repro.storage.persistence.save_matcher`) persists them once
        and hands them back to :meth:`restore_structure`.
        """
        state = {
            "keys": list(self._items.keys()),
            "update_stats": asdict(self.update_stats),
        }
        state.update(self._export_structure())
        return state

    def restore_structure(self, state: dict, payloads: dict) -> None:
        """Rebuild the in-memory structure from :meth:`export_structure` output.

        ``payloads`` maps every key in ``state["keys"]`` to its stored item.
        Restoration performs **no distance computations**: the topology and
        the link distances come back from the snapshot, which is what lets a
        loaded matcher answer queries immediately.
        """
        try:
            self._items = {key: payloads[key] for key in state["keys"]}
        except KeyError as error:
            raise IndexError_(
                f"snapshot references key {error.args[0]!r} with no stored payload"
            ) from None
        self.update_stats = IndexStats.from_dict(state.get("update_stats", {}))
        self._restore_structure(state)

    def _export_structure(self) -> dict:
        """Subclass hook: built state beyond the item order (default: none)."""
        return {}

    def _restore_structure(self, state: dict) -> None:
        """Subclass hook: inverse of :meth:`_export_structure`."""

    # ------------------------------------------------------------------ #
    # Conveniences shared by every implementation
    # ------------------------------------------------------------------ #
    def _auto_key(self) -> int:
        """Generate a fresh integer key."""
        key = len(self._items)
        while key in self._items:
            key += 1
        return key

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={len(self)}, distance={self.distance.name!r})"
