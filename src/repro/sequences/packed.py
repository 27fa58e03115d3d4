"""Packed window tensors: same-shape sequences as one contiguous array.

The batched distance kernels (:meth:`repro.distances.base.Distance.batch`
and the counting wrapper in :mod:`repro.indexing.stats`) operate on
``(k, length, dim)`` tensors, one per shape group.  Without preparation
every batch call re-coerces each stored window with ``as_array`` and
re-stacks the group -- an O(total elements) copy per query that dominates
the runtime of short-window scans once the DP kernels themselves are
compiled.

:class:`PackedWindowStore` moves that work to insertion time: windows are
coerced once, grouped by ``(length, dim)``, and each group is lazily
stacked into one C-contiguous float64 tensor that is reused (and
fancy-indexed) by every subsequent query.  Two adapters expose the packed
layout to the batch entry points, which accept them as the optional
``packed`` argument:

* :class:`StoreGather` aligns a per-call item list (by position) with the
  store, preserving the exact per-item iteration order of the un-packed
  path -- results, counters, and cache interactions stay byte-identical;
* :class:`TensorGather` serves rows of one already-stacked tensor (a
  single shape group, e.g. a parallel work unit's payload).

Packing is purely an execution-layout change: the gathered tensors hold
the same float64 values ``np.stack`` would produce, so every kernel sees
identical input bytes.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Optional, Sequence as TypingSequence, Tuple

import numpy as np

from repro.distances.base import as_array
from repro.distances.cache import content_keys
from repro.exceptions import IndexError_

try:  # pragma: no cover - stdlib, but absent on exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

Shape = Tuple[int, int]

#: Parent-side registry of live shared-memory exports, by segment name.
#: Consulted by :func:`live_shared_segments` (leak tests) and swept by
#: :func:`release_all_shared_exports` (pool shutdown, server teardown).
_EXPORTS: Dict[str, "SharedWindowExport"] = {}
_EXPORTS_LOCK = threading.Lock()

#: Child-side cache of attached segments (name -> SharedMemory), LRU-bounded
#: so a worker that outlives many matcher epochs does not accumulate maps.
_ATTACHED: Dict[str, object] = {}
_ATTACHED_LOCK = threading.Lock()
_ATTACH_CAPACITY = 8


class _ShapeGroup:
    """One ``(length, dim)`` bucket: member arrays plus a cached stack."""

    __slots__ = ("keys", "arrays", "rows", "tensor", "buffer", "summary")

    def __init__(self) -> None:
        self.keys: List[Hashable] = []
        self.arrays: List[np.ndarray] = []
        #: key -> row position inside :attr:`tensor` / :attr:`arrays`.
        self.rows: Dict[Hashable, int] = {}
        self.tensor: Optional[np.ndarray] = None
        #: What :attr:`tensor` is a prefix view of: rows past the members are
        #: spare capacity, so an ``add`` writes one row instead of restacking
        #: the group (an index that measures while it inserts -- the
        #: reference net -- would otherwise restack once per insertion).
        self.buffer: Optional[np.ndarray] = None
        #: Cached :meth:`PackedWindowStore.group_summary`; any write drops it.
        self.summary: Optional[Tuple[np.ndarray, ...]] = None


class SharedRows:
    """A picklable reference to rows of one exported shape-group tensor.

    This is what a process-pool chunk carries instead of a pickled window
    tensor: segment name, byte offset and shape of the group inside the
    segment, plus the selected row indices (``None`` means the whole group
    in insertion order).  :meth:`resolve` reconstructs the operand tensor
    in the worker -- a zero-copy view for whole groups, one fancy-index
    gather otherwise -- after attaching to the segment at most once per
    process (see :func:`_attach_segment`).
    """

    __slots__ = ("name", "offset", "count", "length", "dim", "rows")

    def __init__(
        self,
        name: str,
        offset: int,
        count: int,
        length: int,
        dim: int,
        rows: Optional[np.ndarray],
    ) -> None:
        self.name = name
        self.offset = offset
        self.count = count
        self.length = length
        self.dim = dim
        self.rows = rows

    def __getstate__(self) -> tuple:
        return (self.name, self.offset, self.count, self.length, self.dim, self.rows)

    def __setstate__(self, state: tuple) -> None:
        self.name, self.offset, self.count, self.length, self.dim, self.rows = state

    def resolve(self) -> np.ndarray:
        """Materialize the referenced rows from the shared segment."""
        shm = _attach_segment(self.name)
        tensor = np.ndarray(
            (self.count, self.length, self.dim),
            dtype=np.float64,
            buffer=shm.buf,
            offset=self.offset,
        )
        if self.rows is None:
            return tensor
        return tensor[self.rows]

    def __repr__(self) -> str:
        selected = self.count if self.rows is None else len(self.rows)
        return (
            f"SharedRows(segment={self.name!r}, group=({self.length}, {self.dim}), "
            f"rows={selected}/{self.count})"
        )


class SharedWindowExport:
    """Parent-side shared-memory image of one :class:`PackedWindowStore` epoch.

    All group tensors are concatenated into a single segment (one syscall,
    one name to track) with a ``shape -> (offset, rows)`` layout table.
    The export lives until the store mutates (a new epoch releases and
    re-exports lazily) or an owner tears it down (:meth:`close`, matcher
    ``close()``, :func:`release_all_shared_exports`).  Creation registers
    the segment in the module registry so tests can assert that nothing
    leaks.
    """

    def __init__(self, store: "PackedWindowStore") -> None:
        if shared_memory is None:  # pragma: no cover - guarded by export_shared
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        layout: Dict[Shape, Tuple[int, int]] = {}
        sources: List[Tuple[int, np.ndarray]] = []
        total = 0
        for shape in store.group_shapes():
            tensor = store.group_tensor(shape)
            layout[shape] = (total, tensor.shape[0])
            sources.append((total, tensor))
            total += tensor.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        for offset, tensor in sources:
            view = np.ndarray(tensor.shape, dtype=np.float64, buffer=self._shm.buf, offset=offset)
            view[...] = tensor
            del view
        self.name = self._shm.name
        self.layout = layout
        self.epoch = store._epoch
        self.nbytes = total
        self._closed = False
        with _EXPORTS_LOCK:
            _EXPORTS[self.name] = self

    def rows(self, shape: Shape, rows: Optional[np.ndarray]) -> SharedRows:
        """A :class:`SharedRows` reference into this export's ``shape`` group."""
        offset, count = self.layout[shape]
        return SharedRows(self.name, offset, count, shape[0], shape[1], rows)

    def close(self) -> None:
        """Unlink and unmap the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with _EXPORTS_LOCK:
            _EXPORTS.pop(self.name, None)
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - already gone
            pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a view is still alive
            pass

    def __repr__(self) -> str:
        return (
            f"SharedWindowExport(segment={self.name!r}, groups={len(self.layout)}, "
            f"bytes={self.nbytes}, closed={self._closed})"
        )


def _attach_segment(name: str):
    """Attach to segment ``name``, at most once per process.

    The parent resolves its own exports straight from the registry (under
    ``fork`` the children inherit that mapping too, making attachment
    free).  Genuine attachments are LRU-cached; Python < 3.13 lacks the
    ``track=False`` flag, so the attachment is explicitly unregistered
    from the ``resource_tracker`` -- the parent owns the segment and
    unlinks it, a tracked child attachment would just produce spurious
    leaked-segment warnings at interpreter exit.
    """
    with _EXPORTS_LOCK:
        export = _EXPORTS.get(name)
    if export is not None:
        return export._shm
    with _ATTACHED_LOCK:
        shm = _ATTACHED.get(name)
        if shm is not None:
            _ATTACHED[name] = _ATTACHED.pop(name)
            return shm
    if shared_memory is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
        if resource_tracker is not None:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals vary
                pass
    with _ATTACHED_LOCK:
        existing = _ATTACHED.get(name)
        if existing is not None:
            shm.close()
            return existing
        _ATTACHED[name] = shm
        while len(_ATTACHED) > _ATTACH_CAPACITY:
            stale_name = next(iter(_ATTACHED))
            stale = _ATTACHED.pop(stale_name)
            try:
                stale.close()
            except BufferError:
                # A tensor view still references the mapping; keep it live.
                _ATTACHED[stale_name] = stale
                break
        return shm


def resolve_remote_tensor(tensor):
    """Materialize a batch operand: pass tensors through, resolve refs."""
    if isinstance(tensor, SharedRows):
        return tensor.resolve()
    return tensor


def live_shared_segments() -> List[str]:
    """Names of this process's live exported segments (leak checks)."""
    with _EXPORTS_LOCK:
        return sorted(_EXPORTS)


def release_all_shared_exports() -> None:
    """Tear down every live export (pool shutdown / server exit path)."""
    with _EXPORTS_LOCK:
        exports = list(_EXPORTS.values())
    for export in exports:
        export.close()


class PackedWindowStore:
    """Keyed storage of ``(length, dim)`` windows in packed shape groups.

    Insertion order is preserved within each group, and groups remember
    their first-insertion order, so a scan that walks the store in the
    caller's key order sees exactly the arrays it inserted.  ``add`` appends
    to its group's cached tensor in place (amortized O(1)); ``remove``
    invalidates only the affected group's tensor and is O(group size) (it
    compacts the row table), which is fine for the query-dominated
    workloads the store exists for.
    """

    def __init__(self) -> None:
        self._groups: Dict[Shape, _ShapeGroup] = {}
        self._shapes: Dict[Hashable, Shape] = {}
        #: Mutation counter; a shared-memory export belongs to one epoch.
        self._epoch = 0
        self._export: Optional[SharedWindowExport] = None
        self._export_failed_epoch: Optional[int] = None

    def __len__(self) -> int:
        return len(self._shapes)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._shapes

    def add(self, key: Hashable, item: object) -> None:
        """Coerce ``item`` once and file it under its shape group."""
        if key in self._shapes:
            raise IndexError_(f"key {key!r} is already packed")
        array = np.ascontiguousarray(as_array(item))
        shape: Shape = (array.shape[0], array.shape[1])
        group = self._groups.get(shape)
        if group is None:
            group = self._groups[shape] = _ShapeGroup()
        count = len(group.keys)
        group.rows[key] = count
        group.keys.append(key)
        group.arrays.append(array)
        if group.tensor is not None:
            # Append in place; tensors handed out earlier are shorter views
            # (or views of an outgrown buffer), so they never see the write.
            if count == group.buffer.shape[0]:
                grown = np.empty((2 * count,) + shape, dtype=np.float64)
                grown[:count] = group.tensor
                group.buffer = grown
            group.buffer[count] = array
            group.tensor = group.buffer[: count + 1]
        group.summary = None
        self._shapes[key] = shape
        self._bump_epoch()

    def remove(self, key: Hashable) -> None:
        """Drop ``key``; empty groups disappear entirely."""
        try:
            shape = self._shapes.pop(key)
        except KeyError:
            raise IndexError_(f"key {key!r} is not packed") from None
        group = self._groups[shape]
        row = group.rows.pop(key)
        del group.keys[row]
        del group.arrays[row]
        for later in group.keys[row:]:
            group.rows[later] -= 1
        group.tensor = group.buffer = group.summary = None
        if not group.keys:
            del self._groups[shape]
        self._bump_epoch()

    def clear(self) -> None:
        self._groups.clear()
        self._shapes.clear()
        self._bump_epoch()

    def _bump_epoch(self) -> None:
        """Start a new epoch: any shared export of the old one is stale."""
        self._epoch += 1
        if self._export is not None:
            self._export.close()
            self._export = None

    def export_shared(self) -> Optional[SharedWindowExport]:
        """The shared-memory export of the current epoch, built on demand.

        Returns ``None`` when shared memory is unusable on this platform
        (or creation failed for this epoch -- the failure is remembered so
        a busy scan does not retry per batch) or the store is empty; the
        caller then falls back to shipping materialized tensors.
        """
        if self._export is not None:
            return self._export
        if shared_memory is None or not self._groups:
            return None
        if self._export_failed_epoch == self._epoch:
            return None
        try:
            self._export = SharedWindowExport(self)
        except (OSError, ValueError):
            self._export_failed_epoch = self._epoch
            return None
        return self._export

    def release_shared(self) -> None:
        """Tear down this store's shared export, if one is live."""
        if self._export is not None:
            self._export.close()
            self._export = None

    def shape_of(self, key: Hashable) -> Shape:
        """The ``(length, dim)`` shape of the stored window."""
        return self._shapes[key]

    def array(self, key: Hashable) -> np.ndarray:
        """The coerced ``(length, dim)`` array stored under ``key``."""
        shape = self._shapes[key]
        group = self._groups[shape]
        return group.arrays[group.rows[key]]

    def group_shapes(self) -> List[Shape]:
        """Group shapes in first-insertion order."""
        return list(self._groups.keys())

    def group_keys(self, shape: Shape) -> List[Hashable]:
        """Member keys of one group, in insertion order."""
        return list(self._groups[shape].keys)

    def group_tensor(self, shape: Shape) -> np.ndarray:
        """The group's packed ``(k, length, dim)`` tensor (cached stack)."""
        group = self._groups[shape]
        if group.tensor is None:
            group.tensor = group.buffer = np.stack(group.arrays)
        return group.tensor

    def group_summary(self, shape: Shape) -> Tuple[np.ndarray, ...]:
        """``(first element, last element, box low, box high)`` of every member.

        Four ``(k, dim)`` arrays in tensor-row order: what the lower-bound
        tables of :mod:`repro.distances.lower_bounds` read instead of the
        windows themselves.  Derived data with the group tensor's lifecycle:
        dropped by any write to the group, rebuilt from the tensor on the
        next request.
        """
        group = self._groups[shape]
        if group.summary is None:
            tensor = self.group_tensor(shape)
            group.summary = (
                tensor[:, 0, :],
                tensor[:, -1, :],
                tensor.min(axis=1),
                tensor.max(axis=1),
            )
        return group.summary

    @property
    def epoch(self) -> int:
        """Mutation counter: equal epochs mean unchanged keys, rows and summaries."""
        return self._epoch

    def row_of(self, key: Hashable) -> int:
        """Row of ``key`` inside its group's tensor."""
        return self._groups[self._shapes[key]].rows[key]

    def __repr__(self) -> str:
        return (
            f"PackedWindowStore(items={len(self._shapes)}, "
            f"groups={len(self._groups)})"
        )


class StoreGather:
    """Adapter: a positional item list backed by a :class:`PackedWindowStore`.

    ``keys[i]`` names the store entry behind position ``i`` of the batch
    call's item list.  ``gather`` fancy-indexes the group tensor, so the
    per-call cost is one index array instead of ``k`` coercions and a
    stack.
    """

    __slots__ = ("store", "keys", "_content_keys")

    def __init__(self, store: PackedWindowStore, keys: TypingSequence[Hashable]) -> None:
        self.store = store
        self.keys = keys
        self._content_keys: Optional[List[Optional[bytes]]] = None

    def content_keys(self, items: TypingSequence[object]) -> List[Optional[bytes]]:
        """Distance-cache keys of ``items``, the positional list this gather backs.

        Memoized: one gather serves every query of a scan, so the key row
        that rides beside the packed rows is built once per scan and each
        batch probes the cache without touching the windows again.
        """
        if self._content_keys is None:
            self._content_keys = content_keys(items)
        return self._content_keys

    def shape_of(self, position: int) -> Shape:
        return self.store.shape_of(self.keys[position])

    def group_positions(
        self, positions: TypingSequence[int]
    ) -> List[Tuple[Shape, List[int]]]:
        """Split ``positions`` into shape groups, first-occurrence order.

        Equivalent to grouping ``shape_of(position)`` position by position,
        but a single-shape store -- the common case, every fixed-length
        window extraction -- resolves in O(1) instead of two method calls
        and a dict access per position.
        """
        groups = self.store._groups
        if len(groups) == 1:
            shape = next(iter(groups))
            return [(shape, list(positions))] if len(positions) else []
        shapes = self.store._shapes
        keys = self.keys
        grouped: dict = {}
        for position in positions:
            grouped.setdefault(shapes[keys[position]], []).append(position)
        return list(grouped.items())

    def _group_rows(self, shape: Shape, positions: TypingSequence[int]) -> np.ndarray:
        """Rows of ``positions`` (which share ``shape``) inside the group tensor."""
        return np.fromiter(
            map(self.store._groups[shape].rows.__getitem__, map(self.keys.__getitem__, positions)),
            dtype=np.intp,
            count=len(positions),
        )

    def gather(self, positions: TypingSequence[int]) -> np.ndarray:
        """Stack the windows at ``positions`` (which share one shape)."""
        shape = self.store.shape_of(self.keys[positions[0]])
        tensor = self.store.group_tensor(shape)
        rows = self._group_rows(shape, positions)
        if rows.shape[0] == tensor.shape[0] and np.array_equal(
            rows, np.arange(tensor.shape[0])
        ):
            return tensor
        return tensor[rows]

    def remote_payload(self, positions: TypingSequence[int], require: bool = False):
        """A process-pool operand for ``positions``: a shared-memory row
        reference when the store exports one, else the gathered tensor.

        The reference resolves to byte-identical operand rows in the
        worker, so results/counters cannot depend on the transport.  With
        ``require=True`` (the forced ``transport="shared"`` setting) an
        unexportable store raises instead of silently pickling.
        """
        export = self.store.export_shared()
        if export is None:
            if require:
                raise RuntimeError(
                    "transport='shared' requires a shared-memory export, but the "
                    "packed store could not create one on this platform"
                )
            return self.gather(positions)
        shape = self.store.shape_of(self.keys[positions[0]])
        rows = self._group_rows(shape, positions)
        count = export.layout[shape][1]
        if rows.shape[0] == count and np.array_equal(rows, np.arange(count)):
            return export.rows(shape, None)
        return export.rows(shape, rows)


class TensorGather:
    """Adapter: positions are rows of one pre-stacked ``(k, m, dim)`` tensor."""

    __slots__ = ("tensor",)

    def __init__(self, tensor: np.ndarray) -> None:
        self.tensor = tensor

    def shape_of(self, position: int) -> Shape:
        return (self.tensor.shape[1], self.tensor.shape[2])

    def group_positions(
        self, positions: TypingSequence[int]
    ) -> List[Tuple[Shape, List[int]]]:
        """One tensor, one shape: all positions form a single group."""
        if not len(positions):
            return []
        return [((self.tensor.shape[1], self.tensor.shape[2]), list(positions))]

    def gather(self, positions: TypingSequence[int]) -> np.ndarray:
        if len(positions) == self.tensor.shape[0] and list(positions) == list(
            range(self.tensor.shape[0])
        ):
            return self.tensor
        return self.tensor[np.asarray(positions, dtype=np.intp)]

    def remote_payload(self, positions: TypingSequence[int], require: bool = False) -> np.ndarray:
        """No backing store to export; ship the materialized rows."""
        return self.gather(positions)
