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
fancy-indexed) by every subsequent query.  :class:`StoreGather` exposes
the packed layout to the counting batch entry points, which require it as
their ``packed`` argument: it aligns a per-call item list (by position)
with the store, preserving the exact per-item iteration order of
:meth:`~repro.distances.base.Distance.batch` -- results, counters, and
cache interactions stay byte-identical.

Packing is purely an execution-layout change: the gathered tensors hold
the same float64 values ``np.stack`` would produce, so every kernel sees
identical input bytes.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence as TypingSequence, Tuple

import numpy as np

from repro.distances.base import as_array
from repro.distances.cache import content_keys
from repro.exceptions import IndexError_

Shape = Tuple[int, int]


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
        #: Mutation counter (see :attr:`epoch`).
        self._epoch = 0

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
        self._epoch += 1

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
        self._epoch += 1

    def clear(self) -> None:
        self._groups.clear()
        self._shapes.clear()
        self._epoch += 1

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

    def gather(self, positions: TypingSequence[int]) -> np.ndarray:
        """Stack the windows at ``positions`` (which share one shape)."""
        shape = self.store.shape_of(self.keys[positions[0]])
        tensor = self.store.group_tensor(shape)
        rows = np.fromiter(
            map(self.store._groups[shape].rows.__getitem__, map(self.keys.__getitem__, positions)),
            dtype=np.intp,
            count=len(positions),
        )
        if rows.shape[0] == tensor.shape[0] and np.array_equal(
            rows, np.arange(tensor.shape[0])
        ):
            return tensor
        return tensor[rows]
