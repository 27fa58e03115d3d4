"""The Reference Net: the paper's generic metric index (Section 6, Appendix A).

The reference net is a hierarchical structure over a metric space:

* levels are numbered ``0 .. r-1``; level ``i`` is associated with the
  radius ``eps_i = eps' * 2**i``;
* the bottom level conceptually contains every item; each item is stored
  once, at its *home level* -- the highest level at which it acts as a
  reference;
* a reference ``R(i, j)`` at level ``i`` keeps a list ``L(i, j)`` of
  references from level ``i-1`` within distance ``eps_i`` -- and, unlike a
  single-parent tree, an item may appear in the lists of **several** parents, which
  is what lets a single reference distance prune or accept more of the
  database (Lemma 4, Figure 2);
* the *inclusive* property guarantees every reference of level ``i-1`` has
  at least one parent at level ``i``; the *exclusive* property keeps
  references of the same level at least ``eps_i`` apart;
* an optional ``nummax`` cap bounds how many parent lists may contain one
  item, keeping the space linear in adversarial distributions (the paper's
  DFD-5 configuration).

The implementation below maintains the inclusive (covering) property
exactly -- that is what range-query correctness relies on -- and the
exclusive property to the extent the insertion algorithm's local view
allows, matching the behaviour of the paper's Algorithm 1.

One implementation refinement over the paper's pseudo-code: every parent
link stores the exact parent-child distance (known for free at insertion
time), and the range query uses it for per-child triangle-inequality bounds
in addition to Lemma 4's level-radius bounds.  This costs no extra distance
computations, keeps the space linear, and is precisely the kind of pruning
the paper's Figure 2 motivates for the multi-parent design.

Execution layout, write side: the node objects with their child lists are
what Algorithms 1 and 2 update; beside them the net keeps a
:class:`~repro.sequences.packed.PackedWindowStore` of the coerced items,
which a snapshot restore refills without a single distance computation.

Execution layout, read side: range queries never walk the node objects.
They run on a *flat layout* (:class:`_FlatLayout`) derived from the child
lists -- one integer id per node in packed-store order, CSR child ranges with
one routing margin per link, nodes per home level, content keys -- built
lazily on the first probe after a write (it is keyed by the store's epoch; it
is never maintained incrementally and never snapshotted).  One traversal
serves every query of a batch at once (:meth:`ReferenceNet._frontier`): per
level, the pending ``(query, node)`` pairs of *all* queries are classified
from the bound table, measured by one cache probe and one pair-batch kernel
call per shape group, and routed with array operations over the CSR rows.

Bound-first routing (``prefilter=True``): before a level's pairs are
measured, each is classified from one entry of a per-query *bound table* --
admissible lower bounds ``lb <= d(query, node)`` for every stored window,
built once per query for all of its segments from the packed store's
per-window summaries (:meth:`ReferenceNet.bound_table`).  Only pairs whose
bound does not already exceed the radius reach the cache and the kernel; see
:meth:`ReferenceNet._frontier` for the three classes and why each is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.distances.base import Distance, SequenceLike, as_array, validate_group_shape
from repro.distances.cache import DistanceCache, content_keys
from repro.distances.lower_bounds import combined_bound_table, has_bound_table
from repro.distances.rounding import accepts, prunes
from repro.exceptions import IndexError_, InvariantViolationError
from repro.indexing.base import BoundTable, MetricIndex, RangeMatch
from repro.indexing.stats import CountingDistance, DistanceCounter, first_occurrences
from repro.sequences.packed import PackedWindowStore, StoreGather
from repro.sequences.sequence import Sequence

#: CPython-flavoured per-node and per-parent-link sizes behind the footprint
#: estimate of :meth:`ReferenceNet.stats` (the space-overhead figures only).
NODE_OVERHEAD_BYTES = 112
LINK_OVERHEAD_BYTES = 24


class _Node:
    """One stored item and its position in the hierarchy."""

    __slots__ = ("key", "item", "home_level", "subtree", "children", "parent_links")

    def __init__(self, key: Hashable, item: object, home_level: int, subtree: float) -> None:
        self.key = key
        self.item = item
        #: Highest level at which this node acts as a reference.
        self.home_level = home_level
        #: Upper bound on the distance to any node derived from this one
        #: (:meth:`ReferenceNet._subtree_radius` of :attr:`home_level`).
        self.subtree = subtree
        #: Children lists per level: ``children[i]`` is the list ``L(i, self)``
        #: as ``(child, exact parent-child distance)`` pairs.
        self.children: Dict[int, List[Tuple["_Node", float]]] = {}
        #: ``(level, parent)`` pairs for every list containing this node.
        self.parent_links: List[Tuple[int, "_Node"]] = []

    def iter_children(self) -> Iterator[Tuple[int, "_Node", float]]:
        """Yield ``(level, child, distance)`` for every child in every list."""
        for level, kids in self.children.items():
            for child, link_distance in kids:
                yield level, child, link_distance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Node(key={self.key!r}, home_level={self.home_level})"


class _FlatLayout:
    """The net as arrays: what a range query reads instead of the nodes.

    Node ``i`` is the ``i``-th window of the packed store (group by group,
    row by row) -- also column ``i`` of a :class:`~repro.indexing.base.BoundTable`.
    Derived from the child lists by :meth:`ReferenceNet._layout`; valid for
    the store epoch it was built at.
    """

    __slots__ = (
        "epoch", "root", "keys", "items", "content", "all_keyed", "level", "subtree",
        "by_level", "child_start", "child_count", "child", "margin", "group", "first",
        "tensors", "shapes",
    )  # fmt: skip

    #: Store epoch the layout mirrors.
    epoch: int
    #: Id of the root node.
    root: int
    #: Key / item / content key per node (object arrays, so a fancy index
    #: gathers them at C speed); ``all_keyed`` says no content key is ``None``.
    keys: np.ndarray
    items: np.ndarray
    content: np.ndarray
    all_keyed: bool
    #: Home level and subtree radius per node; node ids per home level.
    level: np.ndarray
    subtree: np.ndarray
    by_level: List[np.ndarray]
    #: CSR child rows: node ``i`` owns rows ``child_start[i] : child_start[i + 1]``
    #: (``child_count[i]`` of them, in :meth:`_Node.iter_children` order).
    #: ``margin`` is what a parent distance
    #: ``v`` must clear to settle the row's child without measuring it: the
    #: link distance for a leaf child, ``reach`` (link + the child's subtree
    #: radius, which settles the child's descendants with it) otherwise --
    #: ``v + margin <= r`` accepts, ``v - margin > r`` rejects.
    child_start: np.ndarray
    child_count: np.ndarray
    child: np.ndarray
    margin: np.ndarray
    #: Packed-store shape group per node, the id of each group's first node
    #: (a node's tensor row is its id minus that), and the group tensors.
    group: np.ndarray
    first: np.ndarray
    tensors: List[np.ndarray]
    shapes: List[Tuple[int, int]]


def _object_array(values: list) -> np.ndarray:
    """``values`` as a 1-D object array (elements may be sequences themselves)."""
    array = np.empty(len(values), dtype=object)
    for position, value in enumerate(values):
        array[position] = value
    return array


#: Per-(query, node) traversal state.  Below ``_ACCEPTED`` a pair is *open*:
#: untouched, or deferred by a parent to be measured when its level comes.
#: From ``_ACCEPTED`` up it is *decided*: accepted or rejected without a
#: distance (either way its descendants inherit the verdict, level by level),
#: or ``_DONE`` -- it had its turn at its own level.
_NEW, _PENDING, _ACCEPTED, _REJECTED, _DONE = range(5)

#: Child rows expanded at a time: bounds the routing temporaries (a few
#: index and float vectors of this length) whatever the level's size.
_CHUNK_ROWS = 8192


class _QueryOperands:
    """One batch's queries as pair-kernel operands: stacked by shape, keyed."""

    __slots__ = ("tensors", "group", "row", "content", "all_keyed")

    def __init__(self, queries: List[SequenceLike], arrays: List[np.ndarray]) -> None:
        members: Dict[Tuple[int, int], List[int]] = {}
        for position, array in enumerate(arrays):
            members.setdefault(array.shape, []).append(position)
        #: Shape group and row inside that group's tensor, per query.
        self.group = np.empty(len(arrays), dtype=np.int32)
        self.row = np.empty(len(arrays), dtype=np.int32)
        #: One ``(members, length, dim)`` tensor per query shape.
        self.tensors: List[np.ndarray] = []
        for positions in members.values():
            self.group[positions] = len(self.tensors)
            self.row[positions] = np.arange(len(positions))
            self.tensors.append(np.stack([arrays[position] for position in positions]))
        contents = content_keys(queries)
        #: Content key per query; ``None`` for a query the cache cannot key.
        self.content = _object_array(contents)
        self.all_keyed = None not in contents


@dataclass
class ReferenceNetStats:
    """Space-overhead statistics (the quantities of Figures 5-7)."""

    #: Number of stored items (= nodes; each item is stored exactly once).
    node_count: int
    #: Total number of parent links (= total size of all reference lists).
    parent_link_count: int
    #: Average number of parents per non-root node.
    average_parents: float
    #: Number of non-empty reference lists.
    list_count: int
    #: Number of levels currently spanned by the hierarchy.
    level_count: int
    #: Rough in-memory footprint estimate in bytes (nodes + links).
    estimated_size_bytes: int
    #: Histogram ``{home_level: node count}``.
    level_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def estimated_size_mb(self) -> float:
        """The byte estimate expressed in megabytes."""
        return self.estimated_size_bytes / (1024.0 * 1024.0)


class ReferenceNet(MetricIndex):
    """Linear-space multi-parent metric index optimised for range queries.

    Parameters
    ----------
    distance:
        A metric distance (the constructor refuses non-metric measures).
    eps_prime:
        The base radius ``eps'``; level ``i`` uses radius ``eps' * 2**i``.
        The paper's experiments use ``eps' = 1``.
    nummax:
        Optional cap on the number of parent lists containing one item
        (``None`` = unconstrained; 5 reproduces the paper's DFD-5 / RN-5).
    counter:
        Optional shared distance counter.
    prefilter:
        Classify every frontier pair from its bound-table entry before the
        cache and the kernel see it (see :meth:`_frontier`).  Takes
        effect for the distances whose lower bounds have a table form
        (:func:`~repro.distances.lower_bounds.has_bound_table`: the discrete
        Frechet distance today); for any other distance the traversal is the
        same with the flag on or off.  Off by default, like a bare
        :class:`~repro.indexing.linear_scan.LinearScanIndex`; the matcher
        passes :attr:`~repro.core.config.MatcherConfig.prefilter`.
    """

    index_name = "reference-net"

    #: Algorithms 1 and 2 of the paper are already incremental: insertion
    #: descends the hierarchy and deletion re-inserts orphaned nodes, so
    #: the net never goes stale; the one exception is removing the root
    #: reference, which rebuilds the structure eagerly (Algorithm 2's
    #: special case).
    staleness_policy = (
        "fully incremental (Algorithm 1 insert, Algorithm 2 delete with "
        "orphan re-insertion); root deletion rebuilds eagerly"
    )

    def __init__(
        self,
        distance: Distance,
        eps_prime: float = 1.0,
        nummax: Optional[int] = None,
        counter: Optional[DistanceCounter] = None,
        cache: Optional[DistanceCache] = None,
        prefilter: bool = False,
    ) -> None:
        # The counting wrapper's own per-call prefilter stays off: the net
        # never asks for a bounded distance, it reads the table itself.
        super().__init__(distance, counter, require_metric=True, cache=cache)
        self.prefilter = bool(prefilter)
        if eps_prime <= 0:
            raise IndexError_(f"eps_prime must be positive, got {eps_prime}")
        if nummax is not None and nummax < 1:
            raise IndexError_(f"nummax must be >= 1, got {nummax}")
        self.eps_prime = float(eps_prime)
        self.nummax = nummax
        self._nodes: Dict[Hashable, _Node] = {}
        self._root: Optional[_Node] = None
        self._max_level = 1
        #: The coerced items, by key: what a level's batched kernel gathers.
        self._packed = PackedWindowStore()
        #: The read-side replica (:meth:`_layout`); ``None`` until a probe.
        self._flat: Optional[_FlatLayout] = None

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def radius(self, level: int) -> float:
        """The covering radius ``eps' * 2**level`` of level ``level``."""
        return self.eps_prime * (2.0 ** level)

    def _subtree_radius(self, home_level: int) -> float:
        """Upper bound on the distance from a reference with the given home
        level to any node derived from it (geometric sum of the radii of the
        lists below it, bounded by the next level's radius)."""
        return self.radius(home_level + 1)

    @property
    def root_key(self) -> Optional[Hashable]:
        """Key of the current root reference (``None`` when empty)."""
        return self._root.key if self._root is not None else None

    @property
    def max_level(self) -> int:
        """The current top level of the hierarchy."""
        return self._max_level

    # ------------------------------------------------------------------ #
    # Insertion (Algorithm 1)
    # ------------------------------------------------------------------ #
    def add(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        if key is None:
            key = self._auto_key()
        if key in self._items:
            raise IndexError_(f"key {key!r} is already present")

        if self._root is None:
            self._root = self._new_node(key, item, self._max_level)
            return key

        root_distance = self._d(item, self._root.item)
        self._ensure_root_covers(root_distance)

        level = self._max_level
        candidates: List[Tuple[_Node, float]] = [(self._root, root_distance)]
        # Descend until no reference at the next level down covers the new
        # item, or until we reach the level just above the bottom.
        while level > 1:
            next_candidates = self._covering_candidates(item, candidates, level - 1)
            if not next_candidates:
                break
            candidates = next_candidates
            level -= 1

        self._attach(self._new_node(key, item, level - 1), candidates, level)
        return key

    def _new_node(self, key: Hashable, item: object, home_level: int) -> _Node:
        """Create and register the (childless, parentless) node of ``item``."""
        node = _Node(key, item, home_level, self._subtree_radius(home_level))
        # Packing coerces the item, so an unusable payload is refused here,
        # before anything is registered.
        self._packed.add(key, item)
        self._nodes[key] = node
        self._items[key] = item
        return node

    def _ensure_root_covers(self, root_distance: float) -> None:
        """Raise the top level until the root covers the new item."""
        while root_distance > self.radius(self._max_level):
            self._max_level += 1
        if self._root is not None:
            # No row refers to the root, so only its own radius moves.
            self._root.home_level = self._max_level
            self._root.subtree = self._subtree_radius(self._max_level)

    def _covering_candidates(
        self,
        item: object,
        candidates: List[Tuple[_Node, float]],
        level: int,
    ) -> List[Tuple[_Node, float]]:
        """References at ``level`` (children of ``candidates`` plus the
        candidates themselves, which implicitly appear at every lower level)
        that cover ``item`` within ``radius(level)``."""
        threshold = self.radius(level)
        seen: set = set()
        result: List[Tuple[_Node, float]] = []
        for node, known_distance in candidates:
            if node not in seen and known_distance <= threshold:
                seen.add(node)
                result.append((node, known_distance))
        # Children in the list at ``level + 1`` have home level ``level``;
        # the ones not met yet are measured together, like a query's level.
        unmeasured: List[_Node] = []
        for node, _ in candidates:
            for child, _link in node.children.get(level + 1, ()):
                if child not in seen:
                    seen.add(child)
                    unmeasured.append(child)
        if unmeasured:
            distances = self._measure(item, unmeasured, self._counting)
            for child, child_distance in zip(unmeasured, distances):
                if child_distance <= threshold:
                    result.append((child, child_distance))
        return result

    def _measure(self, query: SequenceLike, frontier: List[_Node], counting) -> List[float]:
        """``d(query, node)`` for one level of Algorithm 1's descent, as one
        batched request (range queries measure through :meth:`_measure_pairs`).

        The operands come from the packed store, so the call costs one cache
        row probe, one kernel sweep and one bulk store whatever the level's
        size.  Distances are requested in the batch call form
        (:meth:`~repro.distances.base.Distance.compute_batch`), like the
        linear scan's.

        Nodes with the same content need care when a cache is in play:
        measured one by one, the first is computed and the others are cache
        hits, whereas one batch would miss (and compute) them all.  So only
        first occurrences go into the batch and the repeats are requested
        afterwards -- hits with a cache attached, computations without --
        which keeps the tallies and the store order exact (the split is
        :func:`~repro.indexing.stats.first_occurrences`, the one
        :meth:`~repro.indexing.stats.CountingDistance.pairs` settles by).
        """
        items = [node.item for node in frontier]
        keys = [node.key for node in frontier]
        gather = StoreGather(self._packed, keys)
        if len(frontier) > 1 and isinstance(query, Sequence):
            probed, unkeyed, repeats, _origins = first_occurrences(gather.content_keys(items))
            if repeats:
                values = [0.0] * len(frontier)
                for part in (sorted(probed + unkeyed), repeats):
                    distances = counting.batch(
                        query,
                        [items[position] for position in part],
                        packed=StoreGather(self._packed, [keys[position] for position in part]),
                    )
                    for position, value in zip(part, distances.tolist()):
                        values[position] = value
                return values
        return counting.batch(query, items, packed=gather).tolist()

    def _attach(self, node: _Node, parents: List[Tuple[_Node, float]], level: int) -> None:
        """Insert ``node`` into the lists ``L(level, parent)`` of ``parents``."""
        chosen = parents
        if self.nummax is not None and len(parents) > self.nummax:
            chosen = sorted(parents, key=lambda pair: pair[1])[: self.nummax]
        for parent, link_distance in chosen:
            parent.children.setdefault(level, []).append((node, link_distance))
            node.parent_links.append((level, parent))

    # ------------------------------------------------------------------ #
    # Deletion (Algorithm 2)
    # ------------------------------------------------------------------ #
    def remove(self, key: Hashable) -> object:
        if key not in self._nodes:
            raise IndexError_(f"no item with key {key!r} in this index")
        node = self._nodes[key]

        if node is self._root:
            item = node.item
            remaining = [
                (other.key, other.item) for other in self._nodes.values() if other is not node
            ]
            self._rebuild(remaining)
            return item

        self._forget(node)
        for level, parent in node.parent_links:
            parent.children[level] = [
                entry for entry in parent.children[level] if entry[0] is not node
            ]
            if not parent.children[level]:
                del parent.children[level]
        node.parent_links = []

        orphans = self._dissolve(node)
        for orphan in orphans:
            self._forget(orphan)
        for orphan in orphans:
            self.add(orphan.item, orphan.key)
        return node.item

    def _forget(self, node: _Node) -> None:
        """Drop ``node`` from the key tables (its links are the caller's job)."""
        del self._nodes[node.key]
        del self._items[node.key]
        self._packed.remove(node.key)

    def _dissolve(self, node: _Node) -> List[_Node]:
        """Detach ``node``'s children; return nodes left without any parent.

        Orphaning can cascade: a child whose only parent was an orphan is an
        orphan too.  The returned list never contains ``node`` itself.
        """
        orphans: List[_Node] = []
        stack = [node]
        while stack:
            current = stack.pop()
            for level, child, _link in list(current.iter_children()):
                child.parent_links.remove((level, current))
                if not child.parent_links:
                    orphans.append(child)
                    stack.append(child)
            current.children = {}
        return orphans

    def _rebuild(self, items: List[Tuple[Hashable, object]]) -> None:
        """Rebuild the structure from scratch (used when the root is removed)."""
        self._nodes = {}
        self._items = {}
        # Cleared, not replaced: the store's epoch keeps counting, so a
        # bound table of the old structure can never pass for a current one.
        self._packed.clear()
        self._root = None
        self._max_level = 1
        for key, item in items:
            self.add(item, key)
        self.update_stats.rebuilds += 1
        self.update_stats.last_rebuild_reason = "root deletion"

    # ------------------------------------------------------------------ #
    # Range query (Algorithm 3)
    # ------------------------------------------------------------------ #
    def bound_table(
        self, query: SequenceLike, spans: List[Tuple[int, int]]
    ) -> Optional[BoundTable]:
        """The ``S x W`` lower-bound table of one query's ``S`` segments.

        Entry ``(s, w)`` equals the linear scan's per-call prefilter bound
        (:func:`~repro.distances.lower_bounds.combined_batch_bound`) from
        segment ``query[start_s : start_s + length_s]`` to stored window
        ``w``, bit for bit, but the whole table is read off the packed
        store's per-window summaries in a handful of array operations: one
        block per window shape group, side by side.  A group the distance
        cannot compare with the query (another element dimensionality)
        contributes zeros, which settle nothing.  Columns follow the store's
        rows *now* -- the node ids of the flat layout; the table carries the
        store's epoch and the traversal refuses it after any write.

        ``None`` when bound-first routing is off, the net is empty, or the
        distance's bounds have no table form.
        """
        if not self.prefilter or self._root is None or not has_bound_table(self.distance):
            return None
        starts = np.fromiter((start for start, _length in spans), np.intp, len(spans))
        lengths = np.fromiter((length for _start, length in spans), np.intp, len(spans))
        return BoundTable(self._packed.epoch, self._bound_matrix(as_array(query), starts, lengths))

    def _bound_matrix(
        self, array: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """The matrix of :meth:`bound_table` for a coerced query."""
        blocks: List[np.ndarray] = []
        for shape in self._packed.group_shapes():
            if shape[1] == array.shape[1]:
                blocks.append(
                    combined_bound_table(
                        self.distance, array, starts, lengths, self._packed.group_summary(shape)
                    )
                )
            else:
                count = len(self._packed.group_tensor(shape))
                blocks.append(np.zeros((len(starts), count), dtype=np.float64))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def _layout(self) -> _FlatLayout:
        """The flat layout of the current structure, rebuilt after any write.

        Every write to the net writes to the packed store, so the store's
        epoch says whether the cached layout still mirrors the nodes.  The
        rebuild is one pass over the child lists -- no distance
        computation -- and is deliberately never done incrementally.
        """
        flat = self._flat
        if flat is not None and flat.epoch == self._packed.epoch:
            return flat
        store = self._packed
        flat = _FlatLayout()
        flat.epoch = store.epoch
        flat.shapes = store.group_shapes()
        flat.tensors = [store.group_tensor(shape) for shape in flat.shapes]
        sizes = [len(tensor) for tensor in flat.tensors]
        flat.first = np.cumsum([0] + sizes[:-1]).astype(np.int32)
        flat.group = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        keys = [key for shape in flat.shapes for key in store.group_keys(shape)]
        position = {key: index for index, key in enumerate(keys)}
        nodes = [self._nodes[key] for key in keys]
        count = len(nodes)
        items = [node.item for node in nodes]
        contents = content_keys(items)
        flat.keys = _object_array(keys)
        flat.items = _object_array(items)
        flat.content = _object_array(contents)
        flat.all_keyed = None not in contents
        flat.root = position[self._root.key]
        flat.level = np.fromiter((node.home_level for node in nodes), np.int32, count)
        flat.subtree = np.fromiter((node.subtree for node in nodes), np.float64, count)
        flat.by_level = [
            np.flatnonzero(flat.level == level).astype(np.int32)
            for level in range(self._max_level + 1)
        ]
        rows = [list(self._child_rows(node)) for node in nodes]
        flat.child_count = np.fromiter(map(len, rows), np.int32, count)
        flat.child_start = np.zeros(count + 1, dtype=np.int32)
        np.cumsum(flat.child_count, out=flat.child_start[1:])
        flat.child = np.fromiter(
            (position[child.key] for kids in rows for child, _margin in kids), np.int32
        )
        flat.margin = np.fromiter(
            (margin for kids in rows for _child, margin in kids), np.float64
        )
        self._flat = flat
        return flat

    @staticmethod
    def _child_rows(node: _Node) -> Iterator[Tuple[_Node, float]]:
        """``(child, routing margin)`` per child link of ``node``, in list order.

        The margin (see :class:`_FlatLayout`) is the link distance for a
        leaf child and ``link + child.subtree`` -- the reach, which covers
        the child's descendants too -- for any other.
        """
        for _level, child, link_distance in node.iter_children():
            yield child, (link_distance + child.subtree if child.children else link_distance)

    def _batch_range_query(
        self,
        queries: List[SequenceLike],
        radius: float,
        bounds: Optional[BoundTable],
    ) -> List[List[RangeMatch]]:
        return self._frontier(queries, radius, bounds)

    def _frontier(
        self,
        queries: List[SequenceLike],
        radius: float,
        bounds: Optional[BoundTable],
    ) -> List[List[RangeMatch]]:
        """All items within ``radius`` of each query: the one traversal.

        Levels are processed from the top down, as in the paper's
        Algorithm 3: a reference's distance is computed only if none of the
        lists containing it (nor Lemma 4 applied to an ancestor) already
        decided it.  Items proven to match through the triangle inequality
        alone are returned with ``distance=None``.  Each query's matches
        come back in node-id (packed-store) order.

        The traversal is *level-synchronous over the whole batch*.  A child's
        home level is strictly below its parent's, so whatever can decide a
        level-``i`` node for a query has happened by the time level ``i``
        starts; and a rule that decides a non-leaf settles its whole subtree
        with it.  The set of decided ``(query, node)`` pairs after a level is
        therefore the union of what each parent's rule decides -- it does
        not depend on the order parents are visited in, nor on the order of
        the queries -- and so are the measured pairs and every match's
        ``distance is None``-ness.  That is what lets one pass serve all the
        queries: per level, the pending pairs of every query are collected
        from one ``queries x nodes`` state plane, measured together
        (:meth:`_measure_pairs`: one cache probe, one pair-batch kernel call
        per shape group, one bulk store -- so cache entries are inserted
        level by level, within a level by query position, then node id) and
        routed by array operations over the flat layout's CSR rows
        (:meth:`_route`).  A subtree verdict is not pushed to the descendants
        at once: the children are marked, and pass the mark on when their
        own level comes -- always before the level of any node it can reach.

        With ``bounds`` -- the batch's :meth:`bound_table`, built here when
        bound-first routing is on and the caller holds none -- every pending
        pair ``(q, n)`` is first classified from its entry ``lb <= d(q, n)``,
        before any cache probe or kernel call:

        * ``lb - subtree(n) > radius`` **rejects** ``n`` and its subtree:
          every descendant ``c`` has ``d(n, c) <= subtree(n)``, so
          ``d(q, c) >= d(q, n) - d(n, c) >= lb - subtree(n)``.
        * otherwise ``lb > radius`` **skips** ``n``: it is not an answer, so
          its distance is never computed, and its children are routed with
          ``lb`` standing in for the distance on the reject side only --
          ``d(q, c) >= d(q, n) - link(n, c) >= lb - link(n, c)``, so
          ``lb - link > radius`` rejects a leaf child and ``lb - reach >
          radius`` a child's whole subtree; any other child is deferred to
          its own level and its own entry.
        * ``lb <= radius`` -- or NaN, which compares false against every
          threshold -- **measures** ``n``: it joins the level's pair batch,
          and its exact distance routes as without a table.

        Each ``... > radius`` here, and Lemma 4's ``d(q, n) - subtree(n) >
        radius``, is the one prune rule (:func:`~repro.distances.rounding.
        prunes`): no distance equal to the radius is rejected on an ulp.
        Each triangle accept, ``d(q, n) + margin <= radius``, is its mirror
        (:func:`~repro.distances.rounding.accepts`): no distance beyond the
        radius is accepted on an ulp.  Nothing is accepted on a bound, so
        the answers are those of the plain traversal; only
        ``distance=None``-ness may differ (a skipped parent triangle-accepts
        nobody, its matching children get measured instead).  Rejected and
        skipped pairs never reach the cache -- their entry is free to
        recompute -- and every distance is spent on a pair with ``lb <=
        radius``, which the linear scan's prefilter would have had to
        compute as well.  Classified and settled-without-a-distance
        pairs are tallied on the counter's prefilter tallies.

        Memory: the state plane is one byte per ``(query, node)``; everything
        else is pair vectors no longer than a level's pending set, and child
        rows are expanded :data:`_CHUNK_ROWS` at a time.
        """
        if self._root is None or not queries:
            return [[] for _query in queries]
        count = len(queries)
        arrays = [as_array(query) for query in queries]
        if bounds is None and self.prefilter and has_bound_table(self.distance):
            origin = np.zeros(1, dtype=np.intp)
            bounds = BoundTable(
                self._packed.epoch,
                np.concatenate(
                    [self._bound_matrix(array, origin, np.array([len(array)])) for array in arrays]
                ),
            )
        if bounds is not None:
            if bounds.epoch != self._packed.epoch:
                raise IndexError_("bound table predates a write to the index; build a new one")
            if len(bounds) != count:
                raise IndexError_(f"bound table has {len(bounds)} rows for {count} queries")
        flat = self._layout()
        # Every reject below -- a bound, or a triangle difference -- goes
        # through the one prune rule, and every accept through its mirror;
        # a triangle spans query-item and item-item pairs.
        longest = max(max(len(a) for a in arrays), max(s[0] for s in flat.shapes))
        width = 2 * longest + arrays[0].shape[1]

        def beyond(lower, margin=0.0):
            return prunes(self.distance, lower - margin, radius, margin, width)

        def within(value, margin):
            return accepts(self.distance, value, margin, radius, width)

        # Cross-query reuse of (content, reference) distances flows through
        # the attached cache; a cache-less net gets one for the batch.
        counting = self._counting
        if counting.cache is None:
            counting = CountingDistance(self.distance, self.counter, DistanceCache())
        operands = _QueryOperands(queries, arrays)

        state = np.zeros((count, len(flat.level)), dtype=np.uint8)
        state[:, flat.root] = _PENDING
        found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for level in range(self._max_level, -1, -1):
            nodes = flat.by_level[level]
            if not len(nodes):
                continue
            block = state[:, nodes]
            # Verdicts inherited from above move one level down.
            for verdict in (_ACCEPTED, _REJECTED):
                query, column = np.nonzero(block == verdict)
                self._settle(flat, state, query, nodes[column], verdict)
            query, column = np.nonzero(block == _PENDING)
            if not len(query):
                continue
            node = nodes[column]
            state[query, node] = _DONE
            if bounds is not None:
                lower = bounds.matrix[query, node]
                skipped = beyond(lower)
                self.counter.prefilter_evaluations += len(lower)
                self.counter.prefilter_pruned += int(np.count_nonzero(skipped))
                if skipped.any():
                    skip_query, skip_node, lower = query[skipped], node[skipped], lower[skipped]
                    out = beyond(lower, flat.subtree[skip_node])
                    self._settle(flat, state, skip_query[out], skip_node[out], _REJECTED)
                    near = ~out
                    self._route(
                        flat, state, beyond, None,
                        skip_query[near], skip_node[near], lower[near],
                    )  # fmt: skip
                    query, node = query[~skipped], node[~skipped]
                    if not len(query):
                        continue
            values = self._measure_pairs(flat, operands, query, node, counting)
            hit = values <= radius
            if hit.any():
                found.append((query[hit], node[hit], values[hit]))
            # Lemma 4 on the node itself: its whole subtree is in, or out.
            subtree = flat.subtree[node]
            inside = within(values, subtree)
            out = beyond(values, subtree)
            self._settle(flat, state, query[inside], node[inside], _ACCEPTED)
            self._settle(flat, state, query[out], node[out], _REJECTED)
            routed = ~(inside | out)
            self._route(
                flat, state, beyond, within, query[routed], node[routed], values[routed]
            )
        return self._collect(flat, state, found)

    def _measure_pairs(
        self,
        flat: _FlatLayout,
        operands: _QueryOperands,
        query: np.ndarray,
        node: np.ndarray,
        counting: CountingDistance,
    ) -> np.ndarray:
        """``d(queries[query[i]], node[i])`` for one level's pairs, all queries.

        Counted and cached by :meth:`~repro.indexing.stats.CountingDistance.pairs`
        under the pair's ``(query content, node content)`` key: the same
        content measured twice -- two stored windows, or two queries, with
        equal content -- is computed once and counted as cache hits after.
        What the cache does not answer is computed in the batch call form,
        one :meth:`~repro.distances.base.Distance.compute_pairs` call per
        (query shape, window shape) group, straight from the group tensors.
        """
        query_keys = operands.content[query].tolist()
        node_keys = flat.content[node].tolist()
        if operands.all_keyed and flat.all_keyed:
            keys = list(zip(query_keys, node_keys))
        else:
            keys = [
                None if first is None or second is None else (first, second)
                for first, second in zip(query_keys, node_keys)
            ]

        def compute(positions: np.ndarray) -> Tuple[np.ndarray, int]:
            pair_query, pair_node = query[positions], node[positions]
            if len(operands.tensors) == len(flat.tensors) == 1:
                groups = [(0, 0, slice(None))]
            else:
                code = operands.group[pair_query] * len(flat.tensors) + flat.group[pair_node]
                groups = [
                    (*divmod(group_code, len(flat.tensors)), np.flatnonzero(code == group_code))
                    for group_code in np.unique(code).tolist()
                ]
            values = np.empty(len(positions), dtype=np.float64)
            for query_group, node_group, members in groups:
                queries = operands.tensors[query_group]
                validate_group_shape(self.distance, queries[0], flat.shapes[node_group])
                values[members] = self.distance.compute_pairs(
                    queries,
                    operands.row[pair_query[members]],
                    flat.tensors[node_group],
                    pair_node[members] - flat.first[node_group],
                )
            return values, len(groups)

        return counting.pairs(keys, compute)

    @staticmethod
    def _open_children(
        flat: _FlatLayout, state: np.ndarray, query: np.ndarray, node: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The still-open children of the pairs ``(query[i], node[i])``, in chunks.

        Yields ``(pair, child query, child node, child row)`` vectors: entry
        ``j`` says child row ``row[j]`` of the flat layout hangs off pair
        ``pair[j]`` and leads to the open pair ``(child query[j], child
        node[j])``.  At most about :data:`_CHUNK_ROWS` rows are expanded at
        a time (one pair's children are never split).
        """
        parents = np.flatnonzero(flat.child_count[node]).astype(np.int32)
        query, node = query[parents], node[parents]
        counts = flat.child_count[node]
        ends = np.cumsum(counts, dtype=np.int64)
        start = 0
        while start < len(node):
            done = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + _CHUNK_ROWS, side="right")))
            repeats = counts[start:stop]
            # CSR expansion: each pair's child rows, pair by pair.
            position = np.repeat(np.arange(start, stop, dtype=np.int32), repeats)
            run_start = np.cumsum(repeats, dtype=np.int32) - repeats
            row = np.arange(len(position), dtype=np.int32) + np.repeat(
                flat.child_start[node[start:stop]] - run_start, repeats
            )
            child_query, child = query[position], flat.child[row]
            still_open = np.flatnonzero(state[child_query, child] < _ACCEPTED)
            yield (
                parents[position[still_open]],
                child_query[still_open],
                child[still_open],
                row[still_open],
            )
            start = stop

    @classmethod
    def _settle(
        cls, flat: _FlatLayout, state: np.ndarray, query: np.ndarray, node: np.ndarray, verdict: int
    ) -> None:
        """Hand a subtree verdict one level down: every open child takes it.

        The children pass it on when their own level comes -- which is above
        the level of anything below them, so a verdict always arrives before
        the pair it decides could be measured.
        """
        for _pair, child_query, child, _row in cls._open_children(flat, state, query, node):
            state[child_query, child] = verdict

    @classmethod
    def _route(
        cls,
        flat: _FlatLayout,
        state: np.ndarray,
        beyond,
        within,
        query: np.ndarray,
        node: np.ndarray,
        value: np.ndarray,
    ) -> None:
        """Decide or defer the open children of the pairs ``(query[i], node[i])``.

        ``value[i]`` is what is known of ``d(query, node)``: the distance
        itself for a measured node, a lower bound -- its table entry -- for
        one skipped on that bound (``within`` is ``None`` then).  A child
        row with margin ``m`` (see :class:`_FlatLayout`) is rejected when
        ``value - m > radius`` (``beyond``, the one prune rule), accepted
        when ``value + m <= radius`` (``within``, its mirror) and deferred
        to its own level otherwise.  Children some other parent already
        decided are left alone; where two rows of one call disagree about a
        child, a verdict beats a deferral.
        """
        for pair, child_query, child, row in cls._open_children(flat, state, query, node):
            known, margin = value[pair], flat.margin[row]
            state[child_query, child] = _PENDING
            rejected = beyond(known, margin)
            state[child_query[rejected], child[rejected]] = _REJECTED
            if within is not None:
                accepted = within(known, margin)
                state[child_query[accepted], child[accepted]] = _ACCEPTED

    @staticmethod
    def _collect(
        flat: _FlatLayout,
        state: np.ndarray,
        found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> List[List[RangeMatch]]:
        """Per-query match lists, in node order: measured hits and accepted pairs."""
        accepted_query, accepted_node = np.nonzero(state == _ACCEPTED)
        query = np.concatenate([part[0] for part in found] + [accepted_query])
        node = np.concatenate([part[1] for part in found] + [accepted_node])
        distance = np.empty(len(query), dtype=object)  # None where not measured
        measured = len(query) - len(accepted_query)
        if measured:
            distance[:measured] = np.concatenate([part[2] for part in found]).tolist()
        order = np.argsort(query.astype(np.int64) * state.shape[1] + node, kind="stable")
        node = node[order]
        matches = list(
            map(
                RangeMatch,
                flat.keys[node].tolist(),
                flat.items[node].tolist(),
                distance[order].tolist(),
            )
        )
        cuts = np.searchsorted(query[order], np.arange(len(state) + 1)).tolist()
        return [matches[start:stop] for start, stop in zip(cuts, cuts[1:])]

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def _export_structure(self) -> dict:
        keys = list(self._items.keys())
        position = {key: index for index, key in enumerate(keys)}
        nodes = []
        for key in keys:
            node = self._nodes[key]
            # Children and parent links flattened with the level-dict order
            # and within-list order preserved; the exact link distances ride
            # along so the restored net prunes identically without
            # recomputing anything (JSON floats round-trip exactly).
            children = [
                [level, [[position[child.key], link_distance] for child, link_distance in kids]]
                for level, kids in node.children.items()
            ]
            parent_links = [
                [level, position[parent.key]] for level, parent in node.parent_links
            ]
            nodes.append(
                {
                    "home_level": node.home_level,
                    "children": children,
                    "parent_links": parent_links,
                }
            )
        return {
            "max_level": self._max_level,
            "root_position": position[self._root.key] if self._root is not None else None,
            "nodes": nodes,
        }

    def _restore_structure(self, state: dict) -> None:
        records = state["nodes"]
        # The packed items are not in the snapshot: ``_new_node`` refills the
        # store, at no distance computation.
        self._nodes = {}
        self._packed.clear()
        nodes = [
            self._new_node(key, item, int(record["home_level"]))
            for (key, item), record in zip(list(self._items.items()), records)
        ]
        for record, node in zip(records, nodes):
            for level, entries in record["children"]:
                node.children[int(level)] = [
                    (nodes[int(child_position)], float(link_distance))
                    for child_position, link_distance in entries
                ]
            node.parent_links = [
                (int(level), nodes[int(parent_position)])
                for level, parent_position in record["parent_links"]
            ]
        self._max_level = int(state["max_level"])
        root_position = state["root_position"]
        self._root = None if root_position is None else nodes[int(root_position)]

    # ------------------------------------------------------------------ #
    # Statistics and invariants
    # ------------------------------------------------------------------ #
    def stats(self) -> ReferenceNetStats:
        """Space-overhead statistics for the current structure."""
        node_count = len(self._nodes)
        link_count = sum(len(node.parent_links) for node in self._nodes.values())
        list_count = sum(len(node.children) for node in self._nodes.values())
        non_root = max(node_count - 1, 1)
        histogram: Dict[int, int] = {}
        for node in self._nodes.values():
            histogram[node.home_level] = histogram.get(node.home_level, 0) + 1
        size = node_count * NODE_OVERHEAD_BYTES + link_count * LINK_OVERHEAD_BYTES
        return ReferenceNetStats(
            node_count=node_count,
            parent_link_count=link_count,
            average_parents=link_count / non_root,
            list_count=list_count,
            level_count=self._max_level + 1,
            estimated_size_bytes=size,
            level_histogram=histogram,
        )

    def check_invariants(self) -> None:
        """Verify structural invariants; raise :class:`InvariantViolationError`.

        Checked: (a) every non-root node has at least one parent (the
        inclusive property), (b) parent/child links are mutually consistent,
        (c) every child lies within the covering radius of its list's level
        and the stored link distance is exact, (d) every node is reachable
        from the root, (e) every node's subtree radius matches its home
        level and the packed store holds exactly the stored keys, and (f)
        the flat layout the next range query will read mirrors all of that
        -- node ids follow the store's rows, levels and subtree radii the
        nodes', the CSR child rows the child lists in order, each margin its
        link and its child's present leaf status.
        """
        if len(self._packed) != len(self._items) or any(
            key not in self._packed for key in self._items
        ):
            raise InvariantViolationError("packed store keys differ from the stored keys")
        if self._root is None:
            if self._nodes:
                raise InvariantViolationError("nodes present but no root")
            return
        reachable = {self._root.key}
        stack = [self._root]
        while stack:
            current = stack.pop()
            for level, child, link_distance in current.iter_children():
                if (level, current) not in child.parent_links:
                    raise InvariantViolationError(
                        f"child {child.key!r} lacks a back-link to parent {current.key!r}"
                    )
                if child.home_level != level - 1:
                    raise InvariantViolationError(
                        f"child {child.key!r} in a level-{level} list has home level "
                        f"{child.home_level} (expected {level - 1})"
                    )
                covering = self.distance(current.item, child.item)
                if abs(covering - link_distance) > 1e-9 * max(1.0, covering):
                    raise InvariantViolationError(
                        f"stored link distance {link_distance} for child {child.key!r} "
                        f"does not match the recomputed distance {covering}"
                    )
                if covering > self.radius(level) * (1 + 1e-9):
                    raise InvariantViolationError(
                        f"child {child.key!r} is at distance {covering} from parent "
                        f"{current.key!r}, beyond the level-{level} radius {self.radius(level)}"
                    )
                if child.key not in reachable:
                    reachable.add(child.key)
                    stack.append(child)
        for key, node in self._nodes.items():
            if node.subtree != self._subtree_radius(node.home_level):
                raise InvariantViolationError(
                    f"node {key!r} carries subtree radius {node.subtree}, but its home "
                    f"level {node.home_level} gives {self._subtree_radius(node.home_level)}"
                )
            if node is not self._root and not node.parent_links:
                raise InvariantViolationError(f"node {key!r} has no parent")
            if key not in reachable:
                raise InvariantViolationError(f"node {key!r} is unreachable from the root")
            if self.nummax is not None and len(node.parent_links) > self.nummax:
                raise InvariantViolationError(
                    f"node {key!r} has {len(node.parent_links)} parents, exceeding "
                    f"nummax={self.nummax}"
                )
        self._check_flat_layout()

    def _check_flat_layout(self) -> None:
        """Part (f) of :meth:`check_invariants`: the flat layout, as cached or as built."""
        flat = self._layout()
        store = self._packed
        ids = {key: position for position, key in enumerate(flat.keys.tolist())}
        consistent = (
            len(ids) == len(self._nodes) == len(flat.level)
            and flat.root == ids.get(self._root.key)
            and flat.shapes == store.group_shapes()
            and len(flat.by_level) == self._max_level + 1
        )
        for key, position in ids.items() if consistent else ():
            node = self._nodes[key]
            group = int(flat.group[position])
            rows = slice(flat.child_start[position], flat.child_start[position + 1])
            expected = list(self._child_rows(node))
            consistent = (
                store.shape_of(key) == flat.shapes[group]
                and store.row_of(key) == position - flat.first[group]
                and flat.items[position] is node.item
                and flat.level[position] == node.home_level
                and flat.subtree[position] == node.subtree
                and position in flat.by_level[node.home_level]
                and flat.child_count[position] == len(expected)
                and flat.child[rows].tolist() == [ids[child.key] for child, _margin in expected]
                and flat.margin[rows].tolist() == [margin for _child, margin in expected]
            )
            if not consistent:
                break
        if not consistent:
            raise InvariantViolationError("the flat layout does not mirror the nodes")

    def exclusivity_violations(self) -> int:
        """Count pairs of same-home-level nodes closer than the level radius.

        The insertion algorithm only sees references reachable through its
        candidate set, so -- exactly like the paper's Algorithm 1 -- the
        exclusive property can be violated occasionally.  The count is
        exposed for analysis; it does not affect query correctness.
        """
        by_level: Dict[int, List[_Node]] = {}
        for node in self._nodes.values():
            by_level.setdefault(node.home_level, []).append(node)
        violations = 0
        for level, nodes in by_level.items():
            if level == 0:
                continue
            threshold = self.radius(level)
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    if self.distance(nodes[i].item, nodes[j].item) < threshold:
                        violations += 1
        return violations

    def level_of(self, key: Hashable) -> int:
        """Home level of the node stored under ``key``."""
        try:
            return self._nodes[key].home_level
        except KeyError:
            raise IndexError_(f"no item with key {key!r} in this index") from None

    def __repr__(self) -> str:
        return (
            f"ReferenceNet(size={len(self)}, eps_prime={self.eps_prime}, "
            f"nummax={self.nummax}, max_level={self._max_level}, "
            f"distance={self.distance.name!r})"
        )
