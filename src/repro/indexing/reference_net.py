"""The Reference Net: the paper's generic metric index (Section 6, Appendix A).

The reference net is a hierarchical structure over a metric space:

* levels are numbered ``0 .. r-1``; level ``i`` is associated with the
  radius ``eps_i = eps' * 2**i``;
* the bottom level conceptually contains every item; each item is stored
  once, at its *home level* -- the highest level at which it acts as a
  reference;
* a reference ``R(i, j)`` at level ``i`` keeps a list ``L(i, j)`` of
  references from level ``i-1`` within distance ``eps_i`` -- and, unlike a
  cover tree, an item may appear in the lists of **several** parents, which
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

Execution layout: beside its child lists every node keeps one flat
*routing row list* -- ``(child, link distance, link distance + the child's
subtree radius, leaf flag)`` per child, in list order -- and the net keeps a
:class:`~repro.sequences.packed.PackedWindowStore` of the coerced items.
Both are derived data: Algorithms 1 and 2 refresh the rows of the parents a
write touches (never the whole net), and a snapshot restore rebuilds them
without a single distance computation.  The range query reads nothing else:
it measures one whole level with one batched kernel call served from the
packed store, then routes over the rows.

Bound-first routing (``prefilter=True``): before a level's nodes are
measured, each is classified from one entry of a per-query *bound table* --
admissible lower bounds ``lb <= d(query, node)`` for every stored window,
built once per query for all of its segments from the packed store's
per-window summaries (:meth:`ReferenceNet.bound_table`).  Only nodes whose
bound does not already exceed the radius reach the cache and the kernel; see
:meth:`ReferenceNet._range_search` for the three classes and why each is
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.distances.base import Distance, SequenceLike, as_array
from repro.distances.cache import DistanceCache
from repro.distances.lower_bounds import combined_bound_table, has_bound_table
from repro.exceptions import IndexError_, InvariantViolationError
from repro.indexing.base import BoundRow, BoundTable, MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter
from repro.sequences.packed import PackedWindowStore, StoreGather
from repro.sequences.sequence import Sequence

#: One routing row: ``(child, link, link + child subtree radius, child is a leaf)``.
_Row = Tuple["_Node", float, float, bool]


class _Node:
    """One stored item and its position in the hierarchy."""

    __slots__ = ("key", "item", "home_level", "subtree", "children", "parent_links", "rows")

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
        #: :attr:`children` flattened in :meth:`iter_children` order, with
        #: the per-child bounds the range query routes by precomputed.
        #: Replaced, never edited in place (:meth:`ReferenceNet._refresh_rows`).
        self.rows: List[_Row] = []

    def iter_children(self) -> Iterator[Tuple[int, "_Node", float]]:
        """Yield ``(level, child, distance)`` for every child in every list."""
        for level, kids in self.children.items():
            for child, link_distance in kids:
                yield level, child, link_distance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Node(key={self.key!r}, home_level={self.home_level})"


def _settle_subtree(node: _Node, decided: set, matches: Optional[List[RangeMatch]]) -> None:
    """Decide every undecided descendant of ``node`` without measuring it.

    With ``matches`` the descendants are accepted (appended with
    ``distance=None``); with ``None`` they are rejected.
    """
    stack = [node]
    while stack:
        for child, _link, _reach, leaf in stack.pop().rows:
            if child in decided:
                continue
            decided.add(child)
            if matches is not None:
                matches.append(RangeMatch(child.key, child.item, None))
            if not leaf:
                stack.append(child)


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
        Classify every frontier node from its bound-table entry before the
        cache and the kernel see it (see :meth:`_range_search`).  Takes
        effect for the distances whose lower bounds have a table form
        (:func:`~repro.distances.lower_bounds.has_bound_table`: the discrete
        Frechet distance today); for any other distance the traversal is the
        same with the flag on or off.  Off by default, like a bare
        :class:`~repro.indexing.linear_scan.LinearScanIndex`; the matcher
        passes :attr:`~repro.core.config.MatcherConfig.prefilter`.
    node_overhead_bytes / link_overhead_bytes:
        Constants used by :meth:`stats` to estimate the index footprint.
        They only matter for the space-overhead figures and have sane
        CPython-flavoured defaults.
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
        node_overhead_bytes: int = 112,
        link_overhead_bytes: int = 24,
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
        self._node_overhead = int(node_overhead_bytes)
        self._link_overhead = int(link_overhead_bytes)
        self._nodes: Dict[Hashable, _Node] = {}
        self._root: Optional[_Node] = None
        self._max_level = 1
        #: The coerced items, by key: what a level's batched kernel gathers.
        self._packed = PackedWindowStore()

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

    def _attach(self, node: _Node, parents: List[Tuple[_Node, float]], level: int) -> None:
        """Insert ``node`` into the lists ``L(level, parent)`` of ``parents``."""
        chosen = parents
        if self.nummax is not None and len(parents) > self.nummax:
            chosen = sorted(parents, key=lambda pair: pair[1])[: self.nummax]
        for parent, link_distance in chosen:
            was_leaf = not parent.children
            parent.children.setdefault(level, []).append((node, link_distance))
            node.parent_links.append((level, parent))
            self._refresh_rows(parent, leaf_changed=was_leaf)

    def _refresh_rows(self, node: _Node, leaf_changed: bool = False) -> None:
        """Rebuild ``node``'s routing rows from its child lists.

        Called for the parents a write touches, and for nobody else: a row
        depends only on its own child entry (the link distance, the child's
        fixed home level, whether the child has children).  When the write
        made ``node`` a leaf or stopped it being one, the rows that *refer*
        to it -- in its own parents -- carry a stale leaf flag and are
        rebuilt too.
        """
        node.rows = [
            (child, link_distance, link_distance + child.subtree, not child.children)
            for kids in node.children.values()
            for child, link_distance in kids
        ]
        if leaf_changed:
            for _level, parent in node.parent_links:
                self._refresh_rows(parent)

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
            self._refresh_rows(parent, leaf_changed=not parent.children)
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
            current.rows = []
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
        self.update_stats.record_rebuild("root deletion")

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
        rows *now*; the table carries the store's epoch and
        :meth:`_range_search` refuses it after any write.

        ``None`` when bound-first routing is off, the net is empty, or the
        distance's bounds have no table form.
        """
        if not self.prefilter or self._root is None or not has_bound_table(self.distance):
            return None
        array = as_array(query)
        starts = np.fromiter((start for start, _length in spans), np.intp, len(spans))
        lengths = np.fromiter((length for _start, length in spans), np.intp, len(spans))
        column: Dict[_Node, int] = {}
        blocks: List[np.ndarray] = []
        for shape in self._packed.group_shapes():
            keys = self._packed.group_keys(shape)
            if shape[1] == array.shape[1]:
                blocks.append(
                    combined_bound_table(
                        self.distance, array, starts, lengths, self._packed.group_summary(shape)
                    )
                )
            else:
                blocks.append(np.zeros((len(spans), len(keys)), dtype=np.float64))
            for key in keys:
                column[self._nodes[key]] = len(column)
        matrix = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        return BoundTable(self._packed.epoch, column, matrix.tolist())

    def _range_search(
        self,
        query: SequenceLike,
        radius: float,
        counting,
        bounds: Optional[BoundRow] = None,
    ) -> List[RangeMatch]:
        """All items within ``radius`` of ``query``.

        Levels are processed from the top down, as in the paper's
        Algorithm 3: a reference's distance is computed only if none of the
        lists containing it (nor Lemma 4 applied to an ancestor) already
        decided it.  Items proven to match through the triangle inequality
        alone are returned with ``distance=None``.

        The traversal is *level-synchronous*.  A child's home level is
        strictly below its parent's, so accepting, pruning or routing a
        level-``i`` node only ever touches nodes of lower levels: when
        level ``i`` starts, everything that can decide one of its nodes has
        already happened.  The level's undecided nodes are therefore
        collected first, measured with one ``counting.batch`` call, and
        then accepted / pruned / routed in that same order -- the matches,
        their order and the work counters are those of measuring the nodes
        one by one.  Within a level all cache lookups precede all stores
        (the ``batch`` contract), which only shows under eviction: a key an
        earlier store of the same level would have pushed out still
        answers.  The traversal reads the structure only, so concurrent
        work units may run it against their own ``counting`` contexts.

        With ``bounds`` -- this query's row of :meth:`bound_table`, built
        here when bound-first routing is on and the caller holds none --
        every collected node ``n`` is first classified from its entry
        ``lb <= d(query, n)``, before any cache probe or kernel call:

        * ``lb - subtree(n) > radius`` **rejects** ``n`` and its subtree:
          every descendant ``c`` has ``d(n, c) <= subtree(n)``, so
          ``d(query, c) >= d(query, n) - d(n, c) >= lb - subtree(n)``.
        * otherwise ``lb > radius`` **skips** ``n``: it is not an answer, so
          its distance is never computed, and its children are routed with
          ``lb`` standing in for the distance on the reject side only --
          ``d(query, c) >= d(query, n) - link(n, c) >= lb - link(n, c)``, so
          ``lb - link > radius`` rejects a leaf child and ``lb - reach >
          radius`` a child's whole subtree; any other child is deferred to
          its own level and its own entry.  (A leaf is simply dropped.)
        * ``lb <= radius`` -- or NaN, which compares false against every
          threshold -- **measures** ``n``: it joins the level's one batch,
          and its exact distance routes as without a table.

        Nothing is accepted on a bound, so the answers are those of the
        plain traversal; only ``distance=None``-ness may differ (a skipped
        parent triangle-accepts nobody, its matching children get measured
        instead).  Rejected and skipped nodes never reach the cache -- their
        entry is free to recompute -- and every distance is spent on a pair
        with ``lb <= radius``, which the linear scan's prefilter would have
        had to compute as well.  Classified and settled-without-a-distance
        nodes are tallied through ``counting.record_prefilter``.
        """
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        if self._root is None:
            return []
        if bounds is None and self.prefilter:
            table = self.bound_table(query, [(0, len(as_array(query)))])
            bounds = None if table is None else table.row(0)
        if bounds is not None and bounds.epoch != self._packed.epoch:
            raise IndexError_("bound table predates a write to the index; build a new one")

        matches: List[RangeMatch] = []
        decided: set = set()
        #: Nodes awaiting a distance computation, by home level.
        pending: List[List[_Node]] = [[] for _ in range(self._max_level + 1)]
        pending[self._root.home_level].append(self._root)

        for level in range(self._max_level, -1, -1):
            frontier: List[_Node] = []
            for node in pending[level]:
                if node not in decided:
                    decided.add(node)
                    frontier.append(node)
            if bounds is not None and frontier:
                frontier = self._classify(frontier, bounds, radius, decided, pending, counting)
            if not frontier:
                continue
            for node, value in zip(frontier, self._measure(query, frontier, counting)):
                if value <= radius:
                    matches.append(RangeMatch(node.key, node.item, value))
                if value + node.subtree <= radius:
                    _settle_subtree(node, decided, matches)
                    continue
                if value - node.subtree > radius:
                    # Lemma 4: every node derived from this reference is out.
                    _settle_subtree(node, decided, None)
                    continue
                # Decide or defer each child: the exact stored link distance
                # bounds the child itself, ``reach`` (link + the child's
                # subtree radius, Lemma 4) bounds the child's descendants.
                for child, link_distance, reach, leaf in node.rows:
                    if child in decided:
                        continue
                    if value + reach <= radius:
                        decided.add(child)
                        matches.append(RangeMatch(child.key, child.item, None))
                        _settle_subtree(child, decided, matches)
                    elif value - reach > radius:
                        decided.add(child)
                        _settle_subtree(child, decided, None)
                    elif leaf and value + link_distance <= radius:
                        # No descendants: the link distance alone settles it.
                        decided.add(child)
                        matches.append(RangeMatch(child.key, child.item, None))
                    elif leaf and value - link_distance > radius:
                        decided.add(child)
                    else:
                        pending[child.home_level].append(child)
        return matches

    @staticmethod
    def _classify(
        frontier: List[_Node],
        bounds: BoundRow,
        radius: float,
        decided: set,
        pending: List[List[_Node]],
        counting,
    ) -> List[_Node]:
        """Settle what the bound table can of one level; return the rest.

        The reject / skip / measure rules of :meth:`_range_search`.
        """
        column, values = bounds.column, bounds.values
        survivors: List[_Node] = []
        for node in frontier:
            lower = values[column[node]]
            if not lower > radius:
                survivors.append(node)
            elif lower - node.subtree > radius:
                _settle_subtree(node, decided, None)
            else:
                for child, link_distance, reach, leaf in node.rows:
                    if child in decided:
                        continue
                    if lower - reach > radius:
                        decided.add(child)
                        _settle_subtree(child, decided, None)
                    elif leaf and lower - link_distance > radius:
                        decided.add(child)
                    else:
                        pending[child.home_level].append(child)
        counting.record_prefilter(len(frontier), len(frontier) - len(survivors))
        return survivors

    def _measure(self, query: SequenceLike, frontier: List[_Node], counting) -> List[float]:
        """``d(query, node)`` for one level's nodes, as one batched request.

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
        which keeps the tallies and the store order exact.
        """
        items = [node.item for node in frontier]
        keys = [node.key for node in frontier]
        gather = StoreGather(self._packed, keys)
        if len(frontier) > 1 and isinstance(query, Sequence):
            contents = gather.content_keys(items)
            if len(set(contents)) < len(contents):
                seen: set = set()
                firsts: List[int] = []
                repeats: List[int] = []
                for position, content in enumerate(contents):
                    if content is not None and content in seen:
                        repeats.append(position)
                    else:
                        seen.add(content)
                        firsts.append(position)
                values = [0.0] * len(frontier)
                for part in filter(None, (firsts, repeats)):
                    distances = counting.batch(
                        query,
                        [items[position] for position in part],
                        packed=StoreGather(self._packed, [keys[position] for position in part]),
                    )
                    for position, value in zip(part, distances.tolist()):
                        values[position] = value
                return values
        return counting.batch(query, items, packed=gather).tolist()

    def _serial_batch_range_query(
        self,
        queries: List[SequenceLike],
        radius: float,
        bounds: Optional[BoundTable] = None,
    ) -> List[List[RangeMatch]]:
        """Range queries with reference-distance reuse across the batch.

        The net's traversal needs exact distances for its routing, so the
        queries still descend the hierarchy one at a time -- but a batch
        frequently probes overlapping query segments against the same
        references (the matcher's step 4 does exactly that), and those
        repeated (query, reference) pairs need only be measured once.  When
        no cache is attached, a batch-local
        :class:`~repro.distances.cache.DistanceCache` provides that reuse;
        with an attached cache the sharing already happens there.
        """
        if self._counting.cache is None:
            self._counting.cache = DistanceCache()
            try:
                return super()._serial_batch_range_query(queries, radius, bounds)
            finally:
                self._counting.cache = None
        return super()._serial_batch_range_query(queries, radius, bounds)

    def parallel_batch_range_query(
        self,
        queries: List[SequenceLike],
        radius: float,
        executor,
        bounds: Optional[BoundTable] = None,
    ) -> List[List[RangeMatch]]:
        """Executor fan-out over per-query traversal units.

        Cross-query reference-distance reuse flows through the attached
        cache; without one there is no shared state for the units to reuse
        (the serial path fakes it with a batch-local cache), so the
        cache-less net falls back to serial batch execution rather than
        silently recomputing every repeated reference distance per unit.
        """
        if self._counting.cache is None:
            return self._serial_batch_range_query(queries, radius, bounds)
        return super().parallel_batch_range_query(queries, radius, executor, bounds)

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
        # The derived layout -- packed items here, routing rows below -- is
        # not in the snapshot: it follows from the links, at no distance
        # computation.
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
        for node in nodes:
            self._refresh_rows(node)
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
        size = node_count * self._node_overhead + link_count * self._link_overhead
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
        from the root, and (e) the derived layout is current: each node's
        routing rows mirror its child entries one to one and in order, with
        ``reach == link + radius(child home level + 1)`` and the child's
        present leaf status, its subtree radius matches its home level, and
        the packed store holds exactly the stored keys.
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
            self._check_rows(node)
            if node is not self._root and not node.parent_links:
                raise InvariantViolationError(f"node {key!r} has no parent")
            if key not in reachable:
                raise InvariantViolationError(f"node {key!r} is unreachable from the root")
            if self.nummax is not None and len(node.parent_links) > self.nummax:
                raise InvariantViolationError(
                    f"node {key!r} has {len(node.parent_links)} parents, exceeding "
                    f"nummax={self.nummax}"
                )

    def _check_rows(self, node: _Node) -> None:
        """Part (e) of :meth:`check_invariants` for one node."""
        if node.subtree != self._subtree_radius(node.home_level):
            raise InvariantViolationError(
                f"node {node.key!r} carries subtree radius {node.subtree}, but its home "
                f"level {node.home_level} gives {self._subtree_radius(node.home_level)}"
            )
        expected = [
            (
                child,
                link_distance,
                link_distance + self.radius(child.home_level + 1),
                not child.children,
            )
            for _level, child, link_distance in node.iter_children()
        ]
        if len(node.rows) != len(expected) or any(
            row[0] is not entry[0] or row[1:] != entry[1:]
            for row, entry in zip(node.rows, expected)
        ):
            raise InvariantViolationError(
                f"routing rows of node {node.key!r} do not match its child entries"
            )

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
