"""The reference net's whole-query frontier against its three oracles.

``ReferenceNet._frontier`` answers every query of a batch in one
level-synchronous pass over a flat layout: per level one bound-table gather,
one cache probe, one pair-batch kernel call per shape group, array routing.
The traversals it replaced live here, as the executable statement of what
"the same answer" means:

:func:`reference_range_search`
    Algorithm 3 with one ``counting(query, item)`` call per node, walking
    the ``children`` lists -- the original.
:func:`per_segment_range_search`
    The level-synchronous walk *per query* that ``src/`` ran until the
    frontier: one ``counting.batch`` per level, per-node classification from
    the bound table, subtrees settled eagerly.  The frontier must return the
    same matches per query (as sets, with the same ``distance is None``-ness)
    and spend the same work: computations, cache hits, prefilter tallies,
    and -- while nothing is evicted -- the same cache statistics.
:func:`level_walk`
    The frontier's own contract, spelled out node by node with one cache
    call per pair: levels top-down across the *whole batch*, within a level
    by query position and then node id, all of a level's lookups before its
    stores, a repeated ``(query content, node content)`` pair computed once
    and counted as hits after.  This is the order the cache sees, which
    eviction and ``iter_entries()`` make visible, so against it everything
    is compared exactly -- under the serial, thread and process executors.

The distance is the discrete Fréchet distance, whose batched and pair-batched
kernels are bit-identical to its single call (``tests/test_batch_distances.py``
pins that), so cache *values* can be compared exactly too.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import DiscreteFrechet, Levenshtein, ReferenceNet, Sequence, SequenceKind
from repro.core.executor import make_executor
from repro.distances.cache import DistanceCache
from repro.distances.lower_bounds import combined_bound
from repro.distances.rounding import accepts, prunes
from repro.exceptions import IndexError_, InvariantViolationError
from repro.indexing import reference_net
from repro.indexing.base import BoundTable, RangeMatch
from repro.indexing.stats import CountingDistance, DistanceCounter

DISTANCE = DiscreteFrechet()

#: A width at least the frontier's on these nets (1-D points, lengths <= 4).
#: Their contents are integers, so any slack refuses exactly the ties.
WIDTH = 16


def within(value, margin, radius):
    """The frontier's triangle accept (:func:`~repro.distances.rounding.accepts`)."""
    return accepts(DISTANCE, value, margin, radius, WIDTH)


def beyond(lower, margin, radius):
    """The frontier's reject (:func:`~repro.distances.rounding.prunes`)."""
    return prunes(DISTANCE, lower - margin, radius, margin, WIDTH)


def reference_range_search(net, query, radius, counting):
    """Algorithm 3, one distance call per node (the pre-batching traversal).

    Reads the node links only; the per-child bounds are computed from them.
    """
    if net._root is None:
        return []
    matches, decided = [], set()
    pending = {net._root.home_level: [net._root]}

    def settle(node, accept):
        stack = [node]
        while stack:
            for _level, child, _link in stack.pop().iter_children():
                if child.key not in decided:
                    decided.add(child.key)
                    if accept:
                        matches.append(RangeMatch(child.key, child.item, None))
                    stack.append(child)

    for level in range(net.max_level, -1, -1):
        for node in pending.pop(level, ()):
            if node.key in decided:
                continue
            decided.add(node.key)
            value = counting(query, node.item)
            if value <= radius:
                matches.append(RangeMatch(node.key, node.item, value))
            subtree = net.radius(node.home_level + 1)
            if within(value, subtree, radius) or beyond(value, subtree, radius):
                settle(node, accept=within(value, subtree, radius))
                continue
            for _level, child, link in node.iter_children():
                if child.key in decided:
                    continue
                reach = link + net.radius(child.home_level + 1)
                leaf = not child.children
                if within(value, reach, radius) or beyond(value, reach, radius):
                    decided.add(child.key)
                    if within(value, reach, radius):
                        matches.append(RangeMatch(child.key, child.item, None))
                    settle(child, accept=within(value, reach, radius))
                elif leaf and within(value, link, radius):
                    decided.add(child.key)
                    matches.append(RangeMatch(child.key, child.item, None))
                elif leaf and beyond(value, link, radius):
                    decided.add(child.key)
                else:
                    pending.setdefault(child.home_level, []).append(child)
    return matches


def node_ids(net):
    """Key -> node id: the packed store's order, a bound table's columns."""
    keys = [key for shape in net._packed.group_shapes() for key in net._packed.group_keys(shape)]
    return {key: position for position, key in enumerate(keys)}


def routing_rows(node):
    """``(child, link, reach, leaf)`` per child: what the per-segment walk routed by."""
    return [
        (child, link, link + child.subtree, not child.children)
        for _level, child, link in node.iter_children()
    ]


def per_segment_range_search(net, query, radius, counting, lower=None):
    """The per-query level-synchronous traversal ``src/`` ran before the frontier.

    ``lower`` is this query's row of the bound table (indexed by node id).
    Routes by :func:`routing_rows` (``src/`` kept them per node then);
    measures a level through ``net._measure`` -- the batched request the
    net's build still uses.
    """
    if net._root is None:
        return []
    ids = node_ids(net)
    matches, decided = [], set()
    pending = [[] for _ in range(net.max_level + 1)]
    pending[net._root.home_level].append(net._root)

    def settle_subtree(node, accept):
        stack = [node]
        while stack:
            for child, _link, _reach, leaf in routing_rows(stack.pop()):
                if child in decided:
                    continue
                decided.add(child)
                if accept:
                    matches.append(RangeMatch(child.key, child.item, None))
                if not leaf:
                    stack.append(child)

    def classify(frontier):
        survivors = []
        for node in frontier:
            bound = lower[ids[node.key]]
            if not beyond(bound, 0.0, radius):
                survivors.append(node)
            elif beyond(bound, node.subtree, radius):
                settle_subtree(node, accept=False)
            else:
                for child, link_distance, reach, leaf in routing_rows(node):
                    if child in decided:
                        continue
                    if beyond(bound, reach, radius):
                        decided.add(child)
                        settle_subtree(child, accept=False)
                    elif leaf and beyond(bound, link_distance, radius):
                        decided.add(child)
                    else:
                        pending[child.home_level].append(child)
        counting.counter.prefilter_evaluations += len(frontier)
        counting.counter.prefilter_pruned += len(frontier) - len(survivors)
        return survivors

    for level in range(net.max_level, -1, -1):
        frontier = []
        for node in pending[level]:
            if node not in decided:
                decided.add(node)
                frontier.append(node)
        if lower is not None and frontier:
            frontier = classify(frontier)
        if not frontier:
            continue
        for node, value in zip(frontier, net._measure(query, frontier, counting)):
            if value <= radius:
                matches.append(RangeMatch(node.key, node.item, value))
            if within(value, node.subtree, radius):
                settle_subtree(node, accept=True)
                continue
            if beyond(value, node.subtree, radius):
                settle_subtree(node, accept=False)
                continue
            for child, link_distance, reach, leaf in routing_rows(node):
                if child in decided:
                    continue
                if within(value, reach, radius):
                    decided.add(child)
                    matches.append(RangeMatch(child.key, child.item, None))
                    settle_subtree(child, accept=True)
                elif beyond(value, reach, radius):
                    decided.add(child)
                    settle_subtree(child, accept=False)
                elif leaf and within(value, link_distance, radius):
                    decided.add(child)
                    matches.append(RangeMatch(child.key, child.item, None))
                elif leaf and beyond(value, link_distance, radius):
                    decided.add(child)
                else:
                    pending[child.home_level].append(child)
    return matches


def level_walk(net, queries, radius, cache, counter, table=None):
    """The whole-batch level walk: the frontier's contract, one pair at a time.

    Works on the node links with per-node Python, settles subtrees eagerly
    and talks to ``cache`` through ``lookup`` / ``store`` only.  Returns the
    per-query ``(key, distance)`` lists in node-id order plus the number of
    repeated pairs -- cache hits that never reach ``cache.lookup``.
    """
    if net._root is None:
        return [[] for _ in queries], 0
    ids = node_ids(net)
    matches = [[] for _ in queries]
    decided = [set() for _ in queries]
    pending = [{net._root.home_level: [net._root]} for _ in queries]
    repeated = 0

    def settle(position, node, accept):
        stack = [node]
        while stack:
            for _level, child, _link in stack.pop().iter_children():
                if child.key not in decided[position]:
                    decided[position].add(child.key)
                    if accept:
                        matches[position].append((child.key, None))
                    stack.append(child)

    def route(position, node, low, high):
        """Children of a node whose distance lies in ``[low, high]`` (``None``: unknown)."""
        for _level, child, link in node.iter_children():
            if child.key in decided[position]:
                continue
            reach = link + net.radius(child.home_level + 1)
            leaf = not child.children
            if high is not None and within(high, reach, radius):
                decided[position].add(child.key)
                matches[position].append((child.key, None))
                settle(position, child, accept=True)
            elif beyond(low, reach, radius):
                decided[position].add(child.key)
                settle(position, child, accept=False)
            elif leaf and high is not None and within(high, link, radius):
                decided[position].add(child.key)
                matches[position].append((child.key, None))
            elif leaf and beyond(low, link, radius):
                decided[position].add(child.key)
            else:
                pending[position].setdefault(child.home_level, []).append(child)

    for level in range(net.max_level, -1, -1):
        survivors = []
        for position in range(len(queries)):
            frontier = {
                node.key: node
                for node in pending[position].pop(level, ())
                if node.key not in decided[position]
            }
            frontier = sorted(frontier.values(), key=lambda node: ids[node.key])
            decided[position].update(node.key for node in frontier)
            if table is not None and frontier:
                kept = []
                for node in frontier:
                    bound = table.matrix[position, ids[node.key]]
                    if not beyond(bound, 0.0, radius):
                        kept.append(node)
                    elif beyond(bound, net.radius(node.home_level + 1), radius):
                        settle(position, node, accept=False)
                    else:
                        route(position, node, bound, None)
                counter.prefilter_evaluations += len(frontier)
                counter.prefilter_pruned += len(frontier) - len(kept)
                frontier = kept
            survivors.extend((position, node) for node in frontier)
        # The level's pairs: every lookup, then every store.
        by_content, stores, measured = {}, [], []
        for position, node in survivors:
            query, item = queries[position], node.item
            if not DistanceCache.cacheable(query, item):
                counter.total += 1
                measured.append((position, node, DISTANCE(query, item)))
                continue
            content = (query.content_key, item.content_key)
            if content in by_content:
                repeated += 1
                counter.cache_hits += 1
            else:
                value = cache.lookup(query, item)
                if value is None:
                    value = DISTANCE(query, item)
                    counter.total += 1
                    stores.append((query, item, value))
                else:
                    counter.cache_hits += 1
                by_content[content] = value
            measured.append((position, node, by_content[content]))
        for query, item, value in stores:
            cache.store(query, item, value)
        for position, node, value in measured:
            if value <= radius:
                matches[position].append((node.key, value))
            subtree = net.radius(node.home_level + 1)
            if within(value, subtree, radius) or beyond(value, subtree, radius):
                settle(position, node, accept=within(value, subtree, radius))
            else:
                route(position, node, value, value)
    return [sorted(found, key=lambda match: ids[match[0]]) for found in matches], repeated


# --------------------------------------------------------------------- #
# Random nets: few distinct contents (so duplicates are the rule), two
# lengths (so a level spans two shape groups), writes in any order.
# --------------------------------------------------------------------- #
def window(content):
    return Sequence(np.asarray(content, dtype=float), SequenceKind.TIME_SERIES)


contents = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=3, max_size=4
).map(tuple)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), contents),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("delete-root"), st.just(0)),
    ),
    max_size=12,
)
net_cases = st.fixed_dictionaries(
    {
        "pool": st.lists(contents, min_size=1, max_size=8),
        "picks": st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=30),
        "eps_prime": st.sampled_from([0.25, 0.5, 1.0, 1.7, 3.0]),
        "nummax": st.sampled_from([None, 2, 5]),
        "operations": operations,
        "round_trip": st.booleans(),
        # Few distinct contents here too: content-identical segments in one
        # batch are the rule, as overlapping segments of a repetitive query.
        "queries": st.lists(contents, min_size=1, max_size=5),
        "radius": st.sampled_from([0.0, 1.0, 2.0, 3.5, 6.0, 20.0]),
    }
)


#: Two same-content windows, undecided, in one level: batched naively they
#: are two misses where one-by-one they are a computation and a cache hit.
REPEATS_IN_ONE_LEVEL = {
    "pool": [(0, 0, 0), (0, 0, 1)],
    "picks": [0, 1, 1],
    "eps_prime": 0.5,
    "nummax": None,
    "operations": [],
    "round_trip": False,
    "queries": [(0, 0, 0)],
    "radius": 0.0,
}

#: The same query twice in one batch: the second one's pairs are all repeats.
REPEATED_SEGMENT = dict(REPEATS_IN_ONE_LEVEL, queries=[(0, 0, 1), (0, 0, 1)], radius=1.0)


def build_net(case, cache, prefilter=False):
    """Build the case's net through its writes; check the layout after each."""
    net = ReferenceNet(
        DISTANCE,
        eps_prime=case["eps_prime"],
        nummax=case["nummax"],
        cache=cache,
        prefilter=prefilter,
    )
    next_key = 0
    pool = case["pool"]
    for pick in case["picks"]:
        net.insert(window(pool[pick % len(pool)]), key=next_key)
        next_key += 1
    for kind, argument in case["operations"]:
        if kind == "insert":
            net.insert(window(argument), key=next_key)
            next_key += 1
        elif len(net) > 1:
            net.delete(net.root_key if kind == "delete-root" else net.keys()[argument % len(net)])
        net.check_invariants()
    if case["round_trip"]:
        state = json.loads(json.dumps(net.export_structure()))
        restored = ReferenceNet(
            DISTANCE,
            eps_prime=case["eps_prime"],
            nummax=case["nummax"],
            cache=cache,
            prefilter=prefilter,
        )
        restored.restore_structure(state, dict(net.items()))
        assert restored.counter.total == 0 and restored.counter.cache_hits == 0
        restored.check_invariants()
        net = restored
    return net


def outcome(matches):
    return [(match.key, match.distance) for match in matches]


def as_set(matches):
    found = outcome(matches)
    assert len({key for key, _distance in found}) == len(found)
    return set(found)


def work(counter):
    return (
        counter.total,
        counter.cache_hits,
        counter.prefilter_evaluations,
        counter.prefilter_pruned,
    )


def lookups(cache):
    return (cache.hits, cache.misses)


def cache_state(cache, extra_hits=0):
    return (cache.hits + extra_hits, cache.misses, cache.evictions, list(cache.iter_entries()))


CACHES = st.sampled_from(["none", "unbounded", 4, 11, 40])
EXECUTORS = {
    "serial": None,
    "thread": make_executor("thread", 3),
    "process": make_executor("process", 2),
}


def make_cache(mode):
    return None if mode == "none" else DistanceCache(None if mode == "unbounded" else mode)


# --------------------------------------------------------------------- #
# The frontier == the whole-batch level walk, to the cache entry
# --------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(case=net_cases, prefilter=st.booleans(), cache_mode=CACHES)
@example(case=REPEATS_IN_ONE_LEVEL, prefilter=False, cache_mode="unbounded")
@example(case=REPEATS_IN_ONE_LEVEL, prefilter=True, cache_mode="none")
@example(case=REPEATED_SEGMENT, prefilter=False, cache_mode=4)
@example(case=REPEATED_SEGMENT, prefilter=True, cache_mode="unbounded")
def test_frontier_equals_the_level_walk_under_every_executor(case, prefilter, cache_mode):
    queries = [window(content) for content in case["queries"]]
    radius = case["radius"]

    # The oracle: same net, same starting cache (the build's link distances).
    oracle_net = build_net(case, make_cache(cache_mode), prefilter)
    oracle_cache = oracle_net.cache if oracle_net.cache is not None else DistanceCache()
    table = None
    if prefilter:
        table = BoundTable(
            oracle_net._packed.epoch,
            np.concatenate([oracle_net.bound_table(q, [(0, len(q))]).matrix for q in queries]),
        )
    expected, repeated = level_walk(
        oracle_net, queries, radius, oracle_cache, oracle_net.counter, table
    )
    for name, executor in EXECUTORS.items():
        net = build_net(case, make_cache(cache_mode), prefilter)
        found, _cpu = net.probe_batch(queries, radius, executor=executor)
        assert [outcome(matches) for matches in found] == expected, name
        assert work(net.counter) == work(oracle_net.counter), name
        if net.cache is not None:
            assert cache_state(net.cache) == cache_state(oracle_cache, repeated), name


def test_a_query_without_a_key_is_computed_never_cached():
    case = dict(REPEATS_IN_ONE_LEVEL, queries=[(0, 0, 1)] * 3, radius=1.0)
    keyed = window((0, 0, 1))
    queries = [keyed, np.array([0.0, 0.0, 1.0]), window((0, 0, 1))]
    net = build_net(case, DistanceCache())
    oracle_net = build_net(case, DistanceCache())
    expected, repeated = level_walk(
        oracle_net, queries, 1.0, oracle_net.cache, oracle_net.counter
    )
    assert [outcome(matches) for matches in net.batch_range_query(queries, 1.0)] == expected
    assert work(net.counter) == work(oracle_net.counter)
    assert cache_state(net.cache) == cache_state(oracle_net.cache, repeated)
    assert repeated > 0 and expected[0] == expected[1] == expected[2]


# --------------------------------------------------------------------- #
# The frontier == the per-segment walk it replaced == the per-pair original
# --------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(case=net_cases, prefilter=st.booleans(), cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, prefilter=False, cached=True)
@example(case=REPEATED_SEGMENT, prefilter=True, cached=False)
def test_frontier_equals_the_per_segment_walk(case, prefilter, cached):
    queries = [window(content) for content in case["queries"]]
    radius = case["radius"]
    net = build_net(case, DistanceCache() if cached else None, prefilter)
    oracle_net = build_net(case, DistanceCache() if cached else None, prefilter)
    # A cache-less net shares reference distances through a cache that lives
    # for the batch; the oracle's queries run back to back against one too.
    per_segment = CountingDistance(
        DISTANCE, oracle_net.counter, oracle_net.cache if cached else DistanceCache()
    )
    expected = [
        per_segment_range_search(
            oracle_net,
            query,
            radius,
            per_segment,
            oracle_net.bound_table(query, [(0, len(query))]).matrix[0] if prefilter else None,
        )
        for query in queries
    ]
    found = net.batch_range_query(queries, radius)
    assert [as_set(matches) for matches in found] == [as_set(matches) for matches in expected]
    assert work(net.counter) == work(oracle_net.counter)
    if cached:
        # Nothing is evicted, so only the insertion order may differ.
        assert lookups(net.cache) == lookups(oracle_net.cache)
        assert sorted(net.cache.iter_entries()) == sorted(oracle_net.cache.iter_entries())
    # One query at a time is a batch of one.
    again = build_net(case, DistanceCache() if cached else None, prefilter)
    assert [outcome(again.range_query(query, radius)) for query in queries] == [
        outcome(matches) for matches in found
    ]


@settings(max_examples=80, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_frontier_equals_the_per_pair_original(case, cached):
    net = build_net(case, DistanceCache() if cached else None)
    oracle_net = build_net(case, DistanceCache() if cached else None)
    per_pair = CountingDistance(
        DISTANCE, oracle_net.counter, oracle_net.cache if cached else DistanceCache()
    )
    queries = [window(content) for content in case["queries"]]
    expected = [
        reference_range_search(oracle_net, query, case["radius"], per_pair) for query in queries
    ]
    found = net.batch_range_query(queries, case["radius"])
    assert [as_set(matches) for matches in found] == [as_set(matches) for matches in expected]
    assert work(net.counter) == work(oracle_net.counter)
    if cached:
        assert lookups(net.cache) == lookups(oracle_net.cache)
        assert sorted(net.cache.iter_entries()) == sorted(oracle_net.cache.iter_entries())


# --------------------------------------------------------------------- #
# Bound-first routing: same answers, distances only where the bound allows
# --------------------------------------------------------------------- #
def prefilter_tallies(counter):
    return (counter.prefilter_evaluations, counter.prefilter_pruned)


@settings(max_examples=120, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_bound_first_answers_equal_per_pair_answers(case, cached):
    net = build_net(case, cache=DistanceCache() if cached else None, prefilter=True)
    plain = build_net(case, cache=None)
    per_pair = CountingDistance(DISTANCE, DistanceCounter(), None)
    counter = net.counter
    radius = case["radius"]
    for content in case["queries"]:
        query = window(content)
        requested = counter.total + counter.cache_hits
        classified = prefilter_tallies(counter)
        found = net.range_query(query, radius)
        expected = reference_range_search(plain, query, radius, per_pair)
        assert sorted(match.key for match in found) == sorted(match.key for match in expected)
        assert len({match.key for match in found}) == len(found)
        for match in found:
            assert match.distance is None or match.distance == DISTANCE(query, match.item)
        # By construction: a distance is requested only for a window whose
        # bound is within the radius -- the pairs the scan's prefilter keeps.
        requested = counter.total + counter.cache_hits - requested
        admitted = sum(
            combined_bound(DISTANCE, query, item) <= radius for _key, item in net.items()
        )
        assert requested <= admitted
        evaluated, pruned = np.subtract(prefilter_tallies(counter), classified)
        assert evaluated - pruned == requested and evaluated <= len(net)


@settings(max_examples=40, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_a_batch_builds_the_table_the_pipeline_would_pass(case, cached):
    # One query whose segments are the case's queries, so one table serves
    # the batch, as the pipeline's does.
    joined = window([value for content in case["queries"] for value in content])
    spans, start = [], 0
    for content in case["queries"]:
        spans.append((start, len(content)))
        start += len(content)
    segments = [joined.subsequence(start, start + length) for start, length in spans]

    def run(hand_in):
        net = build_net(case, cache=DistanceCache() if cached else None, prefilter=True)
        table = net.bound_table(joined, spans) if hand_in else None
        found = net.batch_range_query(segments, case["radius"], bounds=table)
        return (
            [outcome(matches) for matches in found],
            work(net.counter),
            None if net.cache is None else cache_state(net.cache),
        )

    # Without ``bounds`` the batch builds its own table: same pruning, same work.
    assert run(hand_in=False) == run(hand_in=True)
    plain = build_net(case, cache=None)
    for found, segment in zip(run(hand_in=True)[0], segments):
        expected = reference_range_search(
            plain, segment, case["radius"], CountingDistance(DISTANCE, DistanceCounter(), None)
        )
        assert sorted(key for key, _distance in found) == sorted(m.key for m in expected)


@pytest.mark.parametrize("eps_prime, nummax", [(1.0, None), (0.5, 2), (1.7, 5)])
def test_bound_first_finds_every_brute_force_answer_in_a_deep_net(eps_prime, nummax):
    # Nets deep enough (6-7 levels) that a skipped node's descendants are
    # several levels away: dropping a non-leaf child on its link bound alone
    # would lose them, which the small random nets above rarely show.
    generator = np.random.default_rng(5)
    net = ReferenceNet(DISTANCE, eps_prime=eps_prime, nummax=nummax, prefilter=True)
    for key in range(200):
        centre, spread = generator.integers(0, 6) * 10.0, generator.choice([0.3, 1.0, 3.0])
        net.add(window(centre + generator.normal(size=4) * spread), key=key)
    assert net.max_level >= 5
    for _ in range(40):
        query = window(generator.integers(0, 6) * 10.0 + generator.normal(size=4) * 2.0)
        for radius in (0.5, 1.5, 3.0, 6.0, 12.0):
            before = net.counter.total
            found = sorted(match.key for match in net.range_query(query, radius))
            exact = {key: DISTANCE(query, item) for key, item in net.items()}
            assert found == sorted(key for key, value in exact.items() if value <= radius)
            within = sum(
                combined_bound(DISTANCE, query, item) <= radius for _key, item in net.items()
            )
            assert net.counter.total - before <= within


@pytest.mark.parametrize("position", [0, 1, 3])
def test_nan_in_the_query_falls_through_to_the_distance(position):
    # A NaN table entry compares false against every threshold, so the node
    # is measured and routed exactly as without a table.
    bounded, generator = clustered_net(60, cache=DistanceCache(), prefilter=True)
    plain, _ = clustered_net(60, cache=DistanceCache())
    content = 10.0 + generator.normal(size=4)
    content[position] = np.nan
    query = window(content)
    assert np.isnan(bounded.bound_table(query, [(0, 4)]).matrix).all()
    built = bounded.counter.total
    found = bounded.range_query(query, 3.0)
    expected = plain.range_query(query, 3.0)
    assert repr(outcome(found)) == repr(outcome(expected))
    assert work(bounded.counter)[:2] == work(plain.counter)[:2]
    assert repr(cache_state(bounded.cache)) == repr(cache_state(plain.cache))
    assert prefilter_tallies(bounded.counter) == (bounded.counter.total - built, 0)


def test_a_stale_or_short_bound_table_is_refused():
    net, generator = clustered_net(30, prefilter=True)
    query = window(generator.normal(size=4))
    table = net.bound_table(query, [(0, 4)])
    net.range_query(query, 2.0, table)
    net.insert(window(generator.normal(size=4)), key="new")
    with pytest.raises(IndexError_, match="bound table"):
        net.range_query(query, 2.0, table)
    net.delete(net.root_key)  # rebuilds; the epoch must keep counting
    with pytest.raises(IndexError_, match="bound table"):
        net.batch_range_query([query], 2.0, bounds=table)
    with pytest.raises(IndexError_, match="rows"):
        net.batch_range_query([query, query], 2.0, bounds=net.bound_table(query, [(0, 4)]))
    with pytest.raises(IndexError_, match="radius"):
        net.batch_range_query([query], -1.0)
    assert ReferenceNet(DISTANCE, prefilter=True).batch_range_query([query, query], 2.0) == [[], []]


# --------------------------------------------------------------------- #
# One kernel call per level and shape group, whatever the batch size
# --------------------------------------------------------------------- #
class SpiedFrechet(DiscreteFrechet):
    """Counts the kernel entry points a net actually uses."""

    def __init__(self):
        super().__init__()
        self.single_calls = 0
        self.batch_sizes = []
        self.pair_sizes = []

    def compute(self, first, second):
        self.single_calls += 1
        return super().compute(first, second)

    def compute_batch(self, query, items, cutoff):
        self.batch_sizes.append(len(items))
        return super().compute_batch(query, items, cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None):
        self.pair_sizes.append(len(query_rows))
        return super().compute_pairs(queries, query_rows, items, item_rows, cutoff)


def test_one_pair_batch_kernel_call_per_level():
    distance = SpiedFrechet()
    generator = np.random.default_rng(9)
    net = ReferenceNet(distance)
    for key in range(150):
        centre = generator.integers(0, 5) * 8.0
        net.add(window(centre + generator.normal(size=5)), key=key)
    # Building: one single call per insertion (the root distance), one
    # batch per level descended -- not one call per candidate.
    assert distance.single_calls == len(net) - 1
    assert sum(distance.batch_sizes) + distance.single_calls == net.counter.total
    assert len(distance.batch_sizes) <= (net.max_level + 1) * len(net)
    assert net.counter.kernel_calls == distance.single_calls + len(distance.batch_sizes)

    # Querying: one pair-batch call per level, for 1 query or for 40.
    for batch in (1, 40):
        distance.single_calls, distance.batch_sizes, distance.pair_sizes = 0, [], []
        before = (net.counter.total, net.counter.kernel_calls)
        net.batch_range_query(
            [window(8.0 + generator.normal(size=5)) for _ in range(batch)], 3.0
        )
        assert distance.single_calls == 0 and distance.batch_sizes == []
        assert 1 <= len(distance.pair_sizes) <= net.max_level + 1
        assert sum(distance.pair_sizes) == net.counter.total - before[0]
        assert len(distance.pair_sizes) == net.counter.kernel_calls - before[1]


def test_kernel_calls_are_bounded_by_levels_times_shape_groups():
    generator = np.random.default_rng(11)
    net = ReferenceNet(Levenshtein(), cache=DistanceCache())
    for key in range(120):
        length = (6, 7, 8)[key % 3]
        net.add(window(generator.integers(0, 4, size=length)), key=key)
    queries = [window(generator.integers(0, 4, size=6 + position % 2)) for position in range(25)]
    mark = net.counter.mark()
    found = net.batch_range_query(queries, 2.0)
    assert any(found)
    window_shapes, query_shapes = 3, 2
    assert (
        0
        < net.counter.since(mark).kernel_calls
        <= (net.max_level + 1) * window_shapes * query_shapes
    )
    for query, matches in zip(queries, found):
        exact = {key: net.distance(query, item) for key, item in net.items()}
        assert sorted(m.key for m in matches) == sorted(k for k, v in exact.items() if v <= 2.0)


# --------------------------------------------------------------------- #
# The flat layout: derived, invalidated by every write, bounded in memory
# --------------------------------------------------------------------- #
def clustered_net(count=120, **kwargs):
    generator = np.random.default_rng(3)
    net = ReferenceNet(DISTANCE, **kwargs)
    for key in range(count):
        centre = generator.integers(0, 6) * 10.0
        net.add(window(centre + generator.normal(size=4)), key=key)
    return net, generator


def test_every_write_invalidates_the_flat_layout():
    net, generator = clustered_net(80)
    queries = [window(generator.integers(0, 6) * 10.0 + generator.normal(size=4)) for _ in range(6)]

    def fresh_answers():
        # A net restored from the structure has never built a layout.
        fresh = ReferenceNet(DISTANCE)
        fresh.restore_structure(json.loads(json.dumps(net.export_structure())), dict(net.items()))
        return [outcome(matches) for matches in fresh.batch_range_query(queries, 3.0)]

    def answers():
        net.check_invariants()
        return [outcome(matches) for matches in net.batch_range_query(queries, 3.0)]

    assert net._flat is None  # built on the first probe, not by the build
    assert answers() == fresh_answers()
    layout = net._flat
    assert answers() == fresh_answers() and net._flat is layout  # reads reuse it
    net.insert(window(20.0 + generator.normal(size=4)), key="new")
    assert answers() == fresh_answers() and net._flat is not layout
    net.delete(next(key for key, node in net._nodes.items() if not node.children))
    assert answers() == fresh_answers()
    net.delete(net.root_key)
    assert answers() == fresh_answers()
    net.insert(window([500.0] * 4), key="far")  # raises the root's level
    assert answers() == fresh_answers()


def test_check_invariants_catches_a_stale_flat_layout():
    net, generator = clustered_net(40)
    net.range_query(window(generator.normal(size=4)), 3.0)
    net.check_invariants()
    flat = net._flat
    parent = int(np.flatnonzero(flat.child_count)[0])
    for name, position, value in (
        ("margin", flat.child_start[parent], flat.margin[flat.child_start[parent]] + 1.0),
        ("child", flat.child_start[parent], (flat.child[flat.child_start[parent]] + 1) % len(net)),
        ("level", parent, flat.level[parent] + 1),
        ("subtree", parent, flat.subtree[parent] * 2),
    ):
        array = getattr(flat, name)
        good = array[position]
        array[position] = value
        with pytest.raises(InvariantViolationError, match="flat layout"):
            net.check_invariants()
        array[position] = good
    net.check_invariants()


@pytest.mark.parametrize("prefilter", [False, True])
def test_the_frontier_holds_no_dense_float_plane(prefilter):
    # 183 segments x 300 windows, as the ledger's fresh-range.  A spy looks
    # at every array a traversal frame holds, line by line: the state plane
    # (one byte per pair) and the bound table are the only S x W arrays;
    # everything else is pair vectors shorter than that, and child rows come
    # a chunk at a time.
    generator = np.random.default_rng(21)
    net = ReferenceNet(DISTANCE, cache=DistanceCache(), prefilter=prefilter)
    series = generator.normal(size=300 * 20).cumsum()
    for key in range(300):
        net.add(window(series[key * 20 : key * 20 + 20]), key=key)
    start = int(generator.integers(0, len(series) - 60))
    query = series[start : start + 60] + generator.normal(size=60) * 0.05
    segments = [
        window(query[offset : offset + length])
        for length in (19, 20, 21)
        for offset in range(60 - length + 1)
    ]
    segments += segments[:60]
    plane = len(segments) * len(net)
    assert (len(segments), len(net)) == (183, 300)

    held = {}  # (function, local name) -> (largest size seen, dtype kind)

    def spy(frame, _event, _arg):
        if frame.f_code.co_filename != reference_net.__file__:
            return None
        for name, value in frame.f_locals.items():
            if isinstance(value, np.ndarray):
                if value.size > held.get((frame.f_code.co_name, name), (0, ""))[0]:
                    held[frame.f_code.co_name, name] = (value.size, value.dtype.kind)
        return spy

    previous = sys.gettrace()
    sys.settrace(spy)
    try:
        found = net.batch_range_query(segments, 2.0)
    finally:
        sys.settrace(previous)
    assert any(found) and ("_frontier", "state") in held and ("_open_children", "row") in held
    chunk = reference_net._CHUNK_ROWS + int(net._layout().child_count.max())
    per_row = {"position", "row", "child", "child_query", "still_open", "margin", "rejected"}
    assert all(("_open_children", name) in held for name in per_row - {"margin", "rejected"})
    for (function, name), (size, kind) in held.items():
        if name == "state":
            assert (size, kind) == (plane, "u")
        else:
            assert size < plane, (function, name)
            if function in ("_open_children", "_route", "_settle") and name in per_row:
                assert size <= chunk, (function, name)


# --------------------------------------------------------------------- #
# The write side: nothing derived is kept per node
# --------------------------------------------------------------------- #
def test_check_invariants_catches_a_wrong_subtree_radius_and_a_missing_packed_key():
    net, _ = clustered_net(40)
    node = next(node for node in net._nodes.values() if node.children)
    node.subtree *= 2
    with pytest.raises(InvariantViolationError, match="subtree radius"):
        net.check_invariants()
    node.subtree /= 2
    net.check_invariants()
    net._packed.remove(node.key)
    with pytest.raises(InvariantViolationError, match="packed store"):
        net.check_invariants()


def test_root_growth_updates_the_root_radius():
    net = ReferenceNet(DISTANCE)
    net.add(window([0.0, 0.0, 0.0]), key="root")
    net.add(window([100.0, 100.0, 100.0]), key="far")
    assert net.max_level > 1
    assert net._root.subtree == net.radius(net.max_level + 1)
    net.check_invariants()
    assert outcome(net.range_query(window([100.0, 100.0, 100.0]), 0.5)) == [("far", 0.0)]
