"""The level-synchronous reference-net traversal against its per-pair oracle.

``ReferenceNet._range_search`` measures one whole level per batched kernel
call and routes over precomputed rows.  :func:`reference_range_search` below
is the traversal it replaced -- one ``counting(query, item)`` call per node,
walking the ``children`` lists -- kept here as the executable statement of
what "the same answer" means: the same matches in the same order, the same
``distance is None``-ness, the same counter tallies, the same cache
statistics and the same cache insertion order, with or without a cache,
under the serial and the thread executor.

The distance is the discrete Fréchet distance, whose batched kernel is
bit-identical to its single call (``tests/test_batch_distances.py`` pins
that), so cache *values* can be compared exactly too.

Bound-first routing (``prefilter=True``) is held to the same oracle, by a
weaker statement -- it computes fewer distances, so fewer matches come back
with one: the same match *keys*, every reported distance exact, no distance
spent on a window whose lower bound already exceeds the radius, and all of
it identical under every executor.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import DiscreteFrechet, ReferenceNet, Sequence, SequenceKind
from repro.core.executor import make_executor
from repro.distances.cache import DistanceCache
from repro.distances.lower_bounds import combined_bound
from repro.exceptions import IndexError_, InvariantViolationError
from repro.indexing.base import RangeMatch
from repro.indexing.stats import CountingDistance, DistanceCounter

DISTANCE = DiscreteFrechet()


def reference_range_search(net, query, radius, counting):
    """Algorithm 3, one distance call per node (the pre-batching traversal).

    Reads the node links only (never the routing rows); the per-child bounds
    are the rows' bounds computed from the links.
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
            if value + subtree <= radius or value - subtree > radius:
                settle(node, accept=value + subtree <= radius)
                continue
            for _level, child, link in node.iter_children():
                if child.key in decided:
                    continue
                reach = link + net.radius(child.home_level + 1)
                leaf = not child.children
                if value + reach <= radius or value - reach > radius:
                    decided.add(child.key)
                    if value + reach <= radius:
                        matches.append(RangeMatch(child.key, child.item, None))
                    settle(child, accept=value + reach <= radius)
                elif leaf and value + link <= radius:
                    decided.add(child.key)
                    matches.append(RangeMatch(child.key, child.item, None))
                elif leaf and value - link > radius:
                    decided.add(child.key)
                else:
                    pending.setdefault(child.home_level, []).append(child)
    return matches


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


def tallies(counting):
    cache = counting.cache
    return (
        counting.counter.total,
        counting.counter.cache_hits,
        None if cache is None else (cache.hits, cache.misses, list(cache.iter_entries())),
    )


@settings(max_examples=120, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_level_synchronous_equals_per_pair_serial(case, cached):
    net = build_net(case, cache=None)
    # The traversal only reads the structure, so both run on the same net,
    # each against its own counting context; the queries run back to back,
    # so later ones meet what earlier ones cached.
    batched = CountingDistance(DISTANCE, DistanceCounter(), DistanceCache() if cached else None)
    per_pair = CountingDistance(DISTANCE, DistanceCounter(), DistanceCache() if cached else None)
    for content in case["queries"]:
        query = window(content)
        found = net._range_search(query, case["radius"], batched)
        expected = reference_range_search(net, query, case["radius"], per_pair)
        assert outcome(found) == outcome(expected)
        assert tallies(batched) == tallies(per_pair)


@settings(max_examples=60, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_level_synchronous_equals_per_pair_thread_executor(case, cached):
    net = build_net(case, cache=DistanceCache() if cached else None)
    queries = [window(content) for content in case["queries"]]
    # The oracle starts from what the build left behind: its cache entries
    # (item-to-item link distances) and a zeroed counter.
    if cached:
        oracle_cache = DistanceCache()
        oracle_cache.seed_entries(net.cache.iter_entries())
        before = (net.counter.total, net.counter.cache_hits, net.cache.hits, net.cache.misses)
    else:
        # A cache-less net shares reference distances through a cache that
        # lives for the batch, under every executor.
        oracle_cache = DistanceCache()
        before = (net.counter.total, net.counter.cache_hits)
    per_pair = CountingDistance(DISTANCE, DistanceCounter(), oracle_cache)
    expected = [
        reference_range_search(net, query, case["radius"], per_pair) for query in queries
    ]
    found = net.batch_range_query(queries, case["radius"], executor=make_executor("thread", 3))
    assert [outcome(matches) for matches in found] == [outcome(matches) for matches in expected]
    assert net.counter.total - before[0] == per_pair.counter.total
    assert net.counter.cache_hits - before[1] == per_pair.counter.cache_hits
    if cached:
        assert net.cache.hits - before[2] == oracle_cache.hits
        assert net.cache.misses - before[3] == oracle_cache.misses
        assert list(net.cache.iter_entries()) == list(oracle_cache.iter_entries())


# --------------------------------------------------------------------- #
# Bound-first routing: same answers, distances only where the bound allows
# --------------------------------------------------------------------- #
def prefilter_tallies(counter):
    return (counter.prefilter_evaluations, counter.prefilter_pruned)


@settings(max_examples=120, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_bound_first_answers_equal_per_pair_answers(case, cached):
    net = build_net(case, cache=None, prefilter=True)
    bounded = CountingDistance(DISTANCE, DistanceCounter(), DistanceCache() if cached else None)
    per_pair = CountingDistance(DISTANCE, DistanceCounter(), None)
    radius = case["radius"]
    for content in case["queries"]:
        query = window(content)
        requested = bounded.counter.total + bounded.counter.cache_hits
        classified = prefilter_tallies(bounded.counter)
        found = net._range_search(query, radius, bounded)
        expected = reference_range_search(net, query, radius, per_pair)
        assert sorted(match.key for match in found) == sorted(match.key for match in expected)
        assert len({match.key for match in found}) == len(found)
        for match in found:
            assert match.distance is None or match.distance == DISTANCE(query, match.item)
        # By construction: a distance is requested only for a window whose
        # bound is within the radius -- the pairs the scan's prefilter keeps.
        requested = bounded.counter.total + bounded.counter.cache_hits - requested
        within = sum(combined_bound(DISTANCE, query, item) <= radius for _key, item in net.items())
        assert requested <= within
        evaluated, pruned = np.subtract(prefilter_tallies(bounded.counter), classified)
        assert evaluated - pruned == requested and evaluated <= len(net)


@settings(max_examples=40, deadline=None)
@given(case=net_cases, cached=st.booleans())
@example(case=REPEATS_IN_ONE_LEVEL, cached=True)
def test_bound_first_is_identical_under_every_executor(case, cached):
    # One query whose segments are the case's queries, so one table serves
    # the batch, as the pipeline's does.
    joined = window([value for content in case["queries"] for value in content])
    spans, start = [], 0
    for content in case["queries"]:
        spans.append((start, len(content)))
        start += len(content)
    segments = [joined.subsequence(start, start + length) for start, length in spans]

    def run(executor):
        net = build_net(case, cache=DistanceCache() if cached else None, prefilter=True)
        table = net.bound_table(joined, spans)
        found = net.batch_range_query(segments, case["radius"], executor=executor, bounds=table)
        # The same again without handing the table in: built per query.
        assert [outcome(matches) for matches in found] == [
            outcome(net.range_query(segment, case["radius"])) for segment in segments
        ]
        return (
            [outcome(matches) for matches in found],
            tallies(net._counting),
            prefilter_tallies(net.counter),
        )

    serial = run(None)
    assert run(make_executor("thread", 3)) == serial
    assert run(make_executor("process", 2)) == serial
    plain = build_net(case, cache=None)
    for found, segment in zip(serial[0], segments):
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
            within = sum(combined_bound(DISTANCE, query, item) <= radius for _k, item in net.items())
            assert net.counter.total - before <= within


@pytest.mark.parametrize("position", [0, 1, 3])
def test_nan_in_the_query_falls_through_to_the_distance(position):
    # A NaN table entry compares false against every threshold, so the node
    # is measured and routed exactly as without a table.
    net, generator = clustered_net(60)
    content = 10.0 + generator.normal(size=4)
    content[position] = np.nan
    query = window(content)
    bounded = CountingDistance(DISTANCE, DistanceCounter(), DistanceCache())
    plain = CountingDistance(DISTANCE, DistanceCounter(), DistanceCache())
    net.prefilter = True
    assert np.isnan(net.bound_table(query, [(0, 4)]).rows[0]).all()
    found = net._range_search(query, 3.0, bounded)
    net.prefilter = False
    expected = net._range_search(query, 3.0, plain)
    assert repr(outcome(found)) == repr(outcome(expected))
    assert repr(tallies(bounded)) == repr(tallies(plain))
    assert prefilter_tallies(bounded.counter) == (bounded.counter.total, 0)


def test_a_stale_bound_table_is_refused():
    net, generator = clustered_net(30)
    net.prefilter = True
    query = window(generator.normal(size=4))
    table = net.bound_table(query, [(0, 4)])
    net.range_query(query, 2.0, table.row(0))
    net.insert(window(generator.normal(size=4)), key="new")
    with pytest.raises(IndexError_, match="bound table"):
        net.range_query(query, 2.0, table.row(0))
    net.delete(net.root_key)  # rebuilds; the epoch must keep counting
    with pytest.raises(IndexError_, match="bound table"):
        net.batch_range_query([query], 2.0, bounds=table)
    with pytest.raises(IndexError_, match="rows"):
        net.batch_range_query([query, query], 2.0, bounds=net.bound_table(query, [(0, 4)]))


# --------------------------------------------------------------------- #
# One kernel sweep per level, for queries and for Algorithm 1's descent
# --------------------------------------------------------------------- #
class SpiedFrechet(DiscreteFrechet):
    """Counts the kernel entry points a net actually uses."""

    def __init__(self):
        super().__init__()
        self.single_calls = 0
        self.batch_sizes = []

    def compute(self, first, second):
        self.single_calls += 1
        return super().compute(first, second)

    def compute_batch(self, query, items, cutoff):
        self.batch_sizes.append(len(items))
        return super().compute_batch(query, items, cutoff)


def test_one_batched_kernel_call_per_level():
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

    distance.single_calls, distance.batch_sizes = 0, []
    before = net.counter.total
    net.range_query(window(8.0 + generator.normal(size=5)), 3.0)
    assert distance.single_calls == 0
    assert 1 <= len(distance.batch_sizes) <= net.max_level + 1
    assert sum(distance.batch_sizes) == net.counter.total - before


# --------------------------------------------------------------------- #
# The layout is maintained write by write, for the touched parents only
# --------------------------------------------------------------------- #
def clustered_net(count=120):
    generator = np.random.default_rng(3)
    net = ReferenceNet(DISTANCE)
    for key in range(count):
        centre = generator.integers(0, 6) * 10.0
        net.add(window(centre + generator.normal(size=4)), key=key)
    return net, generator


def rebuilt_rows(net, write):
    """Keys of the surviving nodes whose row list ``write`` replaced."""
    before = {key: node.rows for key, node in net._nodes.items()}
    write()
    return {
        key
        for key, node in net._nodes.items()
        if key in before and node.rows is not before[key]
    }


def test_insert_rebuilds_rows_of_touched_parents_only():
    net, generator = clustered_net()
    rebuilt = rebuilt_rows(
        net, lambda: net.insert(window(20.0 + generator.normal(size=4)), key="new")
    )
    new = net._nodes["new"]
    parents = {parent.key for _level, parent in new.parent_links}
    grandparents = {
        grand.key
        for _level, parent in new.parent_links
        for _l, grand in parent.parent_links
    }
    assert parents <= rebuilt <= parents | grandparents
    assert len(rebuilt) < len(net) // 4
    net.check_invariants()


def test_delete_rebuilds_rows_of_touched_parents_only():
    net, _ = clustered_net()
    leaf_key = next(
        key for key, node in net._nodes.items() if not node.children and node is not net._root
    )
    victim = net._nodes[leaf_key]
    parents = {parent.key for _level, parent in victim.parent_links}
    grandparents = {
        grand.key for _level, parent in victim.parent_links for _l, grand in parent.parent_links
    }
    rebuilt = rebuilt_rows(net, lambda: net.delete(leaf_key))
    assert parents <= rebuilt <= parents | grandparents
    assert len(rebuilt) < len(net) // 4
    net.check_invariants()


def test_check_invariants_catches_a_stale_layout():
    net, _ = clustered_net(40)
    parent = next(node for node in net._nodes.values() if node.rows)
    child, link, reach, leaf = parent.rows[0]
    good = parent.rows
    for stale in (
        [(child, link, reach, not leaf)] + good[1:],
        [(child, link, reach + 1.0, leaf)] + good[1:],
        good[1:],
        good[::-1] if len(good) > 1 else good + good,
    ):
        parent.rows = stale
        with pytest.raises(InvariantViolationError, match="routing rows"):
            net.check_invariants()
    parent.rows = good
    net.check_invariants()
    net._packed.remove(child.key)
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
