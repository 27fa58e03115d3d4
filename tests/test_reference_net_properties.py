"""Property-based tests for the Reference Net.

The essential contract: for any set of points, any query, and any radius,
the reference net's range query returns exactly the same keys as a linear
scan.  Structural invariants must also survive arbitrary insert/delete
interleavings.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Euclidean, LinearScanIndex, ReferenceNet

coordinates = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
points_strategy = st.lists(
    st.tuples(coordinates, coordinates), min_size=1, max_size=40
)
radii = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False)


def _build_pair(points, **net_kwargs):
    net = ReferenceNet(Euclidean(), **net_kwargs)
    scan = LinearScanIndex(Euclidean())
    for position, point in enumerate(points):
        array = np.array(point)
        net.add(array, key=position)
        scan.add(array, key=position)
    return net, scan


class TestRangeQueryEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, radius=radii, query_index=st.integers(min_value=0, max_value=39))
    def test_matches_linear_scan(self, points, radius, query_index):
        net, scan = _build_pair(points)
        query = np.array(points[query_index % len(points)])
        expected = sorted(match.key for match in scan.range_query(query, radius))
        actual = sorted(match.key for match in net.range_query(query, radius))
        assert actual == expected

    @settings(max_examples=25, deadline=None)
    @given(points=points_strategy, radius=radii)
    def test_matches_linear_scan_external_query(self, points, radius):
        net, scan = _build_pair(points)
        query = np.array([1.0, -1.0])
        expected = sorted(match.key for match in scan.range_query(query, radius))
        actual = sorted(match.key for match in net.range_query(query, radius))
        assert actual == expected

    @settings(max_examples=25, deadline=None)
    @given(points=points_strategy, radius=radii, nummax=st.integers(min_value=1, max_value=4))
    def test_nummax_preserves_correctness(self, points, radius, nummax):
        net, scan = _build_pair(points, nummax=nummax)
        query = np.array(points[0])
        expected = sorted(match.key for match in scan.range_query(query, radius))
        actual = sorted(match.key for match in net.range_query(query, radius))
        assert actual == expected

    @settings(max_examples=25, deadline=None)
    @given(
        points=points_strategy,
        eps_prime=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
        radius=radii,
    )
    def test_eps_prime_preserves_correctness(self, points, eps_prime, radius):
        net, scan = _build_pair(points, eps_prime=eps_prime)
        query = np.array(points[-1])
        expected = sorted(match.key for match in scan.range_query(query, radius))
        actual = sorted(match.key for match in net.range_query(query, radius))
        assert actual == expected


class TestStructuralInvariants:
    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_invariants_after_insertion(self, points):
        # After *every* insertion, not just the last: the packed store is
        # maintained write by write and the flat layout rebuilt after each.
        net = ReferenceNet(Euclidean())
        for position, point in enumerate(points):
            net.add(np.array(point), key=position)
            net.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        points=points_strategy,
        removals=st.lists(st.integers(min_value=0, max_value=39), max_size=10),
    )
    def test_invariants_and_correctness_after_deletions(self, points, removals):
        net, _ = _build_pair(points)
        remaining = dict(enumerate(points))
        for key in removals:
            key = key % len(points)
            if key in remaining and len(remaining) > 1:
                net.remove(key)
                del remaining[key]
                net.check_invariants()
        net.check_invariants()
        assert len(net) == len(remaining)
        scan = LinearScanIndex(Euclidean())
        for key, point in remaining.items():
            scan.add(np.array(point), key=key)
        query = np.array(next(iter(remaining.values())))
        expected = sorted(match.key for match in scan.range_query(query, 5.0))
        actual = sorted(match.key for match in net.range_query(query, 5.0))
        assert actual == expected

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy)
    def test_every_node_linked(self, points):
        net, _ = _build_pair(points)
        stats = net.stats()
        # Each node except the root has at least one parent (inclusive property).
        assert stats.parent_link_count >= len(points) - 1

    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy, nummax=st.integers(min_value=1, max_value=5))
    def test_nummax_bounds_space_linearly(self, points, nummax):
        net, _ = _build_pair(points, nummax=nummax)
        stats = net.stats()
        # The paper's nummax cap guarantees at most nummax parents per node,
        # i.e. linear space with a controllable constant.
        assert stats.parent_link_count <= nummax * max(len(points) - 1, 1)
