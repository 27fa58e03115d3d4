"""Cheap O(n) lower bounds used as prefilters in front of the DP kernels.

The elastic distance kernels cost ``O(nm)`` per pair even when vectorized;
most pairs probed by a range query are nowhere near the radius, so a cheap
bound that proves ``d(Q, X) > eps`` without filling a DP table skips the
kernel entirely -- the classic LB_Kim / LB_Keogh discipline of the time
series literature, and the same skip-before-expensive-work idea the paper's
triangle-inequality indexes apply at the index level.

Every bound registered here is *admissible* in exact arithmetic: it never
exceeds the exact distance.  In floating point it stays within rounding of
its own value -- the two that subtract sums (``erp-gap``, ``norm``) take
the sums' rounding off first -- but may still exceed the C value by a few
ulps, so pruning goes through :func:`repro.distances.rounding.prunes`,
which never drops a pair whose C value equals the radius (the test-suite
checks exactly that on random pairs for every registered bound).  The
registered bounds and the distances they are valid for:

============== ===================================== =========================
bound          valid for                              idea
============== ===================================== =========================
``kim``        DTW (sum), discrete Fréchet (max)      both endpoint couplings
                                                      are mandatory
``keogh``      DTW, ERP, discrete Fréchet with a      every query element
               Euclidean or Manhattan ground metric   couples to (or, for ERP,
                                                      gaps instead of) some
                                                      element inside the
                                                      item's bounding box
``erp-gap``    ERP                                    | sum-to-gap(Q) -
                                                      sum-to-gap(X) |
                                                      (Chen & Ng)
``length``     Levenshtein, weighted Levenshtein,     >= |n - m| indels are
               EDR                                    unavoidable
``norm``       Euclidean                              reverse triangle
                                                      inequality
============== ===================================== =========================

Each bound implements one vectorized ``batch`` form over a ``(k, m, dim)``
stack of same-shape items, which is what the batched linear scan uses; its
``pair`` form is a batch of one.  :func:`combined_bound` /
:func:`combined_batch_bound` take the maximum over every applicable bound (0
when none applies, which prunes nothing) -- they are the bound API; a
distance class carries no bound of its own.

A bound may also offer a ``table`` form: the bounds from *every segment of
one query* to *every window of one shape group* at once, as an ``S x k``
matrix, read off per-window summaries (first element, last element, bounding
box) instead of the windows.  It works on element-level matrices -- one
ground distance per (query element, window), computed once however many
segments share the element -- and aggregates them over each segment's
element range.  Today ``kim`` and ``keogh`` have one for the discrete
Frechet distance only: its aggregate is a maximum, which is associative, so
the table equals :func:`combined_batch_bound` row for row, *bit for bit*.
The sum-aggregated distances (DTW, ERP) would re-associate floating-point
additions in a sliding sum and need an admissible-to-the-last-bit argument
first; :func:`combined_bound_table` returns ``None`` for them.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

import numpy as np

from repro.distances.base import Distance, ElementMetric, as_array
from repro.distances.edr import EDR
from repro.distances.elastic import WarpingDistance
from repro.distances.erp import ERP
from repro.distances.euclidean import Euclidean
from repro.distances.levenshtein import Levenshtein, WeightedLevenshtein
from repro.distances.rounding import rounding_slack
from repro.exceptions import DistanceError


def _box_deficit(
    metric: ElementMetric, query: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Ground distance from each query element to the box ``[low, high]``.

    ``query`` is ``(n, dim)``; ``low``/``high`` broadcast against it (either
    ``(dim,)`` for one box or ``(k, 1, dim)`` for a batch of boxes).  The
    distance from a point to an axis-aligned box never exceeds the distance
    to any point inside the box, for both the L2 and L1 ground metrics.
    """
    return metric.norm(np.maximum(np.maximum(low - query, query - high), 0.0))


def _sliding_max(matrix: np.ndarray, length: int) -> np.ndarray:
    """Row ``i`` of the result is the maximum of rows ``i .. i+length-1``.

    Doubling: ``log2(length)`` element-wise maxima of two shifted views
    build the maximum over a power-of-two run, one more covers ``length``
    with two overlapping runs.  A maximum is exact and associative, so
    every entry equals ``matrix[i:i + length].max(axis=0)`` bit for bit
    (NaN included: it propagates through both).
    """
    out = matrix
    span = 1
    while 2 * span <= length:
        out = np.maximum(out[:-span], out[span:])
        span *= 2
    if span < length:
        out = np.maximum(out[: span - length], out[length - span :])
    return out


def _bottleneck(distance: Distance) -> bool:
    """Whether ``distance`` aggregates couplings by maximum (discrete Fréchet)."""
    return isinstance(distance, WarpingDistance) and distance.aggregate == "max"


#: What a ``table`` form reads of one shape group: ``(first element, last
#: element, box low, box high)`` per window, each ``(k, dim)`` -- see
#: :meth:`repro.sequences.packed.PackedWindowStore.group_summary`.
Summary = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _difference_bound(total_query: float, totals: np.ndarray, query_shape, items_shape):
    """``|totals - total_query|`` less the rounding of the two sums, at least 0.

    A difference of two computed sums errs relative to the sums, not to
    itself; taking :func:`~repro.distances.rounding.rounding_slack` of the
    sums off leaves a bound within rounding of its own exact value, which
    is what :func:`~repro.distances.rounding.prunes` assumes.
    """
    width = query_shape[0] + items_shape[1] + query_shape[1]
    slack = rounding_slack(0.0, totals + total_query, width)
    return np.maximum(np.abs(totals - total_query) - slack, 0.0)


class LowerBound(abc.ABC):
    """One admissible lower bound, evaluated over a stack of items."""

    #: Stable identifier used in reports and the README validity table.
    name: str = "lower-bound"

    @abc.abstractmethod
    def applies_to(self, distance: Distance) -> bool:
        """Whether this bound is valid for ``distance``."""

    @abc.abstractmethod
    def batch(self, distance: Distance, query: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Bounds from ``query`` (``(n, dim)``) to a ``(k, m, dim)`` stack."""

    def pair(self, distance: Distance, first: np.ndarray, second: np.ndarray) -> float:
        """Bound for one ``(n, dim)`` / ``(m, dim)`` pair: a batch of one."""
        return float(self.batch(distance, first, second[None])[0])

    def has_table(self, distance: Distance) -> bool:
        """Whether :meth:`table` is implemented for ``distance``."""
        return False

    def table(
        self,
        distance: Distance,
        query: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        summary: Summary,
    ) -> np.ndarray:
        """Bounds from ``S`` segments of ``query`` to ``k`` summarized windows.

        Segment ``s`` is ``query[starts[s] : starts[s] + lengths[s]]``.  Row
        ``s`` of the ``(S, k)`` result must equal :meth:`batch` of that
        segment against the summarized windows, bit for bit.
        """
        raise NotImplementedError(f"{self.name!r} has no table form for {distance.name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class KimEndpointBound(LowerBound):
    """LB_Kim-style endpoint bound for the warping family (DTW, discrete Fréchet).

    The start couplings ``(first[0], second[0])`` and end couplings
    ``(first[-1], second[-1])`` are mandatory in every warping, so DTW pays
    at least their sum -- *except* when both operands have length 1, where
    start and end are the same single coupling and summing would count it
    twice (the bound would exceed the exact distance); that case takes the
    maximum instead, which is also what the bottleneck Fréchet distance
    always uses.
    """

    name = "kim"

    def applies_to(self, distance: Distance) -> bool:
        return isinstance(distance, WarpingDistance)

    def batch(self, distance, query, items) -> np.ndarray:
        metric = distance.element_metric
        start = metric.norm(items[:, 0, :] - query[0])
        end = metric.norm(items[:, -1, :] - query[-1])
        if _bottleneck(distance) or (query.shape[0] == 1 and items.shape[1] == 1):
            return np.maximum(start, end)
        return start + end

    def has_table(self, distance: Distance) -> bool:
        return _bottleneck(distance)

    def table(self, distance, query, starts, lengths, summary) -> np.ndarray:
        first, last, _low, _high = summary
        metric = distance.element_metric
        elements = query[:, None, :]
        start = metric.norm(first[None, :, :] - elements)
        end = metric.norm(last[None, :, :] - elements)
        return np.maximum(start[starts], end[starts + lengths - 1])


class KeoghEnvelopeBound(LowerBound):
    """LB_Keogh-style bounding-box bound for DTW, ERP, and discrete Fréchet.

    Every element of the query is either coupled with some element of the
    item (cost at least its ground distance to the item's axis-aligned
    bounding box) or, for ERP only, left unmatched (cost exactly its ground
    distance to the gap element).  Summing the per-element minima (or taking
    the maximum, for the bottleneck Fréchet distance) is therefore a valid
    bound for any warping, banded or not.  Only meaningful for the L2 / L1
    ground metrics; the discrete metric gets nothing from a bounding box.
    """

    name = "keogh"

    def applies_to(self, distance: Distance) -> bool:
        return isinstance(distance, (WarpingDistance, ERP)) and (
            distance.element_metric.kind in ("euclidean", "manhattan")
        )

    def batch(self, distance, query, items) -> np.ndarray:
        low = items.min(axis=1)[:, None, :]
        high = items.max(axis=1)[:, None, :]
        deficits = _box_deficit(distance.element_metric, query[None, :, :], low, high)
        if isinstance(distance, ERP):
            gap = distance._gap_vector(query.shape[1])
            gap_costs = distance.element_metric.to_origin(query, gap)
            deficits = np.minimum(deficits, gap_costs[None, :])
        if _bottleneck(distance):
            return np.max(deficits, axis=1)
        return np.sum(deficits, axis=1)

    def has_table(self, distance: Distance) -> bool:
        return _bottleneck(distance)

    def table(self, distance, query, starts, lengths, summary) -> np.ndarray:
        _first, _last, low, high = summary
        deficits = _box_deficit(
            distance.element_metric, query[:, None, :], low[None, :, :], high[None, :, :]
        )
        values = np.empty((len(starts), low.shape[0]), dtype=np.float64)
        for length in np.unique(lengths).tolist():
            members = np.nonzero(lengths == length)[0]
            values[members] = _sliding_max(deficits, length)[starts[members]]
        return values


class ErpGapBound(LowerBound):
    """Chen & Ng's |sum-to-gap difference| bound for ERP."""

    name = "erp-gap"

    def applies_to(self, distance: Distance) -> bool:
        return isinstance(distance, ERP)

    def batch(self, distance, query, items) -> np.ndarray:
        gap = distance._gap_vector(query.shape[1])
        metric = distance.element_metric
        total_query = float(np.sum(metric.to_origin(query, gap)))
        totals = np.sum(metric.to_origin(items, gap), axis=1)
        return _difference_bound(total_query, totals, query.shape, items.shape)


class LengthBound(LowerBound):
    """|n - m| indels are unavoidable for the edit-family distances.

    For the weighted Levenshtein distance the bound scales by the cheaper of
    the insertion and deletion costs.
    """

    name = "length"

    def applies_to(self, distance: Distance) -> bool:
        return isinstance(distance, (Levenshtein, WeightedLevenshtein, EDR))

    def _scale(self, distance) -> float:
        if isinstance(distance, WeightedLevenshtein):
            return min(distance.insertion_cost, distance.deletion_cost)
        return 1.0

    def batch(self, distance, query, items) -> np.ndarray:
        value = abs(query.shape[0] - items.shape[1]) * self._scale(distance)
        return np.full(items.shape[0], value, dtype=np.float64)


class NormBound(LowerBound):
    """Reverse triangle inequality for the Euclidean sequence distance."""

    name = "norm"

    def applies_to(self, distance: Distance) -> bool:
        return isinstance(distance, Euclidean)

    def batch(self, distance, query, items) -> np.ndarray:
        query_norm = float(np.linalg.norm(query))
        norms = np.sqrt(np.sum(items * items, axis=(1, 2)))
        return _difference_bound(query_norm, norms, query.shape, items.shape)


_REGISTRY: List[LowerBound] = []


def register_lower_bound(bound: LowerBound) -> None:
    """Add ``bound`` to the registry consulted by the combined bounds."""
    if any(existing.name == bound.name for existing in _REGISTRY):
        raise DistanceError(f"a lower bound named {bound.name!r} is already registered")
    _REGISTRY.append(bound)


def registered_lower_bounds() -> List[LowerBound]:
    """All registered bounds, in registration order."""
    return list(_REGISTRY)


def bounds_for(distance: Distance) -> List[LowerBound]:
    """The registered bounds valid for ``distance`` (possibly empty)."""
    return [bound for bound in _REGISTRY if bound.applies_to(distance)]


def combined_bound(distance: Distance, first, second) -> float:
    """Max over every applicable bound for one pair; 0 when none applies."""
    applicable = bounds_for(distance)
    if not applicable:
        return 0.0
    a = as_array(first)
    b = as_array(second)
    return max(bound.pair(distance, a, b) for bound in applicable)


def combined_batch_bound(distance: Distance, query: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Max over every applicable bound for a ``(k, m, dim)`` stack of items."""
    applicable = bounds_for(distance)
    values = np.zeros(items.shape[0], dtype=np.float64)
    for bound in applicable:
        np.maximum(values, bound.batch(distance, query, items), out=values)
    return values


def has_bound_table(distance: Distance) -> bool:
    """Whether :func:`combined_bound_table` exists for ``distance``.

    It does when at least one bound applies and every one that does has a
    table form -- a partial table would prune less than the per-call bounds
    it stands for.
    """
    applicable = bounds_for(distance)
    return bool(applicable) and all(bound.has_table(distance) for bound in applicable)


def combined_bound_table(
    distance: Distance,
    query: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    summary: Summary,
) -> Optional[np.ndarray]:
    """:func:`combined_batch_bound` for ``S`` segments of one query at once.

    Row ``s`` of the ``(S, k)`` result is bit-identical to
    ``combined_batch_bound(distance, query[starts[s]:starts[s] + lengths[s]],
    windows)`` for the ``k`` windows ``summary`` describes.  ``None`` unless
    :func:`has_bound_table`.
    """
    if not has_bound_table(distance):
        return None
    values = np.zeros((len(starts), summary[0].shape[0]), dtype=np.float64)
    for bound in bounds_for(distance):
        np.maximum(values, bound.table(distance, query, starts, lengths, summary), out=values)
    return values


register_lower_bound(KimEndpointBound())
register_lower_bound(KeoghEnvelopeBound())
register_lower_bound(ErpGapBound())
register_lower_bound(LengthBound())
register_lower_bound(NormBound())
