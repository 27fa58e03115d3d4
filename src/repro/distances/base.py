"""The :class:`Distance` interface and element-level ground metrics.

A sequence distance compares two whole (sub)sequences.  Most of the
elastic measures (DTW, ERP, Fréchet) are built on top of an *element*
metric -- the cost of coupling one element of the first sequence with one
element of the second.  :class:`ElementMetric` captures that ground
distance so that the same DP code works for scalar series, trajectories,
and symbol codes.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.exceptions import DistanceError, IncompatibleSequencesError
from repro.sequences.sequence import Sequence

SequenceLike = Union[Sequence, np.ndarray, Iterable[float]]


def as_array(sequence: SequenceLike) -> np.ndarray:
    """Coerce a :class:`Sequence`, array or iterable into a 2-D float array.

    The returned array always has shape ``(length, dim)``; scalar series and
    strings become ``(length, 1)``.  Normalising shapes here keeps every
    distance implementation free of special cases.
    """
    if isinstance(sequence, Sequence):
        values = sequence.values
    else:
        values = np.asarray(sequence)
    if values.ndim == 0:
        raise DistanceError("cannot interpret a scalar as a sequence")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    elif values.ndim != 2:
        raise DistanceError(
            f"sequences must be 1-D or 2-D arrays, got ndim={values.ndim}"
        )
    if values.shape[0] == 0:
        raise DistanceError("cannot compute a distance over an empty sequence")
    return values


def check_same_dim(first: np.ndarray, second: np.ndarray) -> None:
    """Raise when two element arrays have different dimensionality."""
    if first.shape[1] != second.shape[1]:
        raise IncompatibleSequencesError(
            f"element dimensionalities differ: {first.shape[1]} vs {second.shape[1]}"
        )


class ElementMetric:
    """Ground distance between individual sequence elements.

    Parameters
    ----------
    kind:
        ``"euclidean"`` -- the L2 norm of the element difference (the usual
        choice for time series and trajectories);
        ``"manhattan"`` -- the L1 norm;
        ``"discrete"`` -- 0 when the elements are identical, 1 otherwise
        (the natural ground distance for symbols).
    """

    KINDS = ("euclidean", "manhattan", "discrete")

    def __init__(self, kind: str = "euclidean") -> None:
        if kind not in self.KINDS:
            raise DistanceError(
                f"unknown element metric {kind!r}; expected one of {self.KINDS}"
            )
        self.kind = kind

    def __repr__(self) -> str:
        return f"ElementMetric({self.kind!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementMetric):
            return NotImplemented
        return self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)

    def norm(self, diff: np.ndarray) -> np.ndarray:
        """Ground distance of element differences ``diff`` (over the last axis).

        The sums accumulate coordinate by coordinate, the order of the C
        kernels' fused element costs, so a cost computed here (by the
        tracebacks and the lower bounds) is bit-identical to the one the
        DP kernels use, at every point width.
        """
        if self.kind == "discrete":
            return (np.any(diff != 0.0, axis=-1)).astype(np.float64)
        terms = diff * diff if self.kind == "euclidean" else np.abs(diff)
        total = np.zeros(terms.shape[:-1])
        for column in range(terms.shape[-1]):
            total = total + terms[..., column]
        return np.sqrt(total) if self.kind == "euclidean" else total

    def matrix(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Cost matrix ``C[..., i, j] = d(first[..., i, :], second[..., j, :])``.

        ``(n, dim)`` against ``(m, dim)`` gives the ``(n, m)`` matrix; one
        ``(n, dim)`` operand -- or a ``(k, n, dim)`` stack with one per item
        -- against a ``(k, m, dim)`` stack gives a ``(k, n, m)`` tensor.  Every
        cell is the same element-wise expression in every form, so the forms
        agree bit for bit.
        """
        if first.shape[-1] != second.shape[-1]:
            raise IncompatibleSequencesError(
                f"element dimensionalities differ: {first.shape[-1]} vs {second.shape[-1]}"
            )
        return self.norm(first[..., :, None, :] - second[..., None, :, :])

    def single(self, first: np.ndarray, second: np.ndarray) -> float:
        """Ground distance between two single elements (1-D arrays)."""
        diff = np.asarray(first, dtype=np.float64) - np.asarray(second, dtype=np.float64)
        return float(self.norm(diff))

    def to_origin(self, elements: np.ndarray, origin: Optional[np.ndarray] = None) -> np.ndarray:
        """Ground distance of every element (last axis) to a fixed ``origin``.

        ERP uses the distance to a *gap element* ``g`` (the origin by
        default) as the cost of an unmatched element.
        """
        if origin is None:
            origin = np.zeros(elements.shape[-1], dtype=np.float64)
        return self.norm(elements - origin)


def validate_group_shape(distance: "Distance", query: np.ndarray, shape: tuple) -> None:
    """The per-item checks of :func:`group_batch_operands` for a packed group.

    Callers holding a :class:`~repro.sequences.packed.PackedWindowStore`
    already know every member of a shape group is a valid ``(length, dim)``
    array, so only the query-relative checks remain; the error messages
    match :func:`group_batch_operands` exactly.
    """
    if shape[1] != query.shape[1]:
        raise IncompatibleSequencesError(
            f"element dimensionalities differ: {query.shape[1]} vs {shape[1]}"
        )
    if not distance.supports_unequal_lengths and shape[0] != query.shape[0]:
        raise IncompatibleSequencesError(
            f"{distance.name} requires equal-length sequences, "
            f"got {query.shape[0]} and {shape[0]}"
        )


def group_cutoff(cutoff, indexes) -> "Union[None, float, np.ndarray]":
    """Cut a batch cutoff (``None``/scalar/vector) down to ``indexes``.

    ``indexes`` is a list of positions (one shape group) or a slice.
    """
    if cutoff is None:
        return None
    if np.ndim(cutoff) == 0:
        return float(cutoff)
    if not isinstance(indexes, slice):
        indexes = np.asarray(indexes, dtype=np.intp)
    return np.asarray(cutoff, dtype=np.float64)[indexes]


def item_cutoff(cutoff, index: int) -> Optional[float]:
    """The scalar threshold one batch position runs under."""
    if cutoff is None:
        return None
    if np.ndim(cutoff) == 0:
        return float(cutoff)
    return float(cutoff[index])


def group_batch_operands(
    distance: "Distance",
    query: np.ndarray,
    items: "List[SequenceLike]",
) -> "tuple[dict, dict]":
    """Validate batch operands against ``query`` and group them by shape.

    The coercion rules of :meth:`Distance.batch` (dimensionality check,
    lockstep length requirement) and its shape-grouping policy; the indexes
    pack their items instead and check a group with
    :func:`validate_group_shape`.

    Returns ``(arrays, groups)``: ``arrays`` maps item index to its coerced
    ``(m, dim)`` array, ``groups`` maps each array shape to the list of item
    indexes with that shape.
    """
    arrays: "dict[int, np.ndarray]" = {}
    groups: "dict[tuple, list]" = {}
    for index, item in enumerate(items):
        arr = as_array(item)
        check_same_dim(query, arr)
        if not distance.supports_unequal_lengths and arr.shape[0] != query.shape[0]:
            raise IncompatibleSequencesError(
                f"{distance.name} requires equal-length sequences, "
                f"got {query.shape[0]} and {arr.shape[0]}"
            )
        arrays[index] = arr
        groups.setdefault(arr.shape, []).append(index)
    return arrays, groups


class Distance(abc.ABC):
    """Abstract base class for sequence distance measures.

    Subclasses implement :meth:`compute` over normalised ``(length, dim)``
    arrays; the public :meth:`__call__` handles coercion from
    :class:`~repro.sequences.sequence.Sequence` objects and plain arrays.
    """

    #: Short, stable identifier used by the registry and in reports.
    name: str = "distance"
    #: Whether the measure is symmetric and obeys the triangle inequality.
    is_metric: bool = False
    #: Whether the measure obeys the paper's consistency property.
    is_consistent: bool = False
    #: Whether the measure tolerates operands of different lengths.
    supports_unequal_lengths: bool = True
    #: Whether every value is an integer count, exact in floating point.
    integer_valued: bool = False

    def __call__(self, first: SequenceLike, second: SequenceLike) -> float:
        """Distance between two sequences (after shape normalisation)."""
        a, b = self._coerce_pair(first, second)
        return float(self.compute(a, b))

    def bounded(self, first: SequenceLike, second: SequenceLike, cutoff: float) -> float:
        """Distance between two sequences, early-abandoned beyond ``cutoff``.

        Returns the exact distance whenever it is at most ``cutoff``;
        otherwise any value strictly greater than ``cutoff`` (typically
        ``inf``) may be returned.  Callers that only need to know whether a
        pair is within a query radius -- the matcher's verification step and
        the linear-scan index -- use this to let the DP kernels stop as soon
        as a table row proves the radius unreachable.
        """
        a, b = self._coerce_pair(first, second)
        return float(self.compute_bounded(a, b, float(cutoff)))

    def _coerce_pair(
        self, first: SequenceLike, second: SequenceLike
    ) -> "tuple[np.ndarray, np.ndarray]":
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        if not self.supports_unequal_lengths and a.shape[0] != b.shape[0]:
            raise IncompatibleSequencesError(
                f"{self.name} requires equal-length sequences, "
                f"got {a.shape[0]} and {b.shape[0]}"
            )
        return a, b

    @abc.abstractmethod
    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        """Distance between two ``(length, dim)`` arrays."""

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff: float) -> float:
        """:meth:`compute` with permission to abandon beyond ``cutoff``.

        The default simply computes the exact distance; the elastic families
        of :mod:`repro.distances.elastic` override it to stop once a DP
        table row's minimum exceeds ``cutoff``.
        """
        return self.compute(first, second)

    # ------------------------------------------------------------------ #
    # Batched evaluation
    # ------------------------------------------------------------------ #
    def batch(
        self,
        query: SequenceLike,
        items: "List[SequenceLike]",
        cutoff=None,
    ) -> np.ndarray:
        """Distances from ``query`` to every item, as one kernel per shape group.

        Items are grouped by ``(length, dim)`` and each group is stacked into
        one ``(k, m, dim)`` tensor handed to :meth:`compute_batch`, so one
        kernel call sweeps the whole group's DP tables instead of paying one
        call per pair.  With a ``cutoff`` -- one
        scalar, or a per-item vector of length ``len(items)`` -- the same
        early-abandon contract as :meth:`bounded` applies per item: a
        returned value is exact whenever it is at most that item's cutoff,
        and any value beyond the cutoff (typically ``inf``) means "provably
        outside".
        """
        q = as_array(query)
        arrays, groups = group_batch_operands(self, q, items)
        out = np.empty(len(items), dtype=np.float64)
        for indexes in groups.values():
            tensor = np.stack([arrays[i] for i in indexes])
            out[indexes] = self.compute_batch(q, tensor, group_cutoff(cutoff, indexes))
        return out

    def compute_batch(
        self, query: np.ndarray, items: np.ndarray, cutoff
    ) -> np.ndarray:
        """Distances from ``query`` (``(n, dim)``) to ``items`` (``(k, m, dim)``).

        ``cutoff`` is ``None``, one scalar, or a per-item vector.  The
        default loops :meth:`compute` / :meth:`compute_bounded` per item;
        the elastic measures override it with genuinely batched kernels.
        """
        values = np.empty(items.shape[0], dtype=np.float64)
        for index in range(items.shape[0]):
            threshold = item_cutoff(cutoff, index)
            if threshold is None:
                values[index] = self.compute(query, items[index])
            else:
                values[index] = self.compute_bounded(query, items[index], threshold)
        return values

    def compute_pairs(
        self,
        queries: np.ndarray,
        query_rows: np.ndarray,
        items: np.ndarray,
        item_rows: np.ndarray,
        cutoff=None,
    ) -> np.ndarray:
        """Distances of the pairs ``(queries[query_rows[i]], items[item_rows[i]])``.

        The *pair call form*: ``queries`` is a ``(Q, n, dim)`` stack, ``items``
        a ``(X, m, dim)`` stack, and the two equal-length index vectors name
        one operand of each per pair -- how a whole level of an index
        traversal (many queries, each against its own few items) becomes one
        kernel call.  ``cutoff`` is ``None``, one scalar, or one value per
        pair.  Every value equals, bit for bit, what :meth:`compute_batch`
        returns for that pair (the *batch* call form), so an index may mix
        the two freely.

        The default cuts the pairs into runs of one query row -- traversals
        emit them grouped by query -- and hands each run to
        :meth:`compute_batch`; the elastic measures override it with one
        C call over all the pairs.
        """
        values = np.empty(len(query_rows), dtype=np.float64)
        cuts = (np.flatnonzero(np.diff(query_rows)) + 1).tolist()
        start = 0
        for stop in cuts + [len(query_rows)]:
            if stop > start:
                values[start:stop] = self.compute_batch(
                    queries[query_rows[start]],
                    items[item_rows[start:stop]],
                    group_cutoff(cutoff, slice(start, stop)),
                )
            start = stop
        return values

    def empty_distance(self, other: SequenceLike) -> float:
        """Distance between the empty sequence and ``other`` (default: inf).

        Only the gap-based edit distances define this: they can absorb every
        element of ``other`` as an insertion.  It matters for the
        consistency property (Definition 1), whose existential quantifies
        over *possibly empty* subsequences ``SQ`` -- e.g. ERP with the
        default gap assigns distance 0 to a pair like ``([1, 1], [0, 1, 1])``
        by deleting the gap-valued element, and the subsequence ``[0]`` of
        the target is then matched by the empty subsequence of the query.
        Measures without a gap concept keep the default ``inf`` (no
        alignment with the empty sequence exists).
        """
        return float("inf")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
