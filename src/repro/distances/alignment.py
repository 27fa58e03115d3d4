"""Shared dynamic-programming machinery for elastic sequence distances.

DTW, ERP, the Levenshtein distance and the discrete Fréchet distance are all
computed by filling a dynamic-programming table whose cell ``(i, j)`` stores
the best cost of aligning the first ``i`` elements of one sequence with the
first ``j`` elements of the other.  The measures differ only in the
recurrence: DTW/Fréchet couple elements without gap penalties (aggregating by
sum or maximum), whereas ERP and Levenshtein pay explicit gap costs.

The kernels here are *row-vectorized*: a table row depends on the previous
row element-wise and on itself through a left-to-right scan, and both parts
are expressed as NumPy primitives instead of per-cell Python arithmetic.

For the additive recurrences (DTW, ERP, Levenshtein, EDR) the in-row scan
``row[j] = min(entry[j], row[j-1] + step[j])`` unrolls to

    row[j] = S[j] + min_{k <= j} (entry[k] - S[k]),   S = cumsum(step),

i.e. a single ``np.minimum.accumulate``.  For the bottleneck recurrence
(discrete Fréchet) the scan ``row[j] = max(c[j], min(entry[j], row[j-1]))``
is solved by doubling: after ``ceil(log2(m))`` shifted min/max passes every
horizontal run length has been considered.

Besides the full tables (still needed by the tracebacks), the module offers
*value-only* variants (:func:`warping_distance`, :func:`edit_distance_value`)
that keep a two-row working set and support **early abandoning**: every
complete alignment path visits at least one cell of every row and table
values never decrease along a path, so once a row's minimum exceeds the
caller's ``cutoff`` the final distance must exceed it too and the kernel
returns ``inf`` immediately.  This is what backs the
:meth:`repro.distances.base.Distance.compute_bounded` API.

Given a :class:`PrefixBlock`, the value sweeps also keep the admissible
cells of every row they complete: cell ``(L, J)`` of the table over
``Q[:n] x X[:m]`` *is* the distance of the prefixes ``Q[:L]`` and ``X[:J]``,
and every operation of a sweep reads only cells up and to the left, so one
sweep answers every pair of subsequences that shares the two start points.

This module also provides the traceback that turns a filled table into an
explicit alignment (a list of *couplings*), which is what the paper's
consistency proof reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import DistanceError

#: A coupling pairs index ``i`` of the first sequence with index ``j`` of the second.
Coupling = Tuple[int, int]

_INF = float("inf")

#: A batch abandon threshold: ``None``, one scalar for the whole batch, or a
#: per-row ``(k,)`` vector.
BatchCutoff = Union[None, float, np.ndarray]


def _normalise_batch_cutoff(cutoff: BatchCutoff, k: int):
    """Validate a batch cutoff; scalars stay scalar, vectors become float64.

    Returning scalars unchanged keeps the scalar code path (and its exact
    comparison semantics) byte-for-byte what it was before per-row
    thresholds existed.
    """
    if cutoff is None or np.ndim(cutoff) == 0:
        return cutoff
    vector = np.asarray(cutoff, dtype=np.float64)
    if vector.shape != (k,):
        raise DistanceError(
            f"per-row cutoff vector has shape {vector.shape}, expected ({k},)"
        )
    return vector


@dataclass(frozen=True)
class Alignment:
    """An explicit alignment between two sequences.

    Attributes
    ----------
    couplings:
        Monotonically non-decreasing list of ``(i, j)`` index pairs, covering
        every index of both sequences (boundary + continuity properties).
    cost:
        The aggregated cost of the alignment under the distance that
        produced it (sum of coupling costs, or the maximum for Fréchet).
    """

    couplings: Tuple[Coupling, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.couplings)

    def covers_all_indices(self, length_first: int, length_second: int) -> bool:
        """Check the boundary/continuity conditions of a warping alignment."""
        firsts = {i for i, _ in self.couplings}
        seconds = {j for _, j in self.couplings}
        return firsts == set(range(length_first)) and seconds == set(range(length_second))


class PrefixBlock:
    """The admissible cells of one DP table, swept once from a start pair.

    Cell ``(L, J)`` of the table over ``Q[:n] x X[:m]`` is ``d(Q[:L],
    X[:J])`` -- the prefix property behind subsequence DTW (SPRING, Sakurai
    et al., ICDE 2007).  A block keeps the rows ``L >= first`` and, in each,
    the cells ``|L - J| <= shift`` -- the paper's length constraints
    ``lambda`` and ``lambda0`` -- as ``cells[L - first, J - L + shift]``;
    cells outside ``1 <= J <= m`` read ``inf``.

    The sweep ran under ``cutoff`` and completed the rows up to ``rows``.
    It abandons a row only when every cell of it exceeds the cutoff, and
    table values never decrease along a path, so every pair reaching a
    later row is beyond the cutoff too: those cells read ``inf``.  Cells of
    completed rows are exact whatever the cutoff.  A sweep fills the block
    through :meth:`emit` (or the C tier writes ``cells`` and ``rows``).
    """

    __slots__ = ("n", "m", "first", "shift", "cutoff", "cells", "rows")

    def __init__(self, n: int, m: int, first: int, shift: int, cutoff: Optional[float]) -> None:
        self.n = n
        self.m = m
        self.first = first
        self.shift = shift
        self.cutoff = _INF if cutoff is None else float(cutoff)
        self.cells = np.full((max(n - first + 1, 0), 2 * shift + 1), _INF)
        self.rows = 0

    def covers(self, rows: int, columns: int, cutoff: float) -> bool:
        """Whether :meth:`value` answers ``d(Q[:rows], X[:columns])`` at ``cutoff``.

        The pair must lie inside the swept table; a row past :attr:`rows`
        is only known to exceed the block's own cutoff, so it answers a
        request at that cutoff or below.
        """
        return rows <= self.n and columns <= self.m and (rows <= self.rows or cutoff <= self.cutoff)

    def value(self, rows: int, columns: int) -> float:
        """``d(Q[:rows], X[:columns])`` for an admissible pair the block covers.

        Exact whenever it is at most the block's cutoff; beyond it otherwise
        (``inf`` in an abandoned row), the contract of
        :meth:`~repro.distances.base.Distance.bounded`.
        """
        return float(self.cells[rows - self.first, columns - rows + self.shift])

    def emit(self, length: int, row: np.ndarray, base: int, offsets=None) -> None:
        """Keep row ``length`` of a sweep: column ``J`` is ``row[J - base]``
        (plus ``offsets[J]``, when given)."""
        self.rows = length
        if length < self.first:
            return
        lo = max(1, length - self.shift)
        hi = min(self.m, length + self.shift)
        values = row[lo - base : hi + 1 - base]
        if offsets is not None:
            values = values + offsets[lo : hi + 1]
        start = lo - length + self.shift
        self.cells[length - self.first, start : start + len(values)] = values


def _validate_cost_matrix(cost: np.ndarray) -> None:
    if cost.ndim != 2 or cost.shape[0] == 0 or cost.shape[1] == 0:
        raise DistanceError("cost matrix must be a non-empty 2-D array")


def _band_limits(i: int, m: int, band: Optional[int]) -> Tuple[int, int]:
    """Half-open column range of row ``i`` inside a Sakoe-Chiba band."""
    if band is None:
        return 0, m
    return max(0, i - band), min(m, i + band + 1)


def _sum_row(
    cost_row: np.ndarray,
    prev: Optional[np.ndarray],
    j_start: int,
    j_stop: int,
) -> np.ndarray:
    """One vectorized row of the additive (DTW-style) warping recurrence."""
    m = cost_row.shape[0]
    entry = np.full(m, _INF)
    if prev is None:
        if j_start == 0:
            entry[0] = cost_row[0]
    else:
        base = np.empty(m)
        base[0] = prev[0]
        np.minimum(prev[1:], prev[:-1], out=base[1:])
        entry[j_start:j_stop] = base[j_start:j_stop] + cost_row[j_start:j_stop]
    # Unrolled in-row scan: row[j] = S[j] + min_{k <= j} (entry[k] - S[k]).
    prefix = np.cumsum(cost_row)
    row = prefix + np.minimum.accumulate(entry - prefix)
    if j_start > 0:
        row[:j_start] = _INF
    if j_stop < m:
        row[j_stop:] = _INF
    return row


def _max_row(
    cost_row: np.ndarray,
    prev: Optional[np.ndarray],
    j_start: int,
    j_stop: int,
) -> np.ndarray:
    """One vectorized row of the bottleneck (Fréchet-style) recurrence."""
    m = cost_row.shape[0]
    step = np.full(m, _INF)
    step[j_start:j_stop] = cost_row[j_start:j_stop]
    entry = np.full(m, _INF)
    if prev is None:
        if j_start == 0:
            entry[0] = cost_row[0]
    else:
        base = np.empty(m)
        base[0] = prev[0]
        np.minimum(prev[1:], prev[:-1], out=base[1:])
        entry = np.maximum(base, step)
    # Doubling scan: after the pass for shift s, row[j] accounts for every
    # horizontal run of length < 2s ending at j; run_max[j] is the maximum
    # step cost over the last s columns ending at j.
    row = entry
    run_max = step
    shift = 1
    while shift < m:
        shifted_row = np.full(m, _INF)
        shifted_row[shift:] = row[:-shift]
        row = np.minimum(row, np.maximum(shifted_row, run_max))
        shifted_max = np.full(m, -_INF)
        shifted_max[shift:] = run_max[:-shift]
        run_max = np.maximum(run_max, shifted_max)
        shift *= 2
    return row


def warping_table(
    cost: np.ndarray,
    aggregate: str = "sum",
    band: Optional[int] = None,
) -> np.ndarray:
    """Fill the DTW / discrete-Fréchet dynamic-programming table.

    Parameters
    ----------
    cost:
        The element cost matrix ``C[i, j]``.
    aggregate:
        ``"sum"`` for DTW-style accumulation, ``"max"`` for the discrete
        Fréchet distance (the bottleneck variant).
    band:
        Optional Sakoe-Chiba band half-width.  Cells with ``|i - j| > band``
        are left at infinity, constraining the warping path.

    Returns
    -------
    numpy.ndarray
        A ``(n, m)`` table whose bottom-right cell is the distance.
    """
    _validate_cost_matrix(cost)
    if aggregate not in ("sum", "max"):
        raise DistanceError(f"aggregate must be 'sum' or 'max', got {aggregate!r}")
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    fill_row = _sum_row if aggregate == "sum" else _max_row
    table = np.empty((n, m), dtype=np.float64)
    prev: Optional[np.ndarray] = None
    for i in range(n):
        j_start, j_stop = _band_limits(i, m, band)
        prev = fill_row(cost[i], prev, j_start, j_stop)
        table[i] = prev
    return table


def warping_distance(
    cost: np.ndarray,
    aggregate: str = "sum",
    band: Optional[int] = None,
    cutoff: Optional[float] = None,
    out: Optional[PrefixBlock] = None,
) -> float:
    """The bottom-right value of :func:`warping_table`, without the table.

    This is the hot-path kernel: it keeps a two-row (or two-diagonal)
    working set, avoids per-iteration allocations, and, when ``cutoff`` is
    given, abandons as soon as the table front's minimum exceeds it
    (returning ``inf``).  ``inf`` is also returned when no warping path fits
    inside the band.  ``out`` receives the table's admissible prefix cells
    from a row sweep (the bottleneck recurrence's values are exact
    selections, so its row sweep agrees with every other path).
    """
    _validate_cost_matrix(cost)
    if aggregate not in ("sum", "max"):
        raise DistanceError(f"aggregate must be 'sum' or 'max', got {aggregate!r}")
    cost = np.asarray(cost, dtype=np.float64)
    if aggregate == "sum":
        return _warp_sum_value(cost, band, cutoff, out)
    if out is not None:
        return float(_batch_warp_max(cost[None], band, cutoff, out)[0])
    if cost.size <= _SMALL_TABLE_CELLS:
        return _warp_max_value_small(cost, band, cutoff)
    return _warp_max_value(cost, band, cutoff)


def _warp_sum_value(
    cost: np.ndarray,
    band: Optional[int],
    cutoff: Optional[float],
    out: Optional[PrefixBlock] = None,
) -> float:
    """Row-sweep DTW value: the in-row scan is one ``np.minimum.accumulate``.

    Works in *reduced* coordinates ``row - S`` (``S`` the row-wise prefix sum
    of the costs), where the recurrence's in-row part becomes a pure running
    minimum; ``entry - S[i] = min(prev, shift(prev)) - Z[i]`` with ``Z`` the
    right-shifted prefix sums.
    """
    n, m = cost.shape
    prefix = np.cumsum(cost, axis=1)
    shifted_prefix = np.empty_like(prefix)
    shifted_prefix[:, 0] = 0.0
    shifted_prefix[:, 1:] = prefix[:, :-1]
    _, j_stop = _band_limits(0, m, band)
    row = prefix[0].copy()
    if j_stop < m:
        row[j_stop:] = _INF
    if cutoff is not None and row[0] > cutoff:
        return _INF
    if out is not None:
        out.emit(1, row, 1)
    buf = np.empty(m)
    for i in range(1, n):
        j_start, j_stop = _band_limits(i, m, band)
        np.minimum(row[1:], row[:-1], out=buf[1:])
        buf[0] = row[0]
        if j_start > 0:
            buf[:j_start] = _INF
        if j_stop < m:
            buf[j_stop:] = _INF
        np.subtract(buf, shifted_prefix[i], out=buf)
        np.minimum.accumulate(buf, out=buf)
        np.add(buf, prefix[i], out=buf)
        if j_stop < m:
            buf[j_stop:] = _INF
        row, buf = buf, row
        if cutoff is not None and np.min(row) > cutoff:
            return _INF
        if out is not None:
            out.emit(i + 1, row, 1)
    return float(row[-1])


#: Below this many table cells the per-operation overhead of NumPy outweighs
#: its throughput and a tight scalar loop is faster; the vectorized and
#: scalar paths are equivalence-tested against each other.
_SMALL_TABLE_CELLS = 1024


def _warp_max_value_small(
    cost: np.ndarray, band: Optional[int], cutoff: Optional[float]
) -> float:
    """Scalar discrete-Fréchet value for small tables, with early abandon."""
    n, m = cost.shape
    cost_rows = cost.tolist()
    prev: Optional[List[float]] = None
    for i in range(n):
        cost_row = cost_rows[i]
        j_start, j_stop = _band_limits(i, m, band)
        row = [_INF] * m
        row_min = _INF
        for j in range(j_start, j_stop):
            c = cost_row[j]
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = _INF
                if prev is not None:
                    if j > 0 and prev[j - 1] < best:
                        best = prev[j - 1]
                    if prev[j] < best:
                        best = prev[j]
                if j > 0 and row[j - 1] < best:
                    best = row[j - 1]
                if best == _INF:
                    continue
            value = best if best > c else c
            row[j] = value
            if value < row_min:
                row_min = value
        if cutoff is not None and row_min > cutoff:
            return _INF
        prev = row
    assert prev is not None
    return prev[-1]


def _warp_max_value(cost: np.ndarray, band: Optional[int], cutoff: Optional[float]) -> float:
    """Anti-diagonal discrete-Fréchet value.

    The bottleneck recurrence has no closed-form in-row scan, but cells of
    one anti-diagonal are mutually independent (they depend only on the two
    previous diagonals), so sweeping diagonals needs nothing beyond
    element-wise ``np.minimum``/``np.maximum`` over shifted slices.  Buffers
    are indexed by ``i + 1`` so the ``i - 1`` accesses never wrap.

    The early-abandon test uses two consecutive diagonals: every monotone
    path advances ``i + j`` by 1 or 2 per step, so it must visit one of
    them, and values never decrease along a path.
    """
    n, m = cost.shape
    flipped = np.fliplr(cost)
    diag_prev2 = np.full(n + 1, _INF)
    diag_prev = np.full(n + 1, _INF)
    cur = np.full(n + 1, _INF)
    diag_prev[1] = cost[0, 0]
    for d in range(1, n + m - 1):
        lo = max(0, d - m + 1)
        hi = min(n - 1, d)
        if band is not None:
            lo = max(lo, (d - band + 1) // 2)
            hi = min(hi, (d + band) // 2)
        cur.fill(_INF)
        if lo <= hi:
            # np.diagonal of the left-right flip walks cost[i, d - i] for
            # increasing i, starting at i0.
            cost_diag = np.diagonal(flipped, offset=m - 1 - d)
            i0 = max(0, d - m + 1)
            best = np.minimum(diag_prev[lo + 1 : hi + 2], diag_prev[lo : hi + 1])
            np.minimum(best, diag_prev2[lo : hi + 1], out=best)
            np.maximum(best, cost_diag[lo - i0 : hi - i0 + 1], out=best)
            cur[lo + 1 : hi + 2] = best
        if cutoff is not None and min(np.min(cur), np.min(diag_prev)) > cutoff:
            return _INF
        diag_prev2, diag_prev, cur = diag_prev, cur, diag_prev2
    return float(diag_prev[n])


def _validate_cost_tensor(cost: np.ndarray) -> None:
    if cost.ndim != 3 or cost.shape[0] == 0 or cost.shape[1] == 0 or cost.shape[2] == 0:
        raise DistanceError("batched cost tensor must be a non-empty 3-D array")


def batch_warping_distance(
    cost: np.ndarray,
    aggregate: str = "sum",
    band: Optional[int] = None,
    cutoff: BatchCutoff = None,
) -> np.ndarray:
    """:func:`warping_distance` for a batch of same-shape pairs.

    ``cost`` has shape ``(k, n, m)``: one element cost matrix per pair, all
    sharing the same table dimensions (the caller groups operands by shape).
    The row sweep runs over ``(k, m)`` matrices, so one pass of NumPy
    primitives advances every pair in the batch at once.  With a ``cutoff``
    (one scalar, or a per-row ``(k,)`` vector), pairs whose table front
    exceeds their threshold are marked abandoned (their result is ``inf``);
    the sweep stops early only when *every* pair has abandoned, matching the
    per-pair semantics of :func:`warping_distance` -- a returned value is
    exact whenever it is at most the pair's cutoff.
    """
    _validate_cost_tensor(cost)
    if aggregate not in ("sum", "max"):
        raise DistanceError(f"aggregate must be 'sum' or 'max', got {aggregate!r}")
    cost = np.asarray(cost, dtype=np.float64)
    cutoff = _normalise_batch_cutoff(cutoff, cost.shape[0])
    if aggregate == "sum":
        return _batch_warp_sum(cost, band, cutoff)
    return _batch_warp_max(cost, band, cutoff)


def _batch_warp_sum(
    cost: np.ndarray, band: Optional[int], cutoff: BatchCutoff
) -> np.ndarray:
    """Batched :func:`_warp_sum_value`: identical recurrence, extra batch axis."""
    k, n, m = cost.shape
    prefix = np.cumsum(cost, axis=2)
    shifted_prefix = np.empty_like(prefix)
    shifted_prefix[:, :, 0] = 0.0
    shifted_prefix[:, :, 1:] = prefix[:, :, :-1]
    _, j_stop = _band_limits(0, m, band)
    row = prefix[:, 0, :].copy()
    if j_stop < m:
        row[:, j_stop:] = _INF
    abandoned = np.zeros(k, dtype=bool)
    if cutoff is not None:
        abandoned |= row[:, 0] > cutoff
        if abandoned.all():
            return np.full(k, _INF)
    buf = np.empty((k, m))
    for i in range(1, n):
        j_start, j_stop = _band_limits(i, m, band)
        np.minimum(row[:, 1:], row[:, :-1], out=buf[:, 1:])
        buf[:, 0] = row[:, 0]
        if j_start > 0:
            buf[:, :j_start] = _INF
        if j_stop < m:
            buf[:, j_stop:] = _INF
        np.subtract(buf, shifted_prefix[:, i, :], out=buf)
        np.minimum.accumulate(buf, axis=1, out=buf)
        np.add(buf, prefix[:, i, :], out=buf)
        if j_stop < m:
            buf[:, j_stop:] = _INF
        row, buf = buf, row
        if cutoff is not None:
            abandoned |= np.min(row, axis=1) > cutoff
            if abandoned.all():
                return np.full(k, _INF)
    values = row[:, -1].copy()
    values[abandoned] = _INF
    return values


def _batch_warp_max(
    cost: np.ndarray,
    band: Optional[int],
    cutoff: BatchCutoff,
    out: Optional[PrefixBlock] = None,
) -> np.ndarray:
    """Batched bottleneck recurrence via the :func:`_max_row` doubling scan.

    The early-abandon test is per row (every monotone path visits every row
    and bottleneck values never decrease along a path), which may abandon a
    pair the anti-diagonal kernel would carry further; either way the
    returned value is exact whenever it is at most ``cutoff``.  ``out`` keeps
    the prefix cells of a batch of one.
    """
    k, n, m = cost.shape
    row: Optional[np.ndarray] = None
    abandoned = np.zeros(k, dtype=bool)
    for i in range(n):
        j_start, j_stop = _band_limits(i, m, band)
        step = np.full((k, m), _INF)
        step[:, j_start:j_stop] = cost[:, i, j_start:j_stop]
        if row is None:
            entry = np.full((k, m), _INF)
            if j_start == 0:
                entry[:, 0] = cost[:, 0, 0]
        else:
            base = np.empty((k, m))
            base[:, 0] = row[:, 0]
            np.minimum(row[:, 1:], row[:, :-1], out=base[:, 1:])
            entry = np.maximum(base, step)
        new_row = entry
        run_max = step
        shift = 1
        while shift < m:
            shifted_row = np.full((k, m), _INF)
            shifted_row[:, shift:] = new_row[:, :-shift]
            new_row = np.minimum(new_row, np.maximum(shifted_row, run_max))
            shifted_max = np.full((k, m), -_INF)
            shifted_max[:, shift:] = run_max[:, :-shift]
            run_max = np.maximum(run_max, shifted_max)
            shift *= 2
        row = new_row
        if cutoff is not None:
            abandoned |= np.min(row, axis=1) > cutoff
            if abandoned.all():
                return np.full(k, _INF)
        if out is not None:
            out.emit(i + 1, row[0], 1)
    assert row is not None
    values = row[:, -1].copy()
    values[abandoned] = _INF
    return values


def warping_traceback(table: np.ndarray, cost: np.ndarray, aggregate: str = "sum") -> Alignment:
    """Recover the optimal warping alignment from a filled table."""
    n, m = table.shape
    if np.isinf(table[n - 1, m - 1]):
        raise DistanceError("no feasible warping path (band too narrow?)")
    couplings: List[Coupling] = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        candidates = []
        if i > 0 and j > 0:
            candidates.append((table[i - 1, j - 1], (i - 1, j - 1)))
        if i > 0:
            candidates.append((table[i - 1, j], (i - 1, j)))
        if j > 0:
            candidates.append((table[i, j - 1], (i, j - 1)))
        _, (i, j) = min(candidates, key=lambda item: item[0])
        couplings.append((i, j))
    couplings.reverse()
    return Alignment(tuple(couplings), float(table[n - 1, m - 1]))


def _validate_edit_inputs(
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
) -> None:
    _validate_cost_matrix(substitution)
    n, m = substitution.shape
    if deletion.shape != (n,) or insertion.shape != (m,):
        raise DistanceError("gap cost vectors do not match the substitution matrix")


def _edit_row(
    prev: np.ndarray,
    sub_row: np.ndarray,
    delete_cost: float,
    insertion_prefix: np.ndarray,
) -> np.ndarray:
    """One vectorized row of the edit-distance recurrence.

    ``insertion_prefix`` is the length-``m + 1`` cumulative sum of the
    insertion costs (``insertion_prefix[0] == 0``), so the in-row scan
    ``row[j] = min(entry[j], row[j-1] + insertion[j-1])`` unrolls to a single
    ``np.minimum.accumulate`` exactly as in :func:`_sum_row`.
    """
    entry = np.empty_like(prev)
    entry[0] = prev[0] + delete_cost
    np.minimum(prev[:-1] + sub_row, prev[1:] + delete_cost, out=entry[1:])
    return insertion_prefix + np.minimum.accumulate(entry - insertion_prefix)


def edit_table(
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
) -> np.ndarray:
    """Fill an edit-distance style table with explicit gap costs.

    The recurrence is shared by the Levenshtein distance (unit costs), the
    weighted Levenshtein distance, and ERP (gap cost = ground distance to the
    gap element ``g``)::

        D[i, j] = min(D[i-1, j-1] + substitution[i-1, j-1],
                      D[i-1, j]   + deletion[i-1],
                      D[i, j-1]   + insertion[j-1])

    Parameters
    ----------
    substitution:
        ``(n, m)`` cost of matching element ``i`` of the first sequence with
        element ``j`` of the second.
    deletion:
        Length-``n`` cost of leaving element ``i`` of the first sequence
        unmatched.
    insertion:
        Length-``m`` cost of leaving element ``j`` of the second sequence
        unmatched.

    Returns
    -------
    numpy.ndarray
        The ``(n + 1, m + 1)`` table; the bottom-right cell is the distance.
    """
    _validate_edit_inputs(substitution, deletion, insertion)
    substitution = np.asarray(substitution, dtype=np.float64)
    n, m = substitution.shape
    insertion_prefix = np.concatenate(([0.0], np.cumsum(insertion)))
    table = np.empty((n + 1, m + 1), dtype=np.float64)
    table[0] = insertion_prefix
    for i in range(1, n + 1):
        table[i] = _edit_row(
            table[i - 1], substitution[i - 1], float(deletion[i - 1]), insertion_prefix
        )
    return table


def edit_distance_value(
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
    cutoff: Optional[float] = None,
    out: Optional[PrefixBlock] = None,
) -> float:
    """The bottom-right value of :func:`edit_table`, without the table.

    The hot-path kernel works in *reduced* coordinates ``row - Ic`` (``Ic``
    the cumulative insertion costs), which turns the in-row scan into one
    ``np.minimum.accumulate`` and leaves just four vector operations per
    row.  When ``cutoff`` is given, the computation is abandoned (returning
    ``inf``) as soon as a row's minimum exceeds it; all edit costs are
    non-negative, so row minima never decrease.  ``out`` receives the
    table's admissible prefix cells; it always takes the reduced sweep, so
    only prefix pairs above ``_SMALL_TABLE_CELLS`` cells match the single call.
    """
    _validate_edit_inputs(substitution, deletion, insertion)
    substitution = np.asarray(substitution, dtype=np.float64)
    n, m = substitution.shape
    if out is None and substitution.size <= _SMALL_TABLE_CELLS:
        return _edit_value_small(substitution, deletion, insertion, cutoff)
    insertion = np.asarray(insertion, dtype=np.float64)
    insertion_prefix = np.concatenate(([0.0], np.cumsum(insertion)))
    # In reduced coordinates the diagonal step costs substitution - insertion
    # and the vertical step costs the plain deletion.
    reduced_substitution = substitution - insertion[None, :]
    deletion_costs = np.asarray(deletion, dtype=np.float64).tolist()
    reduced = np.zeros(m + 1)
    buf = np.empty(m + 1)
    scratch = np.empty(m + 1)
    for i in range(n):
        delete_cost = deletion_costs[i]
        np.add(reduced[:-1], reduced_substitution[i], out=buf[1:])
        np.add(reduced[1:], delete_cost, out=scratch[1:])
        np.minimum(buf[1:], scratch[1:], out=buf[1:])
        buf[0] = reduced[0] + delete_cost
        np.minimum.accumulate(buf, out=buf)
        reduced, buf = buf, reduced
        if cutoff is not None:
            np.add(reduced, insertion_prefix, out=scratch)
            if np.min(scratch) > cutoff:
                return _INF
        if out is not None:
            out.emit(i + 1, reduced, 0, insertion_prefix)
    return float(reduced[-1] + insertion_prefix[-1])


def _edit_value_small(
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
    cutoff: Optional[float],
) -> float:
    """Scalar edit-distance value for small tables, with early abandon."""
    n, m = substitution.shape
    sub_rows = substitution.tolist()
    del_costs = deletion.tolist()
    ins_costs = insertion.tolist()
    row = [0.0] * (m + 1)
    acc = 0.0
    for j in range(1, m + 1):
        acc += ins_costs[j - 1]
        row[j] = acc
    for i in range(1, n + 1):
        sub_row = sub_rows[i - 1]
        delete_cost = del_costs[i - 1]
        prev = row
        first = prev[0] + delete_cost
        row = [first] * (m + 1)
        row_min = first
        for j in range(1, m + 1):
            best = prev[j - 1] + sub_row[j - 1]
            up = prev[j] + delete_cost
            if up < best:
                best = up
            left = row[j - 1] + ins_costs[j - 1]
            if left < best:
                best = left
            row[j] = best
            if best < row_min:
                row_min = best
        if cutoff is not None and row_min > cutoff:
            return _INF
    return row[-1]


def batch_edit_distance_value(
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
    cutoff: BatchCutoff = None,
) -> np.ndarray:
    """:func:`edit_distance_value` for a batch of same-shape pairs.

    ``substitution`` has shape ``(k, n, m)``; ``deletion`` is the length-``n``
    gap-cost vector of a first operand the whole batch shares, or a ``(k, n)``
    matrix with one row per pair (the pair call form -- the same element-wise
    operations, so a pair's value does not depend on which form computed
    it), and ``insertion`` the ``(k, m)`` gap costs of the second operands.
    The reduced-coordinate recurrence of :func:`edit_distance_value` runs
    unchanged over an extra batch axis; abandoned pairs (row minimum beyond
    their cutoff -- one scalar or a per-row ``(k,)`` vector) yield ``inf`` and
    the sweep stops early once every pair has abandoned.
    """
    _validate_cost_tensor(substitution)
    substitution = np.asarray(substitution, dtype=np.float64)
    k, n, m = substitution.shape
    cutoff = _normalise_batch_cutoff(cutoff, k)
    deletion = np.asarray(deletion, dtype=np.float64)
    insertion = np.asarray(insertion, dtype=np.float64)
    if deletion.shape not in ((n,), (k, n)) or insertion.shape != (k, m):
        raise DistanceError("batched gap cost arrays do not match the substitution tensor")
    deletion = np.broadcast_to(deletion, (k, n))
    insertion_prefix = np.zeros((k, m + 1))
    np.cumsum(insertion, axis=1, out=insertion_prefix[:, 1:])
    reduced_substitution = substitution - insertion[:, None, :]
    reduced = np.zeros((k, m + 1))
    buf = np.empty((k, m + 1))
    scratch = np.empty((k, m + 1))
    abandoned = np.zeros(k, dtype=bool)
    for i in range(n):
        delete_cost = deletion[:, i : i + 1]
        np.add(reduced[:, :-1], reduced_substitution[:, i, :], out=buf[:, 1:])
        np.add(reduced[:, 1:], delete_cost, out=scratch[:, 1:])
        np.minimum(buf[:, 1:], scratch[:, 1:], out=buf[:, 1:])
        np.add(reduced[:, :1], delete_cost, out=buf[:, :1])
        np.minimum.accumulate(buf, axis=1, out=buf)
        reduced, buf = buf, reduced
        if cutoff is not None:
            np.add(reduced, insertion_prefix, out=scratch)
            abandoned |= np.min(scratch, axis=1) > cutoff
            if abandoned.all():
                return np.full(k, _INF)
    values = reduced[:, -1] + insertion_prefix[:, -1]
    values[abandoned] = _INF
    return values


def edit_traceback(
    table: np.ndarray,
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
) -> Alignment:
    """Recover one optimal edit alignment (couplings exclude gap operations)."""
    n, m = substitution.shape
    couplings: List[Coupling] = []
    i, j = n, m
    while i > 0 and j > 0:
        here = table[i, j]
        if np.isclose(here, table[i - 1, j - 1] + substitution[i - 1, j - 1]):
            couplings.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif np.isclose(here, table[i - 1, j] + deletion[i - 1]):
            i -= 1
        else:
            j -= 1
    couplings.reverse()
    return Alignment(tuple(couplings), float(table[n, m]))


def lcss_length(matches: np.ndarray) -> int:
    """Length of the longest common subsequence given a boolean match matrix.

    Row-vectorized: where elements match the cell is ``prev[j-1] + 1`` (which
    dominates the other options in the LCS table), elsewhere it is
    ``max(prev[j], cur[j-1])``; the in-row maximum is a running
    ``np.maximum.accumulate`` because LCS rows are non-decreasing.
    """
    if matches.ndim != 2 or matches.shape[0] == 0 or matches.shape[1] == 0:
        raise DistanceError("match matrix must be a non-empty 2-D array")
    match_matrix = np.asarray(matches, dtype=bool)
    n, m = match_matrix.shape
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        np.maximum.accumulate(
            np.where(match_matrix[i], prev[:-1] + 1, prev[1:]), out=cur[1:]
        )
        prev, cur = cur, prev
    return int(prev[-1])
