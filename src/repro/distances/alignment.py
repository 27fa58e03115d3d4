"""DP tables and tracebacks: explicit alignments of elastic distances.

DTW, ERP, the Levenshtein distance and the discrete Fréchet distance all
fill a dynamic-programming table whose cell ``(i, j)`` stores the best cost
of aligning the first ``i`` elements of one sequence with the first ``j``
elements of the other.  The measures differ only in the recurrence:
DTW/Fréchet couple elements without gap penalties (aggregating by sum or
maximum), whereas ERP and Levenshtein pay explicit gap costs.

Distance *values* come from the C kernels (:mod:`repro.distances.compiled`),
which never build a table.  This module fills whole tables for what needs
them -- the tracebacks that turn a table into an explicit alignment (a list
of *couplings*, which is what the paper's consistency proof reasons about)
-- and defines :class:`PrefixBlock`, the admissible prefix cells a kernel
sweep keeps.

The table fills are *row-vectorized*: a row depends on the previous row
element-wise and on itself through a left-to-right scan.  For the additive
recurrences the scan ``row[j] = min(entry[j], row[j-1] + step[j])`` unrolls
to

    row[j] = S[j] + min_{k <= j} (entry[k] - S[k]),   S = cumsum(step),

i.e. a single ``np.minimum.accumulate``; for the bottleneck recurrence the
scan ``row[j] = max(c[j], min(entry[j], row[j-1]))`` is solved by doubling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import DistanceError

#: A coupling pairs index ``i`` of the first sequence with index ``j`` of the second.
Coupling = Tuple[int, int]

_INF = float("inf")

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
    completed rows are exact whatever the cutoff.  A kernel sweep writes
    ``cells`` and ``rows``.
    """

    __slots__ = ("first", "shift", "cutoff", "cells", "rows")

    def __init__(self, n: int, first: int, shift: int, cutoff: Optional[float]) -> None:
        self.first = first
        self.shift = shift
        self.cutoff = _INF if cutoff is None else float(cutoff)
        self.cells = np.full((max(n - first + 1, 0), 2 * shift + 1), _INF)
        self.rows = 0

    def covers(self, rows: int, cutoff: float) -> bool:
        """Whether :meth:`value` answers the pairs of row ``rows`` at ``cutoff``.

        A row past :attr:`rows` is only known to exceed the block's own
        cutoff, so it answers a request at that cutoff or below.
        """
        return rows <= self.rows or cutoff <= self.cutoff

    def value(self, rows: int, columns: int) -> float:
        """``d(Q[:rows], X[:columns])`` for an admissible pair the block covers.

        Exact whenever it is at most the block's cutoff; beyond it otherwise
        (``inf`` in an abandoned row), the contract of
        :meth:`~repro.distances.base.Distance.bounded`.
        """
        return float(self.cells[rows - self.first, columns - rows + self.shift])

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
