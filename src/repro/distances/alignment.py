"""DP tables and tracebacks: explicit alignments of elastic distances.

DTW, ERP, the Levenshtein distance and the discrete Fréchet distance all
fill a dynamic-programming table whose cell ``(i, j)`` stores the best cost
of aligning the first ``i`` elements of one sequence with the first ``j``
elements of the other.  The measures differ only in the recurrence:
DTW/Fréchet couple elements without gap penalties (aggregating by sum or
maximum), whereas ERP and Levenshtein pay explicit gap costs.

The C kernels (:mod:`repro.distances.compiled`) fill every table; a sweep
keeps the admissible prefix cells of one pair in a :class:`PrefixBlock`, and
a block over the full band is the whole table.  The tracebacks here turn it
into an explicit alignment -- the *couplings* the paper's consistency proof
reasons about -- whose cost is the distance bit for bit.  LCSS, which has no
C kernel, keeps its row-vectorized length here (:func:`lcss_length`).
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

    def table(self, columns: int) -> np.ndarray:
        """A block keeping every cell (``first == 1``, ``shift >= max(n,
        columns) - 1``) as its ``n x columns`` table, entry ``(i, j)`` = cell
        ``(i + 1, j + 1)``.  Cell ``(L, J)`` sits ``2 * shift`` values after
        ``(L - 1, J)`` in the band, so this is a read-only strided view."""
        rows, step = self.cells.shape[0], self.cells.itemsize
        return np.lib.stride_tricks.as_strided(
            self.cells.reshape(-1)[self.shift :],
            shape=(rows, columns),
            strides=(2 * self.shift * step, step),
            writeable=False,
        )


def warping_traceback(table: np.ndarray) -> Alignment:
    """Recover the optimal warping alignment from a filled ``(n, m)`` table."""
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


def edit_traceback(
    table: np.ndarray,
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
) -> Alignment:
    """Recover one optimal edit alignment (couplings exclude gap operations).

    ``table`` holds cells ``(i, j)`` for ``i, j >= 1`` as an ``(n, m)``
    table; row 0 and column 0 -- aligning a prefix with nothing -- are the
    prefix sums of the gap costs.  Steps are matched with ``np.isclose``, so
    those need not repeat the kernel's rounding.
    """
    n, m = substitution.shape
    table = np.block([[np.zeros((1, 1)), np.cumsum(insertion)[None]],
                      [np.cumsum(deletion)[:, None], table]])  # fmt: skip
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
