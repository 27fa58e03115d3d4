"""Reference (pure-Python, cell-by-cell) DP kernels: the test oracle.

These are the original loop implementations of the DP tables, retained
verbatim as correctness oracles.  The C kernels run the same direct
recurrences in the same order, so ``test_compiled_kernels.py`` and
``test_exact_kernels.py`` hold every C call form to them bit for bit, and
``test_vectorized_kernels.py`` holds the C-filled tables that
``alignment()`` traces back over to them the same way.  Nothing under
``src/`` imports them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import DistanceError


def reference_warping_table(
    cost: np.ndarray,
    aggregate: str = "sum",
    band: Optional[int] = None,
) -> np.ndarray:
    """Cell-by-cell DTW / discrete-Fréchet table (the pre-vectorization kernel)."""
    if cost.ndim != 2 or cost.shape[0] == 0 or cost.shape[1] == 0:
        raise DistanceError("cost matrix must be a non-empty 2-D array")
    if aggregate not in ("sum", "max"):
        raise DistanceError(f"aggregate must be 'sum' or 'max', got {aggregate!r}")
    n, m = cost.shape
    use_sum = aggregate == "sum"
    inf = float("inf")
    cost_rows = cost.tolist()
    rows: List[List[float]] = []
    for i in range(n):
        cost_row = cost_rows[i]
        prev_row = rows[i - 1] if i > 0 else None
        row = [inf] * m
        if band is None:
            j_start, j_stop = 0, m
        else:
            j_start = max(0, i - band)
            j_stop = min(m, i + band + 1)
        for j in range(j_start, j_stop):
            c = cost_row[j]
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = inf
                if prev_row is not None:
                    if j > 0 and prev_row[j - 1] < best:
                        best = prev_row[j - 1]
                    if prev_row[j] < best:
                        best = prev_row[j]
                if j > 0 and row[j - 1] < best:
                    best = row[j - 1]
            if best == inf:
                continue
            if use_sum:
                row[j] = best + c
            else:
                row[j] = best if best > c else c
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def reference_edit_table(
    substitution: np.ndarray,
    deletion: np.ndarray,
    insertion: np.ndarray,
) -> np.ndarray:
    """Cell-by-cell edit-distance table (the pre-vectorization kernel)."""
    if substitution.ndim != 2 or substitution.shape[0] == 0 or substitution.shape[1] == 0:
        raise DistanceError("cost matrix must be a non-empty 2-D array")
    n, m = substitution.shape
    if deletion.shape != (n,) or insertion.shape != (m,):
        raise DistanceError("gap cost vectors do not match the substitution matrix")
    sub_rows = substitution.tolist()
    del_costs = deletion.tolist()
    ins_costs = insertion.tolist()
    first_row = [0.0] * (m + 1)
    acc = 0.0
    for j in range(1, m + 1):
        acc += ins_costs[j - 1]
        first_row[j] = acc
    rows: List[List[float]] = [first_row]
    for i in range(1, n + 1):
        sub_row = sub_rows[i - 1]
        delete_cost = del_costs[i - 1]
        prev_row = rows[i - 1]
        row = [0.0] * (m + 1)
        row[0] = prev_row[0] + delete_cost
        for j in range(1, m + 1):
            best = prev_row[j - 1] + sub_row[j - 1]
            up = prev_row[j] + delete_cost
            if up < best:
                best = up
            left = row[j - 1] + ins_costs[j - 1]
            if left < best:
                best = left
            row[j] = best
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def reference_lcss_length(matches: np.ndarray) -> int:
    """Cell-by-cell longest-common-subsequence length over a match matrix."""
    match_rows = matches.tolist()
    n, m = matches.shape
    previous = [0] * (m + 1)
    for i in range(1, n + 1):
        row_matches = match_rows[i - 1]
        current = [0] * (m + 1)
        for j in range(1, m + 1):
            if row_matches[j - 1]:
                current[j] = previous[j - 1] + 1
            else:
                up = previous[j]
                left = current[j - 1]
                current[j] = up if up >= left else left
        previous = current
    return int(previous[m])
