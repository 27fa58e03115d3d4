"""Compiled elastic-distance kernel providers (the "compiled" tier).

The NumPy row sweeps in :mod:`repro.distances.alignment` are the always-on
oracle; this module supplies drop-in *compiled* implementations of the same
recurrences with the element-cost computation fused into the DP loop, so a
single call covers what the NumPy path does in two stages (cost matrix
broadcast + row sweep).  Three providers exist, sharing one algorithm
specification:

``numba``
    The functions below, JIT-compiled with ``@numba.njit(cache=True)`` when
    Numba is importable.  Numba is an *optional* dependency -- nothing in
    this module (or the package) requires it.
``cc``
    ``_kernels.c`` (the same recurrences in C), compiled on first use with
    the system C compiler into a content-hash-keyed shared library and
    loaded through :mod:`ctypes`.  Available wherever a ``cc``/``gcc``/
    ``clang`` binary exists.
``pyloop``
    The very same Python functions, un-jitted.  Far slower than NumPy --
    it exists so the shared algorithm specification is testable on
    machines with neither Numba nor a C compiler, and as a debugging
    backend (``REPRO_KERNEL=pyloop``).

Exactness contract: for every call form the providers replicate the
floating-point operation order of the corresponding NumPy kernel --
sequential prefix sums, element-wise minima and running minima for the
additive recurrences; the direct bottleneck recurrence (min/max are exact
selections) for Fréchet; the same :data:`~repro.distances.alignment`
small-table switch for single edit-distance values and the always-reduced
sweep for batches.  Values are therefore bit-identical to the NumPy tier
wherever the early-abandon contract requires exactness (``<= cutoff`` or
unbounded), which is what keeps results, work counters, caches, and replay
logs byte-identical across kernel backends.

Element costs are accumulated sequentially over the element axis, which
matches NumPy's reduction order only below NumPy's pairwise-summation
threshold (8 addends); :func:`fusable_dim` gates dispatch accordingly.

Every provider exposes the same six entry points::

    warp_value(query, item, kind, use_max, band, cutoff) -> float
    warp_batch(query, items, kind, use_max, band, cutoffs) -> ndarray
    warp_pairs(queries, query_rows, items, item_rows, kind, use_max, band, cutoffs) -> ndarray
    edit_value(query, item, mode, kind, gap, eps, cutoff) -> float
    edit_batch(query, items, mode, kind, gap, eps, cutoffs) -> ndarray
    edit_pairs(queries, query_rows, items, item_rows, mode, kind, gap, eps, cutoffs) -> ndarray

with ``kind`` an element-metric code (0 euclidean, 1 manhattan,
2 discrete), ``mode`` an edit-recurrence code (0 Levenshtein, 1 ERP,
2 EDR), ``band`` ``None`` or a Sakoe-Chiba half-width, ``cutoff`` ``None``
or a float, and ``cutoffs`` ``None``, a float, or a per-row ``(k,)``
threshold vector.  The ``*_pairs`` forms compute
``d(queries[query_rows[i]], items[item_rows[i]])`` for every ``i`` over two
operand stacks -- one call for many queries, each against its own items --
and run the *batch* form's recurrence per pair, so a pair's value is
bit-identical to what ``*_batch`` returns for it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

_INF = float("inf")

#: Element-metric codes shared with ``_kernels.c``.
METRIC_KIND_CODES = {"euclidean": 0, "manhattan": 1, "discrete": 2}

#: Edit-recurrence codes shared with ``_kernels.c``.
MODE_LEVENSHTEIN = 0
MODE_ERP = 1
MODE_EDR = 2

#: Placeholder gap element for the modes that never read one
#: (``MODE_LEVENSHTEIN`` / ``MODE_EDR`` use unit gap costs internally).
NO_GAP = np.zeros(1)

#: Mirrors ``alignment._SMALL_TABLE_CELLS`` (the single-value edit kernels
#: switch between the direct and the reduced-coordinate recurrence there).
_SMALL_TABLE_CELLS = 1024

#: NumPy switches to pairwise summation at 8 addends; below that its
#: reductions are sequential and the fused element costs are bit-identical.
MAX_FUSED_DIM = 7


def fusable_dim(dim: int) -> bool:
    """Whether fused element costs reproduce NumPy's summation order."""
    return dim <= MAX_FUSED_DIM


# --------------------------------------------------------------------- #
# Shared algorithm specification (plain Python, Numba-compilable).
#
# These functions are the single source of truth for what the compiled
# tier computes: the ``pyloop`` provider calls them as-is, the ``numba``
# provider calls their ``njit`` products, and ``_kernels.c`` transcribes
# them line by line.  Conventions: ``band < 0`` means unbanded and a
# ``cutoff`` of +inf means unbounded (both turn the abandon checks into
# no-ops exactly as the NumPy kernels' ``cutoff is None`` branches do).
# --------------------------------------------------------------------- #


def _ecost(q, i, x, j, d, kind):
    """Ground distance between elements ``q[i]`` and ``x[j]``."""
    s = 0.0
    if kind == 0:
        for t in range(d):
            diff = q[i, t] - x[j, t]
            s += diff * diff
        return s ** 0.5
    if kind == 1:
        for t in range(d):
            s += abs(q[i, t] - x[j, t])
        return s
    for t in range(d):
        if q[i, t] - x[j, t] != 0.0:
            return 1.0
    return 0.0


def _gap_cost(x, j, gap, d, kind):
    """Ground distance between element ``x[j]`` and the gap element."""
    s = 0.0
    if kind == 0:
        for t in range(d):
            diff = x[j, t] - gap[t]
            s += diff * diff
        return s ** 0.5
    if kind == 1:
        for t in range(d):
            s += abs(x[j, t] - gap[t])
        return s
    for t in range(d):
        if x[j, t] - gap[t] != 0.0:
            return 1.0
    return 0.0


def _edit_sub(q, i, x, j, d, mode, kind, eps):
    """Substitution cost of the edit recurrences (see ``edit_sub`` in C)."""
    if mode == 0:
        for t in range(d):
            if q[i, t] != x[j, t]:
                return 1.0
        return 0.0
    g = _ecost(q, i, x, j, d, kind)
    if mode == 1:
        return g
    if g > eps:
        return 1.0
    return 0.0


def _warp_sum_pair(q, x, kind, band, cutoff, row, buf, costp):
    """Reduced-coordinate additive row sweep; mirrors ``_warp_sum_value``."""
    n = q.shape[0]
    m = x.shape[0]
    d = q.shape[1]
    acc = 0.0
    for j in range(m):
        acc += _ecost(q, 0, x, j, d, kind)
        costp[j] = acc
        row[j] = acc
    if band >= 0:
        j_stop = min(m, band + 1)
        for j in range(j_stop, m):
            row[j] = _INF
    if row[0] > cutoff:
        return _INF
    for i in range(1, n):
        if band < 0:
            j_start = 0
            j_stop = m
        else:
            j_start = min(max(0, i - band), m)
            j_stop = min(m, i + band + 1)
        acc = 0.0
        for j in range(m):
            acc += _ecost(q, i, x, j, d, kind)
            costp[j] = acc
        buf[0] = row[0]
        for j in range(1, m):
            buf[j] = min(row[j], row[j - 1])
        for j in range(j_start):
            buf[j] = _INF
        for j in range(j_stop, m):
            buf[j] = _INF
        buf[0] = buf[0] - 0.0
        for j in range(1, m):
            buf[j] = buf[j] - costp[j - 1]
        running = _INF
        for j in range(m):
            if buf[j] < running:
                running = buf[j]
            buf[j] = running
        for j in range(m):
            buf[j] = buf[j] + costp[j]
        for j in range(j_stop, m):
            buf[j] = _INF
        row, buf = buf, row
        if cutoff != _INF:
            row_min = row[0]
            for j in range(1, m):
                if row[j] < row_min:
                    row_min = row[j]
            if row_min > cutoff:
                return _INF
    return row[m - 1]


def _warp_max_pair(q, x, kind, band, cutoff, prev, row):
    """Direct bottleneck recurrence; mirrors ``_warp_max_value_small``."""
    n = q.shape[0]
    m = x.shape[0]
    d = q.shape[1]
    for i in range(n):
        if band < 0:
            j_start = 0
            j_stop = m
        else:
            j_start = min(max(0, i - band), m)
            j_stop = min(m, i + band + 1)
        row_min = _INF
        for j in range(m):
            row[j] = _INF
        for j in range(j_start, j_stop):
            c = _ecost(q, i, x, j, d, kind)
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = _INF
                if i > 0:
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
        if cutoff != _INF and row_min > cutoff:
            return _INF
        prev, row = row, prev
    return prev[m - 1]


def _edit_pair_small(q, x, mode, kind, eps, del_costs, ins, cutoff, prev, row):
    """Direct scalar edit recurrence; mirrors ``_edit_value_small``."""
    n = q.shape[0]
    m = x.shape[0]
    d = q.shape[1]
    acc = 0.0
    prev[0] = 0.0
    for j in range(1, m + 1):
        acc += ins[j - 1]
        prev[j] = acc
    for i in range(1, n + 1):
        delc = del_costs[i - 1]
        first = prev[0] + delc
        row[0] = first
        row_min = first
        for j in range(1, m + 1):
            best = prev[j - 1] + _edit_sub(q, i - 1, x, j - 1, d, mode, kind, eps)
            up = prev[j] + delc
            if up < best:
                best = up
            left = row[j - 1] + ins[j - 1]
            if left < best:
                best = left
            row[j] = best
            if best < row_min:
                row_min = best
        if cutoff != _INF and row_min > cutoff:
            return _INF
        prev, row = row, prev
    return prev[m]


def _edit_pair_reduced(q, x, mode, kind, eps, del_costs, ins, insp, cutoff, reduced, buf):
    """Reduced-coordinate edit sweep; mirrors ``edit_distance_value``."""
    n = q.shape[0]
    m = x.shape[0]
    d = q.shape[1]
    for j in range(m + 1):
        reduced[j] = 0.0
    for i in range(n):
        delc = del_costs[i]
        for j in range(m):
            rs = _edit_sub(q, i, x, j, d, mode, kind, eps) - ins[j]
            a = reduced[j] + rs
            b = reduced[j + 1] + delc
            buf[j + 1] = a if a < b else b
        buf[0] = reduced[0] + delc
        running = _INF
        for j in range(m + 1):
            if buf[j] < running:
                running = buf[j]
            buf[j] = running
        reduced, buf = buf, reduced
        if cutoff != _INF:
            row_min = reduced[0] + insp[0]
            for j in range(1, m + 1):
                v = reduced[j] + insp[j]
                if v < row_min:
                    row_min = v
            if row_min > cutoff:
                return _INF
    return reduced[m] + insp[m]


def _warp_value_impl(q, x, kind, use_max, band, cutoff):
    m = x.shape[0]
    if use_max:
        scratch = np.empty(2 * m)
        return _warp_max_pair(q, x, kind, band, cutoff, scratch[:m], scratch[m:])
    scratch = np.empty(3 * m)
    return _warp_sum_pair(
        q, x, kind, band, cutoff, scratch[:m], scratch[m : 2 * m], scratch[2 * m :]
    )


def _warp_batch_impl(q, xs, kind, use_max, band, cutoffs, out):
    k = xs.shape[0]
    m = xs.shape[1]
    scratch = np.empty(3 * m)
    for p in range(k):
        if use_max:
            out[p] = _warp_max_pair(
                q, xs[p], kind, band, cutoffs[p], scratch[:m], scratch[m : 2 * m]
            )
        else:
            out[p] = _warp_sum_pair(
                q,
                xs[p],
                kind,
                band,
                cutoffs[p],
                scratch[:m],
                scratch[m : 2 * m],
                scratch[2 * m :],
            )


def _warp_pairs_impl(qs, q_rows, xs, x_rows, kind, use_max, band, cutoffs, out):
    m = xs.shape[1]
    scratch = np.empty(3 * m)
    for p in range(q_rows.shape[0]):
        q = qs[q_rows[p]]
        x = xs[x_rows[p]]
        if use_max:
            out[p] = _warp_max_pair(q, x, kind, band, cutoffs[p], scratch[:m], scratch[m : 2 * m])
        else:
            out[p] = _warp_sum_pair(
                q, x, kind, band, cutoffs[p], scratch[:m], scratch[m : 2 * m], scratch[2 * m :]
            )


def _fill_ins(x, mode, kind, gap, ins, insp):
    m = x.shape[0]
    d = x.shape[1]
    acc = 0.0
    insp[0] = 0.0
    for j in range(m):
        if mode == 1:
            ins[j] = _gap_cost(x, j, gap, d, kind)
        else:
            ins[j] = 1.0
        acc += ins[j]
        insp[j + 1] = acc


def _fill_del(q, mode, kind, gap, del_costs):
    n = q.shape[0]
    d = q.shape[1]
    for i in range(n):
        if mode == 1:
            del_costs[i] = _gap_cost(q, i, gap, d, kind)
        else:
            del_costs[i] = 1.0


def _edit_value_impl(q, x, mode, kind, gap, eps, cutoff):
    n = q.shape[0]
    m = x.shape[0]
    ins = np.empty(m)
    insp = np.empty(m + 1)
    del_costs = np.empty(n)
    work0 = np.empty(m + 1)
    work1 = np.empty(m + 1)
    _fill_ins(x, mode, kind, gap, ins, insp)
    _fill_del(q, mode, kind, gap, del_costs)
    if n * m <= _SMALL_TABLE_CELLS:
        return _edit_pair_small(q, x, mode, kind, eps, del_costs, ins, cutoff, work0, work1)
    return _edit_pair_reduced(
        q, x, mode, kind, eps, del_costs, ins, insp, cutoff, work0, work1
    )


def _edit_batch_impl(q, xs, mode, kind, gap, eps, cutoffs, out):
    k = xs.shape[0]
    n = q.shape[0]
    m = xs.shape[1]
    ins = np.empty(m)
    insp = np.empty(m + 1)
    del_costs = np.empty(n)
    work0 = np.empty(m + 1)
    work1 = np.empty(m + 1)
    _fill_del(q, mode, kind, gap, del_costs)
    for p in range(k):
        _fill_ins(xs[p], mode, kind, gap, ins, insp)
        # the NumPy batch kernel always runs the reduced-coordinate sweep
        out[p] = _edit_pair_reduced(
            q, xs[p], mode, kind, eps, del_costs, ins, insp, cutoffs[p], work0, work1
        )


def _edit_pairs_impl(qs, q_rows, xs, x_rows, mode, kind, gap, eps, cutoffs, out):
    n = qs.shape[1]
    m = xs.shape[1]
    ins = np.empty(m)
    insp = np.empty(m + 1)
    del_costs = np.empty(n)
    work0 = np.empty(m + 1)
    work1 = np.empty(m + 1)
    filled = -1
    for p in range(q_rows.shape[0]):
        q_row = q_rows[p]
        if q_row != filled:
            # deletion costs belong to the query: once per run of one query row
            _fill_del(qs[q_row], mode, kind, gap, del_costs)
            filled = q_row
        x = xs[x_rows[p]]
        _fill_ins(x, mode, kind, gap, ins, insp)
        # the batch form's recurrence: always the reduced-coordinate sweep
        out[p] = _edit_pair_reduced(
            qs[q_row], x, mode, kind, eps, del_costs, ins, insp, cutoffs[p], work0, work1
        )


# --------------------------------------------------------------------- #
# Provider front-ends
# --------------------------------------------------------------------- #


def _contiguous(array: np.ndarray) -> np.ndarray:
    if array.flags.c_contiguous:
        return array
    return np.ascontiguousarray(array)


def _norm_band(band: Optional[int]) -> int:
    return -1 if band is None else int(band)


def _norm_cutoff(cutoff: Optional[float]) -> float:
    return _INF if cutoff is None else float(cutoff)


def _norm_cutoffs(cutoffs: Union[None, float, np.ndarray], k: int) -> np.ndarray:
    """Per-row thresholds as a ``(k,)`` float64 array (+inf = unbounded)."""
    if cutoffs is None:
        return np.full(k, _INF)
    if np.ndim(cutoffs) == 0:
        return np.full(k, float(cutoffs))
    vector = np.ascontiguousarray(np.asarray(cutoffs, dtype=np.float64))
    if vector.shape != (k,):
        raise ValueError(f"cutoff vector has shape {vector.shape}, expected ({k},)")
    return vector


def _pair_rows(rows: np.ndarray, limit: int) -> np.ndarray:
    """Pair operand rows as contiguous int64, checked against the stack size."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError(f"pair rows must be one-dimensional, got shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= limit):
        raise IndexError(f"pair rows out of range for a stack of {limit} operands")
    return rows


def _pair_operands(queries, query_rows, items, item_rows):
    """Validated ``(qs, q_rows, xs, x_rows)`` of a pair call."""
    qs = _contiguous(queries)
    xs = _contiguous(items)
    if qs.ndim != 3 or xs.ndim != 3 or qs.shape[2] != xs.shape[2]:
        raise ValueError(f"pair operand stacks have shapes {qs.shape} and {xs.shape}")
    q_rows = _pair_rows(query_rows, qs.shape[0])
    x_rows = _pair_rows(item_rows, xs.shape[0])
    if q_rows.shape != x_rows.shape:
        raise ValueError(f"pair rows differ in length: {q_rows.shape} vs {x_rows.shape}")
    return qs, q_rows, xs, x_rows


class KernelProvider:
    """Base class: shared argument normalisation, per-provider raw calls."""

    name = "abstract"

    def warp_value(self, query, item, kind, use_max, band, cutoff) -> float:
        q = _contiguous(query)
        x = _contiguous(item)
        return float(
            self._warp_value(q, x, int(kind), bool(use_max), _norm_band(band), _norm_cutoff(cutoff))
        )

    def warp_batch(self, query, items, kind, use_max, band, cutoffs) -> np.ndarray:
        q = _contiguous(query)
        xs = _contiguous(items)
        out = np.empty(xs.shape[0], dtype=np.float64)
        self._warp_batch(
            q, xs, int(kind), bool(use_max), _norm_band(band),
            _norm_cutoffs(cutoffs, xs.shape[0]), out,
        )
        return out

    def warp_pairs(
        self, queries, query_rows, items, item_rows, kind, use_max, band, cutoffs
    ) -> np.ndarray:
        qs, q_rows, xs, x_rows = _pair_operands(queries, query_rows, items, item_rows)
        out = np.empty(q_rows.shape[0], dtype=np.float64)
        self._warp_pairs(
            qs, q_rows, xs, x_rows, int(kind), bool(use_max), _norm_band(band),
            _norm_cutoffs(cutoffs, q_rows.shape[0]), out,
        )
        return out

    def edit_value(self, query, item, mode, kind, gap, eps, cutoff) -> float:
        q = _contiguous(query)
        x = _contiguous(item)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
        return float(
            self._edit_value(q, x, int(mode), int(kind), g, float(eps), _norm_cutoff(cutoff))
        )

    def edit_batch(self, query, items, mode, kind, gap, eps, cutoffs) -> np.ndarray:
        q = _contiguous(query)
        xs = _contiguous(items)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
        out = np.empty(xs.shape[0], dtype=np.float64)
        self._edit_batch(
            q, xs, int(mode), int(kind), g, float(eps),
            _norm_cutoffs(cutoffs, xs.shape[0]), out,
        )
        return out

    def edit_pairs(
        self, queries, query_rows, items, item_rows, mode, kind, gap, eps, cutoffs
    ) -> np.ndarray:
        qs, q_rows, xs, x_rows = _pair_operands(queries, query_rows, items, item_rows)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
        out = np.empty(q_rows.shape[0], dtype=np.float64)
        self._edit_pairs(
            qs, q_rows, xs, x_rows, int(mode), int(kind), g, float(eps),
            _norm_cutoffs(cutoffs, q_rows.shape[0]), out,
        )
        return out

    def warm(self) -> None:
        """Run every kernel once on tiny inputs (JIT warm-up / .so load)."""
        q = np.zeros((2, 1))
        x = np.ones((2, 1))
        xs = np.ones((1, 2, 1))
        rows = np.zeros(1, dtype=np.int64)
        gap = np.zeros(1)
        for use_max in (False, True):
            self.warp_value(q, x, 0, use_max, None, None)
            self.warp_batch(q, xs, 0, use_max, None, 1.5)
            self.warp_pairs(xs, rows, xs, rows, 0, use_max, None, 1.5)
        for mode in (MODE_LEVENSHTEIN, MODE_ERP, MODE_EDR):
            self.edit_value(q, x, mode, 0, gap, 0.5, None)
            self.edit_batch(q, xs, mode, 0, gap, 0.5, None)
            self.edit_pairs(xs, rows, xs, rows, mode, 0, gap, 0.5, None)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PyLoopProvider(KernelProvider):
    """The shared algorithm spec, interpreted.  Slow; for tests/debugging."""

    name = "pyloop"
    _warp_value = staticmethod(_warp_value_impl)
    _warp_batch = staticmethod(_warp_batch_impl)
    _warp_pairs = staticmethod(_warp_pairs_impl)
    _edit_value = staticmethod(_edit_value_impl)
    _edit_batch = staticmethod(_edit_batch_impl)
    _edit_pairs = staticmethod(_edit_pairs_impl)


class NumbaProvider(KernelProvider):
    """The shared algorithm spec, ``@njit(cache=True)``-compiled."""

    name = "numba"

    def __init__(self) -> None:
        import numba

        jit = numba.njit(cache=True)
        ecost = jit(_ecost)
        gap_cost = jit(_gap_cost)
        edit_sub = jit(_edit_sub)
        # Re-bind the helper globals so the jitted pair kernels call the
        # jitted helpers; the module-level originals stay untouched.
        ns = {
            "np": np,
            "_INF": _INF,
            "_SMALL_TABLE_CELLS": _SMALL_TABLE_CELLS,
            "_ecost": ecost,
            "_gap_cost": gap_cost,
            "_edit_sub": edit_sub,
        }
        warp_sum = jit(_rebind(_warp_sum_pair, ns))
        warp_max = jit(_rebind(_warp_max_pair, ns))
        ns["_warp_sum_pair"] = warp_sum
        ns["_warp_max_pair"] = warp_max
        edit_small = jit(_rebind(_edit_pair_small, ns))
        edit_reduced = jit(_rebind(_edit_pair_reduced, ns))
        fill_ins = jit(_rebind(_fill_ins, ns))
        fill_del = jit(_rebind(_fill_del, ns))
        ns["_edit_pair_small"] = edit_small
        ns["_edit_pair_reduced"] = edit_reduced
        ns["_fill_ins"] = fill_ins
        ns["_fill_del"] = fill_del
        self._warp_value = jit(_rebind(_warp_value_impl, ns))
        self._warp_batch = jit(_rebind(_warp_batch_impl, ns))
        self._warp_pairs = jit(_rebind(_warp_pairs_impl, ns))
        self._edit_value = jit(_rebind(_edit_value_impl, ns))
        self._edit_batch = jit(_rebind(_edit_batch_impl, ns))
        self._edit_pairs = jit(_rebind(_edit_pairs_impl, ns))


def _rebind(func, namespace: dict):
    """Clone ``func`` with its globals replaced by ``namespace``.

    Numba resolves the helper calls inside each kernel through the
    function's ``__globals__``; rebinding lets the jitted kernels see the
    jitted helpers without mutating this module's namespace.
    """
    import types

    clone = types.FunctionType(
        func.__code__, namespace, func.__name__, func.__defaults__, func.__closure__
    )
    clone.__doc__ = func.__doc__
    return clone


class CcProvider(KernelProvider):
    """ctypes front-end over the shared library built from ``_kernels.c``."""

    name = "cc"

    def __init__(self, library_path: str) -> None:
        lib = ctypes.CDLL(library_path)
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        lib.repro_warp_value.restype = ctypes.c_int
        lib.repro_warp_value.argtypes = [ptr, i64, ptr, i64, i64, i64, i64, i64, f64, ptr]
        lib.repro_warp_batch.restype = ctypes.c_int
        lib.repro_warp_batch.argtypes = [
            ptr, i64, ptr, i64, i64, i64, i64, i64, i64, ptr, ptr,
        ]
        lib.repro_warp_pairs.restype = ctypes.c_int
        lib.repro_warp_pairs.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, i64, i64, i64, i64, i64, ptr, ptr,
        ]
        lib.repro_edit_value.restype = ctypes.c_int
        lib.repro_edit_value.argtypes = [
            ptr, i64, ptr, i64, i64, i64, i64, ptr, f64, f64, ptr,
        ]
        lib.repro_edit_batch.restype = ctypes.c_int
        lib.repro_edit_batch.argtypes = [
            ptr, i64, ptr, i64, i64, i64, i64, i64, ptr, f64, ptr, ptr,
        ]
        lib.repro_edit_pairs.restype = ctypes.c_int
        lib.repro_edit_pairs.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, i64, i64, i64, i64, ptr, f64, ptr, ptr,
        ]
        self._lib = lib
        self.library_path = library_path

    @staticmethod
    def _check(status: int) -> None:
        if status != 0:
            raise MemoryError("compiled kernel scratch allocation failed")

    def _warp_value(self, q, x, kind, use_max, band, cutoff):
        out = ctypes.c_double()
        self._check(
            self._lib.repro_warp_value(
                q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
                kind, int(use_max), band, cutoff, ctypes.byref(out),
            )
        )
        return out.value

    def _warp_batch(self, q, xs, kind, use_max, band, cutoffs, out):
        self._check(
            self._lib.repro_warp_batch(
                q.ctypes.data, q.shape[0], xs.ctypes.data, xs.shape[0], xs.shape[1],
                xs.shape[2], kind, int(use_max), band, cutoffs.ctypes.data,
                out.ctypes.data,
            )
        )

    def _warp_pairs(self, qs, q_rows, xs, x_rows, kind, use_max, band, cutoffs, out):
        self._check(
            self._lib.repro_warp_pairs(
                qs.ctypes.data, qs.shape[1], q_rows.ctypes.data, xs.ctypes.data,
                xs.shape[1], x_rows.ctypes.data, q_rows.shape[0], qs.shape[2], kind,
                int(use_max), band, cutoffs.ctypes.data, out.ctypes.data,
            )
        )

    def _edit_value(self, q, x, mode, kind, gap, eps, cutoff):
        out = ctypes.c_double()
        self._check(
            self._lib.repro_edit_value(
                q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
                mode, kind, gap.ctypes.data, eps, cutoff, ctypes.byref(out),
            )
        )
        return out.value

    def _edit_batch(self, q, xs, mode, kind, gap, eps, cutoffs, out):
        self._check(
            self._lib.repro_edit_batch(
                q.ctypes.data, q.shape[0], xs.ctypes.data, xs.shape[0], xs.shape[1],
                xs.shape[2], mode, kind, gap.ctypes.data, eps, cutoffs.ctypes.data,
                out.ctypes.data,
            )
        )

    def _edit_pairs(self, qs, q_rows, xs, x_rows, mode, kind, gap, eps, cutoffs, out):
        self._check(
            self._lib.repro_edit_pairs(
                qs.ctypes.data, qs.shape[1], q_rows.ctypes.data, xs.ctypes.data,
                xs.shape[1], x_rows.ctypes.data, q_rows.shape[0], qs.shape[2], mode,
                kind, gap.ctypes.data, eps, cutoffs.ctypes.data, out.ctypes.data,
            )
        )


# --------------------------------------------------------------------- #
# C library build + cache
# --------------------------------------------------------------------- #

_C_SOURCE = Path(__file__).with_name("_kernels.c")


def _kernel_cache_dir() -> Path:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return Path(configured)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def find_c_compiler() -> Optional[str]:
    """The first usable C compiler (``$CC``, then cc/gcc/clang on PATH)."""
    configured = os.environ.get("CC")
    if configured and shutil.which(configured):
        return configured
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def build_c_library() -> Optional[str]:
    """Compile ``_kernels.c`` into the cache directory; return the .so path.

    The library file name embeds a content hash of the source, so stale
    caches are never loaded and concurrent builders race benignly (compile
    to a temporary name, ``os.replace`` into place).  Returns ``None`` when
    no compiler is available or the build fails -- callers treat that as
    "provider unavailable", never as an error.
    """
    if not _C_SOURCE.is_file():
        return None
    source = _C_SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    library = cache_dir / f"repro-kernels-{digest}.so"
    if library.is_file():
        return str(library)
    compiler = find_c_compiler()
    if compiler is None:
        return None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache_dir))
        os.close(fd)
        result = subprocess.run(
            [compiler, "-O3", "-fPIC", "-shared", "-o", tmp, str(_C_SOURCE), "-lm"],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, library)
        return str(library)
    except (OSError, subprocess.SubprocessError):
        return None


def make_provider(name: str) -> KernelProvider:
    """Instantiate one provider by name; raises on unavailability."""
    if name == "pyloop":
        return PyLoopProvider()
    if name == "numba":
        return NumbaProvider()  # raises ImportError when Numba is absent
    if name == "cc":
        library = build_c_library()
        if library is None:
            raise RuntimeError("no C compiler available (or the build failed)")
        return CcProvider(library)
    raise ValueError(f"unknown kernel provider {name!r}")
