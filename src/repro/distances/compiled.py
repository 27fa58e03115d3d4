"""The C kernels: the one engine of the elastic-distance DP recurrences.

The recurrences live in ``_kernels.c``, compiled on first use with the
system C compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a
content-hash-keyed shared library under ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``) and loaded through :mod:`ctypes`.  Element
costs are fused into the DP loops, so no cost matrix is materialised.
:func:`kernels` returns the process-wide :class:`CcProvider`; without a
compiler (or when the build fails) it raises
:class:`~repro.exceptions.ConfigurationError`.

Every call form of a recurrence runs the same sweep (see ``_kernels.c``),
so a pair's value does not depend on whether a single call, a batch, a
pair call or a prefix block computed it -- which is what keeps results,
work counters, caches and replay logs independent of how an index or the
verifier groups its requests.

:class:`CcProvider` exposes eight entry points::

    warp_value(query, item, kind, use_max, band, cutoff) -> float
    warp_batch(query, items, kind, use_max, band, cutoffs) -> ndarray
    warp_pairs(queries, query_rows, items, item_rows, kind, use_max, band, cutoffs) -> ndarray
    edit_value(query, item, mode, kind, params, eps, cutoff) -> float
    edit_batch(query, items, mode, kind, params, eps, cutoffs) -> ndarray
    edit_pairs(queries, query_rows, items, item_rows, mode, kind, params, eps, cutoffs) -> ndarray
    warp_block(query, item, kind, use_max, band, cutoff, block) -> None
    edit_block(query, item, mode, kind, params, eps, cutoff, block) -> None

with ``kind`` an element-metric code (0 euclidean, 1 manhattan,
2 discrete), ``mode`` an edit-recurrence code (``MODE_*``), ``params`` the
recurrence's parameter array (ERP's gap element, the weighted Levenshtein
cost table of :func:`weighted_params`), ``band`` ``None`` or a Sakoe-Chiba
half-width, ``cutoff`` ``None`` or a float, and ``cutoffs`` ``None``, a
float, or a per-row ``(k,)`` threshold vector.  The ``*_pairs`` forms
compute ``d(queries[query_rows[i]], items[item_rows[i]])`` for every ``i``
over two operand stacks -- one call for many queries, each against its own
items; ``*_batch`` is the same C entry point with null row vectors (query
row 0, item row ``i``).  The ``*_block`` forms sweep one pair's table once
and fill a :class:`~repro.distances.alignment.PrefixBlock` with its
admissible prefix cells.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError

_INF = float("inf")

#: Element-metric codes shared with ``_kernels.c``.
METRIC_KIND_CODES = {"euclidean": 0, "manhattan": 1, "discrete": 2}

#: Edit-recurrence codes shared with ``_kernels.c``.
MODE_LEVENSHTEIN = 0
MODE_ERP = 1
MODE_EDR = 2
MODE_WEIGHTED = 3

#: Placeholder parameter array for the modes that read none
#: (``MODE_LEVENSHTEIN`` / ``MODE_EDR`` use unit gap costs).
NO_PARAMS = np.zeros(1)


def weighted_params(default, insertion, deletion, table) -> np.ndarray:
    """The ``MODE_WEIGHTED`` parameter array of a weighted Levenshtein distance.

    ``[default, insertion, deletion, len(table)]`` followed by one
    ``(a, b, cost)`` triple per entry of ``table`` (a mapping from symbol-code
    pairs to substitution costs).
    """
    triples = [value for (a, b), cost in table.items() for value in (a, b, cost)]
    return np.asarray([default, insertion, deletion, len(table), *triples], dtype=np.float64)


# --------------------------------------------------------------------- #
# The ctypes front-end
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


class CcProvider:
    """ctypes front-end over the shared library built from ``_kernels.c``.

    The public methods normalise their arguments (contiguous float64
    operands, ``band``/``cutoff`` sentinels, per-row cutoff vectors) and
    call the matching ``repro_*`` C entry point.
    """

    name = "cc"

    def __init__(self, library_path: str) -> None:
        lib = ctypes.CDLL(library_path)
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        lib.repro_warp_value.restype = ctypes.c_int
        lib.repro_warp_value.argtypes = [ptr, i64, ptr, i64, i64, i64, i64, i64, f64, ptr]
        lib.repro_warp_pairs.restype = ctypes.c_int
        lib.repro_warp_pairs.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, i64, i64, i64, i64, i64, ptr, ptr,
        ]
        lib.repro_edit_value.restype = ctypes.c_int
        lib.repro_edit_value.argtypes = [
            ptr, i64, ptr, i64, i64, i64, i64, ptr, f64, f64, ptr,
        ]
        lib.repro_edit_pairs.restype = ctypes.c_int
        lib.repro_edit_pairs.argtypes = [
            ptr, i64, ptr, ptr, i64, ptr, i64, i64, i64, i64, ptr, f64, ptr, ptr,
        ]
        lib.repro_warp_block.restype = ctypes.c_int
        lib.repro_warp_block.argtypes = [
            ptr, i64, ptr, i64, i64, i64, i64, i64, f64, i64, i64, ptr, ptr,
        ]
        lib.repro_edit_block.restype = ctypes.c_int
        lib.repro_edit_block.argtypes = [
            ptr, i64, ptr, i64, i64, i64, i64, ptr, f64, f64, i64, i64, ptr, ptr,
        ]
        self._lib = lib
        self.library_path = library_path

    @staticmethod
    def _check(status: int) -> None:
        if status != 0:
            raise MemoryError("compiled kernel scratch allocation failed")

    # The two single-value entry points run once per verification pair, so
    # they spell out what the helpers above do instead of calling them.

    def warp_value(self, query, item, kind, use_max, band, cutoff) -> float:
        q = query if query.flags.c_contiguous else np.ascontiguousarray(query)
        x = item if item.flags.c_contiguous else np.ascontiguousarray(item)
        out = ctypes.c_double()
        status = self._lib.repro_warp_value(
            q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
            int(kind), int(bool(use_max)), -1 if band is None else int(band),
            _INF if cutoff is None else float(cutoff), ctypes.byref(out),
        )
        if status != 0:
            self._check(status)
        return out.value

    def warp_batch(self, query, items, kind, use_max, band, cutoffs) -> np.ndarray:
        q = _contiguous(query)
        xs = _contiguous(items)
        out = np.empty(xs.shape[0], dtype=np.float64)
        thresholds = _norm_cutoffs(cutoffs, xs.shape[0])
        self._check(
            self._lib.repro_warp_pairs(
                q.ctypes.data, q.shape[0], None, xs.ctypes.data, xs.shape[1], None,
                xs.shape[0], xs.shape[2], int(kind), int(bool(use_max)), _norm_band(band),
                thresholds.ctypes.data, out.ctypes.data,
            )
        )
        return out

    def warp_pairs(
        self, queries, query_rows, items, item_rows, kind, use_max, band, cutoffs
    ) -> np.ndarray:
        qs, q_rows, xs, x_rows = _pair_operands(queries, query_rows, items, item_rows)
        out = np.empty(q_rows.shape[0], dtype=np.float64)
        thresholds = _norm_cutoffs(cutoffs, q_rows.shape[0])
        self._check(
            self._lib.repro_warp_pairs(
                qs.ctypes.data, qs.shape[1], q_rows.ctypes.data, xs.ctypes.data,
                xs.shape[1], x_rows.ctypes.data, q_rows.shape[0], qs.shape[2], int(kind),
                int(bool(use_max)), _norm_band(band),
                thresholds.ctypes.data, out.ctypes.data,
            )
        )
        return out

    def edit_value(self, query, item, mode, kind, params, eps, cutoff) -> float:
        q = query if query.flags.c_contiguous else np.ascontiguousarray(query)
        x = item if item.flags.c_contiguous else np.ascontiguousarray(item)
        g = _contiguous(np.asarray(params, dtype=np.float64))
        out = ctypes.c_double()
        status = self._lib.repro_edit_value(
            q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
            int(mode), int(kind), g.ctypes.data, float(eps),
            _INF if cutoff is None else float(cutoff), ctypes.byref(out),
        )
        if status != 0:
            self._check(status)
        return out.value

    def edit_batch(self, query, items, mode, kind, params, eps, cutoffs) -> np.ndarray:
        q = _contiguous(query)
        xs = _contiguous(items)
        g = _contiguous(np.asarray(params, dtype=np.float64))
        out = np.empty(xs.shape[0], dtype=np.float64)
        thresholds = _norm_cutoffs(cutoffs, xs.shape[0])
        self._check(
            self._lib.repro_edit_pairs(
                q.ctypes.data, q.shape[0], None, xs.ctypes.data, xs.shape[1], None,
                xs.shape[0], xs.shape[2], int(mode), int(kind), g.ctypes.data, float(eps),
                thresholds.ctypes.data, out.ctypes.data,
            )
        )
        return out

    def edit_pairs(
        self, queries, query_rows, items, item_rows, mode, kind, params, eps, cutoffs
    ) -> np.ndarray:
        qs, q_rows, xs, x_rows = _pair_operands(queries, query_rows, items, item_rows)
        g = _contiguous(np.asarray(params, dtype=np.float64))
        out = np.empty(q_rows.shape[0], dtype=np.float64)
        thresholds = _norm_cutoffs(cutoffs, q_rows.shape[0])
        self._check(
            self._lib.repro_edit_pairs(
                qs.ctypes.data, qs.shape[1], q_rows.ctypes.data, xs.ctypes.data,
                xs.shape[1], x_rows.ctypes.data, q_rows.shape[0], qs.shape[2], int(mode),
                int(kind), g.ctypes.data, float(eps),
                thresholds.ctypes.data, out.ctypes.data,
            )
        )
        return out

    def warp_block(self, query, item, kind, use_max, band, cutoff, block) -> None:
        q = _contiguous(query)
        x = _contiguous(item)
        rows = ctypes.c_int64()
        self._check(
            self._lib.repro_warp_block(
                q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
                int(kind), int(bool(use_max)), _norm_band(band), _norm_cutoff(cutoff),
                block.first, block.shift, block.cells.ctypes.data, ctypes.byref(rows),
            )
        )
        block.rows = rows.value

    def edit_block(self, query, item, mode, kind, params, eps, cutoff, block) -> None:
        q = _contiguous(query)
        x = _contiguous(item)
        g = _contiguous(np.asarray(params, dtype=np.float64))
        rows = ctypes.c_int64()
        self._check(
            self._lib.repro_edit_block(
                q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
                int(mode), int(kind), g.ctypes.data, float(eps), _norm_cutoff(cutoff),
                block.first, block.shift, block.cells.ctypes.data, ctypes.byref(rows),
            )
        )
        block.rows = rows.value

    def __repr__(self) -> str:
        return f"CcProvider(library={self.library_path!r})"


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
    """The C compiler to build with: ``$CC`` when set, else cc/gcc/clang on PATH.

    A set ``$CC`` that does not resolve is not second-guessed: the build
    fails and :func:`kernels` says so.
    """
    configured = os.environ.get("CC")
    if configured:
        return shutil.which(configured)
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def build_c_library() -> str:
    """Compile ``_kernels.c`` into the cache directory; return the .so path.

    The library file name embeds a content hash of the source, so stale
    caches are never loaded and concurrent builders race benignly (compile
    to a temporary name, ``os.replace`` into place).  Raises
    :class:`~repro.exceptions.ConfigurationError` when no compiler is found
    or the build fails.
    """
    source = _C_SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    library = cache_dir / f"repro-kernels-{digest}.so"
    if library.is_file():
        return str(library)
    compiler = find_c_compiler()
    if compiler is None:
        configured = os.environ.get("CC")
        found = f"$CC={configured!r} is not on PATH" if configured else "no cc/gcc/clang on PATH"
        raise ConfigurationError(
            f"the C kernels need a C compiler ({found}): set $CC or install cc "
            f"(or put a prebuilt {library.name} in $REPRO_KERNEL_CACHE)"
        )
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
            detail = result.stderr.decode(errors="replace").strip()
            raise ConfigurationError(f"building the C kernels with cc={compiler} failed: {detail}")
        os.replace(tmp, library)
    except (OSError, subprocess.SubprocessError) as error:
        raise ConfigurationError(
            f"building the C kernels with cc={compiler} in {cache_dir} failed: {error}"
        ) from error
    return str(library)


_provider: Optional[CcProvider] = None
_provider_lock = threading.Lock()


def kernels() -> CcProvider:
    """The process-wide provider, built on first use.

    Published once under a lock (free-threaded builds run kernel calls on
    several threads at once); a failed build is not remembered, so the next
    call tries again.
    """
    global _provider
    provider = _provider
    if provider is not None:
        return provider
    with _provider_lock:
        if _provider is None:
            _provider = CcProvider(build_c_library())
        return _provider

