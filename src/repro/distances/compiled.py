"""The compiled elastic-distance kernels (the "cc" tier).

The NumPy row sweeps in :mod:`repro.distances.alignment` are the always-on
oracle; this module supplies drop-in compiled implementations of the same
recurrences with the element-cost computation fused into the DP loop, so a
single call covers what the NumPy path does in two stages (cost matrix
broadcast + row sweep).  The recurrences live in ``_kernels.c``, compiled on
first use with the system C compiler (``cc``/``gcc``/``clang``) into a
content-hash-keyed shared library and loaded through :mod:`ctypes`.

Exactness contract: for every call form the C kernels replicate the
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

:class:`CcProvider` exposes eight entry points::

    warp_value(query, item, kind, use_max, band, cutoff) -> float
    warp_batch(query, items, kind, use_max, band, cutoffs) -> ndarray
    warp_pairs(queries, query_rows, items, item_rows, kind, use_max, band, cutoffs) -> ndarray
    edit_value(query, item, mode, kind, gap, eps, cutoff) -> float
    edit_batch(query, items, mode, kind, gap, eps, cutoffs) -> ndarray
    edit_pairs(queries, query_rows, items, item_rows, mode, kind, gap, eps, cutoffs) -> ndarray
    warp_block(query, item, kind, use_max, band, cutoff, block) -> None
    edit_block(query, item, mode, kind, gap, eps, cutoff, block) -> None

with ``kind`` an element-metric code (0 euclidean, 1 manhattan,
2 discrete), ``mode`` an edit-recurrence code (0 Levenshtein, 1 ERP,
2 EDR), ``band`` ``None`` or a Sakoe-Chiba half-width, ``cutoff`` ``None``
or a float, and ``cutoffs`` ``None``, a float, or a per-row ``(k,)``
threshold vector.  The ``*_pairs`` forms compute
``d(queries[query_rows[i]], items[item_rows[i]])`` for every ``i`` over two
operand stacks -- one call for many queries, each against its own items --
and run the *batch* form's recurrence per pair, so a pair's value is
bit-identical to what ``*_batch`` returns for it.  Both forms call the one C
pair entry point per recurrence; ``*_batch`` passes null row vectors, which
mean query row 0 and item row ``i``.  The ``*_block`` forms sweep one
pair's table once and fill a :class:`~repro.distances.alignment.PrefixBlock`
with its admissible prefix cells (the single-value sweep with a band output).
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

#: Mirrors ``alignment._SMALL_TABLE_CELLS`` and ``REPRO_SMALL_TABLE_CELLS`` in
#: ``_kernels.c`` (the single-value edit kernels switch between the direct and
#: the reduced-coordinate recurrence there).
_SMALL_TABLE_CELLS = 1024

#: NumPy switches to pairwise summation at 8 addends; below that its
#: reductions are sequential and the fused element costs are bit-identical.
MAX_FUSED_DIM = 7


def fusable_dim(dim: int) -> bool:
    """Whether fused element costs reproduce NumPy's summation order."""
    return dim <= MAX_FUSED_DIM


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

    def edit_value(self, query, item, mode, kind, gap, eps, cutoff) -> float:
        q = query if query.flags.c_contiguous else np.ascontiguousarray(query)
        x = item if item.flags.c_contiguous else np.ascontiguousarray(item)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
        out = ctypes.c_double()
        status = self._lib.repro_edit_value(
            q.ctypes.data, q.shape[0], x.ctypes.data, x.shape[0], q.shape[1],
            int(mode), int(kind), g.ctypes.data, float(eps),
            _INF if cutoff is None else float(cutoff), ctypes.byref(out),
        )
        if status != 0:
            self._check(status)
        return out.value

    def edit_batch(self, query, items, mode, kind, gap, eps, cutoffs) -> np.ndarray:
        q = _contiguous(query)
        xs = _contiguous(items)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
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
        self, queries, query_rows, items, item_rows, mode, kind, gap, eps, cutoffs
    ) -> np.ndarray:
        qs, q_rows, xs, x_rows = _pair_operands(queries, query_rows, items, item_rows)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
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

    def edit_block(self, query, item, mode, kind, gap, eps, cutoff, block) -> None:
        q = _contiguous(query)
        x = _contiguous(item)
        g = _contiguous(np.asarray(gap, dtype=np.float64))
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


def make_provider(name: str) -> CcProvider:
    """Instantiate one provider by name; raises on unavailability."""
    if name == "cc":
        library = build_c_library()
        if library is None:
            raise RuntimeError("no C compiler available (or the build failed)")
        return CcProvider(library)
    raise ValueError(f"unknown kernel provider {name!r}")
