"""Per-call time of the C kernels: one ctypes call per pair, as ``kernels()`` makes it.

Times ``warp_value`` (DTW 1-D and 2-D, discrete Fréchet) and ``edit_value``
(ERP, Levenshtein) on random operands at 20 x 20 and 80 x 80, unbounded, and
prints the fastest and the median round in microseconds per call.  By
default it times the library ``kernels()`` builds from this checkout; each
``--library`` adds a prebuilt one (``cc -O3 -fPIC -shared -o k.so
_kernels.c -lm`` of another revision), and the rounds of all libraries
alternate, so one run compares revisions on equal terms::

    PYTHONPATH=src python benchmarks/kernel_microbench.py --library /tmp/parent.so
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.distances.compiled import (
    MODE_ERP,
    MODE_LEVENSHTEIN,
    NO_PARAMS,
    CcProvider,
    build_c_library,
)

SIZES = (20, 80)
#: Back-to-back calls per timed round, and rounds per case and library.
CALLS = 2000
ROUNDS = 15


def cases(size: int, rng: np.random.Generator):
    """``(name, call)`` pairs: ``call(provider)`` makes one kernel call."""
    one = rng.normal(size=(2, size, 1))
    two = rng.normal(size=(2, size, 2))
    symbols = rng.integers(0, 4, size=(2, size, 1)).astype(np.float64)
    gap = np.zeros(1)
    return [
        ("dtw-1d", lambda k: k.warp_value(one[0], one[1], 0, False, None, None)),
        ("dtw-2d", lambda k: k.warp_value(two[0], two[1], 0, False, None, None)),
        ("dfd-2d", lambda k: k.warp_value(two[0], two[1], 0, True, None, None)),
        ("erp-1d", lambda k: k.edit_value(one[0], one[1], MODE_ERP, 0, gap, 0.0, None)),
        (
            "levenshtein",
            lambda k: k.edit_value(
                symbols[0], symbols[1], MODE_LEVENSHTEIN, 0, NO_PARAMS, 0.0, None
            ),
        ),
    ]


def per_call_us(call, provider, calls: int) -> float:
    """Mean time of ``calls`` back-to-back calls, in microseconds."""
    start = time.perf_counter()
    for _ in range(calls):
        call(provider)
    return (time.perf_counter() - start) / calls * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--library", action="append", default=[], help="another .so to time")
    args = parser.parse_args()
    libraries = [build_c_library(), *args.library]
    providers = [CcProvider(path) for path in libraries]
    for position, path in enumerate(libraries):
        print(f"[{position}] {path}")
    columns = " ".join(f"[{i}] min / median us" for i in range(len(providers)))
    print(f"{'case':12s} {'size':7s} {columns}")
    rng = np.random.default_rng(0)
    for size in SIZES:
        for name, call in cases(size, rng):
            samples = [[] for _ in providers]
            for _ in range(ROUNDS):
                for provider, times in zip(providers, samples):
                    times.append(per_call_us(call, provider, CALLS))
            cells = " ".join(f"{min(t):8.2f} / {statistics.median(t):6.2f}" for t in samples)
            print(f"{name:12s} {size:3d}x{size:<3d} {cells}")


if __name__ == "__main__":
    main()
