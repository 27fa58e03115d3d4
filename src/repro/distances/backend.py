"""Kernel-backend selection for the elastic-distance DP kernels.

Two tiers of kernels exist: the NumPy row sweeps in
:mod:`repro.distances.alignment` (always available, always tested -- the
oracle, itself checked against the scalar cell-by-cell references of the
test suite) and the C kernels of :mod:`repro.distances.compiled`
(``_kernels.c``, built on first use and loaded through ctypes).  The C tier is value-exact against the
NumPy tier (see the contract in :mod:`repro.distances.compiled`), so
switching backends never changes results, work counters, or cache
interactions -- only speed.

Selection: the ``REPRO_KERNEL`` environment variable (or the
``MatcherConfig.kernel`` knob, which defaults to it) names a backend:

``auto`` (default)
    The C kernels when a C compiler is found (or their library is already
    cached), else the NumPy tier, silently.
``numpy``
    Force the NumPy tier (compiled dispatch disabled).
``cc``
    Force the C kernels; raises
    :class:`~repro.exceptions.ConfigurationError` when they are unavailable.

Resolution is lazy and cached; the active backend is a process-wide
default plus a scope override (:func:`kernel_scope`) that the query
pipeline uses to honour a per-matcher ``MatcherConfig.kernel``.  The
override is deliberately a plain global rather than thread-local state:
parallel executors run kernel calls on worker threads, which must see the
scope the coordinating pipeline opened.  Because every backend returns
identical values, two matchers with different ``kernel`` settings racing on
one process can at worst briefly run each other's (equally exact) tier.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.distances.compiled import CcProvider, fusable_dim, make_provider
from repro.exceptions import ConfigurationError

#: Accepted values of ``REPRO_KERNEL`` / ``MatcherConfig.kernel``.
KNOWN_KERNELS = ("auto", "numpy", "cc")

_provider_cache: Dict[str, Optional[CcProvider]] = {}
_provider_lock = threading.Lock()
_default_provider: Optional[CcProvider] = None
_default_resolved = False
_scope_provider: Optional[CcProvider] = None
_scope_depth = 0


def default_kernel() -> str:
    """The configured default backend name (the ``REPRO_KERNEL`` env var)."""
    return os.environ.get("REPRO_KERNEL", "auto")


def _try_provider(name: str) -> Optional[CcProvider]:
    """Instantiate (and cache) one concrete provider; ``None`` when broken.

    The fast path is a lock-free dict read -- safe on GIL builds and on
    free-threaded ones (per-object dict locking).  A miss builds the
    provider *outside* the lock (compilation can take seconds; holding a
    lock across it would serialize unrelated first queries) and publishes
    with ``setdefault`` so concurrent racers agree on one canonical
    provider instance.
    """
    try:
        return _provider_cache[name]
    except KeyError:
        pass
    try:
        provider: Optional[CcProvider] = make_provider(name)
    except Exception:
        provider = None
    with _provider_lock:
        return _provider_cache.setdefault(name, provider)


def resolve_kernel(name: str) -> Optional[CcProvider]:
    """Resolve a backend name to a provider (``None`` = the NumPy tier).

    ``auto`` falls back to NumPy silently; ``cc`` without a working C
    compiler is a configuration error.
    """
    if name not in KNOWN_KERNELS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(KNOWN_KERNELS)}"
        )
    if name == "numpy":
        return None
    provider = _try_provider("cc")
    if provider is None and name == "cc":
        raise ConfigurationError(
            "kernel backend 'cc' is unavailable on this system (is a C compiler on PATH?)"
        )
    return provider


def active_kernels() -> Optional[CcProvider]:
    """The provider the distance kernels should dispatch to right now.

    ``None`` means "use the NumPy sweeps".  Honours an open
    :func:`kernel_scope` first, then the lazily-resolved process default.
    """
    global _default_provider, _default_resolved
    if _scope_depth:
        return _scope_provider
    if not _default_resolved:
        _default_provider = resolve_kernel(default_kernel())
        _default_resolved = True
    return _default_provider


def fused_provider(dim: int) -> Optional[CcProvider]:
    """The active provider when fused dispatch is exact for ``dim``.

    Compiled kernels accumulate element costs sequentially, which matches
    NumPy's reductions only below its pairwise-summation threshold; wider
    points fall back to the (always exact) NumPy tier.
    """
    if not fusable_dim(dim):
        return None
    return active_kernels()


def active_kernel_name() -> str:
    """Name of the backend :func:`active_kernels` currently serves.

    This is the label reported in ``QueryStats.kernel_backend``: ``cc``
    or ``numpy``.
    """
    provider = active_kernels()
    return "numpy" if provider is None else provider.name


@contextmanager
def kernel_scope(name: str) -> Iterator[Optional[CcProvider]]:
    """Run a block under the backend ``name`` (see module docstring).

    Used by the query pipeline to honour ``MatcherConfig.kernel`` around
    its probe and verify stages.  Nested scopes stack; the innermost wins.
    """
    global _scope_provider, _scope_depth
    provider = resolve_kernel(name)
    previous = _scope_provider
    _scope_provider = provider
    _scope_depth += 1
    try:
        yield provider
    finally:
        _scope_depth -= 1
        _scope_provider = previous


def reset_backend_state() -> None:
    """Forget every cached resolution (tests poke env vars and compilers)."""
    global _default_provider, _default_resolved
    _provider_cache.clear()
    _default_provider = None
    _default_resolved = False
