"""The network service layer: the declarative query API over HTTP.

``repro.server`` puts the :class:`~repro.core.service.SearchService` facade
on the wire.  The layering mirrors the execution engine's pluggable
backends:

* :mod:`repro.server.app` -- :class:`SearchApp`, a framework-free ASGI 3
  application: routing, admission control, per-request timeouts, and the
  shared :mod:`repro.core.wire` envelopes;
* :mod:`repro.server.stdlib_http` -- a dependency-free ``asyncio`` HTTP/1.1
  server that speaks ASGI, so the service runs on a bare Python install;
* :mod:`repro.server.runner` -- :func:`serve` (blocking; the stdlib server
  is the one runtime) and :class:`BackgroundServer` (a context manager
  running it on a daemon thread, for tests and benchmarks);
* :mod:`repro.server.metrics` -- :class:`ServerMetrics`, the thread-safe
  counters behind ``GET /metrics``.

Endpoints (see the README's "HTTP service" section for the full table):
``POST /search``, ``POST /search/batch``, ``POST /sequences``,
``DELETE /sequences/{seq_id}``, ``POST /snapshots``, ``GET /health``,
``GET /metrics``.
"""

from repro.server.app import SearchApp
from repro.server.metrics import ServerMetrics
from repro.server.runner import BackgroundServer, serve
from repro.server.stdlib_http import StdlibAsgiServer

__all__ = [
    "SearchApp",
    "ServerMetrics",
    "StdlibAsgiServer",
    "BackgroundServer",
    "serve",
]
