"""The network service layer: the declarative query API over HTTP.

``repro.server`` puts the :class:`~repro.core.service.SearchService` facade
on the wire with nothing but the standard library:

* :mod:`repro.server.app` -- :class:`SearchApp`: one synchronous entry
  point, ``handle(method, target, body) -> (status, json_bytes)``, with
  routing, admission control, per-request deadlines and the shared
  :mod:`repro.core.wire` envelopes;
* :mod:`repro.server.runner` -- the ``http.server`` transport that feeds
  it, :func:`serve` (blocking, behind ``repro serve``) and
  :class:`BackgroundServer` (the same server on a daemon thread, for tests
  and benchmarks);
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

__all__ = [
    "SearchApp",
    "ServerMetrics",
    "BackgroundServer",
    "serve",
]
