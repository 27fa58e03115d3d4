"""The HTTP application over a :class:`SearchService`.

:class:`SearchApp` answers one request at a time through one synchronous
entry point, :meth:`SearchApp.handle`: method, raw request target and body
bytes in, status and a strict-JSON body out.  The socket handler of
:mod:`repro.server.runner` and the in-process tests both call it.  Every
response body is built by :mod:`repro.core.wire`, the same module behind
``repro search --json``, so the HTTP surface and the CLI cannot drift.

Routes
------
======  ======================  ==============================================
Method  Path                    Meaning
======  ======================  ==============================================
POST    ``/search``             Execute one bound spec; version-2 envelope.
POST    ``/search/batch``       Execute many specs in order; ``results`` list.
POST    ``/sequences``          Incrementally add a sequence to the corpus.
DELETE  ``/sequences/{seq_id}`` Incrementally remove a sequence.
POST    ``/snapshots``          Persist the built matcher state to disk.
GET     ``/health``             Liveness (never forces the snapshot load).
GET     ``/metrics``            Operational counters, p50/p99, cache rates.
======  ======================  ==============================================

Status codes: ``200`` success, ``400`` malformed request, ``404`` unknown
route / unknown sequence, ``405`` wrong method, ``409`` duplicate sequence
id, ``413`` request body over the cap (answered by the runner before the
body is read) or a sequence of more than
:data:`~repro.core.wire.MAX_SEQUENCE_VALUES` values, ``422`` a well-formed
query that failed (e.g. a Type III sweep with no segment match -- the body
is the standard envelope with ``error`` set and the sweep's own work
counters), ``500`` an unexpected failure, ``503`` admission control
rejected the request (too many queries in flight), ``504`` the per-request
timeout elapsed.

Concurrency model
-----------------
The runner serves every connection on its own thread.  The shared
:class:`~repro.core.service.SearchService` serialises actual matcher work
behind its internal lock (the pipeline keeps per-query scratch state);
*admission* is what is concurrent -- up to ``max_in_flight`` queries may be
queued on the service at once.  Admitted work runs on a thread of its own
that the handler waits for up to the deadline (:meth:`SearchApp._deadline`);
the work releases its admission slot itself when it really ends, so a
timed-out request keeps holding its slot until the matcher lets go of it.
Mutations run on the handler thread, with no deadline.
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.service import SearchService
from repro.core.wire import (
    ACCEPTED_SCHEMA_VERSIONS,
    WIRE_SCHEMA_VERSION,
    PayloadTooLarge,
    SearchRequest,
    error_envelope,
    parse_search_request,
    parse_timeout,
    result_envelope,
    sequence_from_wire,
)
from repro.exceptions import (
    ItemNotFoundError,
    QueryError,
    ReproError,
    SequenceError,
    StorageError,
)
from repro.server.metrics import ServerMetrics

#: Default bound on concurrently admitted queries (the acceptance criterion
#: demands at least 8 in flight; leave headroom).
DEFAULT_MAX_IN_FLIGHT = 16

#: Default per-request deadline, seconds.
DEFAULT_TIMEOUT = 30.0

#: Default cap on ``POST /search/batch`` size.
DEFAULT_MAX_BATCH = 64

T = TypeVar("T")

#: A response before encoding: ``(status, JSON-safe payload)``.
Response = Tuple[int, object]


def _capacity_error(max_in_flight: int) -> str:
    return f"server at capacity ({max_in_flight} queries in flight); retry shortly"


class SearchApp:
    """One :class:`SearchService` over HTTP, one request per :meth:`handle`."""

    def __init__(
        self,
        service: SearchService,
        *,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        default_timeout: float = DEFAULT_TIMEOUT,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: Optional[ServerMetrics] = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if default_timeout <= 0:
            raise ValueError(f"default_timeout must be positive, got {default_timeout}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self.max_in_flight = max_in_flight
        self.default_timeout = default_timeout
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._in_flight = 0
        self._admission_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # The entry point
    # ------------------------------------------------------------------ #
    def handle(self, method: str, target: str, body: bytes) -> Tuple[int, bytes]:
        """Answer one request: ``(status, strict-JSON response body)``.

        ``target`` is the raw request target: the query string is dropped
        and the path percent-decoded exactly once, so ``DELETE
        /sequences/x%2541y`` removes the sequence ``x%41y``.
        """
        path = urllib.parse.unquote(target.partition("?")[0])
        try:
            status, payload = self._dispatch(method.upper(), path, body)
        except ReproError as error:
            status, payload = 500, {"error": str(error)}
        return status, _send_json(payload)

    def _dispatch(self, method: str, path: str, body: bytes) -> Response:
        if path.startswith("/sequences/"):
            seq_id = path[len("/sequences/"):]
            expected, endpoint = "DELETE", lambda _: self._remove_sequence(seq_id)
        else:
            route = {
                "/health": ("GET", self._health),
                "/metrics": ("GET", self._metrics),
                "/search": ("POST", self._search),
                "/search/batch": ("POST", self._search_batch),
                "/sequences": ("POST", self._add_sequence),
                "/snapshots": ("POST", self._save_snapshot),
            }.get(path)
            if route is None:
                return 404, {"error": f"unknown route {path!r}"}
            expected, endpoint = route
        if method != expected:
            return 405, {"error": f"method {method} not allowed; use {expected}"}
        return endpoint(body)

    # ------------------------------------------------------------------ #
    # Operational endpoints
    # ------------------------------------------------------------------ #
    def _health(self, body: bytes) -> Response:
        service = self.service
        return 200, {
            "status": "ok",
            "schema_version": WIRE_SCHEMA_VERSION,
            "accepted_schema_versions": list(ACCEPTED_SCHEMA_VERSIONS),
            "loaded": service.loaded,
            "snapshot": (
                str(service.snapshot_path) if service.snapshot_path is not None else None
            ),
            "in_flight": self._in_flight,
            "max_in_flight": self.max_in_flight,
        }

    def _metrics(self, body: bytes) -> Response:
        payload = self.metrics.snapshot()
        payload["in_flight"] = self._in_flight
        payload["cache"].update(self.service.cache_stats() or {"entries": None, "evictions": None})
        return 200, payload

    # ------------------------------------------------------------------ #
    # Search endpoints
    # ------------------------------------------------------------------ #
    def _search(self, body: bytes) -> Response:
        payload, parse_failure = _read_json(body)
        if parse_failure is not None:
            self.metrics.record_parse_error()
            return 400, error_envelope(parse_failure)
        try:
            request = parse_search_request(payload)
        except QueryError as error:
            self.metrics.record_parse_error()
            return _refusal(error), error_envelope(
                str(error), request_id=_safe_request_id(payload)
            )
        if not self._admit():
            self.metrics.record_rejected()
            return 503, error_envelope(
                _capacity_error(self.max_in_flight),
                request_id=request.request_id,
                query=request.spec.describe(),
                query_origin=request.query_origin,
            )
        return self._run_admitted(request)

    def _run_admitted(self, request: SearchRequest) -> Tuple[int, Dict]:
        """Execute one admitted request within its deadline."""
        timeout = request.timeout if request.timeout is not None else self.default_timeout
        started = time.perf_counter()
        try:
            result = self._deadline(
                lambda: self.service.execute_many(
                    [request.spec], executor=request.executor, workers=request.workers
                )[0],
                timeout,
            )
        except concurrent.futures.TimeoutError:
            self.metrics.record_timeout()
            return 504, error_envelope(
                f"query exceeded its {timeout:g}s deadline",
                request_id=request.request_id,
                query=request.spec.describe(),
                query_origin=request.query_origin,
                include_timings=request.include_timings,
            )
        elapsed = time.perf_counter() - started
        self.metrics.record_query(elapsed, result.stats)
        envelope = result_envelope(
            result,
            self.service,
            request_id=request.request_id,
            query_origin=request.query_origin,
            include_timings=request.include_timings,
        )
        if result.error is not None:
            self.metrics.record_query_error()
            return 422, envelope
        return 200, envelope

    def _search_batch(self, body: bytes) -> Response:
        payload, parse_failure = _read_json(body)
        if parse_failure is not None:
            self.metrics.record_parse_error()
            return 400, {"error": parse_failure}
        try:
            requests, timeout = self._parse_batch(payload)
        except QueryError as error:
            self.metrics.record_parse_error()
            return _refusal(error), {"error": str(error)}
        if not self._admit():
            self.metrics.record_rejected()
            return 503, {"error": _capacity_error(self.max_in_flight)}

        def work() -> List[Dict]:
            envelopes = []
            for request in requests:
                started = time.perf_counter()
                result = self.service.execute_many(
                    [request.spec], executor=request.executor, workers=request.workers
                )[0]
                self.metrics.record_query(time.perf_counter() - started, result.stats)
                if result.error is not None:
                    self.metrics.record_query_error()
                envelopes.append(
                    result_envelope(
                        result,
                        self.service,
                        request_id=request.request_id,
                        query_origin=request.query_origin,
                        include_timings=request.include_timings,
                    )
                )
            return envelopes

        try:
            envelopes = self._deadline(work, timeout)
        except concurrent.futures.TimeoutError:
            self.metrics.record_timeout()
            return 504, {"error": f"batch exceeded its {timeout:g}s deadline"}
        self.metrics.record_batch()
        return 200, {"schema_version": WIRE_SCHEMA_VERSION, "results": envelopes}

    def _deadline(self, work: Callable[[], T], timeout: float) -> T:
        """Run admitted ``work`` on a thread of its own; wait up to ``timeout``.

        Returns what ``work`` returns and re-raises what it raises; raises
        :class:`concurrent.futures.TimeoutError` at the deadline.  The
        admission slot is released in the work's own ``finally``, so it is
        held until the work really ends, deadline or not.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            try:
                try:
                    value = work()
                finally:
                    self._release()
            except Exception as error:  # re-raised by the waiting handler
                future.set_exception(error)
            else:
                future.set_result(value)

        threading.Thread(target=run, daemon=True).start()
        return future.result(timeout)

    def _parse_batch(self, body) -> Tuple[List[SearchRequest], float]:
        if not isinstance(body, dict):
            raise QueryError(
                f"batch body must be a JSON object, got {type(body).__name__}"
            )
        unknown = set(body) - {"schema_version", "requests", "timeout"}
        if unknown:
            raise QueryError(f"unknown batch field(s): {sorted(unknown)}")
        version = body.get("schema_version", WIRE_SCHEMA_VERSION)
        if version not in ACCEPTED_SCHEMA_VERSIONS:
            raise QueryError(
                f"unsupported schema_version {version!r}; "
                f"accepted: {list(ACCEPTED_SCHEMA_VERSIONS)}"
            )
        entries = body.get("requests")
        if not isinstance(entries, list) or not entries:
            raise QueryError("batch 'requests' must be a non-empty list")
        if len(entries) > self.max_batch:
            raise QueryError(
                f"batch of {len(entries)} exceeds the server cap of {self.max_batch}"
            )
        requests = []
        for position, entry in enumerate(entries):
            try:
                requests.append(parse_search_request(entry))
            except QueryError as error:
                raise type(error)(f"batch entry {position}: {error}") from None
        timeout = body.get("timeout")
        return requests, self.default_timeout if timeout is None else parse_timeout(timeout)

    # ------------------------------------------------------------------ #
    # Mutation endpoints
    # ------------------------------------------------------------------ #
    def _add_sequence(self, body: bytes) -> Response:
        payload, parse_failure = _read_json(body)
        if parse_failure is not None:
            return 400, {"error": parse_failure}
        if not isinstance(payload, dict) or set(payload) - {"sequence"}:
            return 400, {"error": "body must be {'sequence': {...}}"}
        try:
            sequence = sequence_from_wire(payload.get("sequence"))
        except QueryError as error:
            return _refusal(error), {"error": str(error)}
        try:
            seq_id = self.service.add_sequence(sequence)
        except SequenceError as error:
            return 409, {"error": str(error)}
        self.metrics.record_mutation()
        return 200, {
            "seq_id": seq_id,
            "sequences": len(self.service.backend.database),
            "fingerprint": self.service.fingerprint(),
        }

    def _remove_sequence(self, seq_id: str) -> Response:
        try:
            removed = self.service.remove_sequence(seq_id)
        except (ItemNotFoundError, SequenceError, KeyError) as error:
            return 404, {"error": str(error)}
        self.metrics.record_mutation()
        return 200, {
            "seq_id": seq_id,
            "removed_length": len(removed),
            "sequences": len(self.service.backend.database),
            "fingerprint": self.service.fingerprint(),
        }

    def _save_snapshot(self, body: bytes) -> Response:
        payload, parse_failure = _read_json(body, allow_empty=True)
        if parse_failure is not None:
            return 400, {"error": parse_failure}
        payload = payload or {}
        if not isinstance(payload, dict) or set(payload) - {"path"}:
            return 400, {"error": "body must be {} or {'path': ...}"}
        try:
            target = self.service.save_snapshot(payload.get("path"))
        except StorageError as error:
            return 400, {"error": str(error)}
        return 200, {"path": str(target), "fingerprint": self.service.fingerprint()}

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    def _admit(self) -> bool:
        with self._admission_lock:
            if self._in_flight >= self.max_in_flight:
                return False
            self._in_flight += 1
            return True

    def _release(self) -> None:
        with self._admission_lock:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Queries currently admitted (queued or executing)."""
        return self._in_flight


def _refusal(error: QueryError) -> int:
    """The status of a request refused at parsing: 413 if it is too large, else 400."""
    return 413 if isinstance(error, PayloadTooLarge) else 400


def _safe_request_id(body) -> Optional[str]:
    if isinstance(body, dict):
        request_id = body.get("request_id")
        if isinstance(request_id, str):
            return request_id
    return None


def _read_json(raw: bytes, allow_empty: bool = False):
    """Decode a request body; returns ``(payload, error_message)``."""
    if not raw:
        if allow_empty:
            return None, None
        return None, "request body is empty; expected a JSON object"
    try:
        return json.loads(raw.decode("utf-8")), None
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return None, f"request body is not valid JSON: {error}"


def _send_json(payload) -> bytes:
    """A response body: ``payload`` as strict JSON (no ``NaN`` / ``Infinity``)."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


__all__ = [
    "SearchApp",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_TIMEOUT",
    "DEFAULT_MAX_BATCH",
]
