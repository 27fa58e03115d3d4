"""The framework-free ASGI application over a :class:`SearchService`.

:class:`SearchApp` is a plain ASGI 3 callable -- no web framework -- served
by the stdlib server (:mod:`repro.server.stdlib_http`); any other ASGI host
can run it unchanged.  Every response body is built by
:mod:`repro.core.wire`, the same module behind ``repro search --json``, so
the HTTP surface and the CLI cannot drift.

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
id, ``422`` a well-formed query that failed (e.g. a Type III sweep with no
segment match -- the body is the standard envelope with ``error`` set and
the sweep's own work counters), ``503`` admission control rejected the
request (too many queries in flight), ``504`` the per-request timeout
elapsed.

Concurrency model
-----------------
Query execution is synchronous CPU work, so each request runs on a worker
thread (``loop.run_in_executor``) while the event loop keeps accepting
connections.  The shared :class:`~repro.core.service.SearchService`
serialises actual matcher work behind its internal lock (the pipeline keeps
per-query scratch state); *admission* is what is concurrent -- up to
``max_in_flight`` requests may be queued on the service at once, and the
admission counter is only released when a worker actually finishes, so a
timed-out request keeps holding its slot until the matcher lets go of it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

from repro.core.service import SearchService
from repro.core.wire import (
    ACCEPTED_SCHEMA_VERSIONS,
    WIRE_SCHEMA_VERSION,
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


class SearchApp:
    """ASGI 3 application exposing one :class:`SearchService` over HTTP."""

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
    # ASGI entry point
    # ------------------------------------------------------------------ #
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        method = scope["method"].upper()
        path = scope.get("path", "/")
        try:
            await self._dispatch(method, path, receive, send)
        except ReproError as error:
            await _send_json(send, 500, {"error": str(error)})

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _dispatch(self, method: str, path: str, receive, send) -> None:
        if path == "/health":
            if await self._require(method, "GET", send):
                await self._health(send)
            return
        if path == "/metrics":
            if await self._require(method, "GET", send):
                await self._metrics(send)
            return
        if path == "/search":
            if await self._require(method, "POST", send):
                await self._search(receive, send)
            return
        if path == "/search/batch":
            if await self._require(method, "POST", send):
                await self._search_batch(receive, send)
            return
        if path == "/sequences":
            if await self._require(method, "POST", send):
                await self._add_sequence(receive, send)
            return
        if path.startswith("/sequences/"):
            if await self._require(method, "DELETE", send):
                seq_id = urllib.parse.unquote(path[len("/sequences/"):])
                await self._remove_sequence(seq_id, send)
            return
        if path == "/snapshots":
            if await self._require(method, "POST", send):
                await self._save_snapshot(receive, send)
            return
        await _send_json(send, 404, {"error": f"unknown route {path!r}"})

    async def _require(self, method: str, expected: str, send) -> bool:
        if method == expected:
            return True
        await _send_json(
            send, 405, {"error": f"method {method} not allowed; use {expected}"}
        )
        return False

    # ------------------------------------------------------------------ #
    # Operational endpoints
    # ------------------------------------------------------------------ #
    async def _health(self, send) -> None:
        service = self.service
        await _send_json(
            send,
            200,
            {
                "status": "ok",
                "schema_version": WIRE_SCHEMA_VERSION,
                "accepted_schema_versions": list(ACCEPTED_SCHEMA_VERSIONS),
                "loaded": service.loaded,
                "snapshot": (
                    str(service.snapshot_path)
                    if service.snapshot_path is not None
                    else None
                ),
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
            },
        )

    async def _metrics(self, send) -> None:
        payload = self.metrics.snapshot()
        payload["in_flight"] = self._in_flight
        payload["cache"].update(self.service.cache_stats() or {"entries": None, "evictions": None})
        await _send_json(send, 200, payload)

    # ------------------------------------------------------------------ #
    # Search endpoints
    # ------------------------------------------------------------------ #
    async def _search(self, receive, send) -> None:
        body, parse_failure = await _read_json(receive)
        if parse_failure is not None:
            self.metrics.record_parse_error()
            await _send_json(send, 400, error_envelope(parse_failure))
            return
        try:
            request = parse_search_request(body)
        except QueryError as error:
            self.metrics.record_parse_error()
            await _send_json(
                send,
                400,
                error_envelope(
                    str(error),
                    request_id=_safe_request_id(body),
                ),
            )
            return
        if not self._admit():
            self.metrics.record_rejected()
            await _send_json(
                send,
                503,
                error_envelope(
                    f"server at capacity ({self.max_in_flight} queries in flight); "
                    "retry shortly",
                    request_id=request.request_id,
                    query=request.spec.describe(),
                    query_origin=request.query_origin,
                ),
            )
            return
        status, envelope = await self._run_admitted(request)
        await _send_json(send, status, envelope)

    async def _run_admitted(self, request: SearchRequest) -> Tuple[int, Dict]:
        """Execute one admitted request on a worker thread, with deadline."""
        loop = asyncio.get_event_loop()
        timeout = request.timeout if request.timeout is not None else self.default_timeout
        started = time.perf_counter()

        def work():
            # The admission slot is held until the matcher actually finishes,
            # even if the awaiting side already timed out.
            try:
                return self.service.execute_many(
                    [request.spec], executor=request.executor, workers=request.workers
                )[0]
            finally:
                self._release()

        try:
            result = await asyncio.wait_for(loop.run_in_executor(None, work), timeout)
        except asyncio.TimeoutError:
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

    async def _search_batch(self, receive, send) -> None:
        body, parse_failure = await _read_json(receive)
        if parse_failure is not None:
            self.metrics.record_parse_error()
            await _send_json(send, 400, {"error": parse_failure})
            return
        try:
            requests, timeout = self._parse_batch(body)
        except QueryError as error:
            self.metrics.record_parse_error()
            await _send_json(send, 400, {"error": str(error)})
            return
        if not self._admit():
            self.metrics.record_rejected()
            await _send_json(
                send,
                503,
                {
                    "error": f"server at capacity ({self.max_in_flight} queries "
                    "in flight); retry shortly"
                },
            )
            return
        loop = asyncio.get_event_loop()

        def work():
            try:
                envelopes = []
                for request in requests:
                    started = time.perf_counter()
                    result = self.service.execute_many(
                        [request.spec],
                        executor=request.executor,
                        workers=request.workers,
                    )[0]
                    self.metrics.record_query(
                        time.perf_counter() - started, result.stats
                    )
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
            finally:
                self._release()

        try:
            envelopes = await asyncio.wait_for(
                loop.run_in_executor(None, work), timeout
            )
        except asyncio.TimeoutError:
            self.metrics.record_timeout()
            await _send_json(
                send, 504, {"error": f"batch exceeded its {timeout:g}s deadline"}
            )
            return
        self.metrics.record_batch()
        await _send_json(
            send,
            200,
            {"schema_version": WIRE_SCHEMA_VERSION, "results": envelopes},
        )

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
                raise QueryError(f"batch entry {position}: {error}") from None
        timeout = body.get("timeout")
        return requests, self.default_timeout if timeout is None else parse_timeout(timeout)

    # ------------------------------------------------------------------ #
    # Mutation endpoints
    # ------------------------------------------------------------------ #
    async def _add_sequence(self, receive, send) -> None:
        body, parse_failure = await _read_json(receive)
        if parse_failure is not None:
            await _send_json(send, 400, {"error": parse_failure})
            return
        if not isinstance(body, dict) or set(body) - {"sequence"}:
            await _send_json(
                send, 400, {"error": "body must be {'sequence': {...}}"}
            )
            return
        try:
            sequence = sequence_from_wire(body.get("sequence"))
        except QueryError as error:
            await _send_json(send, 400, {"error": str(error)})
            return
        loop = asyncio.get_event_loop()
        try:
            seq_id = await loop.run_in_executor(
                None, lambda: self.service.add_sequence(sequence)
            )
        except SequenceError as error:
            await _send_json(send, 409, {"error": str(error)})
            return
        self.metrics.record_mutation()
        await _send_json(
            send,
            200,
            {
                "seq_id": seq_id,
                "sequences": len(self.service.backend.database),
                "fingerprint": self.service.fingerprint(),
            },
        )

    async def _remove_sequence(self, seq_id: str, send) -> None:
        loop = asyncio.get_event_loop()
        try:
            removed = await loop.run_in_executor(
                None, lambda: self.service.remove_sequence(seq_id)
            )
        except (ItemNotFoundError, SequenceError, KeyError) as error:
            await _send_json(send, 404, {"error": str(error)})
            return
        self.metrics.record_mutation()
        await _send_json(
            send,
            200,
            {
                "seq_id": seq_id,
                "removed_length": len(removed),
                "sequences": len(self.service.backend.database),
                "fingerprint": self.service.fingerprint(),
            },
        )

    async def _save_snapshot(self, receive, send) -> None:
        body, parse_failure = await _read_json(receive, allow_empty=True)
        if parse_failure is not None:
            await _send_json(send, 400, {"error": parse_failure})
            return
        body = body or {}
        if not isinstance(body, dict) or set(body) - {"path"}:
            await _send_json(send, 400, {"error": "body must be {} or {'path': ...}"})
            return
        path = body.get("path")
        loop = asyncio.get_event_loop()
        try:
            target = await loop.run_in_executor(
                None, lambda: self.service.save_snapshot(path)
            )
        except StorageError as error:
            await _send_json(send, 400, {"error": str(error)})
            return
        await _send_json(
            send,
            200,
            {"path": str(target), "fingerprint": self.service.fingerprint()},
        )

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


def _safe_request_id(body) -> Optional[str]:
    if isinstance(body, dict):
        request_id = body.get("request_id")
        if isinstance(request_id, str):
            return request_id
    return None


async def _read_json(receive, allow_empty: bool = False):
    """Drain the request body; returns ``(payload, error_message)``."""
    chunks = []
    while True:
        message = await receive()
        if message["type"] == "http.request":
            chunks.append(message.get("body", b""))
            if not message.get("more_body"):
                break
        elif message["type"] == "http.disconnect":
            break
    raw = b"".join(chunks)
    if not raw:
        if allow_empty:
            return None, None
        return None, "request body is empty; expected a JSON object"
    try:
        return json.loads(raw.decode("utf-8")), None
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return None, f"request body is not valid JSON: {error}"


async def _send_json(send, status: int, payload) -> None:
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    await send(
        {
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(body)).encode("ascii")),
            ],
        }
    )
    await send({"type": "http.response.body", "body": body})


__all__ = [
    "SearchApp",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_TIMEOUT",
    "DEFAULT_MAX_BATCH",
]
