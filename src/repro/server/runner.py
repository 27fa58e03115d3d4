"""Run the search service: the socket server, signals, snapshot-on-exit.

:func:`serve` is the blocking entry point behind ``repro serve``: the
standard library's :class:`http.server.ThreadingHTTPServer` hands every
request to :meth:`SearchApp.handle <repro.server.app.SearchApp.handle>`,
one daemon thread per connection and one request per connection
(``Connection: close``).  The handler reads ``Content-Length`` and answers
a body over :data:`MAX_BODY_BYTES` with a JSON ``413`` before reading it;
every method, every error and any exception the app raises gets a JSON
body too.  Every socket read waits at most ``_Handler.timeout`` seconds, so
an idle or stalled client cannot hold its thread for longer.

Shutdown is snapshot-safe: ``SIGTERM`` is converted into the same clean
exit as ``Ctrl-C``.  The server stops accepting, answers every connection
it accepted (waiting up to the app's default timeout), and, when the
service is snapshot-backed (or an explicit snapshot path is given), then
writes the built matcher state back, so a restarted server resumes from
everything that was added over ``POST /sequences``.

:class:`BackgroundServer` runs the same server on a daemon thread -- the
harness the tests and the HTTP benchmark use to exercise a real socket
without shelling out.
"""

from __future__ import annotations

import http.client
import http.server
import json
import signal
import socket
import threading
import traceback
from typing import Optional, Tuple

from repro.core.service import SearchService
from repro.server.app import SearchApp

#: Refuse request bodies larger than this with a ``413`` before reading
#: them; the largest body the service expects (a sequence insert or a
#: query) is a few KB.
MAX_BODY_BYTES = 8 * 1024 * 1024


def _error_body(message: str) -> bytes:
    return json.dumps({"error": message}).encode("utf-8")


class _Handler(http.server.BaseHTTPRequestHandler):
    """One request per connection, every method routed to the app."""

    protocol_version = "HTTP/1.1"
    #: Seconds a socket read may wait.  A client that sends nothing is
    #: closed when it expires and its thread ends; one that stalls mid-body
    #: gets a JSON 408 first.
    timeout = 10.0
    #: Even a garbled request line gets a status line and headers, not the
    #: bare HTTP/0.9 body ``http.server`` would send.
    default_request_version = "HTTP/1.1"

    def __getattr__(self, name: str):
        # ``http.server`` looks up ``do_<METHOD>``; any method reaches the
        # app, which answers an unknown one with a JSON 405 / 404.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def _serve(self) -> None:
        try:
            status, body = self._answer()
        except Exception as error:  # noqa: BLE001 - the last-resort 500
            traceback.print_exc()
            status, body = 500, _error_body(f"internal server error: {error}")
        self._reply(status, body)

    def _answer(self) -> Tuple[int, bytes]:
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            return 400, _error_body(f"invalid Content-Length {length!r}")
        size = int(length)
        if size > MAX_BODY_BYTES:
            return 413, _error_body(
                f"request body of {size} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        try:
            body = self.rfile.read(size)
        except socket.timeout:  # ``TimeoutError`` from Python 3.10 on, not before
            return 408, _error_body(f"request body not received within {self.timeout:g} seconds")
        return self.server.app.handle(self.command, self.path, body)

    def send_error(self, code, message=None, explain=None) -> None:
        # Malformed request lines and headers: JSON like every other answer.
        self._reply(code, _error_body(message or self.responses.get(code, ("error",))[0]))

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        pass


class _Server(http.server.ThreadingHTTPServer):
    daemon_threads = True
    #: The listen backlog: a burst of concurrent clients must not be refused.
    request_queue_size = 100

    def __init__(self, app: SearchApp, host: str, port: int) -> None:
        self.app = app
        #: Accepted connections not yet answered and closed (see :meth:`drain`).
        self._open = 0
        self._closed = threading.Condition()
        super().__init__((host, port), _Handler)

    def process_request(self, request, client_address) -> None:
        with self._closed:
            self._open += 1
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._closed:
                self._open -= 1
                self._closed.notify_all()

    def drain(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds until every accepted connection is closed."""
        with self._closed:
            return self._closed.wait_for(lambda: self._open == 0, timeout)


def _install_sigterm_handler() -> None:
    """Make SIGTERM exit like Ctrl-C so the snapshot-on-exit path runs.

    Only possible (and only meaningful) from the main thread; background
    servers rely on their own shutdown path instead.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)


def serve(
    service: SearchService,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    app: Optional[SearchApp] = None,
    snapshot_on_exit: bool = True,
    quiet: bool = False,
    **app_options,
) -> None:
    """Serve ``service`` over HTTP until interrupted (blocking).

    Parameters
    ----------
    app:
        A pre-built :class:`SearchApp`; built from ``service`` and
        ``app_options`` (``max_in_flight``, ``default_timeout``,
        ``max_batch``, ``metrics``) when omitted.
    snapshot_on_exit:
        When the service has a snapshot path, write the built matcher state
        back on shutdown (Ctrl-C or SIGTERM) -- mutations made over HTTP
        survive a restart.  The requests in flight are answered first.
    """
    application = app if app is not None else SearchApp(service, **app_options)
    server = _Server(application, host, port)
    if not quiet:
        print(f"serving on http://{host}:{server.server_address[1]}", flush=True)
    _install_sigterm_handler()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.drain(application.default_timeout)
        if (
            snapshot_on_exit
            and service.snapshot_path is not None
            and service.loaded
        ):
            service.save_snapshot()
            if not quiet:
                print(f"wrote snapshot back to {service.snapshot_path}")
        service.close()


class BackgroundServer:
    """The socket server on a daemon thread, for tests and benchmarks.

    ::

        with BackgroundServer(SearchApp(service)) as server:
            status, payload = server.request_json("GET", "/health")

    ``port=0`` (the default) binds an ephemeral port; :attr:`url` reports
    the actual address once the context is entered.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[_Server] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._server = _Server(self.app, self.host, self.port)
        self.port = self._server.server_address[1]
        # A short poll interval: ``shutdown()`` in ``__exit__`` waits for one.
        threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True).start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._server.shutdown()
        self._server.server_close()

    # ------------------------------------------------------------------ #
    # Tiny synchronous client
    # ------------------------------------------------------------------ #
    def request_json(
        self, method: str, path: str, payload=None, timeout: float = 30.0
    ) -> Tuple[int, object]:
        """One JSON request/response round trip against the live server."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded = json.loads(raw.decode("utf-8")) if raw else None
            return response.status, decoded
        finally:
            connection.close()


__all__ = ["serve", "BackgroundServer", "MAX_BODY_BYTES"]
