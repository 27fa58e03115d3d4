"""Run the search service: signals, snapshot-on-exit, background serving.

:func:`serve` is the blocking entry point behind ``repro serve``: it runs
:class:`~repro.server.app.SearchApp` on the dependency-free stdlib
``asyncio`` server (:mod:`repro.server.stdlib_http`), the one HTTP runtime.

Shutdown is snapshot-safe: ``SIGTERM`` is converted into the same clean
exit as ``Ctrl-C``, and when the service is snapshot-backed (or an explicit
snapshot path is given) the built matcher state is written back on the way
out, so a restarted server resumes from everything that was added over
``POST /sequences``.

:class:`BackgroundServer` runs the stdlib server on a daemon thread with
its own event loop -- the harness the tests and the HTTP benchmark use to
exercise a real socket without shelling out.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import threading
from typing import Optional, Tuple

from repro.core.service import SearchService
from repro.exceptions import ConfigurationError
from repro.server.app import SearchApp
from repro.server.stdlib_http import StdlibAsgiServer

#: Runtime names accepted by :func:`serve`; both name the stdlib server.
SERVER_BACKENDS = ("auto", "stdlib")


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
    backend: str = "auto",
    app: Optional[SearchApp] = None,
    snapshot_on_exit: bool = True,
    quiet: bool = False,
    **app_options,
) -> None:
    """Serve ``service`` over HTTP until interrupted (blocking).

    Parameters
    ----------
    backend:
        ``"auto"`` or ``"stdlib"``: both run the stdlib server.
    app:
        A pre-built :class:`SearchApp`; built from ``service`` and
        ``app_options`` (``max_in_flight``, ``default_timeout``,
        ``max_batch``, ``metrics``) when omitted.
    snapshot_on_exit:
        When the service has a snapshot path, write the built matcher state
        back on shutdown (Ctrl-C or SIGTERM) -- mutations made over HTTP
        survive a restart.
    """
    if backend not in SERVER_BACKENDS:
        raise ConfigurationError(
            f"unknown server backend {backend!r}; expected one of {SERVER_BACKENDS}"
        )
    application = app if app is not None else SearchApp(service, **app_options)
    if not quiet:
        print(f"serving on http://{host}:{port} (stdlib runtime)")
    _install_sigterm_handler()
    try:
        asyncio.run(StdlibAsgiServer(application, host, port).serve_forever())
    except KeyboardInterrupt:
        pass
    finally:
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
    """The stdlib server on a daemon thread, for tests and benchmarks.

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
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("background server did not start within 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"background server failed to start: {self._startup_error}"
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        server = StdlibAsgiServer(self.app, self.host, self.port)
        try:
            _, self.port = await server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()

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


__all__ = [
    "serve",
    "BackgroundServer",
    "SERVER_BACKENDS",
]
