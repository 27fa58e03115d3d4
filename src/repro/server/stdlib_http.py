"""A dependency-free ``asyncio`` HTTP/1.1 server that hosts an ASGI app.

The package depends on no web server, so ``repro serve`` runs on this
minimal one.  It implements just enough of HTTP/1.1 for the JSON API:

* one request per connection (``Connection: close`` on every response);
* request bodies sized by ``Content-Length`` (no chunked uploads);
* no TLS, no keep-alive, no pipelining.

That is deliberate: correctness and zero dependencies over throughput.  The
ASGI contract it offers the app is the standard one (scope ``type: http``,
``http.request`` / ``http.response.start`` / ``http.response.body``
messages), so :class:`~repro.server.app.SearchApp` stays a plain ASGI app
that any ASGI host can run.
"""

from __future__ import annotations

import asyncio
import urllib.parse
from typing import Optional, Tuple

#: Refuse request heads larger than this (a trivial slow-loris guard).
MAX_HEADER_BYTES = 64 * 1024

#: Refuse request bodies larger than this (64 MiB -- far above any sane
#: sequence payload, small enough to bound one connection's memory).
MAX_BODY_BYTES = 64 * 1024 * 1024


class StdlibAsgiServer:
    """Serve an ASGI 3 application with ``asyncio.start_server``."""

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8000) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port).

        ``port=0`` binds an ephemeral port -- the return value reports the
        one the kernel picked.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                await self._plain_response(writer, 400, b"malformed HTTP request")
                return
            method, target, headers, body = parsed
            await self._run_app(writer, method, target, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _read_request(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return None
        except asyncio.IncompleteReadError:
            return None
        if len(head) > MAX_HEADER_BYTES:
            return None
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            return None
        if not version.startswith("HTTP/1."):
            return None
        headers = []
        content_length = 0
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            if not _:
                return None
            name = name.strip().lower()
            value = value.strip()
            headers.append((name.encode("latin-1"), value.encode("latin-1")))
            if name == "content-length":
                try:
                    content_length = int(value)
                except ValueError:
                    return None
        if content_length < 0 or content_length > MAX_BODY_BYTES:
            return None
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method.upper(), target, headers, body

    async def _run_app(self, writer, method, target, headers, body) -> None:
        parsed = urllib.parse.urlsplit(target)
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.1"},
            "http_version": "1.1",
            "method": method,
            "scheme": "http",
            "path": urllib.parse.unquote(parsed.path),
            "raw_path": parsed.path.encode("latin-1"),
            "query_string": parsed.query.encode("latin-1"),
            "root_path": "",
            "headers": headers,
            "server": (self.host, self.port),
            "client": writer.get_extra_info("peername"),
        }
        request_messages = [
            {"type": "http.request", "body": body, "more_body": False},
            {"type": "http.disconnect"},
        ]
        position = 0

        async def receive():
            nonlocal position
            message = request_messages[min(position, len(request_messages) - 1)]
            position += 1
            return message

        state = {"started": False}

        async def send(message) -> None:
            if message["type"] == "http.response.start":
                state["started"] = True
                status = message["status"]
                lines = [f"HTTP/1.1 {status} {_reason(status)}".encode("latin-1")]
                has_length = False
                for name, value in message.get("headers", []):
                    if name.lower() == b"content-length":
                        has_length = True
                    lines.append(name + b": " + value)
                lines.append(b"connection: close")
                state["needs_length"] = not has_length
                state["head"] = lines
                state["body_parts"] = []
            elif message["type"] == "http.response.body":
                state.setdefault("body_parts", []).append(message.get("body", b""))
                if not message.get("more_body"):
                    await self._flush(writer, state)

        try:
            await self.app(scope, receive, send)
            if not state["started"]:
                await self._plain_response(writer, 500, b"app produced no response")
        except Exception as error:  # noqa: BLE001 - last-resort 500
            if not state["started"]:
                await self._plain_response(
                    writer, 500, f"internal server error: {error}".encode("utf-8")
                )
            else:
                raise

    async def _flush(self, writer, state) -> None:
        payload = b"".join(state.get("body_parts", []))
        lines = state["head"]
        if state.get("needs_length"):
            lines.append(b"content-length: " + str(len(payload)).encode("ascii"))
        writer.write(b"\r\n".join(lines) + b"\r\n\r\n" + payload)
        await writer.drain()

    async def _plain_response(self, writer, status: int, body: bytes) -> None:
        writer.write(
            f"HTTP/1.1 {status} {_reason(status)}\r\n"
            f"content-type: text/plain\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n".encode("latin-1")
            + body
        )
        await writer.drain()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


__all__ = ["StdlibAsgiServer", "MAX_HEADER_BYTES", "MAX_BODY_BYTES"]
