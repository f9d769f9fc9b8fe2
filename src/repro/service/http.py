"""The wire protocol: a stdlib-only asyncio HTTP/1.1 front for the manager.

No web framework — the repo's dependency policy is "the image's toolchain
and nothing else" — so this is a deliberately small HTTP/1.1 server on
``asyncio.start_server``: request line + headers + ``Content-Length``
body, one response per connection.  Every route is a thin translation
onto :class:`~repro.service.jobs.JobManager`; anything blocking (submit
validation, long-poll waits) runs in the default thread executor so the
event loop keeps accepting connections while jobs execute.

Routes::

    POST /v1/optimize          {"qasm": "...", "config": {...}} (or raw
                               QASM text) -> the created job's record
    GET  /v1/jobs/<id>         job record (its ``events`` list holds the
                               status transitions); ``?wait=<seconds>``
                               long-polls until the job finishes (or the
                               wait ends)
    GET  /v1/stats             every ``service.*`` counter + queue gauges
    GET  /v1/healthz           liveness probe

Error discipline: a ``Content-Length`` that is not a plain digit string
is a 400 and one past :data:`MAX_BODY_BYTES` a 413, both answered
without reading the body; past the headers the handler catches exactly
:class:`~repro.errors.ServiceError` — each subclass carries its HTTP
status (400 malformed request, 429 queue full + ``Retry-After``, 404
unknown job, 503 draining) — and a *failed* job polls as HTTP 500 with
the stored taxonomy error (``RetryExhausted`` after a crashing worker
exhausted its retries).  There is no blanket handler converting bugs
into pretty responses; an unexpected exception closes the connection
and surfaces in the server log, exactly like the pool contract.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidRequest, ServiceError
from repro.service.config import ServiceConfig
from repro.service.jobs import JobManager

__all__ = ["OptimizationHTTPServer", "MAX_BODY_BYTES"]

#: Request bodies past this are rejected (a QASM circuit is kilobytes).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Long-poll waits are capped so a dropped client cannot pin a thread.
MAX_WAIT_SECONDS = 60.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class OptimizationHTTPServer:
    """Serve a :class:`JobManager` over HTTP (one instance per manager)."""

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        *,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config or (manager.config if manager else ServiceConfig())
        self.manager = manager or JobManager(self.config)
        self._server: Optional[asyncio.base_events.Server] = None
        #: The actually-bound port (differs from config when it asked for 0).
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, then drain the manager."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: self.manager.close(drain=drain))

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, path, body = request
                await self._route(method, path, body, writer)
        except _RefusedBody as refused:
            await self._send_json(
                writer,
                refused.status,
                {"error": "InvalidRequest", "detail": str(refused)},
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # already torn down

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return None
        parts = request_line.split()
        if len(parts) != 3:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = _content_length(headers.get("content-length", ""))
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path, _, query = path.partition("?")
        try:
            if path == "/v1/optimize" and method == "POST":
                await self._post_optimize(body, writer)
            elif path == "/v1/healthz" and method == "GET":
                await self._send_json(writer, 200, {"status": "ok"})
            elif path == "/v1/stats" and method == "GET":
                await self._send_json(writer, 200, self.manager.stats())
            elif path.startswith("/v1/jobs/") and method == "GET":
                await self._get_job(path, query, writer)
            elif path in ("/v1/optimize", "/v1/stats", "/v1/healthz") or (
                path.startswith("/v1/jobs/")
            ):
                await self._send_json(
                    writer,
                    405,
                    {"error": "InvalidRequest", "detail": f"{method} not allowed"},
                )
            else:
                await self._send_json(
                    writer, 404, {"error": "JobNotFound", "detail": f"no route {path}"}
                )
        except ServiceError as error:
            headers = (
                {"Retry-After": "1"} if error.http_status == 429 else None
            )
            await self._send_json(
                writer,
                error.http_status,
                {"error": type(error).__name__, "detail": str(error)},
                extra_headers=headers,
            )

    # -- routes --------------------------------------------------------------

    async def _post_optimize(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        qasm, overrides = _parse_optimize_body(body)
        loop = asyncio.get_running_loop()
        job = await loop.run_in_executor(
            None, lambda: self.manager.submit(qasm, overrides)
        )
        await self._send_json(writer, 200, {"job_id": job.id, **job.as_dict()})

    async def _get_job(
        self, path: str, query: str, writer: asyncio.StreamWriter
    ) -> None:
        remainder = path[len("/v1/jobs/") :]
        job_id, _, tail = remainder.partition("/")
        job = self.manager.get(job_id)  # raises JobNotFound -> 404
        if tail:
            raise InvalidRequest(f"unknown job sub-resource {tail!r}")
        wait = _parse_wait(query)
        if wait and not job.finished:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, lambda: job.wait(wait))
        record = job.as_dict()
        record["service"] = self.manager.stats()
        status = 500 if job.status == "failed" else 200
        await self._send_json(writer, status, record)

    @staticmethod
    async def _send_json(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


class _RefusedBody(Exception):
    """A request body refused from its ``Content-Length`` alone (never read)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


def _content_length(value: str) -> int:
    """The declared body length: digits only, at most :data:`MAX_BODY_BYTES`.

    Raises :class:`_RefusedBody` with 400 for a malformed or negative value
    and with 413 for a body too large to read.
    """
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _RefusedBody(400, f"malformed Content-Length {value!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise _RefusedBody(413, "body too large")
    return length


def _parse_optimize_body(body: bytes) -> Tuple[str, Optional[Dict[str, Any]]]:
    """Accept ``{"qasm": ..., "config": {...}}`` JSON or raw QASM text."""
    text = body.decode("utf-8", errors="replace").strip()
    if not text:
        raise InvalidRequest("empty request body")
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise InvalidRequest(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict) or "qasm" not in payload:
            raise InvalidRequest('JSON body must be {"qasm": ..., "config": {...}}')
        overrides = payload.get("config")
        if overrides is not None and not isinstance(overrides, dict):
            raise InvalidRequest('"config" must be an object')
        return str(payload["qasm"]), overrides
    return text, None


def _parse_wait(query: str) -> float:
    """``wait=<seconds>`` from a query string (absent/invalid -> 0)."""
    for part in query.split("&"):
        name, _, value = part.partition("=")
        if name == "wait":
            try:
                return min(max(float(value), 0.0), MAX_WAIT_SECONDS)
            except ValueError:
                raise InvalidRequest(f"bad wait value {value!r}") from None
    return 0.0
