"""Asyncio HTTP + SSE front-end for the query service (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio`` streams — no web
framework, no new dependencies — that exposes the
:class:`~repro.service.manager.ServiceManager` over the wire:

====================================  =============================================
``GET  /healthz``                     service status summary (+ metrics snapshot)
``GET  /metrics``                     Prometheus text exposition of the registry
``POST /tenants``                     ``{"name", "quota": {...}}``
``POST /sessions``                    ``{"tenant", "video"?, "hints"?}``
``DELETE /sessions/{id}``             close a session
``POST /sessions/{id}/prepare``       ``{"query", "hints"?}`` -> prepared id + plan
``POST /queries``                     submit; blocking unless ``"wait": false``
``GET  /queries/{id}``                status (+ serialized result when done)
``GET  /queries/{id}/events``         SSE stream of execution events
``DELETE /queries/{id}``              cancel
====================================  =============================================

The SSE stream emits each :class:`~repro.core.events.ExecutionEvent` as::

    id: <index>
    event: <wire_name>
    data: <json payload>

Events are indexed from zero, so a dropped client resumes with
``?from=<n+1>`` or the standard ``Last-Event-ID`` header and misses
nothing.  While the query runs, keep-alive comment lines are written every
``heartbeat_seconds`` — they are how the server notices a vanished client
between events.  By default a client disconnect cancels the query
(cooperatively: the cancellation token reaches every shard worker, the plan
finalises a partial result, and the drainer closes the stream — after which
no detector call can happen).  Pass ``?cancel_on_disconnect=0`` to watch a
query without owning its lifetime, e.g. when resuming.

Manager calls that block (waiting on a result, waiting for the next event)
are pushed onto the default thread-pool executor so the event loop — and
with it every other client's heartbeat — never stalls behind a query.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro import wire
from repro.errors import BlazeItError
from repro.obs.metrics import get_registry
from repro.service.manager import ServiceError, ServiceManager

_MAX_BODY_BYTES = 8 << 20
#: How long a blocking POST /queries waits before returning 504.
_BLOCKING_TIMEOUT = 600.0

_T = TypeVar("_T")


class _HttpError(Exception):
    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class _TextResponse:
    """A non-JSON route response (the Prometheus exposition endpoint)."""

    status: int
    body: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


def _error_payload(exc: BlazeItError) -> tuple[int, dict[str, Any]]:
    """Map library errors to (status, body): service rejections keep their
    HTTP status, anything else the caller sent us is a 400."""
    if isinstance(exc, ServiceError):
        return exc.http_status, {"error": exc.code, "message": str(exc)}
    return 400, {"error": type(exc).__name__, "message": str(exc)}


class QueryServiceApp:
    """HTTP adapter over a :class:`ServiceManager`."""

    def __init__(self, manager: ServiceManager) -> None:
        self.manager = manager

    async def _call(self, fn: Callable[..., _T], *args: Any) -> _T:
        """Run a lock-taking manager call on the default executor.

        Every ``ServiceManager`` entry point acquires the manager lock (and
        ``submit`` additionally plans the query), so none of them may run
        on the event loop directly (RPR004) — a contended lock there would
        stall every client's heartbeat.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn, *args)

    # -- server lifecycle ----------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Run until cancelled; prints the bound address on stdout."""
        server = await asyncio.start_server(self._handle_connection, host, port)
        addr = server.sockets[0].getsockname()
        print(f"query service listening on http://{addr[0]}:{addr[1]}", flush=True)
        async with server:
            await server.serve_forever()

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    handled = await self._dispatch(
                        method, target, headers, body, writer
                    )
                except _HttpError as exc:
                    await self._write_json(
                        writer,
                        exc.status,
                        {"error": exc.code, "message": str(exc)},
                        keep_alive,
                    )
                    continue
                except BlazeItError as exc:
                    status, payload = _error_payload(exc)
                    await self._write_json(writer, status, payload, keep_alive)
                    continue
                if handled == "streamed":
                    return  # SSE responses own the connection and close it
                if isinstance(handled, _TextResponse):
                    await self._write_text(writer, handled, keep_alive)
                    if not keep_alive:
                        return
                    continue
                status, payload = handled
                await self._write_json(writer, status, payload, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(
                400, "bad_request", f"malformed request line {lines[0]!r}"
            ) from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "payload_too_large", f"body of {length} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # -- routing -------------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> tuple[int, dict[str, Any]] | _TextResponse | str:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query_params = parse_qs(url.query)
        payload = self._parse_body(body)

        if parts == ["healthz"] and method == "GET":
            return 200, await self._call(self.manager.status)
        if parts == ["metrics"] and method == "GET":
            # The registry has its own lock (no manager lock, no planning),
            # so rendering inline on the loop is safe and fast.
            return _TextResponse(200, get_registry().render_prometheus())
        if parts == ["tenants"] and method == "POST":
            return 200, await self._create_tenant(payload)
        if parts == ["sessions"] and method == "POST":
            return 200, await self._create_session(payload)
        if len(parts) == 2 and parts[0] == "sessions" and method == "DELETE":
            await self._call(self.manager.close_session, parts[1])
            return 200, {"session_id": parts[1], "closed": True}
        if (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] == "prepare"
            and method == "POST"
        ):
            return 200, await self._call(
                self.manager.prepare,
                parts[1],
                self._required(payload, "query"),
                payload.get("hints"),
            )
        if parts == ["queries"] and method == "POST":
            return await self._submit_query(payload)
        if len(parts) == 2 and parts[0] == "queries":
            if method == "GET":
                record = await self._call(self.manager.query, parts[1])
                return 200, await self._call(record.status)
            if method == "DELETE":
                return 200, await self._call(self.manager.cancel, parts[1])
        if (
            len(parts) == 3
            and parts[0] == "queries"
            and parts[2] == "events"
            and method == "GET"
        ):
            await self._stream_events(writer, parts[1], query_params, headers)
            return "streamed"
        raise _HttpError(
            405 if parts else 404, "no_route", f"no route for {method} {url.path}"
        )

    def _parse_body(self, body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, "bad_json", f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "bad_json", "request body must be a JSON object")
        return payload

    @staticmethod
    def _required(payload: dict[str, Any], key: str) -> Any:
        if key not in payload:
            raise _HttpError(400, "missing_field", f"request needs {key!r}")
        return payload[key]

    # -- handlers ------------------------------------------------------------------

    async def _create_tenant(self, payload: dict[str, Any]) -> dict[str, Any]:
        from repro.service.manager import TenantQuota

        quota = wire.decode(TenantQuota, payload.get("quota") or {})
        return await self._call(
            self.manager.create_tenant, self._required(payload, "name"), quota
        )

    async def _create_session(self, payload: dict[str, Any]) -> dict[str, Any]:
        from repro.service.protocol import hints_from_json

        session_id = await self._call(
            functools.partial(
                self.manager.create_session,
                self._required(payload, "tenant"),
                video=payload.get("video"),
                hints=hints_from_json(payload.get("hints")),
            )
        )
        return {"session_id": session_id}

    async def _submit_query(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        from repro.api.hints import StopConditions

        stop = None
        if payload.get("stop") is not None:
            stop = wire.decode(StopConditions, payload["stop"])
        record = await self._call(
            functools.partial(
                self.manager.submit,
                self._required(payload, "session"),
                query=payload.get("query"),
                prepared_id=payload.get("prepared"),
                hints=payload.get("hints"),
                stop=stop,
                params=payload.get("params"),
            )
        )
        if payload.get("wait", True):
            loop = asyncio.get_running_loop()
            finished = await loop.run_in_executor(
                None, record.done.wait, _BLOCKING_TIMEOUT
            )
            if not finished:
                return 504, {
                    "error": "timeout",
                    "query_id": record.query_id,
                    "message": "query still running; poll GET /queries/{id}",
                }
            return 200, record.status()
        return 202, record.status()

    # -- SSE -----------------------------------------------------------------------

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        query_id: str,
        query_params: dict[str, list[str]],
        headers: dict[str, str],
    ) -> None:
        # NotFoundError propagates to the dispatcher and becomes a 404.
        record = await self._call(self.manager.query, query_id)
        start = 0
        if "last-event-id" in headers:
            start = int(headers["last-event-id"]) + 1
        if "from" in query_params:
            start = int(query_params["from"][0])
        cancel_on_disconnect = query_params.get("cancel_on_disconnect", ["1"])[
            0
        ] not in ("0", "false")

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        loop = asyncio.get_running_loop()
        heartbeat = self.manager.config.heartbeat_seconds
        index = start
        try:
            while True:
                payload = await loop.run_in_executor(
                    None, record.log.wait_for, index, heartbeat
                )
                if payload is not None:
                    data = json.dumps(payload)
                    writer.write(
                        f"id: {index}\nevent: {payload['event']}\n"
                        f"data: {data}\n\n".encode()
                    )
                    await writer.drain()
                    index += 1
                    continue
                if record.log.closed and len(record.log) <= index:
                    # Terminal: tell the client why the stream ended.
                    final = json.dumps({"state": record.state})
                    writer.write(f"event: end\ndata: {final}\n\n".encode())
                    await writer.drain()
                    return
                # No event inside the heartbeat window: write a keep-alive
                # comment.  A vanished client surfaces here as a connection
                # error, which is our disconnect signal.
                writer.write(b": keep-alive\n\n")
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            if cancel_on_disconnect and not record.done.is_set():
                # Propagate the disconnect down to the execution: token set,
                # plan finalises, drainer closes the stream.
                await loop.run_in_executor(None, self.manager.cancel, query_id)
            raise

    # -- responses -----------------------------------------------------------------

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()

    async def _write_text(
        self,
        writer: asyncio.StreamWriter,
        response: _TextResponse,
        keep_alive: bool,
    ) -> None:
        body = response.body.encode()
        head = (
            f"HTTP/1.1 {response.status} "
            f"{_STATUS_TEXT.get(response.status, 'Unknown')}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()


# -- embedding helpers -----------------------------------------------------------------


class ServiceThread:
    """Run a :class:`QueryServiceApp` on a background thread (tests, demos).

    ``with ServiceThread(manager) as svc:`` binds an ephemeral port, serves
    until the block exits, then stops the loop and shuts the manager down.
    The bound port is available as ``svc.port`` once ``__enter__`` returns.
    """

    def __init__(
        self, manager: ServiceManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def __enter__(self) -> ServiceThread:
        self._thread = threading.Thread(
            target=self._run, name="query-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(10.0):
            raise RuntimeError("query service failed to start within 10s")
        return self

    def _run(self) -> None:
        app = QueryServiceApp(self.manager)
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            server = await asyncio.start_server(
                app._handle_connection, self.host, self.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._started.set()
            async with server:
                await server.serve_forever()

        try:
            loop.run_until_complete(_main())
        except asyncio.CancelledError:
            pass
        finally:
            # Let cancelled connection handlers unwind before the loop dies.
            pending = asyncio.all_tasks(loop)
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: [t.cancel() for t in asyncio.all_tasks(self._loop)]
            )
        if self._thread is not None:
            self._thread.join(10.0)
        self.manager.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


__all__ = ["QueryServiceApp", "ServiceThread"]
