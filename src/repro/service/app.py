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

The event loop never blocks, by construction: the coroutines here only read
requests and write bytes.  Everything else — every manager call, every
record or event-log read, body decoding and response encoding — happens in
plain synchronous methods that the loop runs on the default executor: one
:meth:`QueryServiceApp._route` call per request, one
:meth:`QueryServiceApp._next_frames` call per batch of SSE frames (every
event logged since the last write, each serialized once by the drainer,
goes out in one write), and one
:meth:`QueryServiceApp._cancel_unfinished` call when a stream's client
vanishes.  A contended manager lock therefore stalls only the requests that
need it, never another client's heartbeat.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro import wire
from repro.api.hints import StopConditions
from repro.errors import BlazeItError
from repro.obs.metrics import get_registry
from repro.service.manager import (
    QueryRecord,
    ServiceError,
    ServiceManager,
    TenantQuota,
)
from repro.service.protocol import hints_from_json

_MAX_BODY_BYTES = 8 << 20
#: The longest request head read (the stream reader's limit); a longer one
#: is answered 431.
_MAX_HEAD_BYTES = 1 << 16
#: How long a blocking POST /queries waits before returning 504.
_BLOCKING_TIMEOUT = 600.0
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class _Response:
    """A complete, already-encoded response body."""

    status: int
    body: bytes
    content_type: str = "application/json"


def _json_response(status: int, payload: dict[str, Any]) -> _Response:
    return _Response(status, json.dumps(payload).encode())


def _status_response(status: int, record: QueryRecord) -> _Response:
    return _Response(status, record.status_json().encode())


@dataclass(frozen=True)
class _EventStream:
    """What the SSE route resolves to: the record and where to start reading."""

    record: QueryRecord
    start: int
    cancel_on_disconnect: bool


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

    # -- server lifecycle ----------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """Run until cancelled; prints the bound address on stdout."""
        server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_MAX_HEAD_BYTES
        )
        addr = server.sockets[0].getsockname()
        print(f"query service listening on http://{addr[0]}:{addr[1]}", flush=True)
        async with server:
            await server.serve_forever()

    # -- connection handling (on the loop) -----------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                # A request whose head cannot be read is answered like any
                # other rejected one, then the connection closes: what
                # follows such a head cannot be trusted to start a request.
                keep_alive = False
                response: _Response | _EventStream
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        return
                    method, target, headers, body = request
                    keep_alive = headers.get("connection", "").lower() != "close"
                    response = await loop.run_in_executor(
                        None, self._route, method, target, headers, body
                    )
                except _HttpError as exc:
                    response = _json_response(
                        exc.status, {"error": exc.code, "message": str(exc)}
                    )
                except BlazeItError as exc:
                    response = _json_response(*_error_payload(exc))
                if isinstance(response, _EventStream):
                    await self._stream_events(writer, response)
                    return  # SSE responses own the connection and close it
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    return
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            # Server shutdown cancels an idle handler inside ``readuntil``.
            # It ends like a closed connection: a handler task that ends
            # cancelled makes the stream protocol's done-callback raise.
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(
                431,
                "request_header_fields_too_large",
                f"request head over {_MAX_HEAD_BYTES} bytes",
            ) from None
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
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _HttpError(
                400, "bad_request", f"malformed Content-Length {declared!r}"
            )
        length = int(declared)
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "payload_too_large", f"body of {length} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: _Response, keep_alive: bool
    ) -> None:
        head = (
            f"HTTP/1.1 {response.status} "
            f"{_STATUS_TEXT.get(response.status, 'Unknown')}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode()
        writer.write(head + response.body)
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, stream: _EventStream
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        index: int | None = stream.start
        try:
            while index is not None:
                frames, index = await loop.run_in_executor(
                    None, self._next_frames, stream.record, index
                )
                # A vanished client surfaces here as a connection error,
                # which is our disconnect signal.
                writer.write(frames)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            if stream.cancel_on_disconnect:
                await loop.run_in_executor(
                    None, self._cancel_unfinished, stream.record
                )
            raise

    # -- routes (on an executor thread) --------------------------------------------

    def _route(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> _Response | _EventStream:
        """Answer one request; runs on an executor thread, never on the loop.

        Library errors propagate and become their HTTP status; the SSE route
        resolves its record here and returns an :class:`_EventStream` for
        the loop to pump.
        """
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        payload = self._parse_body(body)
        manager = self.manager

        if parts == ["healthz"] and method == "GET":
            return _json_response(200, manager.status())
        if parts == ["metrics"] and method == "GET":
            return _Response(
                200,
                get_registry().render_prometheus().encode(),
                _PROMETHEUS_CONTENT_TYPE,
            )
        if parts == ["tenants"] and method == "POST":
            quota = wire.decode(TenantQuota, payload.get("quota") or {})
            return _json_response(
                200, manager.create_tenant(self._required(payload, "name"), quota)
            )
        if parts == ["sessions"] and method == "POST":
            session_id = manager.create_session(
                self._required(payload, "tenant"),
                video=payload.get("video"),
                hints=hints_from_json(payload.get("hints")),
            )
            return _json_response(200, {"session_id": session_id})
        if len(parts) == 2 and parts[0] == "sessions" and method == "DELETE":
            manager.close_session(parts[1])
            return _json_response(200, {"session_id": parts[1], "closed": True})
        if (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] == "prepare"
            and method == "POST"
        ):
            return _json_response(
                200,
                manager.prepare(
                    parts[1], self._required(payload, "query"), payload.get("hints")
                ),
            )
        if parts == ["queries"] and method == "POST":
            return self._submit_query(payload)
        if len(parts) == 2 and parts[0] == "queries":
            if method == "GET":
                return _status_response(200, manager.query(parts[1]))
            if method == "DELETE":
                return _status_response(200, manager.cancel(parts[1]))
        if (
            len(parts) == 3
            and parts[0] == "queries"
            and parts[2] == "events"
            and method == "GET"
        ):
            return self._open_stream(parts[1], parse_qs(url.query), headers)
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

    def _submit_query(self, payload: dict[str, Any]) -> _Response:
        stop = None
        if payload.get("stop") is not None:
            stop = wire.decode(StopConditions, payload["stop"])
        record = self.manager.submit(
            self._required(payload, "session"),
            query=payload.get("query"),
            prepared_id=payload.get("prepared"),
            hints=payload.get("hints"),
            stop=stop,
            params=payload.get("params"),
        )
        if not payload.get("wait", True):
            return _status_response(202, record)
        if not record.done.wait(_BLOCKING_TIMEOUT):
            return _json_response(
                504,
                {
                    "error": "timeout",
                    "query_id": record.query_id,
                    "message": "query still running; poll GET /queries/{id}",
                },
            )
        return _status_response(200, record)

    def _open_stream(
        self,
        query_id: str,
        query_params: dict[str, list[str]],
        headers: dict[str, str],
    ) -> _EventStream:
        # NotFoundError propagates and becomes a 404.
        record = self.manager.query(query_id)
        start = 0
        if "last-event-id" in headers:
            start = int(headers["last-event-id"]) + 1
        if "from" in query_params:
            start = int(query_params["from"][0])
        cancel_on_disconnect = query_params.get("cancel_on_disconnect", ["1"])[
            0
        ] not in ("0", "false")
        return _EventStream(record, start, cancel_on_disconnect)

    def _next_frames(self, record: QueryRecord, index: int) -> tuple[bytes, int | None]:
        """Wait up to one heartbeat for event ``index``; return the SSE bytes
        to write and the next index to read (``None`` once the stream ended).

        The bytes are every event logged from ``index`` on, one frame each
        around the JSON text the drainer serialized; or the terminal ``end``
        marker (telling the client why the stream ended); or a keep-alive
        comment when the heartbeat window passed without an event.
        """
        log = record.log
        if log.wait_for(index, self.manager.config.heartbeat_seconds) is not None:
            events = log.snapshot(index)
            frames = "".join(
                f"id: {i}\nevent: {event.event}\ndata: {event.data}\n\n"
                for i, event in enumerate(events, index)
            )
            return frames.encode(), index + len(events)
        if log.closed and len(log) <= index:
            final = json.dumps({"state": record.state})
            return f"event: end\ndata: {final}\n\n".encode(), None
        return b": keep-alive\n\n", index

    def _cancel_unfinished(self, record: QueryRecord) -> None:
        """Propagate a client disconnect down to the execution: token set,
        plan finalises, drainer closes the stream."""
        if not record.done.is_set():
            self.manager.cancel(record.query_id)


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
                app._handle_connection, self.host, self.port, limit=_MAX_HEAD_BYTES
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
