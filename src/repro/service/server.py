"""Hand-rolled asyncio HTTP/1.1 front-end over :class:`SweepService`.

Stdlib only: :func:`asyncio.start_server` plus a small request parser --
no ``http.server``, no third-party framework.  The event loop owns the
sockets; every blocking service call (waiting on job events, querying
the store) is pushed to the default executor so one slow sweep never
stalls another client's request.

Routes (all JSON, ``api``-versioned; see :mod:`repro.service.schemas`)::

    GET    /health              liveness + version
    GET    /metrics             MetricsRegistry snapshot
    POST   /sweeps              submit a sweep (202) -- 400/429/503 on reject
    GET    /sweeps              every job's status snapshot
    GET    /sweeps/{id}         one job's status; ?stream=1 or an
                                ``Accept: text/event-stream`` header
                                upgrades to SSE over the job's RunLogger
                                events (ends at the terminal event)
    GET    /sweeps/{id}/report  the finished sweep.json bytes (409 until done)
    DELETE /sweeps/{id}         cancel (idempotent)
    GET    /results             query the shared results store by
                                ?workload= / ?variant= / ?fingerprint= / ?limit=

Client identity for quota accounting comes from the ``X-Client-Id``
header (default ``anonymous``) -- the isolation boundary is cooperative
quotas, not authentication.

:class:`ServiceServer` runs the loop in a daemon thread with an
event-driven readiness handshake (:meth:`ServiceServer.start` returns
only once the port is bound), which is what both the tests and
``repro serve`` build on.
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import parse_qs, urlsplit

import repro
from repro.service import schemas
from repro.service.service import (QueueFull, QuotaExceeded, SweepService,
                                   UnknownJob)

#: Request-head and body size caps.
_MAX_HEAD_BYTES = 32 * 1024
#: Poll ceiling for one SSE executor wait; purely an upper bound on how
#: long shutdown can lag -- events themselves wake the wait immediately.
_SSE_WAIT_SECONDS = 0.5


class _BadRequest(Exception):
    """Malformed HTTP surfaced as a 400 before routing."""


def _suppress_connection_errors():
    import contextlib

    return contextlib.suppress(ConnectionError, OSError, RuntimeError)


def _response_bytes(status: int, body: bytes, content_type: str,
                    extra: dict | None = None) -> bytes:
    reasons = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 409: "Conflict",
               413: "Payload Too Large", 429: "Too Many Requests",
               500: "Internal Server Error", 503: "Service Unavailable"}
    head = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}"]
    for name, value in (extra or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _json_response(status: int, payload: dict) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _response_bytes(status, body, "application/json")


def _error_response(status: int, code: str, message: str) -> bytes:
    return _json_response(status, schemas.error_body(code, message))


class ServiceServer:
    """The asyncio HTTP server, runnable inline or on a daemon thread."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port once started
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopping = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_async: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ------------------------------------------------------------------

    async def serve(self, ready=None) -> None:
        """Bind and serve until :meth:`stop` (or cancellation).

        ``ready`` is an optional callback invoked with the bound port
        once the socket is listening (the CLI prints its readiness line
        from it).
        """
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        try:
            server = await asyncio.start_server(self._handle_connection,
                                                self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        if ready is not None:
            ready(self.port)
        async with server:
            await self._stop_async.wait()
        self._stopping = True
        # Close lingering keep-alive/SSE connections so their handler
        # tasks exit cleanly before the loop tears down.
        for writer in list(self._writers):
            with _suppress_connection_errors():
                writer.close()
        await asyncio.sleep(0)

    def start(self) -> "ServiceServer":
        """Run :meth:`serve` on a daemon thread; returns once the port is bound."""
        self._thread = threading.Thread(target=lambda: asyncio.run(self.serve()),
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Stop the loop, the thread and the service's worker pool."""
        self._stopping = True
        if self._loop is not None and self._stop_async is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:
                pass  # loop already closed (bind failure or double stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.shutdown()

    # -- connection handling --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while not self._stopping:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    writer.write(_error_response(400, "bad_request", str(exc)))
                    await writer.drain()
                    break
                if request is None:  # client closed the connection
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                streamed = await self._dispatch(method, path, headers, body,
                                                writer)
                if streamed or not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; None on clean EOF, :class:`_BadRequest` on junk."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _BadRequest("truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise _BadRequest("request head too large") from exc
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise _BadRequest("malformed Content-Length") from exc
            if length < 0:
                raise _BadRequest("malformed Content-Length")
            if length > schemas.MAX_BODY_BYTES:
                raise _BadRequest("request body too large")
            body = await reader.readexactly(length)
        return method, path, headers, body

    # -- routing --------------------------------------------------------------------

    async def _dispatch(self, method: str, target: str, headers: dict,
                        body: bytes, writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the response was streamed."""
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {name: values[-1]
                 for name, values in parse_qs(url.query).items()}
        self.service.metrics.inc("service_requests_total",
                                 labels={"route": f"{method} {path}"})
        try:
            response = await self._route(method, path, query, headers, body,
                                         writer)
        except (QuotaExceeded, QueueFull) as exc:
            status = 429 if isinstance(exc, QuotaExceeded) else 503
            response = _error_response(status, exc.code, str(exc))
        except UnknownJob as exc:
            response = _error_response(404, exc.code, str(exc))
        except schemas.SchemaError as exc:
            response = _error_response(400, exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive surface
            response = _error_response(500, "internal_error",
                                       f"{type(exc).__name__}: {exc}")
        if response is None:
            return True  # streamed (SSE); connection closes
        writer.write(response)
        await writer.drain()
        return False

    async def _route(self, method: str, path: str, query: dict,
                     headers: dict, body: bytes,
                     writer: asyncio.StreamWriter) -> bytes | None:
        client = headers.get("x-client-id", "anonymous")
        if path == "/health":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return _json_response(200, schemas.envelope(
                status="ok", version=repro.__version__))
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return _json_response(200, schemas.envelope(
                metrics=self.service.metrics_snapshot()))
        if path == "/results":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return await self._get_results(query)
        if path == "/sweeps":
            if method == "POST":
                spec, fault_plan = schemas.parse_submission(body)
                job = self.service.submit(spec, client=client,
                                          fault_plan=fault_plan)
                return _json_response(202, schemas.envelope(sweep=job.status()))
            if method == "GET":
                return _json_response(200, schemas.envelope(
                    sweeps=[job.status() for job in self.service.jobs()]))
            return self._method_not_allowed(method, path)
        if path.startswith("/sweeps/"):
            rest = path[len("/sweeps/"):]
            job_id, _, tail = rest.partition("/")
            job = self.service.get(job_id)
            if tail == "report":
                if method != "GET":
                    return self._method_not_allowed(method, path)
                if job.state != "done" or job.report is None:
                    return _error_response(
                        409, "not_finished",
                        f"sweep {job.id} is {job.state}; the report exists "
                        f"only once it is done")
                # Raw report bytes: identical to the sweep.json a direct
                # `repro sweep` of the same spec writes (the CI smoke
                # byte-compares the two).
                return _response_bytes(
                    200, (job.report.to_json() + "\n").encode(),
                    "application/json")
            if tail:
                raise UnknownJob(f"no such endpoint /sweeps/{job_id}/{tail}")
            if method == "DELETE":
                job = self.service.cancel(job_id)
                return _json_response(200, schemas.envelope(sweep=job.status()))
            if method != "GET":
                return self._method_not_allowed(method, path)
            wants_stream = (query.get("stream") == "1"
                            or "text/event-stream" in headers.get("accept", ""))
            if wants_stream:
                await self._stream_events(job, query, writer)
                return None
            return _json_response(200, schemas.envelope(sweep=job.status()))
        return _error_response(404, "not_found", f"no route for {path}")

    @staticmethod
    def _method_not_allowed(method: str, path: str) -> bytes:
        return _error_response(405, "method_not_allowed",
                               f"{method} is not supported on {path}")

    async def _get_results(self, query: dict) -> bytes:
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError as exc:
                raise schemas.SchemaError(
                    "invalid_query", "limit must be an integer") from exc
            if limit < 0:
                raise schemas.SchemaError("invalid_query",
                                          "limit must not be negative")
        unknown = sorted(set(query) - {"workload", "variant", "fingerprint",
                                       "limit"})
        if unknown:
            raise schemas.SchemaError("invalid_query",
                                      f"unknown query parameter(s) {unknown}")
        loop = asyncio.get_running_loop()
        rows = await loop.run_in_executor(
            None, lambda: self.service.query_results(
                workload=query.get("workload"), variant=query.get("variant"),
                fingerprint=query.get("fingerprint"), limit=limit))
        return _json_response(200, schemas.envelope(count=len(rows),
                                                    results=rows))

    async def _stream_events(self, job, query: dict,
                             writer: asyncio.StreamWriter) -> None:
        """SSE: every job event as one ``data:`` frame, ending when terminal.

        Event-driven end to end -- the executor wait wakes on the job's
        condition variable the moment an event is published; the bounded
        wait timeout only bounds shutdown latency.
        """
        try:
            index = int(query.get("from", "0"))
        except ValueError as exc:
            raise schemas.SchemaError("invalid_query",
                                      "from must be an integer") from exc
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        loop = asyncio.get_running_loop()
        while not self._stopping:
            events, index = await loop.run_in_executor(
                None, self.service.wait_events, job, index, _SSE_WAIT_SECONDS)
            for event in events:
                frame = f"data: {json.dumps(event, sort_keys=True)}\n\n"
                writer.write(frame.encode())
            if events:
                await writer.drain()
            with job.cond:
                drained = index >= len(job.events)
            if job.terminal and drained:
                break
