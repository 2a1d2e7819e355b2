"""HTTP/1.1 front-end over :class:`SweepService`, on :mod:`http.server`.

A :class:`~http.server.ThreadingHTTPServer` serves each connection on its
own daemon thread, so a blocking call (an SSE wait, a store query) holds
up only its own client; :class:`SweepService` locks what requests share.

Routes (all JSON, ``api``-versioned; see :mod:`repro.service.schemas`)::

    GET    /health              liveness + version
    GET    /metrics             MetricsRegistry snapshot
    POST   /sweeps              submit a sweep (202) -- 400/429/503 on reject
    GET    /sweeps              every retained job's status snapshot
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

Connections stay open unless the client sends ``Connection: close``.
:mod:`http.server` reads the request head: at most 65,536 bytes a line
and 100 header lines.  Bodies are capped at
:data:`~repro.service.schemas.MAX_BODY_BYTES`.  Malformed HTTP gets a
JSON 400 ``bad_request``, and the connection is closed.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import repro
from repro.service import schemas
from repro.service.service import (QueueFull, QuotaExceeded, SweepService,
                                   UnknownJob)

#: How often the accept loop looks for :meth:`ServiceServer.stop` and an
#: SSE stream for a stopping server; an event wakes a stream at once.
_POLL_SECONDS = 0.05


def _json(status: int, payload: dict) -> tuple[int, bytes]:
    return status, (json.dumps(payload, sort_keys=True) + "\n").encode()


def _error(status: int, code: str, message: str) -> tuple[int, bytes]:
    return _json(status, schemas.error_body(code, message))


class _Server(ThreadingHTTPServer):
    """The listening socket, with what every connection's handler reads."""

    # The accept queue: with http.server's 5, a burst of new connections
    # overflows it and waits out a 1 s SYN retransmit.
    request_queue_size = 100

    def __init__(self, address: tuple[str, int],
                 service: SweepService) -> None:
        self.service = service
        self.stopping = False
        if ":" in address[0]:  # an IPv6 host such as ::1
            self.address_family = socket.AF_INET6
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    """One connection: reads each request and routes it to the service."""

    server: _Server
    protocol_version = "HTTP/1.1"          # keep-alive by Content-Length
    default_request_version = "HTTP/1.1"   # a bare line still gets "HTTP/1.1 400"
    # The head and the body are two writes; with Nagle's algorithm on, the
    # client's delayed ACK would hold the body back by about 40 ms.
    disable_nagle_algorithm = True

    def __getattr__(self, name: str):
        # Every method reaches the router, which answers 405 where a route
        # does not serve it (http.server would answer 501).
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    def handle(self) -> None:
        with contextlib.suppress(ConnectionError):  # the client went away
            super().handle()

    def log_message(self, format: str, *args) -> None:
        """Silent: the service reports through its metrics, not an access log."""

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Malformed HTTP: a JSON 400 ``bad_request``, then close."""
        self.close_connection = True
        self._send(*_error(400, "bad_request",
                           message or f"malformed request ({code})"))

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self) -> None:
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            self.send_error(400, "malformed Content-Length")
            return
        if int(length) > schemas.MAX_BODY_BYTES:
            self.send_error(400, "request body too large")
            return
        body = self.rfile.read(int(length))
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        query = {name: values[-1]
                 for name, values in parse_qs(url.query).items()}
        self.server.service.metrics.inc(
            "service_requests_total", labels={"route": f"{self.command} {path}"})
        try:
            response = self._route(path, query, body)
        except (QuotaExceeded, QueueFull) as exc:
            status = 429 if isinstance(exc, QuotaExceeded) else 503
            response = _error(status, exc.code, str(exc))
        except UnknownJob as exc:
            response = _error(404, exc.code, str(exc))
        except schemas.SchemaError as exc:
            response = _error(400, exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive surface
            response = _error(500, "internal_error",
                              f"{type(exc).__name__}: {exc}")
        if response is not None:  # None: streamed (SSE), connection closes
            self._send(*response)

    # -- routing --------------------------------------------------------------------

    def _route(self, path: str, query: dict,
               body: bytes) -> tuple[int, bytes] | None:
        method = self.command
        service = self.server.service
        client = self.headers.get("X-Client-Id", "anonymous")
        if path == "/health":
            if method != "GET":
                return self._method_not_allowed(path)
            return _json(200, schemas.envelope(status="ok",
                                               version=repro.__version__))
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed(path)
            return _json(200, schemas.envelope(
                metrics=service.metrics_snapshot()))
        if path == "/results":
            if method != "GET":
                return self._method_not_allowed(path)
            return self._get_results(query)
        if path == "/sweeps":
            if method == "POST":
                spec, fault_plan = schemas.parse_submission(body)
                job = service.submit(spec, client=client,
                                     fault_plan=fault_plan)
                return _json(202, schemas.envelope(sweep=job.status()))
            if method == "GET":
                return _json(200, schemas.envelope(
                    sweeps=[job.status() for job in service.jobs()]))
            return self._method_not_allowed(path)
        if path.startswith("/sweeps/"):
            rest = path[len("/sweeps/"):]
            job_id, _, tail = rest.partition("/")
            job = service.get(job_id)
            if tail == "report":
                if method != "GET":
                    return self._method_not_allowed(path)
                if job.state != "done" or job.report is None:
                    return _error(
                        409, "not_finished",
                        f"sweep {job.id} is {job.state}; the report exists "
                        f"only once it is done")
                # Raw report bytes: identical to the sweep.json a direct
                # `repro sweep` of the same spec writes (the CI smoke
                # byte-compares the two).
                return 200, (job.report.to_json() + "\n").encode()
            if tail:
                raise UnknownJob(f"no such endpoint /sweeps/{job_id}/{tail}")
            if method == "DELETE":
                job = service.cancel(job_id)
                return _json(200, schemas.envelope(sweep=job.status()))
            if method != "GET":
                return self._method_not_allowed(path)
            if (query.get("stream") == "1"
                    or "text/event-stream" in self.headers.get("Accept", "")):
                self._stream_events(job, query)
                return None
            return _json(200, schemas.envelope(sweep=job.status()))
        return _error(404, "not_found", f"no route for {path}")

    def _method_not_allowed(self, path: str) -> tuple[int, bytes]:
        return _error(405, "method_not_allowed",
                      f"{self.command} is not supported on {path}")

    def _get_results(self, query: dict) -> tuple[int, bytes]:
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
        rows = self.server.service.query_results(
            workload=query.get("workload"), variant=query.get("variant"),
            fingerprint=query.get("fingerprint"), limit=limit)
        return _json(200, schemas.envelope(count=len(rows), results=rows))

    def _stream_events(self, job, query: dict) -> None:
        """SSE: every job event as one ``data:`` frame, ending when terminal.

        The wait wakes on the job's condition variable the moment an event
        is published; its timeout only bounds how long a stopping server
        keeps the stream open.
        """
        try:
            index = int(query.get("from", "0"))
        except ValueError as exc:
            raise schemas.SchemaError("invalid_query",
                                      "from must be an integer") from exc
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        service = self.server.service
        while not self.server.stopping:
            events, index = service.wait_events(job, index, _POLL_SECONDS)
            if events:
                self.wfile.write(b"".join(
                    f"data: {json.dumps(event, sort_keys=True)}\n\n".encode()
                    for event in events))
            with job.cond:
                drained = index >= len(job.events)
            if job.terminal and drained:
                break


class ServiceServer:
    """The HTTP server, served on the calling thread or on a daemon thread."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port once bound
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None

    def _bind(self) -> None:
        self._httpd = _Server((self.host, self.port), self.service)
        self.port = self._httpd.server_address[1]

    def _serve_forever(self) -> None:
        try:
            self._httpd.serve_forever(poll_interval=_POLL_SECONDS)
        finally:
            self._httpd.server_close()

    def serve(self, ready=None) -> None:
        """Bind, then serve on this thread until interrupted (``repro serve``).

        Raises :class:`OSError` if the address cannot be bound; otherwise
        calls ``ready(port)``, if given, once the socket is listening.
        """
        self._bind()
        if ready is not None:
            ready(self.port)
        self._serve_forever()

    def start(self) -> "ServiceServer":
        """Bind, then serve on a daemon thread; returns once the port is bound."""
        self._bind()
        self._thread = threading.Thread(target=self._serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and end open SSE streams, then the service's workers."""
        if self._thread is not None:
            self._httpd.stopping = True
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self.service.shutdown()
