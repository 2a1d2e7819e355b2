"""Stdlib HTTP client for the sweep service, plus the CI scripted session.

:class:`ServiceClient` wraps :mod:`http.client` with the service's JSON
conventions (``X-Client-Id``, api-versioned envelopes) and an SSE reader
so callers wait for sweep completion *event-driven* -- the stream ends at
the job's terminal event, no polling loops, no sleeps.

``python -m repro.service.client`` runs the scripted session the CI
service-smoke step drives: health check, submit, stream to completion,
fetch the report bytes, submit-and-cancel a second sweep, metrics -- and
writes a JSONL transcript of every exchange for the uploaded artifact.
"""

from __future__ import annotations

import argparse
import http.client
import json
import socket
import sys
import time
from pathlib import Path

from repro.service import schemas

#: Terminal job states (mirrors repro.service.service without importing
#: the engine -- the client must stay usable against a remote service).
_TERMINAL = {"done", "failed", "cancelled"}


class ServiceError(RuntimeError):
    """A non-2xx response; carries the HTTP status and the error body."""

    def __init__(self, status: int, body) -> None:
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class ServiceClient:
    """One client identity talking to one service host/port."""

    def __init__(self, host: str, port: int, client_id: str = "anonymous",
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def request(self, method: str, path: str, payload: dict | None = None,
                raw: bool = False):
        """One request/response; JSON-decoded body (or raw bytes)."""
        connection = self._connection()
        try:
            body = None
            headers = {"X-Client-Id": self.client_id}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        if response.status >= 400:
            try:
                raise ServiceError(response.status, json.loads(data))
            except json.JSONDecodeError:
                raise ServiceError(response.status, data.decode(errors="replace"))
        return data if raw else json.loads(data)

    # -- endpoint helpers -----------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/health")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def submit(self, spec_dict: dict, faults: dict | None = None) -> dict:
        payload = {"api": schemas.API_VERSION, "spec": spec_dict}
        if faults is not None:
            payload["faults"] = faults
        return self.request("POST", "/sweeps", payload)["sweep"]

    def status(self, sweep_id: str) -> dict:
        return self.request("GET", f"/sweeps/{sweep_id}")["sweep"]

    def cancel(self, sweep_id: str) -> dict:
        return self.request("DELETE", f"/sweeps/{sweep_id}")["sweep"]

    def report_bytes(self, sweep_id: str) -> bytes:
        return self.request("GET", f"/sweeps/{sweep_id}/report", raw=True)

    def results(self, **filters) -> dict:
        query = "&".join(f"{name}={value}" for name, value in filters.items()
                         if value is not None)
        return self.request("GET", "/results" + (f"?{query}" if query else ""))

    def stream(self, sweep_id: str, start: int = 0):
        """Yield the job's SSE events from ``start``; returns at the terminal
        event (the server closes the stream)."""
        connection = self._connection()
        try:
            connection.request("GET", f"/sweeps/{sweep_id}?stream=1&from={start}",
                               headers={"X-Client-Id": self.client_id,
                                        "Accept": "text/event-stream"})
            response = connection.getresponse()
            if response.status != 200:
                raise ServiceError(response.status,
                                   response.read().decode(errors="replace"))
            for line in response:
                line = line.strip()
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):])
        finally:
            connection.close()

    def wait(self, sweep_id: str, deadline_seconds: float = 300.0) -> dict:
        """Block (event-driven, via SSE) until the sweep is terminal.

        A terminal-looking event is confirmed against ``GET /sweeps/{id}``
        before returning: the runner's own drain path logs
        ``sweep_cancelled`` momentarily *before* the service marks the job
        terminal, so the stream resumes until the state agrees.  The
        deadline is a failsafe against a server that stops mid-stream.
        """
        deadline = time.monotonic() + deadline_seconds
        start = 0
        while True:
            for event in self.stream(sweep_id, start=start):
                start = event["seq"] + 1
                if event.get("event", "").startswith("sweep_") \
                        and event["event"][len("sweep_"):] in _TERMINAL:
                    status = self.status(sweep_id)
                    if status["state"] in _TERMINAL:
                        return status
            status = self.status(sweep_id)
            if status["state"] in _TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {sweep_id} not terminal after {deadline_seconds}s")

    def wait_ready(self, deadline_seconds: float = 30.0) -> dict:
        """Retry ``/health`` until the server accepts connections.

        Startup handshake for scripted sessions launching ``repro serve``
        as a separate process (in-process callers use
        :meth:`~repro.service.server.ServiceServer.start`, which is
        already event-driven).
        """
        deadline = time.monotonic() + deadline_seconds
        while True:
            try:
                return self.health()
            except (ConnectionError, socket.timeout, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)


# -- the CI scripted session ---------------------------------------------------------


def _spec_from_args(args: argparse.Namespace) -> dict:
    spec = {"schemes": args.schemes.split(","),
            "workloads": args.workloads.split(","),
            "max_ops": args.max_ops, "seed": args.seed}
    return spec


def main(argv: list[str] | None = None) -> int:
    """Scripted session: health -> submit -> stream -> report -> cancel -> metrics."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="scripted client session against a running repro service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--schemes", default="isrb")
    parser.add_argument("--workloads", default="move_chain,spill_reload")
    parser.add_argument("--max-ops", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="inject deterministic faults into the submitted "
                             "sweep (the service-path chaos case)")
    parser.add_argument("--fault-rate", type=float, default=1.0)
    parser.add_argument("--report-out", default=None, metavar="SWEEP.json",
                        help="write the finished sweep's report bytes here")
    parser.add_argument("--transcript", default=None, metavar="OUT.jsonl",
                        help="append one JSON line per exchange")
    args = parser.parse_args(argv)

    transcript: list[dict] = []

    def record(step: str, payload) -> None:
        transcript.append({"step": step, "payload": payload})
        print(f"client: {step}", file=sys.stderr)

    def save_transcript() -> None:
        if args.transcript:
            Path(args.transcript).write_text(
                "".join(json.dumps(entry, sort_keys=True, default=str) + "\n"
                        for entry in transcript))

    client = ServiceClient(args.host, args.port, client_id="ci-session")
    try:
        record("health", client.wait_ready())
        faults = None
        if args.fault_seed is not None:
            faults = {"seed": args.fault_seed, "rate": args.fault_rate}
        sweep = client.submit(_spec_from_args(args), faults=faults)
        record("submit", sweep)
        status = client.wait(sweep["id"])
        record("wait", status)
        if status["state"] != "done":
            print(f"error: sweep ended {status['state']}: {status['error']}",
                  file=sys.stderr)
            save_transcript()
            return 1
        report = client.report_bytes(sweep["id"])
        record("report", {"bytes": len(report)})
        if args.report_out:
            Path(args.report_out).write_bytes(report)
        rows = client.results(workload=args.workloads.split(",")[0])
        record("results", {"count": rows["count"]})
        if rows["count"] == 0:
            print("error: /results returned no rows for a finished sweep",
                  file=sys.stderr)
            save_transcript()
            return 1
        # Second job: submit then cancel straight away; a cancelled job
        # must free its queue slot (asserted against /metrics below).
        second = client.submit(_spec_from_args(args))
        record("submit_second", second)
        cancelled = client.cancel(second["id"])
        record("cancel", cancelled)
        final = client.wait(second["id"])
        record("cancel_final", final)
        if final["state"] not in ("cancelled", "done"):
            print(f"error: cancelled sweep ended {final['state']}",
                  file=sys.stderr)
            save_transcript()
            return 1
        # Both of this session's jobs are terminal, so the service-wide
        # active gauge must read 0: at once when this session runs alone,
        # once their jobs end when other sessions share the service.
        idle_deadline = time.monotonic() + 60.0
        while True:
            metrics = client.metrics()
            active = [metric for metric in metrics["metrics"]["metrics"]
                      if metric["name"] == "service_jobs_active"]
            if not active or active[0]["value"] == 0 \
                    or time.monotonic() >= idle_deadline:
                break
            time.sleep(0.2)
        record("metrics", metrics)
        names = {metric["name"] for metric in metrics["metrics"]["metrics"]}
        if "service_sweeps_submitted_total" not in names:
            print("error: metrics snapshot is missing service counters",
                  file=sys.stderr)
            save_transcript()
            return 1
        if active and active[0]["value"] != 0:
            print(f"error: {active[0]['value']} job(s) still active after the "
                  "session (cancel did not free its slot)", file=sys.stderr)
            save_transcript()
            return 1
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        save_transcript()
        return 1
    save_transcript()
    print("client session: every step passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
