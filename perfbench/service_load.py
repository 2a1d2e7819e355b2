"""The ``service_mix`` load: two closed-loop clients of ``repro serve``.

Each client holds one keep-alive connection.  Per round it POSTs a
sweep, follows the sweep's SSE stream to its terminal event, confirms the
state with ``GET /sweeps/{id}``, then sends its ``GET /results`` queries.
The SSE stream gets its own connection because the server closes it when
the sweep ends.  Only the standard library is used, so the load never
imports the simulator it measures.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlencode

from worker import query_rows

_TERMINAL = ("done", "failed", "cancelled")


class Client:
    """One client identity on one keep-alive connection."""

    def __init__(self, port: int, name: str, timeout: float = 60.0) -> None:
        self.port = port
        self.name = name
        self.timeout = timeout
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=timeout)
        #: ``(route, status, seconds)`` of every request, in order.
        self.requests: list[tuple[str, int, float]] = []

    def call(self, method: str, path: str, route: str,
             payload: dict | None = None) -> tuple[int, dict]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"X-Client-Id": self.name}
        if body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        self.requests.append((route, response.status,
                              time.perf_counter() - start))
        return response.status, json.loads(data) if data else {}

    def stream_until_terminal(self, sweep_id: str, start: int) -> int:
        """Follow the SSE stream from event ``start``; returns the next index."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=self.timeout)
        try:
            connection.request("GET", f"/sweeps/{sweep_id}?stream=1&from={start}",
                               headers={"X-Client-Id": self.name,
                                        "Accept": "text/event-stream"})
            response = connection.getresponse()
            self.requests.append(("GET /sweeps/{id}?stream", response.status, 0.0))
            if response.status != 200:
                response.read()
                return start
            for line in response:
                if line.startswith(b"data: "):
                    event = json.loads(line[len(b"data: "):])
                    start = event["seq"] + 1
                    if event.get("event", "").removeprefix("sweep_") in _TERMINAL:
                        break
        finally:
            connection.close()
        return start

    def close(self) -> None:
        self.connection.close()


def sweep(client: Client, spec: dict) -> dict:
    """POST one sweep and wait until it is terminal; returns what was seen."""
    start = time.perf_counter()
    status, body = client.call("POST", "/sweeps", "POST /sweeps",
                               {"api": 1, "spec": spec})
    if status != 202:
        return {"spec": spec, "state": f"http {status}",
                "seconds": time.perf_counter() - start}
    sweep_id = body["sweep"]["id"]
    index = 0
    state = body["sweep"]
    for _attempt in range(1000):
        index = client.stream_until_terminal(sweep_id, index)
        status, body = client.call("GET", f"/sweeps/{sweep_id}",
                                   "GET /sweeps/{id}")
        if status != 200:
            break
        state = body["sweep"]
        if state["state"] in _TERMINAL:
            break
    return {"spec": spec, "id": sweep_id, "state": state["state"],
            "cells": state["cells"],
            "retries": state["counters"].get("job_retry", 0),
            "seconds": time.perf_counter() - start}


def run_client(client: Client, rounds: list[tuple[dict, list[str]]],
               out: dict, barrier: threading.Barrier,
               turn: threading.Lock) -> None:
    """Closed loop: submit, wait on SSE, confirm, query; one round at a time.

    The round's queries start once every client's sweep of the round has
    ended, and one client queries at a time.  So a query's latency is the
    read path's own cost on the store as it stands, not a wait for the
    interpreter lock behind a sweep thread or another query.
    """
    sweeps = out.setdefault("sweeps", [])
    queries = out.setdefault("queries", [])
    for spec, filters in rounds:
        barrier.wait()
        sweeps.append(sweep(client, spec))
        barrier.wait()
        with turn:
            for workload in filters:
                query = urlencode({"workload": workload, "limit": 50})
                at = time.monotonic()
                status, body = client.call("GET", f"/results?{query}",
                                           "GET /results")
                queries.append({"workload": workload, "status": status, "at": at,
                                "ms": client.requests[-1][2] * 1e3,
                                "rows": query_rows(body.get("results", []))})


def run_load(port: int, plan: dict) -> dict:
    """Run every client of ``plan`` concurrently; returns what they saw.

    ``plan`` maps a client name to its rounds (see ``specs.service_plan``).
    An exception in a client thread is re-raised here, after every thread
    has stopped.
    """
    outputs = {name: {} for name in plan}
    clients = {name: Client(port, name) for name in plan}
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(plan))
    turn = threading.Lock()

    def target(name: str) -> None:
        try:
            run_client(clients[name], plan[name], outputs[name], barrier, turn)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=target, args=(name,), daemon=True)
               for name in plan]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for client in clients.values():
        client.close()
    if errors:
        raise errors[0]
    return {"wall_s": wall,
            "clients": {name: dict(outputs[name],
                                   requests=clients[name].requests)
                        for name in plan}}
