"""Contract, concurrency and chaos tests for the sweep service.

The suite runs the real ``http.server`` front-end in-process on an
ephemeral port (``start`` returns once it is bound, no sleeps) and drives
it with the stdlib :class:`~repro.service.client.ServiceClient`.  The
acceptance properties pinned here:

* every endpoint answers its documented success / 4xx shapes, rejects
  unknown schema versions and malformed JSON, and survives raw protocol
  junk;
* one keep-alive connection carries many prompt requests, and ``repro
  serve`` exits 130 on SIGINT with a connection still open;
* the service keeps a bounded number of finished jobs;
* two concurrent clients requesting overlapping grids both complete and
  the shared store records each unique cell exactly once (dedup under
  contention via the lease machinery);
* a repeat of an already-served sweep is answered entirely from the
  store -- zero cells simulated, asserted via RunLogger counters;
* a cancelled sweep frees its queue slot and releases its leases
  (cancellation rides the runner's Ctrl-C drain path);
* a fault-injected submission survives via retries and its report is
  byte-identical to the fault-free artifact.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import run_sweep
from repro.experiments.scheduler import RetryPolicy
from repro.paper.store import ResultsStore
from repro.service import schemas
from repro.service import service as service_module
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer
from repro.service.service import SweepService

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


# -- fixtures ------------------------------------------------------------------------


@pytest.fixture()
def make_server(tmp_path):
    """Factory for an in-process server over a tmp store; stops them all."""
    servers = []

    def build(**kwargs):
        kwargs.setdefault("fsync", False)
        kwargs.setdefault("retry", FAST_RETRY)
        service = SweepService(tmp_path / "results.jsonl", **kwargs)
        server = ServiceServer(service).start()
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.stop()


@pytest.fixture()
def server(make_server):
    return make_server(max_concurrent=4, quota=4, queue_limit=8)


def client_for(server: ServiceServer, client_id: str = "tester") -> ServiceClient:
    return ServiceClient("127.0.0.1", server.port, client_id=client_id,
                         timeout=60.0)


@pytest.fixture(scope="module")
def chaos_reference(chaos_spec):
    """The fault-free sweep.json bytes for the chaos grid."""
    return (run_sweep(chaos_spec, cache_dir=None).to_json() + "\n").encode()


def submission(spec, faults=None) -> dict:
    payload = {"api": schemas.API_VERSION, "spec": schemas.spec_to_dict(spec)}
    if faults is not None:
        payload["faults"] = faults
    return payload


# -- schema unit tests (no server) ---------------------------------------------------


def test_spec_round_trips_through_the_wire_format(chaos_spec, small_spec):
    for spec in (chaos_spec, small_spec):
        assert schemas.spec_from_dict(schemas.spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_unknowns_types_and_bad_values():
    with pytest.raises(schemas.SchemaError) as err:
        schemas.spec_from_dict({"max_opss": 1})
    assert err.value.code == "unknown_field"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.spec_from_dict({"max_ops": "many"})
    assert err.value.code == "invalid_field"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.spec_from_dict({"max_ops": True})  # bool is not an int here
    assert err.value.code == "invalid_field"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.spec_from_dict({"max_ops": -1})  # SweepSpec's own validation
    assert err.value.code == "invalid_spec"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.spec_from_dict([1, 2])
    assert err.value.code == "invalid_spec"


def test_parse_submission_envelope_versioning_and_faults(chaos_spec):
    body = json.dumps(submission(chaos_spec, faults={"seed": 3})).encode()
    spec, plan = schemas.parse_submission(body)
    assert spec == chaos_spec and plan.seed == 3

    with pytest.raises(schemas.SchemaError) as err:
        schemas.parse_submission(b"{not json")
    assert err.value.code == "malformed_json"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.parse_submission(json.dumps(
            {"api": 99, "spec": {}}).encode())
    assert err.value.code == "unsupported_api_version"
    with pytest.raises(schemas.SchemaError) as err:
        schemas.parse_submission(json.dumps(
            {"api": 1, "spec": {}, "faults": {"rate": 1.0}}).encode())
    assert err.value.code == "invalid_faults"  # seed is mandatory


# -- endpoint contract: success shapes -----------------------------------------------


def test_health_and_metrics_endpoints(server):
    client = client_for(server)
    health = client.health()
    assert health["api"] == schemas.API_VERSION
    assert health["status"] == "ok" and "version" in health
    metrics = client.metrics()["metrics"]
    assert metrics["schema"] == 1
    names = {metric["name"] for metric in metrics["metrics"]}
    assert "service_requests_total" in names
    assert "service_jobs_active" in names


def test_submit_stream_status_report_and_results(server, tiny_spec):
    client = client_for(server)
    # Read before any record exists: the same long-lived reader must pick
    # up the sweep's records below.
    assert client.results()["count"] == 0
    sweep = client.submit(schemas.spec_to_dict(tiny_spec))
    assert sweep["id"].startswith("sweep-")
    assert sweep["state"] in ("queued", "running")
    assert sweep["cells"]["total"] == tiny_spec.job_count()

    # The report 409s until the job is done...
    try:
        client.report_bytes(sweep["id"])
    except ServiceError as err:
        assert err.status == 409 and err.body["error"]["code"] == "not_finished"
    status = client.wait(sweep["id"])
    assert status["state"] == "done"
    assert status["cells"]["done"] == tiny_spec.job_count()

    # ...then serves bytes identical to a direct run's sweep.json.
    expected = (run_sweep(tiny_spec, cache_dir=None).to_json() + "\n").encode()
    assert client.report_bytes(sweep["id"]) == expected

    # The SSE stream is replayable from any offset, frames carry seqs.
    events = list(client.stream(sweep["id"], start=0))
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert events[-1]["event"] == "sweep_done"
    tail = list(client.stream(sweep["id"], start=len(events) - 1))
    assert tail == events[-1:]

    # The store answers queries for the finished cells.
    rows = client.results(workload=tiny_spec.workloads[0])
    assert rows["count"] == tiny_spec.job_count()
    assert all(row["workload"] == tiny_spec.workloads[0]
               for row in rows["results"])
    assert client.results(workload="no_such_workload")["count"] == 0
    assert client.results(limit=1)["count"] == 1
    assert client.results(limit=0)["count"] == 0
    # Fingerprint prefixes select exactly the cells of that machine config.
    fp = rows["results"][0]["config"]
    narrowed = client.results(fingerprint=fp[:6])
    assert narrowed["count"] >= 1
    assert all(row["config"].startswith(fp[:6])
               for row in narrowed["results"])

    # GET /sweeps lists the job.
    listing = client.request("GET", "/sweeps")["sweeps"]
    assert sweep["id"] in {entry["id"] for entry in listing}


# -- endpoint contract: the 4xx surface ----------------------------------------------


def expect_error(client, method, path, status, code, payload=None):
    with pytest.raises(ServiceError) as err:
        client.request(method, path, payload=payload)
    assert err.value.status == status
    assert err.value.body["error"]["code"] == code


def test_error_contract_per_endpoint(server, tiny_spec):
    client = client_for(server)
    spec_dict = schemas.spec_to_dict(tiny_spec)
    # Unknown routes and jobs.
    expect_error(client, "GET", "/nope", 404, "not_found")
    expect_error(client, "GET", "/sweeps/sweep-9999", 404, "unknown_job")
    expect_error(client, "DELETE", "/sweeps/sweep-9999", 404, "unknown_job")
    expect_error(client, "GET", "/sweeps/sweep-9999/report", 404, "unknown_job")
    # Wrong methods.
    expect_error(client, "POST", "/health", 405, "method_not_allowed")
    expect_error(client, "DELETE", "/metrics", 405, "method_not_allowed")
    expect_error(client, "PUT", "/sweeps", 405, "method_not_allowed")
    expect_error(client, "OPTIONS", "/health", 405, "method_not_allowed")
    expect_error(client, "POST", "/results", 405, "method_not_allowed",
                 payload={})
    # Schema rejections.
    expect_error(client, "POST", "/sweeps", 400, "unsupported_api_version",
                 payload={"api": 99, "spec": spec_dict})
    expect_error(client, "POST", "/sweeps", 400, "unknown_field",
                 payload={"api": 1, "spec": dict(spec_dict, max_opss=1)})
    expect_error(client, "POST", "/sweeps", 400, "invalid_faults",
                 payload={"api": 1, "spec": spec_dict,
                          "faults": {"seed": 1, "kinds": ["explode"]}})
    # Query validation on /results.
    expect_error(client, "GET", "/results?bogus=1", 400, "invalid_query")
    expect_error(client, "GET", "/results?limit=lots", 400, "invalid_query")
    expect_error(client, "GET", "/results?limit=-1", 400, "invalid_query")
    # A finished job's nested junk path.
    sweep = client.submit(spec_dict)
    client.wait(sweep["id"])
    expect_error(client, "GET", f"/sweeps/{sweep['id']}/bogus", 404,
                 "unknown_job")


def raw_exchange(port: int, data: bytes) -> bytes:
    """One raw-socket exchange; returns everything until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


def test_protocol_junk_is_answered_with_400(server):
    # Malformed JSON in an otherwise well-formed POST.
    response = raw_exchange(server.port,
                            b"POST /sweeps HTTP/1.1\r\n"
                            b"Connection: close\r\n"
                            b"Content-Length: 9\r\n\r\n{not json")
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"malformed_json" in response
    # A garbage request line.
    response = raw_exchange(server.port, b"GARBAGE\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"bad_request" in response
    # An oversized declared body is rejected before it is read.
    declared = schemas.MAX_BODY_BYTES + 1
    response = raw_exchange(server.port,
                            b"POST /sweeps HTTP/1.1\r\n"
                            b"Content-Length: %d\r\n\r\n" % declared)
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"request body too large" in response
    # A negative Content-Length likewise.
    response = raw_exchange(server.port,
                            b"POST /sweeps HTTP/1.1\r\n"
                            b"Content-Length: -5\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400 ")


def test_a_non_ascii_digit_content_length_is_answered_with_400(server):
    # str.isdigit() accepts this Latin-1 superscript two; int() does not.
    response = raw_exchange(server.port,
                            b"POST /sweeps HTTP/1.1\r\n"
                            b"Content-Length: \xb2\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"bad_request" in response


# -- the transport: keep-alive and the process lifecycle ---------------------------


def test_keep_alive_connection_keeps_its_socket_and_answers_promptly(
        server, tiny_spec):
    """One connection carries many requests, none held back by Nagle's
    algorithm meeting the client's delayed ACK (about 40 ms a request)."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60.0)
    seconds = []
    try:
        connection.connect()
        sock = connection.sock
        for _ in range(20):
            start = time.perf_counter()
            connection.request("GET", "/health")
            response = connection.getresponse()
            body = json.loads(response.read())
            seconds.append(time.perf_counter() - start)
            assert response.status == 200 and body["status"] == "ok"
            assert connection.sock is sock
        start = time.perf_counter()
        connection.request("POST", "/sweeps",
                           body=json.dumps(submission(tiny_spec)).encode(),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        body = json.loads(response.read())
        seconds.append(time.perf_counter() - start)
        assert response.status == 202 and body["sweep"]["id"].startswith("sweep-")
        assert connection.sock is sock
    finally:
        connection.close()
    assert statistics.median(seconds) < 0.020, seconds


def test_serves_an_ipv6_host(tmp_path):
    service = SweepService(tmp_path / "results.jsonl", fsync=False)
    server = ServiceServer(service, host="::1").start()
    try:
        assert ServiceClient("::1", server.port).health()["status"] == "ok"
    finally:
        server.stop()


def test_a_burst_of_new_connections_is_answered_promptly(server):
    """32 clients connect at once: none may wait out a SYN retransmit (1 s),
    which an accept queue shorter than the burst would cost."""
    start = threading.Barrier(32)
    seconds = []

    def health() -> None:
        start.wait(timeout=30.0)
        began = time.perf_counter()
        client_for(server).health()
        seconds.append(time.perf_counter() - began)

    threads = [threading.Thread(target=health) for _ in range(32)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert len(seconds) == 32
    assert max(seconds) < 0.5, sorted(seconds)


def test_repro_serve_exits_130_on_sigint_with_a_connection_open(tmp_path,
                                                                tiny_spec):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    stderr_path = tmp_path / "serve.log"
    with open(stderr_path, "w") as stderr:
        # A process started in the background by a non-interactive shell
        # inherits SIGINT ignored; restore the default so that the server's
        # interpreter turns SIGINT into KeyboardInterrupt.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "results.jsonl")],
            stdout=subprocess.PIPE, stderr=stderr, env=env, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    idle = None
    try:
        line = process.stdout.readline()
        assert line.startswith("serving on http://127.0.0.1:"), line
        port = int(line.strip().rsplit(":", 1)[1])
        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        assert client.health()["status"] == "ok"
        sweep = client.submit(schemas.spec_to_dict(tiny_spec))
        assert client.wait(sweep["id"])["state"] == "done"
        # An idle keep-alive connection must not hold the shutdown up.
        idle = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
        idle.request("GET", "/health")
        assert idle.getresponse().read()
        process.send_signal(signal.SIGINT)
        process.wait(timeout=15.0)
    finally:
        if idle is not None:
            idle.close()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    assert process.returncode == 130
    assert "shutting down" in stderr_path.read_text()


# -- quotas and queue limits (blocked engine; no sleeps) -----------------------------


@pytest.fixture()
def gated_engine(monkeypatch):
    """Replace the sweep engine with one that blocks until released."""
    release = threading.Event()

    class FakeReport:
        def to_json(self, **_kwargs):
            return "{}"

    def fake_run_sweep(spec, progress=None, **_kwargs):
        release.wait(timeout=60.0)
        return FakeReport()

    monkeypatch.setattr(service_module, "run_sweep", fake_run_sweep)
    yield release
    release.set()


def test_per_client_quota_and_global_queue_limit(make_server, gated_engine,
                                                 tiny_spec):
    server = make_server(max_concurrent=1, quota=1, queue_limit=2)
    spec_dict = schemas.spec_to_dict(tiny_spec)
    alice, bob, eve = (client_for(server, name)
                       for name in ("alice", "bob", "eve"))
    first = alice.submit(spec_dict)
    # Quota: alice already holds her one active sweep.
    with pytest.raises(ServiceError) as err:
        alice.submit(spec_dict)
    assert err.value.status == 429
    assert err.value.body["error"]["code"] == "quota_exceeded"
    # Another client still fits; the third hits the global limit.
    bob.submit(spec_dict)
    with pytest.raises(ServiceError) as err:
        eve.submit(spec_dict)
    assert err.value.status == 503
    assert err.value.body["error"]["code"] == "queue_full"
    # Releasing the engine drains the queue and frees every slot.
    gated_engine.set()
    assert alice.wait(first["id"])["state"] == "done"


def test_cancelling_a_queued_sweep_frees_its_slot_immediately(
        make_server, gated_engine, tiny_spec):
    server = make_server(max_concurrent=1, quota=2, queue_limit=2)
    spec_dict = schemas.spec_to_dict(tiny_spec)
    client = client_for(server)
    client.submit(spec_dict)              # occupies the single worker
    queued = client.submit(spec_dict)     # waits behind it
    with pytest.raises(ServiceError):     # the queue is now full
        client.submit(spec_dict)
    cancelled = client.cancel(queued["id"])
    assert cancelled["state"] == "cancelled"
    # The slot is free again without anything having finished.
    replacement = client.submit(spec_dict)
    assert replacement["id"] != queued["id"]
    # Cancel is idempotent and never rewrites terminal history.
    assert client.cancel(queued["id"])["state"] == "cancelled"


def test_job_table_keeps_only_the_latest_finished_jobs(
        monkeypatch, make_server, gated_engine, tiny_spec):
    monkeypatch.setattr(service_module, "FINISHED_JOBS_KEPT", 3)
    gated_engine.set()                    # every sweep finishes at once
    server = make_server(max_concurrent=1, quota=1, queue_limit=1)
    client = client_for(server)
    ids = []
    for _ in range(8):
        sweep = client.submit(schemas.spec_to_dict(tiny_spec))
        assert client.wait(sweep["id"])["state"] == "done"
        ids.append(sweep["id"])
    listing = client.request("GET", "/sweeps")["sweeps"]
    assert [entry["id"] for entry in listing] == ids[-3:]
    expect_error(client, "GET", f"/sweeps/{ids[0]}", 404, "unknown_job")


# -- the acceptance e2e: concurrency, store-served repeats, cancellation -------------


def test_concurrent_overlapping_clients_dedup_through_the_store(
        server, tmp_path, chaos_spec, tiny_spec, chaos_reference):
    """N clients race overlapping grids; each unique cell simulates once."""
    outcomes = {}

    def session(name: str, spec) -> None:
        client = client_for(server, name)
        sweep = client.submit(schemas.spec_to_dict(spec))
        outcomes[name] = client.wait(sweep["id"])

    # tiny_spec's single cell is a subset of chaos_spec's two.
    plans = [("c1", chaos_spec), ("c2", chaos_spec), ("c3", tiny_spec),
             ("c4", tiny_spec)]
    threads = [threading.Thread(target=session, args=plan) for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert len(outcomes) == len(plans)
    assert all(status["state"] == "done" for status in outcomes.values())

    # Dedup under contention: exactly one simulation per unique cell.
    unique_cells = chaos_spec.job_count()  # tiny's cell is one of these
    simulated = sum(status["cells"]["simulated"]
                    for status in outcomes.values())
    assert simulated == unique_cells
    store = ResultsStore(tmp_path / "results.jsonl", fsync=False)
    assert store.verify()["records"] == unique_cells
    assert store.verify()["leases_live"] == 0
    assert store.verify()["duplicate_keys"] == 0
    outcome = store.compact()
    assert outcome["records_kept"] == unique_cells
    assert outcome["duplicates_dropped"] == 0

    # Every chaos-grid client got the canonical artifact bytes.
    client = client_for(server)
    for name, spec in plans:
        if spec is chaos_spec:
            job_id = outcomes[name]["id"]
            assert client.report_bytes(job_id) == chaos_reference


def test_repeat_sweep_is_served_entirely_from_the_store(server, chaos_spec,
                                                        chaos_reference):
    client = client_for(server)
    first = client.wait(client.submit(schemas.spec_to_dict(chaos_spec))["id"])
    assert first["state"] == "done"
    assert first["cells"]["simulated"] == chaos_spec.job_count()

    again = client.wait(client.submit(schemas.spec_to_dict(chaos_spec))["id"])
    assert again["state"] == "done"
    # Zero cells simulated, asserted via the job's RunLogger counters.
    assert again["cells"]["simulated"] == 0
    assert again["cells"]["from_store"] == chaos_spec.job_count()
    assert again["counters"].get("cell_simulated", 0) == 0
    assert again["counters"]["cell_from_store"] == chaos_spec.job_count()
    # The cached artifact is still the canonical bytes.
    assert client.report_bytes(again["id"]) == chaos_reference


def test_cancelled_running_sweep_releases_leases_and_frees_slot(
        monkeypatch, make_server, tmp_path, chaos_spec, tiny_spec):
    """Cancel mid-run: the drain path releases every lease, the slot frees."""
    first_cell = threading.Event()
    cancel_sent = threading.Event()
    real_run_sweep = service_module.run_sweep

    def gated_run_sweep(spec, progress=None, **kwargs):
        def paced(done, total, job_result):
            progress(done, total, job_result)  # raises once cancel is set
            first_cell.set()
            cancel_sent.wait(timeout=60.0)     # hold before the next cell

        return real_run_sweep(spec, progress=paced, **kwargs)

    monkeypatch.setattr(service_module, "run_sweep", gated_run_sweep)
    server = make_server(max_concurrent=1, quota=2, queue_limit=2)
    client = client_for(server)
    sweep = client.submit(schemas.spec_to_dict(chaos_spec))
    assert first_cell.wait(timeout=60.0)       # cell 1 done, cell 2 pending
    cancelled = client.cancel(sweep["id"])
    assert cancelled["state"] in ("running", "cancelled")
    cancel_sent.set()
    final = client.wait(sweep["id"])
    assert final["state"] == "cancelled"
    assert final["cells"]["done"] < chaos_spec.job_count()

    # Leases are gone (the store is resumable by anyone)...
    store = ResultsStore(tmp_path / "results.jsonl", fsync=False)
    report = store.verify()
    assert report["leases_live"] == 0 and report["leases_stale"] == 0
    # ...the queue slot is free, and a fresh submission completes the grid.
    monkeypatch.setattr(service_module, "run_sweep", real_run_sweep)
    resumed = client.wait(
        client.submit(schemas.spec_to_dict(chaos_spec))["id"])
    assert resumed["state"] == "done"
    assert resumed["cells"]["from_store"] >= 1  # the cancelled run's cell


# -- chaos on the service path -------------------------------------------------------


def test_fault_injected_submission_survives_and_matches_clean_bytes(
        server, chaos_spec, chaos_reference):
    client = client_for(server)
    sweep = client.submit(schemas.spec_to_dict(chaos_spec),
                          faults={"seed": 3, "rate": 1.0})
    status = client.wait(sweep["id"])
    assert status["state"] == "done"
    # The faults really fired (first attempts), retries survived them.
    assert status["counters"].get("job_retry", 0) >= 1
    assert client.report_bytes(sweep["id"]) == chaos_reference


# -- the CI scripted session, exercised in-process -----------------------------------


def test_scripted_client_session_passes_and_writes_artifacts(
        server, tmp_path, chaos_reference):
    from repro.service import client as client_module

    report_out = tmp_path / "served_sweep.json"
    transcript = tmp_path / "transcript.jsonl"
    exit_code = client_module.main([
        "--port", str(server.port), "--max-ops", "800",
        "--report-out", str(report_out), "--transcript", str(transcript)])
    assert exit_code == 0
    assert report_out.read_bytes() == chaos_reference
    steps = [json.loads(line)["step"]
             for line in transcript.read_text().splitlines()]
    assert steps == ["health", "submit", "wait", "report", "results",
                     "submit_second", "cancel", "cancel_final", "metrics"]
