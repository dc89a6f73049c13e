"""The ``serve`` workload: ``python -m repro serve`` under open-loop traffic.

One server process runs on a fresh store root with its default pool and
limits.  Set-up starts it and runs the job that later requests will find
cached; the set-up is repeated twice more, each time with a new server
and store, which are then stopped.  Traffic comes from one asyncio
thread over at most two keep-alive connections:

* phase A -- cached resubmits alone, Poisson arrivals at ``ALONE_RATE``;
* phase B -- cached resubmits at ``MIXED_RATE`` beside one fresh job
  every ``FRESH_INTERVAL`` seconds.  A fresh job names a tenant of its
  own, so it finds nothing in the store and runs the whole flow, with
  the same circuit and budget -- hence the same work -- every time.

Arrivals are open loop: each request is due at a time drawn from the
seed, latency is measured from that due time, and the generator's own
lateness is reported.  The generator sleeps until ``SPIN_SECONDS`` before
a due time and then yields to the event loop in a tight loop, because a
sleep alone wakes later than the server's whole cached service time.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Deque, Dict, List, Optional, Tuple

from benchmarks.e2e.library import Env, budget_fields
from benchmarks.e2e.report import Outcome, peak_rss_mb, quantile, summary, tail

#: The served circuit, as a job document's ``circuit``.
SERVE_CIRCUIT = {"format": "table2", "fsm": "s820", "style": "ji", "script": "sr"}

SERVE_BUDGET = {
    "backtracks_per_fault": 4,
    "frames_cap": 6,
    "random_sequences": 16,
    "total_seconds": 1e6,
    "seconds_per_fault": 1e6,
}

ALONE_RATE = 2000.0  # requests per second, phase A
MIXED_RATE = 50.0  # cached requests per second, phase B
FRESH_INTERVAL = 3.0  # seconds between fresh jobs, phase B
ALONE_SHARE = 0.3  # of the measuring window
MISS_MS = 20.0  # a cached request slower than this misses
SPIN_SECONDS = 0.001
POLL_SECONDS = 0.02
STARTUP_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
DRAIN_SECONDS = 10.0

_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")

TERMINAL = ("done", "failed", "cancelled", "lost")


def _per_connection_limit() -> int:
    """Requests to send on one connection before rotating it: just under
    the server's cap, which it enforces by closing the connection."""
    try:
        from repro.service.server import MAX_REQUESTS_PER_CONNECTION
    except ImportError:
        MAX_REQUESTS_PER_CONNECTION = 1000
    return max(1, MAX_REQUESTS_PER_CONNECTION - 10)


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("ascii") + body


class Server:
    """``python -m repro serve --port 0`` on its own store root."""

    def __init__(self, env: Env, index: int):
        self.root = os.path.join(env.work, f"serve-store-{index}")
        self.log_path = os.path.join(env.work, f"server-{index}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ, REPRO_STORE_DIR=self.root)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.perf_counter() + STARTUP_TIMEOUT
        while time.perf_counter() < deadline:
            with open(self.log_path, "rb") as log:
                match = _LISTENING.search(log.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _call(connection: http.client.HTTPConnection, method: str, path: str, body: bytes = b""):
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body or None, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def _warm(port: int, body: bytes) -> Tuple[Dict[str, object], bytes]:
    """Run the job that later resubmits find cached: the end of set-up.

    Returns its result document and the answer to one resubmit, which
    every cached answer during the measurement must repeat byte for byte.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        status, raw = _call(connection, "POST", "/v1/jobs", body)
        if status not in (200, 202):
            raise RuntimeError(f"warm-up submit answered {status}: {raw[:200]!r}")
        job = json.loads(raw)
        deadline = time.perf_counter() + JOB_TIMEOUT
        while job["status"] not in TERMINAL:
            if time.perf_counter() > deadline:
                raise RuntimeError("warm-up job did not finish")
            time.sleep(POLL_SECONDS)
            _, raw = _call(connection, "GET", f"/v1/jobs/{job['id']}")
            job = json.loads(raw)
        if job["status"] != "done":
            raise RuntimeError(f"warm-up job ended {job['status']}: {job.get('error')}")
        _, raw = _call(connection, "GET", f"/v1/jobs/{job['id']}/artifacts/result")
        result = json.loads(raw)
        status, cached = _call(connection, "POST", "/v1/jobs", body)
        if status != 200 or json.loads(cached).get("disposition") != "cached":
            raise RuntimeError(f"a resubmit after the job answered {status}, not cached")
        return result, cached
    finally:
        connection.close()


# -- the open-loop generator -------------------------------------------------


class Record:
    """One request: when it was due, sent and answered, and the answer."""

    __slots__ = ("kind", "due", "sent", "received", "status", "body", "future")

    def __init__(self, kind: str, due: float):
        self.kind = kind
        self.due = due
        self.sent = self.received = 0.0
        self.status = 0  # stays 0 when the connection died first
        self.body = b""
        self.future: Optional[asyncio.Future] = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.received - self.due)

    @property
    def late_ms(self) -> float:
        return 1000.0 * (self.sent - self.due)


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class Pipe:
    """One keep-alive connection: pipelined writes, in-order responses.

    The open connection's ``StreamWriter`` stays referenced here until it
    is closed -- a collected writer closes its socket even with responses
    in flight.  Just before the server's per-connection request cap, and
    after a failure, the connection is drained, closed and reopened.
    """

    def __init__(self, port: int, limit: int):
        self.port = port
        self.limit = limit
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Deque[Record] = collections.deque()
        self.idle = asyncio.Event()
        self.sent_here = 0
        self.sent = 0
        self.reconnects = 0
        self.backlog_max = 0
        self.broken = False
        self._reading: Optional[asyncio.Task] = None

    async def open(self) -> None:
        reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        self.sent_here = 0
        self.broken = False
        self.idle.set()
        self._reading = asyncio.create_task(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                status, body = await _read_response(reader)
                record = self.pending.popleft()
                record.received = time.perf_counter()
                record.status = status
                record.body = body
                self._resolve(record)
                if not self.pending:
                    self.idle.set()
        except (asyncio.IncompleteReadError, ConnectionError, IndexError, ValueError):
            self.broken = True
            while self.pending:
                self._resolve(self.pending.popleft())
            self.idle.set()

    @staticmethod
    def _resolve(record: Record) -> None:
        if record.future is not None and not record.future.done():
            record.future.set_result(record)

    async def drain(self) -> None:
        """Wait for every response in flight, or give up on the stragglers
        (their records keep status 0 and count as failed)."""
        try:
            await asyncio.wait_for(self.idle.wait(), DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        await self.drain()
        if self._reading is not None:
            self._reading.cancel()
            try:
                await self._reading
            except asyncio.CancelledError:
                pass
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def send(self, data: bytes, record: Record) -> None:
        if self.broken or self.sent_here >= self.limit:
            await self.close()
            self.reconnects += 1
            await self.open()
        record.sent = time.perf_counter()
        self.pending.append(record)
        self.idle.clear()
        self.writer.write(data)
        self.sent_here += 1
        self.sent += 1
        self.backlog_max = max(self.backlog_max, len(self.pending))

    async def call(self, data: bytes, record: Record) -> Record:
        record.future = asyncio.get_running_loop().create_future()
        await self.send(data, record)
        return await asyncio.wait_for(record.future, JOB_TIMEOUT)


async def _wait_until(due: float) -> None:
    while True:
        remaining = due - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > SPIN_SECONDS:
            await asyncio.sleep(remaining - SPIN_SECONDS)
        else:
            await asyncio.sleep(0)


async def _cached_traffic(pipe: Pipe, request: bytes, rate: float, start: float,
                          end: float, rng: random.Random, kind: str) -> List[Record]:
    """Poisson arrivals of one cached resubmit between ``start`` and ``end``."""
    records: List[Record] = []
    due = start
    while True:
        due += rng.expovariate(rate)
        if due >= end:
            return records
        await _wait_until(due)
        record = Record(kind, due)
        records.append(record)
        await pipe.send(request, record)


async def _get_json(pipe: Pipe, path: str) -> Tuple[int, Dict[str, object]]:
    answer = await pipe.call(_request("GET", path), Record("control", time.perf_counter()))
    try:
        return answer.status, json.loads(answer.body)
    except ValueError:
        return answer.status, {}


async def _fresh_job(pipe: Pipe, due: float, body: bytes, outcome: Outcome) -> Optional[Dict[str, object]]:
    """Submit one fresh job when due and poll it to ``done``."""
    await _wait_until(due)
    outcome.attempted += 1
    submit = await pipe.call(_request("POST", "/v1/jobs", body), Record("fresh", due))
    try:
        job = json.loads(submit.body)
    except ValueError:
        job = {}
    if submit.status != 202 or job.get("disposition") != "fresh":
        outcome.fail(f"fresh submit answered {submit.status} {job.get('disposition')!r}")
        return None
    while job.get("status") not in TERMINAL:
        if time.perf_counter() - due > JOB_TIMEOUT:
            outcome.fail(f"fresh job {job.get('id')} still {job.get('status')}")
            return None
        await asyncio.sleep(POLL_SECONDS)
        status, job = await _get_json(pipe, f"/v1/jobs/{job['id']}")
        if status != 200:
            outcome.fail(f"fresh job poll answered {status}")
            return None
    seen = time.perf_counter()
    if job["status"] != "done":
        outcome.fail(f"fresh job {job['id']} ended {job['status']}: {job.get('error')}")
        return None
    job["client_s"] = seen - due
    job["server_s"] = job["finished"] - job["submitted"]
    return job


def _result_digest(result: Dict[str, object]) -> str:
    text = f"{result.get('atpg_testset')}{result.get('derived_testset')}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


async def _measure(env: Env, port: int, cached_body: bytes, fresh_body, reference: Dict[str, object],
                   outcome: Outcome, between_phases) -> Dict[str, object]:
    limit = _per_connection_limit()
    traffic = Pipe(port, limit)  # cached resubmits
    control = Pipe(port, limit)  # fresh jobs, polls, stats
    await traffic.open()
    await control.open()
    mixed_task: Optional[asyncio.Task] = None
    try:
        _, stats_before = await _get_json(control, "/v1/stats")
        request = _request("POST", "/v1/jobs", cached_body)
        rng = random.Random(env.seed)
        start = time.perf_counter() + 0.05
        end = start + env.seconds * ALONE_SHARE
        alone = await _cached_traffic(traffic, request, ALONE_RATE, start, end, rng, "alone")
        await traffic.drain()
        await asyncio.to_thread(between_phases)
        start = time.perf_counter() + 0.05
        end = start + env.seconds * (1.0 - ALONE_SHARE)
        dues = []
        due = start + 0.5
        while due <= end - FRESH_INTERVAL + 0.5:
            dues.append(due)
            due += FRESH_INTERVAL
        mixed_task = asyncio.create_task(
            _cached_traffic(traffic, request, MIXED_RATE, start, end, rng, "mixed")
        )
        jobs = [await _fresh_job(control, d, fresh_body(i), outcome) for i, d in enumerate(dues)]
        mixed = await mixed_task
        await traffic.drain()
        _, stats_after = await _get_json(control, "/v1/stats")
        done = [job for job in jobs if job is not None]
        expected = _result_digest(reference)
        coverage = []
        for job in done:
            status, result = await _get_json(control, f"/v1/jobs/{job['id']}/artifacts/result")
            if status != 200 or _result_digest(result) != expected:
                outcome.fail(f"fresh job {job['id']} result differs from the cached one")
            coverage.append(float(result.get("hard_coverage", 0.0)))
    finally:
        if mixed_task is not None and not mixed_task.done():
            mixed_task.cancel()
            try:
                await mixed_task
            except asyncio.CancelledError:
                pass
        await traffic.close()
        await control.close()
    return {
        "alone": alone,
        "mixed": mixed,
        "jobs": done,
        "coverage": coverage,
        "stats_before": stats_before,
        "stats_after": stats_after,
        "requests": traffic.sent + control.sent,
        "reconnects": traffic.reconnects + control.reconnects,
        "backlog_max": traffic.backlog_max,
    }


def _audit(records: List[Record], reference: bytes, outcome: Outcome) -> List[float]:
    """Latencies of the correct answers; every other answer is a failure."""
    latencies = []
    for record in records:
        outcome.attempted += 1
        if record.status != 200 or record.body != reference:
            outcome.fail(f"{record.kind} resubmit answered {record.status}")
        else:
            latencies.append(record.latency_ms)
    return latencies


def _spans(env: Env, records: List[Record]) -> None:
    """Client spans per request, from the timestamps the generator takes
    anyway: waiting to be sent, then the round trip to the server."""
    tracer = env.tracer
    for index, record in enumerate(records):
        if not record.received:
            continue
        trace = f"{record.kind}/{index}"
        root = tracer.add("http.request", None, trace, record.due, record.received)
        tracer.add("client.wait", root, trace, record.due, record.sent)
        tracer.add("server.round_trip", root, trace, record.sent, record.received)


def run_serve(env: Env) -> Tuple[List[float], Outcome]:
    """Set up three servers and measure the first; returns the set-up
    samples and the outcome."""
    budget = budget_fields(SERVE_BUDGET)
    cached_body = json.dumps({"circuit": SERVE_CIRCUIT, "budget": budget}, sort_keys=True).encode()

    def fresh_body(index: int) -> bytes:
        tenant = f"fresh-{env.seed}-{index}"
        doc = {"circuit": SERVE_CIRCUIT, "budget": budget, "tenant": tenant}
        return json.dumps(doc, sort_keys=True).encode()

    outcome = Outcome()
    setup: List[float] = []
    servers: List[Server] = []

    def set_up() -> Tuple[Server, Dict[str, object], bytes]:
        started = time.perf_counter()
        server = Server(env, len(servers))
        servers.append(server)
        server.start()
        reference, reference_body = _warm(server.port, cached_body)
        setup.append(time.perf_counter() - started)
        return server, reference, reference_body

    def set_up_spare() -> None:
        set_up()[0].stop()

    # The measured server's set-up comes first; the other two are spread
    # over the run (between the phases and after them), so a slow spell
    # of the machine moves one set-up sample, not the median.
    try:
        server, reference, reference_body = set_up()
        run = asyncio.run(
            _measure(env, server.port, cached_body, fresh_body, reference, outcome, set_up_spare)
        )
        outcome.rss_mb = peak_rss_mb(server.proc.pid)
        server.stop()
        set_up_spare()
    finally:
        for server in servers:
            server.stop()
    alone = _audit(run["alone"], reference_body, outcome)
    mixed = _audit(run["mixed"], reference_body, outcome)
    outcome.samples_ms = mixed
    outcome.traced_ms = mixed
    if env.trace:
        _spans(env, run["alone"] + run["mixed"])
    outcome.coverage_pct = statistics.mean(run["coverage"]) if run["coverage"] else 0.0
    mixed_all = len(run["mixed"])
    misses = mixed_all - sum(1 for value in mixed if value <= MISS_MS)
    client_fresh = [job["client_s"] for job in run["jobs"]]
    server_fresh = [job["server_s"] for job in run["jobs"]]
    lateness = [r.late_ms for r in run["alone"] + run["mixed"] if r.sent]
    alone_p50 = quantile(alone, 0.5) if alone else 0.0
    http_before = run["stats_before"].get("http", {})
    http_after = run["stats_after"].get("http", {})
    outcome.layers.update(
        {
            "service.requests": run["requests"],
            "service.fresh_jobs": len(run["jobs"]),
            "service.queue_peak": run["stats_after"].get("metrics", {}).get("queue_peak", 0),
            "service.keepalive_requests": http_after.get("keepalive_requests", 0)
            - http_before.get("keepalive_requests", 0),
            "service.reconnects": run["reconnects"],
            "service.backlog_max": run["backlog_max"],
            "service.mixed_miss_pct": 100.0 * misses / mixed_all if mixed_all else 0.0,
            "service.mixed_slowdown_x": quantile(mixed, 0.5) / alone_p50 if mixed and alone_p50 else 0.0,
            "service.tail_x": tail(alone)[1] / alone_p50 if alone_p50 else 0.0,
            "service.gen_late_x": quantile(lateness, 0.99) / alone_p50 if lateness and alone_p50 else 0.0,
            "service.fresh_overhead_pct": (
                100.0 * (statistics.median(client_fresh) / statistics.median(server_fresh) - 1.0)
                if server_fresh
                else 0.0
            ),
        }
    )
    outcome.details.update(
        {
            "alone_ms": summary(alone),
            "mixed_ms": summary(mixed),
            "mixed_miss_pct": outcome.layers["service.mixed_miss_pct"],
            "fresh_client_s": summary(client_fresh),
            "fresh_server_s": summary(server_fresh),
            "generator_late_ms": summary(lateness),
            "result_digest": _result_digest(reference),
            "stats_after": run["stats_after"],
        }
    )
    return setup, outcome


__all__ = ["run_serve"]
