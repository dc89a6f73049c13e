"""Job queue, worker pool, dedup logic and backpressure for the ATPG service.

:class:`JobManager` owns an ``asyncio.Queue`` of :class:`Job` objects and
a bounded pool of worker tasks; each worker runs one Fig. 6 flow at a time
via ``asyncio.to_thread`` (the flow is CPU-bound Python, so the pool bound
is about memory and fairness, not parallel speedup under the GIL).

Four dedup tiers, cheapest first:

* **coalesced** -- an identical request (same :meth:`JobRequest.
  fingerprint`, same tenant) is already queued or running: the submit
  returns that live job instead of enqueuing a second one.
* **cached (memory)** -- a completed job for the fingerprint is still in
  this manager's table with its result payload: the submit returns that
  canonical job itself (submits are idempotent), no store round trip and
  no new job object -- the hot path of the keep-alive benchmark, a pair
  of dictionary lookups per request.
* **cached (store)** -- a completed flow for the fingerprint exists in the
  store under the ``"flow"`` artifact kind: the job is born ``done`` with
  the stored payload, no queue round trip at all.
* **fresh** -- nobody has done this work: enqueue, run, and *write* the
  ``"flow"`` record so the next identical request lands in a cached tier.

Both cached tiers serve byte-identical response artifacts: the in-memory
payload is the same JSON-serializable document the store round-trips.

**Backpressure.**  With ``queue_high_water`` set, a fresh submission that
would push the queue past the mark raises :class:`BackpressureError`
instead of enqueueing; the server maps it to ``429`` with a
``Retry-After`` estimated from recent fresh-job latency and current depth.
Coalesced and cached submissions never consume queue slots, so they are
admitted even while fresh work is being shed -- exactly the traffic an
overloaded replica *wants* to keep serving.

**Persistence.**  Every admitted job appends its lifecycle to the
tenant-scoped :class:`~repro.service.index.JobIndex` under the store root;
``start()`` folds those logs back, so ``GET /v1/jobs`` survives restarts.
Jobs that were live at the crash come back as ``"lost"`` (a terminal
status); their fingerprints still hit the store-cached tier on resubmit.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.pipeline.flow import FlowCancelled, FlowPipeline
from repro.service.index import JobIndex, discover_indexes
from repro.service.schema import JobRequest, SchemaError, parse_request
from repro.store.core import ArtifactStore
from repro.store.journal import RunJournal

#: Bound on the raw-body -> parsed-request cache (entries, LRU).
PARSE_CACHE_SIZE = 512

#: Statuses from which a job never moves again.  ``lost`` marks a job that
#: was queued or running when its server process died -- restored from the
#: persistent index, never resumed (resubmit instead: the store-cached
#: tier answers if the flow finished, and reruns it if not).
TERMINAL_STATUSES = ("done", "failed", "cancelled", "lost")

_JOB_ID_RE = re.compile(r"^j(\d+)$")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class BackpressureError(RuntimeError):
    """A fresh submission rejected because the queue passed high water.

    Carries ``retry_after`` (seconds, an estimate of when a slot frees
    up) which the server surfaces as the ``Retry-After`` header of the
    429 response.
    """

    def __init__(self, queue_depth: int, high_water: int, retry_after: float):
        super().__init__(
            f"queue depth {queue_depth} at or past high-water mark "
            f"{high_water}; retry after {retry_after:.1f}s"
        )
        self.queue_depth = queue_depth
        self.high_water = high_water
        self.retry_after = retry_after


class ServiceMetrics:
    """Counters and latency samples for one manager lifetime."""

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.coalesced = 0
        self.cached = 0
        self.cached_memory = 0  # cached hits served without a store read
        self.rejected = 0  # fresh submissions shed by backpressure
        self.restored = 0  # jobs folded back from the persistent index
        self.queue_peak = 0
        self._latencies: Dict[str, List[float]] = {}

    def record_latency(self, dedup: str, seconds: float) -> None:
        self._latencies.setdefault(dedup, []).append(seconds)

    def recent_fresh_seconds(self, window: int = 20) -> float:
        """Mean of the last ``window`` fresh-job latencies (1.0 default)."""
        fresh = self._latencies.get("fresh")
        if not fresh:
            return 1.0
        tail = fresh[-window:]
        return sum(tail) / len(tail)

    def latency_percentiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p90/p99 submit-to-finish seconds, per dedup class."""
        out: Dict[str, Dict[str, float]] = {}
        for dedup, values in sorted(self._latencies.items()):
            ordered = sorted(values)
            out[dedup] = {
                "count": len(ordered),
                "p50": round(_percentile(ordered, 0.50), 6),
                "p90": round(_percentile(ordered, 0.90), 6),
                "p99": round(_percentile(ordered, 0.99), 6),
                "max": round(ordered[-1], 6),
            }
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "restored": self.restored,
            "dedup": {
                "coalesced": self.coalesced,
                "cached": self.cached,
                "cached_memory": self.cached_memory,
            },
            "queue_peak": self.queue_peak,
            "latency_seconds": self.latency_percentiles(),
        }


class Job:
    """One submitted flow run and its lifecycle bookkeeping."""

    def __init__(self, job_id: str, key: str, request: JobRequest, queue_depth: int):
        self.id = job_id
        self.key = key
        self.request: Optional[JobRequest] = request
        self.label = request.label
        self.tenant = request.tenant
        self.status = "queued"
        self.dedup = "fresh"
        self.submitted = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.queue_depth_at_submit = queue_depth
        self.journal_path: Optional[str] = None
        self.error: Optional[str] = None
        self.result: Optional[Dict[str, object]] = None
        self.summary: Optional[object] = None
        self.coalesced_hits = 0
        self.restored = False
        self.submit_response_cache: Optional[bytes] = None
        self.cancel_event = threading.Event()

    @classmethod
    def from_index(cls, doc: Dict[str, object]) -> "Job":
        """Rebuild one job from its folded persistent-index entry.

        A job whose recorded status is non-terminal was live when its
        server died; it comes back as ``"lost"`` so it reads as what it
        is -- findable history, not resumable work."""
        job = cls.__new__(cls)
        job.id = str(doc["id"])
        job.key = str(doc.get("key") or "")
        job.request = None
        job.label = doc.get("label")
        job.tenant = doc.get("tenant")
        status = str(doc.get("status") or "queued")
        job.status = status if status in TERMINAL_STATUSES else "lost"
        job.dedup = str(doc.get("dedup") or "fresh")
        job.submitted = doc.get("submitted")
        job.started = doc.get("started")
        job.finished = doc.get("finished")
        job.queue_depth_at_submit = doc.get("queue_depth_at_submit")
        job.journal_path = doc.get("journal")
        job.error = doc.get("error")
        if job.status == "lost" and job.error is None:
            job.error = "server restarted while the job was live"
        job.result = None
        job.summary = doc.get("summary")
        job.coalesced_hits = 0
        job.restored = True
        job.submit_response_cache = None
        job.cancel_event = threading.Event()
        return job

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def as_dict(self, include_result: bool = False) -> Dict[str, object]:
        seconds = None
        if self.started is not None and self.finished is not None:
            seconds = round(self.finished - self.started, 6)
        doc: Dict[str, object] = {
            "id": self.id,
            "key": self.key,
            "label": self.label,
            "tenant": self.tenant,
            "status": self.status,
            "dedup": self.dedup,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "seconds": seconds,
            "queue_depth_at_submit": self.queue_depth_at_submit,
            "coalesced_hits": self.coalesced_hits,
            "restored": self.restored,
            "journal": self.journal_path,
            "error": self.error,
            "summary": (self.result or {}).get("summary", self.summary),
        }
        if include_result:
            doc["result"] = self.result
        return doc

    def index_entry(self, event: str) -> Dict[str, object]:
        """The JSONL line persisted for one lifecycle transition."""
        return {
            "event": event,
            "id": self.id,
            "key": self.key,
            "label": self.label,
            "tenant": self.tenant,
            "status": self.status,
            "dedup": self.dedup,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "queue_depth_at_submit": self.queue_depth_at_submit,
            "journal": self.journal_path,
            "error": self.error,
            "summary": (self.result or {}).get("summary", self.summary),
        }


def flow_payload(flow, stages) -> Dict[str, object]:
    """The JSON artifact persisted (and served) for one completed flow.

    Everything a client can fetch later -- the derived test set, the ATPG
    test set, the hard netlist as BENCH, coverage numbers, the per-stage
    account -- so a cached job serves identical bytes without the circuit
    objects ever being rebuilt.
    """
    from repro.circuit.bench_io import write_bench

    return {
        "hard_circuit": flow.hard_circuit.name,
        "easy_circuit": flow.easy_circuit.name,
        "hard_dffs": flow.hard_circuit.num_registers(),
        "easy_dffs": flow.easy_circuit.num_registers(),
        "prefix_length": flow.prefix_length,
        "easy_coverage": flow.easy_coverage,
        "hard_coverage": flow.hard_coverage,
        "summary": flow.summary(),
        "atpg": {
            "cpu_seconds": flow.atpg_result.cpu_seconds,
            "fault_coverage": flow.atpg_result.fault_coverage,
            "fault_efficiency": flow.atpg_result.fault_efficiency,
            "sequences": flow.atpg_result.test_set.num_sequences,
        },
        "derived_testset": flow.derived_test_set.to_text(),
        "atpg_testset": flow.atpg_result.test_set.to_text(),
        "hard_bench": write_bench(flow.hard_circuit),
        "stages": [
            {
                "name": record.name,
                "seconds": record.seconds,
                "cpu_seconds": record.cpu_seconds,
                "cache": record.cache,
                "store_key": record.store_key,
                "detail": record.detail,
            }
            for record in stages
        ],
    }


class JobManager:
    """Bounded worker pool + dedup index over one (optional) store root."""

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        pool: int = 2,
        *,
        default_tenant: Optional[str] = None,
        keep_jobs: int = 512,
        queue_high_water: Optional[int] = None,
    ):
        self.store = store
        self.pool = max(1, int(pool))
        self.default_tenant = default_tenant
        self.keep_jobs = max(1, int(keep_jobs))
        self.queue_high_water = (
            None if queue_high_water is None else max(0, int(queue_high_water))
        )
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self.metrics = ServiceMetrics()
        self._by_key: Dict[Tuple[str, str], Job] = {}
        self._parse_cache: "OrderedDict[bytes, Tuple[JobRequest, str]]" = OrderedDict()
        self._tenant_stores: Dict[str, ArtifactStore] = {}
        self._indexes: Dict[str, JobIndex] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._ids = itertools.count(1)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        if self.store is not None:
            await asyncio.to_thread(self._restore_jobs)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self.pool)
        ]

    async def stop(self) -> None:
        """Cancel queued jobs, signal running flows, and reap the pool."""
        for job in self.jobs.values():
            if not job.terminal:
                job.cancel_event.set()
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self.store is not None:
            await asyncio.to_thread(self._flush_all_counters)

    def _flush_all_counters(self) -> None:
        for store in [self.store, *self._tenant_stores.values()]:
            if store is not None:
                try:
                    store.flush_counters()
                except OSError:
                    pass

    def store_for(self, tenant: Optional[str]) -> Optional[ArtifactStore]:
        """The tenant-scoped view of the shared store root."""
        if self.store is None:
            return None
        if not tenant or tenant == self.store.tenant:
            return self.store
        if tenant not in self._tenant_stores:
            self._tenant_stores[tenant] = ArtifactStore(
                root=self.store.root, tenant=tenant
            )
        return self._tenant_stores[tenant]

    # -- persistent job index ------------------------------------------------

    def index_for(self, tenant: Optional[str]) -> Optional[JobIndex]:
        store = self.store_for(tenant)
        if store is None:
            return None
        slot = tenant or ""
        if slot not in self._indexes:
            self._indexes[slot] = JobIndex.for_store(store)
        return self._indexes[slot]

    def _index_event(self, job: Job, event: str) -> None:
        index = self.index_for(job.tenant)
        if index is not None:
            try:
                index.append(job.index_entry(event))
            except OSError:
                pass  # a full disk must not take the API down

    def _restore_jobs(self) -> None:
        """Fold every persistent index under the root back into the job
        table (statuses only; results reload lazily from the store)."""
        entries: Dict[str, Dict[str, object]] = {}
        for index in discover_indexes(self.store.root):
            entries.update(index.load())
        restored = sorted(
            entries.values(),
            key=lambda doc: (doc.get("submitted") or 0.0, str(doc.get("id"))),
        )[-self.keep_jobs :]
        highest = 0
        for doc in restored:
            job = Job.from_index(doc)
            self.jobs[job.id] = job
            self.metrics.restored += 1
            match = _JOB_ID_RE.match(job.id)
            if match:
                highest = max(highest, int(match.group(1)))
        self._ids = itertools.count(highest + 1)

    def compact_indexes(self, force: bool = False) -> Dict[str, int]:
        """Compact every index under the root (the GC loop calls this)."""
        if self.store is None:
            return {}
        results: Dict[str, int] = {}
        for index in discover_indexes(self.store.root):
            results[index.path] = index.compact(keep=self.keep_jobs, force=force)
        return results

    def load_result(self, job: Job) -> Optional[Dict[str, object]]:
        """The job's result payload, reloading a restored job's from the
        store on first demand (called from a worker thread)."""
        if job.result is None and job.status == "done" and job.key:
            store = self.store_for(job.tenant)
            if store is not None:
                job.result = store.get("flow", job.key)
        return job.result

    # -- submission ----------------------------------------------------------

    def _parse(self, payload: object, raw: Optional[bytes]) -> Tuple[JobRequest, str]:
        """Parse + fingerprint one request, memoized on the raw body.

        Validation and fingerprinting (canonical JSON + SHA) dominate the
        cached-submit hot path; byte-identical request documents -- the
        defining workload of that path -- skip both via a bounded LRU.
        """
        if raw is not None:
            hit = self._parse_cache.get(raw)
            if hit is not None:
                self._parse_cache.move_to_end(raw)
                return hit
            if payload is None:
                try:
                    payload = json.loads(raw.decode("utf-8")) if raw else None
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    raise SchemaError(f"request body is not JSON: {error}") from None
        request = parse_request(payload, default_tenant=self.default_tenant)
        key = request.fingerprint()
        if raw is not None:
            self._parse_cache[raw] = (request, key)
            while len(self._parse_cache) > PARSE_CACHE_SIZE:
                self._parse_cache.popitem(last=False)
        return request, key

    async def submit(
        self, payload: object = None, *, raw: Optional[bytes] = None
    ) -> Tuple[Job, str]:
        """Parse, dedup and (if needed) enqueue one request.

        Pass either the decoded ``payload`` document, the ``raw`` body
        bytes (preferred on the server path: identical bodies skip
        parsing entirely), or both.  Returns ``(job, disposition)`` with
        disposition ``"coalesced"`` (an identical job is already live),
        ``"cached"`` (served from this manager's memory or from the
        store) or ``"fresh"`` (enqueued).  Raises
        :class:`~repro.service.schema.SchemaError` on a bad document and
        :class:`BackpressureError` when fresh work would push the queue
        past the high-water mark.
        """
        if self._queue is None:
            raise RuntimeError("JobManager.start() was never awaited")
        request, key = self._parse(payload, raw)
        dedup_id = (request.tenant or "", key)
        live = self._by_key.get(dedup_id)
        if live is not None and not live.terminal:
            live.coalesced_hits += 1
            self.metrics.coalesced += 1
            return live, "coalesced"
        if live is not None and live.status == "done" and live.result is not None:
            # In-memory cached tier: the finished twin is still in the
            # job table -- the submit is idempotent, so answer with the
            # canonical job itself.  No store I/O, no new job object: a
            # pair of dictionary lookups per request.
            self.metrics.cached += 1
            self.metrics.cached_memory += 1
            self.metrics.record_latency("cached", 0.0)
            return live, "cached"
        store = self.store_for(request.tenant)
        if store is not None:
            cached = await asyncio.to_thread(store.get, "flow", key)
            if cached is not None:
                job = self._born_done(key, request, cached)
                await asyncio.to_thread(store.flush_counters)
                return job, "cached"
        depth = self._queue.qsize()
        if self.queue_high_water is not None and depth >= self.queue_high_water:
            self.metrics.rejected += 1
            raise BackpressureError(
                depth, self.queue_high_water, self._retry_after(depth)
            )
        job = Job(f"j{next(self._ids):05d}", key, request, depth)
        self.jobs[job.id] = job
        self._by_key[dedup_id] = job
        self.metrics.submitted += 1
        self._trim()
        self._queue.put_nowait(job)
        self.metrics.queue_peak = max(self.metrics.queue_peak, self._queue.qsize())
        self._index_event(job, "submit")
        return job, "fresh"

    def _born_done(self, key: str, request: JobRequest, result: Dict) -> Job:
        """A job created already-terminal from a cached flow payload."""
        job = Job(
            f"j{next(self._ids):05d}",
            key,
            request,
            self._queue.qsize() if self._queue is not None else 0,
        )
        now = time.time()
        job.status = "done"
        job.dedup = "cached"
        job.started = job.finished = now
        job.result = result
        self.jobs[job.id] = job
        self._by_key[(request.tenant or "", key)] = job
        self.metrics.submitted += 1
        self.metrics.cached += 1
        self.metrics.completed += 1
        self.metrics.record_latency("cached", now - job.submitted)
        self._trim()
        # Deliberately NOT indexed: a cached-born job is a serving record,
        # not work -- the fresh twin that produced the payload is already
        # in the persistent index, and skipping the disk append keeps the
        # cached hot path free of I/O.
        return job

    def _retry_after(self, depth: int) -> float:
        """Seconds until a queue slot plausibly frees: depth of work ahead
        over pool width, scaled by recent fresh latency, clamped sane."""
        estimate = (max(depth, 1) / self.pool) * self.metrics.recent_fresh_seconds()
        return min(60.0, max(1.0, estimate))

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; queued jobs die immediately, running jobs
        at their next stage boundary."""
        job = self.jobs.get(job_id)
        if job is None or job.terminal:
            return job
        job.cancel_event.set()
        if job.status == "queued":
            job.status = "cancelled"
            job.finished = time.time()
            self.metrics.cancelled += 1
            self._index_event(job, "end")
        return job

    def _trim(self) -> None:
        while len(self.jobs) > self.keep_jobs:
            victim_id = None
            for job_id, job in self.jobs.items():
                if job.terminal:
                    victim_id = job_id
                    break
            if victim_id is None:
                return  # everything is live; never drop a live job
            victim = self.jobs.pop(victim_id)
            dedup_id = (victim.tenant or "", victim.key)
            if self._by_key.get(dedup_id) is victim:
                del self._by_key[dedup_id]

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if job.terminal:
                    continue  # cancelled while queued
                job.status = "running"
                job.started = time.time()
                try:
                    await asyncio.to_thread(self._execute, job)
                except FlowCancelled:
                    job.status = "cancelled"
                    self.metrics.cancelled += 1
                except Exception as error:  # the job fails, the pool survives
                    job.status = "failed"
                    job.error = f"{type(error).__name__}: {error}"
                    self.metrics.failed += 1
                else:
                    job.status = "done"
                    self.metrics.completed += 1
                job.finished = time.time()
                if job.status == "done":
                    self.metrics.record_latency("fresh", job.finished - job.submitted)
                self._index_event(job, "end")
            finally:
                self._queue.task_done()

    def _execute(self, job: Job) -> None:
        """Run one flow synchronously (called from a worker thread)."""
        request = job.request
        store = self.store_for(request.tenant)
        journal = None
        if store is not None:
            journal = RunJournal.create(store.journal_dir, f"service-{job.label}")
            job.journal_path = journal.path
            journal.event(
                "run_start",
                run="service",
                job=job.id,
                label=job.label,
                tenant=request.tenant,
                verify=request.verify,
            )
        try:
            pipeline = FlowPipeline(
                store=store,
                journal=journal,
                verify=request.verify,
                cancel_event=job.cancel_event,
            )
            if request.spec is not None:
                flow = pipeline.run_spec(request.spec, request.budget).flow
            else:
                flow = pipeline.run(request.circuit, budget=request.budget)
            payload = flow_payload(flow, pipeline.stages)
            if store is not None:
                store.put(
                    "flow",
                    job.key,
                    payload,
                    pin=journal.artifact_ref if journal is not None else None,
                )
            job.result = payload
        except BaseException as error:
            if journal is not None:
                journal.close(ok=False, job=job.id, error=str(error))
            if store is not None:
                store.flush_counters()
            raise
        if journal is not None:
            journal.close(ok=True, job=job.id)
        if store is not None:
            store.flush_counters()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``/v1/stats`` document: pool, queue, jobs, dedup, latency."""
        by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        doc: Dict[str, object] = {
            "pool": self.pool,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_high_water": self.queue_high_water,
            "jobs": dict(sorted(by_status.items())),
            "metrics": self.metrics.as_dict(),
        }
        if self.store is not None:
            doc["store"] = {
                "root": self.store.root,
                "session": self.store.stats.as_dict(),
                "lifetime": self.store.lifetime_counters(),
            }
        else:
            doc["store"] = None
        return doc


__all__ = [
    "BackpressureError",
    "Job",
    "JobManager",
    "ServiceMetrics",
    "TERMINAL_STATUSES",
    "flow_payload",
]
