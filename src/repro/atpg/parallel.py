"""Multiprocess orchestration of the deterministic PODEM phase.

Sequential PODEM is embarrassingly parallel across target faults: each
:meth:`~repro.atpg.podem.PodemEngine.generate` call depends only on the
circuit, the fault and the budget, never on the outcome of other targets.
This module partitions the post-random fault list across a
``ProcessPoolExecutor``:

* **one engine per process** -- the circuit is shipped once per worker via
  the pool initializer (a plain pickle; :meth:`Circuit.__getstate__` drops
  the compile-cache entry, and the initializer re-warms the per-process
  cache with :func:`repro.simulation.cache.warm_compile_cache` before
  building its :class:`PodemEngine`);
* **chunked distribution** -- the fault list is split into several chunks
  per worker so a run of hard (abort-bound) faults does not serialize the
  pool behind one process;
* **shared wall-clock budget** -- the parent's remaining seconds at pool
  creation become a worker-local deadline; every chunk and every targeted
  fault is metered against it, so the pool as a whole never outspends the
  budget a serial run would get.  A fault reached after the deadline is
  returned ``attempted=False`` and the caller records it as budget-aborted
  -- unprocessed faults are never silently dropped.

Workers return raw :class:`FaultOutcome` records; collateral-detection
reconciliation happens on the *parent* (see ``repro.atpg.engine``), which
replays the returned sequences in fault-queue order through the
bit-parallel fault simulator against the global remaining list.  Replaying
in queue order makes the detected/aborted partition and the emitted test
set bit-for-bit identical to the serial path whenever the wall-clock
limits are not binding: PODEM itself is deterministic, so the only
engine-visible difference parallelism could introduce -- which collateral
detections suppress which targeted sequences -- is resolved exactly as the
serial loop would have resolved it.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.atpg.budget import AtpgBudget, EffortMeter
from repro.atpg.podem import PodemEngine
from repro.circuit.netlist import Circuit
from repro.faults.model import StuckAtFault
from repro.logic.three_valued import Trit
from repro.simulation.cache import warm_compile_cache

# Several chunks per worker: small enough that an abort-heavy stretch of the
# fault list spreads across the pool, large enough to amortize the dispatch.
CHUNKS_PER_WORKER = 4


@dataclass
class FaultOutcome:
    """What one PODEM attempt produced for one targeted fault.

    ``attempted`` is False when the shared budget expired before the fault
    was targeted at all (the parent classifies these as budget aborts).
    The simulation counters mirror :class:`~repro.atpg.budget.EffortMeter`
    so pool workers can report their kernel effort back to the parent.
    """

    detected: bool
    sequence: Optional[List[Tuple[Trit, ...]]]
    backtracks: int
    aborted: bool
    attempted: bool = True
    simulations: int = 0
    frames_simulated: int = 0
    lanes_evaluated: int = 0
    seconds: float = 0.0
    objective_choices: int = 0


def default_workers() -> int:
    """Pool size when the caller asked for the process engine without a
    worker count: one per core, capped at 4 (PODEM saturates memory
    bandwidth well before wide pools pay off on small circuits)."""
    return max(1, min(4, os.cpu_count() or 1))


def _start_method() -> str:
    """``fork`` where the platform offers it (cheap, and the parent's warm
    compile cache is inherited copy-on-write); ``spawn`` otherwise."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# Per-process worker state, populated by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def _worker_init(
    circuit: Circuit,
    budget: AtpgBudget,
    pool_seconds: float,
    guidance=None,
) -> None:
    warm_compile_cache(circuit)
    _WORKER_STATE["engine"] = PodemEngine(circuit, guidance=guidance)
    _WORKER_STATE["budget"] = budget
    # The parent's remaining wall-clock allowance, anchored to this
    # process's own monotonic clock the moment the worker starts.
    _WORKER_STATE["deadline"] = time.perf_counter() + pool_seconds


def _worker_chunk(
    payload: Tuple[Sequence[StuckAtFault], int]
) -> List[FaultOutcome]:
    faults, max_frames = payload
    engine: PodemEngine = _WORKER_STATE["engine"]
    budget: AtpgBudget = _WORKER_STATE["budget"]
    deadline: float = _WORKER_STATE["deadline"]
    outcomes: List[FaultOutcome] = []
    for fault in faults:
        now = time.perf_counter()
        if now >= deadline:
            outcomes.append(
                FaultOutcome(False, None, 0, aborted=True, attempted=False)
            )
            continue
        meter = EffortMeter(budget, cap_seconds=deadline - now)
        result = engine.generate(
            fault,
            meter,
            max_frames=max_frames,
            deadline=min(deadline, now + budget.seconds_per_fault),
        )
        # generate() flushed exactly one effort row for this attempt; its
        # timing/objective deltas ride home on the outcome so the parent
        # can rebuild the per-fault effort rows without a second channel.
        row = meter.fault_rows[-1]
        outcomes.append(
            FaultOutcome(
                result.detected,
                result.sequence,
                result.backtracks,
                result.aborted,
                simulations=meter.simulations,
                frames_simulated=meter.frames_simulated,
                lanes_evaluated=meter.lanes_evaluated,
                seconds=row.seconds,
                objective_choices=row.objective_choices,
            )
        )
    return outcomes


def _partition_indices(
    count: int, num_chunks: int, costs: Optional[Sequence[float]]
) -> List[List[int]]:
    """Fault indices per chunk.

    Without costs: contiguous slices (the seed behavior, preserved
    verbatim for the unguided path).  With costs: longest-processing-time
    bin packing -- faults are assigned in descending estimated-cost order
    to the least-loaded chunk, so one run of hard faults spreads across
    the pool instead of serializing it behind one worker.  All ties break
    on index, making the partition a pure function of the inputs.
    """
    if costs is None:
        chunk_size = max(1, -(-count // num_chunks))
        return [
            list(range(start, min(start + chunk_size, count)))
            for start in range(0, count, chunk_size)
        ]
    num_chunks = max(1, min(num_chunks, count))
    bins: List[List[int]] = [[] for _ in range(num_chunks)]
    loads = [0.0] * num_chunks
    for index in sorted(range(count), key=lambda i: (-costs[i], i)):
        target = min(range(num_chunks), key=lambda b: (loads[b], b))
        bins[target].append(index)
        loads[target] += costs[index]
    # Within a chunk the worker processes faults in queue order, keeping
    # per-fault deadlines aligned with the parent's in-order consumption.
    for chunk in bins:
        chunk.sort()
    return [chunk for chunk in bins if chunk]


def iter_podem_partitioned(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    budget: AtpgBudget,
    max_frames: int,
    workers: int,
    pool_seconds: float,
    guidance=None,
    costs: Optional[Sequence[float]] = None,
) -> Iterator[Tuple[StuckAtFault, FaultOutcome]]:
    """PODEM every fault on a ``workers``-wide process pool, **streaming**.

    Yields ``(fault, outcome)`` pairs strictly in input order as chunks
    complete: all chunks run concurrently, but a pair is released only once
    every earlier chunk has been consumed, so the caller can absorb -- and
    checkpoint -- each outcome incrementally without ever seeing results
    out of queue order.  Wall-clock-wise this is free: in-order consumption
    only ever *waits* on the earliest unfinished chunk, which an
    ``as_completed`` collector would have had to wait for anyway before
    returning.  ``pool_seconds`` is the shared wall-clock allowance for the
    whole pool (the parent meter's remaining budget).

    ``guidance`` (a :class:`~repro.atpg.guidance.GuidancePolicy`) ships to
    every worker's engine; ``costs`` (per-fault estimated effort, aligned
    with ``faults``) switches the partition from contiguous index chunks
    to cost-balanced bin packing -- the yield order is unaffected.
    """
    if not faults:
        return
    workers = max(1, workers)
    index_chunks = _partition_indices(
        len(faults), workers * CHUNKS_PER_WORKER, costs
    )
    chunks = [[faults[i] for i in chunk] for chunk in index_chunks]
    # Where each fault landed, so balanced (non-contiguous) partitions can
    # still be drained strictly in input order.
    placement: Dict[int, Tuple[int, int]] = {}
    for chunk_id, chunk in enumerate(index_chunks):
        for position, index in enumerate(chunk):
            placement[index] = (chunk_id, position)
    context = multiprocessing.get_context(_start_method())
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        mp_context=context,
        initializer=_worker_init,
        initargs=(circuit, budget, pool_seconds, guidance),
    ) as pool:
        futures = [
            pool.submit(_worker_chunk, (chunk, max_frames)) for chunk in chunks
        ]
        results: List[Optional[List[FaultOutcome]]] = [None] * len(chunks)
        for index in range(len(faults)):
            chunk_id, position = placement[index]
            if results[chunk_id] is None:
                results[chunk_id] = futures[chunk_id].result()
            yield faults[index], results[chunk_id][position]


__all__ = [
    "FaultOutcome",
    "iter_podem_partitioned",
    "default_workers",
    "CHUNKS_PER_WORKER",
]
