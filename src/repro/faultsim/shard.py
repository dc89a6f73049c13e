"""Process-parallel fault-shard orchestration of the bit-parallel simulator.

The PROOFS-style engine is lane-parallel *within* one process: a pass
packs (sequence x fault) lanes into one compiled step.  For wide fault
lists there is a second, coarser axis -- the faults themselves are
independent, because a fault's recorded detection and its potential bit
depend only on its own lanes, each against the fault-free lane of its own
block (fault-drop merely stops simulating a fault after its first
detection; it never changes which cycle/output that first detection was).

So partitioning the fault list into disjoint shards of any size, running
the ordinary :func:`~repro.faultsim.parallel.parallel_fault_simulate` on
each shard in its own process, and unioning the per-shard detection maps
reproduces the single-process result **exactly** -- the merge is a
disjoint dict union, not a reconciliation.  The test suite asserts
bit-identical results against the single-process engine.

The pool plumbing mirrors :mod:`repro.atpg.parallel`: ``fork`` start
method where available (the parent's warm compile cache is inherited
copy-on-write), circuit shipped once per worker via the initializer,
several chunks per worker so an uneven shard does not serialize the pool.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim.parallel import DEFAULT_GROUP_SIZE, parallel_fault_simulate
from repro.faultsim.result import Detection, FaultSimResult
from repro.faultsim.serial import TestSequence
from repro.simulation.cache import warm_compile_cache

#: Several shards per worker: keeps the pool busy when fault-drop empties
#: one shard early, while still amortizing the per-shard dispatch.
SHARDS_PER_WORKER = 2


def default_workers() -> int:
    """Pool size when the caller asked for sharding without a count: one
    per core, capped at 4 (the kernel saturates memory bandwidth well
    before wide pools pay off on small circuits)."""
    return max(1, min(4, os.cpu_count() or 1))


def _start_method() -> str:
    """``fork`` where the platform offers it (cheap, and the parent's warm
    compile cache is inherited copy-on-write); ``spawn`` otherwise."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# Per-process worker state, populated by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def _worker_init(
    circuit: Circuit,
    sequences: Sequence[TestSequence],
    drop: bool,
    group_size: int,
) -> None:
    warm_compile_cache(circuit)
    _WORKER_STATE["circuit"] = circuit
    _WORKER_STATE["sequences"] = sequences
    _WORKER_STATE["drop"] = drop
    _WORKER_STATE["group_size"] = group_size


def _worker_shard(
    shard: Sequence[StuckAtFault],
) -> Tuple[List[Tuple[StuckAtFault, Detection]], Set[StuckAtFault]]:
    result = parallel_fault_simulate(
        _WORKER_STATE["circuit"],
        _WORKER_STATE["sequences"],
        shard,
        drop=_WORKER_STATE["drop"],
        group_size=_WORKER_STATE["group_size"],
    )
    return list(result.detections.items()), result.potential


def sharded_fault_simulate(
    circuit: Circuit,
    sequences: Sequence[TestSequence],
    faults: Optional[Sequence[StuckAtFault]] = None,
    workers: Optional[int] = None,
    drop: bool = True,
    group_size: int = DEFAULT_GROUP_SIZE,
) -> FaultSimResult:
    """Fault-simulate with the fault list sharded across worker processes.

    Results are bit-identical to a single
    :func:`~repro.faultsim.parallel.parallel_fault_simulate` call over the
    whole list (same ``drop``/``group_size`` semantics per shard, exact
    disjoint merge).  Worth it only when the
    fault list spans many groups *and* the host has spare cores; a
    one-worker request skips the pool entirely.
    """
    if faults is None:
        faults = collapse_faults(circuit).representatives
    faults = list(faults)
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # A pool cannot pay for itself on one worker or on fewer faults than
    # fill one lane group.
    if workers == 1 or len(faults) <= group_size - 1:
        return parallel_fault_simulate(
            circuit,
            sequences,
            faults,
            drop=drop,
            group_size=group_size,
        )
    shard_size = -(-len(faults) // (workers * SHARDS_PER_WORKER))
    shards = [
        faults[index : index + shard_size]
        for index in range(0, len(faults), shard_size)
    ]
    sequences = [list(sequence) for sequence in sequences]
    context = multiprocessing.get_context(_start_method())
    result = FaultSimResult(circuit.name, "parallel-sharded", tuple(faults))
    with ProcessPoolExecutor(
        max_workers=min(workers, len(shards)),
        mp_context=context,
        initializer=_worker_init,
        initargs=(circuit, sequences, drop, group_size),
    ) as pool:
        for detections, potential in pool.map(_worker_shard, shards):
            result.detections.update(detections)
            result.potential |= potential
    return result


__all__ = [
    "SHARDS_PER_WORKER",
    "default_workers",
    "sharded_fault_simulate",
]
