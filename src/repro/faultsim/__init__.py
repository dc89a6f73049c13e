"""Fault simulation engines (serial reference + PROOFS-style parallel).

The uniform entry point is :func:`fault_simulate`.
"""

from typing import Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.model import StuckAtFault
from repro.faultsim.parallel import (
    DEFAULT_GROUP_SIZE,
    parallel_fault_simulate,
)
from repro.faultsim.result import Detection, FaultSimResult
from repro.faultsim.serial import TestSequence, serial_fault_simulate

ENGINES = ("parallel", "serial")


def fault_simulate(
    circuit: Circuit,
    sequences: Sequence[TestSequence],
    faults: Optional[Sequence[StuckAtFault]] = None,
    engine: str = "parallel",
    drop: bool = True,
    group_size: int = DEFAULT_GROUP_SIZE,
    workers: Optional[int] = None,
) -> FaultSimResult:
    """Fault-simulate a test set (a list of test sequences).

    Each sequence is applied from the all-unknown state, mirroring the
    paper's no-global-reset setting.  ``engine`` selects:

    * ``"parallel"`` -- PROOFS-style, (sequence x fault) lanes on the
      code-generated bit-parallel kernel (default);
    * ``"serial"`` -- one scalar faulty machine per fault (the reference
      engine).

    ``workers`` > 1 shards the fault list of the ``"parallel"`` engine
    across that many worker processes (see
    :func:`repro.faultsim.shard.sharded_fault_simulate`); results are
    bit-identical to the single-process run.
    """
    if engine == "parallel":
        if workers is not None and workers > 1:
            from repro.faultsim.shard import sharded_fault_simulate

            return sharded_fault_simulate(
                circuit,
                sequences,
                faults,
                workers=workers,
                drop=drop,
                group_size=group_size,
            )
        return parallel_fault_simulate(
            circuit,
            sequences,
            faults,
            drop=drop,
            group_size=group_size,
        )
    if engine == "serial":
        return serial_fault_simulate(circuit, sequences, faults, drop=drop)
    raise ValueError(f"unknown engine {engine!r} (expected one of {ENGINES})")


__all__ = [
    "fault_simulate",
    "serial_fault_simulate",
    "parallel_fault_simulate",
    "FaultSimResult",
    "Detection",
    "TestSequence",
    "ENGINES",
    "DEFAULT_GROUP_SIZE",
]
