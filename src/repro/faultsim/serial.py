"""Serial three-valued fault simulation (the reference engine).

One scalar faulty-machine simulation per fault, compared cycle by cycle
against the fault-free simulation.  A fault is *detected* when, at some
cycle, some primary output carries a binary value in both machines and the
values differ (the standard hard-detection criterion; a faulty ``X`` against
a binary good value is not counted, matching PROOFS).  Such an ``X`` marks
the fault *potentially* detected, while the fault is still simulated.

Every test sequence starts both machines from the all-unknown state: the
paper's setting of circuits without a global reset, where each test sequence
must synchronize the machine itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim.result import Detection, FaultSimResult
from repro.logic.three_valued import Trit, X
from repro.simulation.cache import compiled_circuit
from repro.simulation.sequential import SequentialSimulator

TestSequence = Sequence[Sequence[Trit]]


def serial_fault_simulate(
    circuit: Circuit,
    sequences: Sequence[TestSequence],
    faults: Optional[Sequence[StuckAtFault]] = None,
    drop: bool = True,
) -> FaultSimResult:
    """Fault-simulate ``sequences`` serially.

    Args:
        circuit: circuit under test.
        sequences: test sequences; each is applied from the all-X state.
        faults: fault list (default: collapsed representatives of the full
            universe).
        drop: stop simulating a fault once detected.
    """
    if faults is None:
        faults = collapse_faults(circuit).representatives
    compiled = compiled_circuit(circuit)
    good_sim = SequentialSimulator(circuit, compiled=compiled)
    output_names = circuit.output_names
    result = FaultSimResult(circuit.name, "serial", tuple(faults))

    good_traces = [good_sim.run(sequence) for sequence in sequences]

    for fault in faults:
        faulty_sim = SequentialSimulator(circuit, fault=fault, compiled=compiled)
        for seq_index, sequence in enumerate(sequences):
            if fault in result.detections and drop:
                break
            good_outputs = good_traces[seq_index].outputs
            state = faulty_sim.unknown_state()
            stopped = False
            for cycle, vector in enumerate(sequence):
                step = faulty_sim.step(state, tuple(vector))
                state = step.next_state
                # Outputs in order: with dropping the fault stops at its
                # first detecting output, so an X at a later output of
                # that cycle is not a potential detection.
                for name, good_value, faulty_value in zip(
                    output_names, good_outputs[cycle], step.outputs
                ):
                    if good_value == X:
                        continue
                    if faulty_value == X:
                        result.potential.add(fault)
                    elif faulty_value != good_value:
                        result.detections.setdefault(
                            fault, Detection(seq_index, cycle, name)
                        )
                        if drop:
                            stopped = True
                            break
                if stopped:
                    break
    return result


__all__ = ["serial_fault_simulate", "TestSequence"]
