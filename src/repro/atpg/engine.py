"""The full ATPG engine: random phase + exact search.

Mirrors the two-phase organization of HITEC-era tools, with an exact
search in place of HITEC's PODEM-style deterministic phase:

1. **Random phase** -- weighted-random test sequences are generated in
   batches and fault-simulated together (PROOFS-style, with dropping) in a
   single bit-parallel pass per batch; sequences that detect new faults
   join the test set, and the phase ends after a run of unproductive
   sequences or when its budget share is spent.
2. **Exact search** -- the product-machine search of
   :mod:`repro.atpg.exact` decides every remaining fault within its
   lane-step cap: a shortest test, or a proof that no sequence detects the
   fault under 3-valued simulation from the all-X state.  Each test found
   is fault-simulated against the remaining faults to drop collateral
   detections.  A fault it leaves open -- over the cap, or undecided when
   the wall clock runs out -- is aborted.

The result reports fault coverage (%FC), fault efficiency (%FE = detected
plus proven-untestable faults) and spent effort (seconds, lane-steps) --
the quantities of the paper's Table II.  A fault is proven untestable
structurally (no path to any primary output) or by an exhausted exact
search (:attr:`AtpgResult.search_proved`).  Where the search decides every
fault, FE is exact under the grading semantics; where it aborts some, FE
is a lower bound.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.budget import AtpgBudget, EffortMeter, FaultEffort
from repro.atpg.exact import iter_exact
from repro.circuit.netlist import Circuit, LineRef
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim.parallel import parallel_fault_simulate
from repro.logic.three_valued import X
from repro.simulation.cache import vector_fast_stepper
from repro.simulation.codegen import FastStepper
from repro.simulation.vector_codegen import VectorFastStepper, rail_pair_trit
from repro.testset.model import TestSet


@dataclass
class AtpgResult:
    """Outcome of one ATPG run (one Table II cell group)."""

    circuit_name: str
    test_set: TestSet
    num_faults: int
    detected: Set[StuckAtFault]
    untestable: Set[StuckAtFault]
    aborted: Set[StuckAtFault]
    cpu_seconds: float
    random_detected: int
    deterministic_detected: int
    # Of ``aborted``: faults the search left over its lane-step cap (or
    # whose test failed its replay), and faults the clock stopped.
    search_exhausted: int = 0
    budget_aborted: int = 0
    random_seconds: float = 0.0
    deterministic_seconds: float = 0.0
    # Time-frame search effort: the exact search counts lane-steps instead
    # (per fault, in ``fault_rows``), so both stay 0.
    backtracks: int = 0
    frames_simulated: int = 0
    # The subset of ``untestable`` proved by an exhausted exact search;
    # the rest are structural.
    search_proved: Set[StuckAtFault] = field(default_factory=set)
    # Per-fault effort rows, in queue order.  Transient run telemetry:
    # not part of the persisted artifact.
    fault_rows: List[FaultEffort] = field(default_factory=list)

    @property
    def fault_coverage(self) -> float:
        """%FC: detected / total."""
        if not self.num_faults:
            return 100.0
        return 100.0 * len(self.detected) / self.num_faults

    @property
    def fault_efficiency(self) -> float:
        """%FE: (detected + proven untestable) / total."""
        if not self.num_faults:
            return 100.0
        return 100.0 * (len(self.detected) + len(self.untestable)) / self.num_faults

    def summary(self) -> str:
        return (
            f"{self.circuit_name}: FC {self.fault_coverage:.1f}% "
            f"FE {self.fault_efficiency:.1f}% "
            f"({len(self.detected)}/{self.num_faults} detected, "
            f"{len(self.untestable)} untestable, "
            f"{len(self.aborted)} aborted) in {self.cpu_seconds:.2f}s"
        )


def structurally_untestable(circuit: Circuit) -> Set[StuckAtFault]:
    """Faults on lines with no structural path to any primary output.

    Observability is propagated backward over *all* edges (registers
    included) to a fixpoint, so feedback loops are handled.
    """
    observable: Set[str] = {
        name
        for name, node in circuit.nodes.items()
        if node.kind.value == "output"
    }
    frontier = list(observable)
    while frontier:
        name = frontier.pop()
        for edge in circuit.in_edges(name):
            if edge.source not in observable:
                observable.add(edge.source)
                frontier.append(edge.source)
    untestable: Set[StuckAtFault] = set()
    for edge in circuit.edges:
        if edge.sink not in observable:
            for segment in range(1, edge.num_lines + 1):
                untestable.add(StuckAtFault(LineRef(edge.index, segment), 0))
                untestable.add(StuckAtFault(LineRef(edge.index, segment), 1))
    return untestable


def _synchronizing_walk(
    stepper,
    rng: random.Random,
    budget: AtpgBudget,
    num_inputs: int,
) -> List[Tuple[int, ...]]:
    """One weighted-random sequence biased toward synchronizing, then touring.

    While flip-flops are unknown, a few candidate vectors are sampled each
    cycle and the one resolving the most unknowns wins (greedy structural
    synchronization).  Once synchronized, vectors are drawn with
    *per-sequence per-input weights* -- the classic weighted-random-pattern
    technique.  Without it, an input that resets or re-synchronizes the
    machine fires every other cycle under uniform vectors and the walk
    never tours the deep states.

    Accepts the bit-parallel :class:`VectorFastStepper` (candidate vectors
    of one cycle are evaluated pattern-parallel in a single compiled step),
    the scalar :class:`FastStepper`, or the reference
    ``SequentialSimulator``.  All three consume the RNG identically and
    pick the first candidate with the fewest unknowns, so the emitted
    sequence is the same regardless of the engine.
    """
    if isinstance(stepper, VectorFastStepper):
        return _synchronizing_walk_vector(stepper, rng, budget, num_inputs)

    weights = [rng.choice((0.05, 0.2, 0.5, 0.8, 0.95)) for _ in range(num_inputs)]
    state = stepper.unknown_state()
    # Accept both the code-generated stepper (returns a plain tuple) and the
    # reference SequentialSimulator (returns a StepResult).
    raw_step = stepper.step
    if isinstance(stepper, FastStepper):
        step = lambda s, v: raw_step(s, v)[1]  # noqa: E731
    else:
        step = lambda s, v: raw_step(s, v).next_state  # noqa: E731
    sequence: List[Tuple[int, ...]] = []
    for _ in range(budget.random_length):
        best_vector = None
        best_state = None
        best_unknowns = None
        samples = budget.sync_samples if any(v == X for v in state) else 1
        for _ in range(samples):
            vector = tuple(
                1 if rng.random() < weights[i] else 0 for i in range(num_inputs)
            )
            next_state = step(state, vector)
            unknowns = sum(1 for v in next_state if v == X)
            if best_unknowns is None or unknowns < best_unknowns:
                best_vector, best_state, best_unknowns = vector, next_state, unknowns
        sequence.append(best_vector)
        state = best_state
    return sequence


def _synchronizing_walk_vector(
    stepper: VectorFastStepper,
    rng: random.Random,
    budget: AtpgBudget,
    num_inputs: int,
) -> List[Tuple[int, ...]]:
    """The walk on the compiled bit-parallel kernel.

    Each cycle's candidate vectors occupy one bit position apiece, so the
    whole sync-sample evaluation is a single ``step_clean`` call instead of
    ``sync_samples`` scalar steps.  RNG consumption and the first-best tie
    break match the scalar path exactly.
    """
    weights = [rng.choice((0.05, 0.2, 0.5, 0.8, 0.95)) for _ in range(num_inputs)]
    num_registers = stepper.compiled.num_registers
    state: Tuple[int, ...] = (X,) * num_registers
    step = stepper.step_clean
    sequence: List[Tuple[int, ...]] = []
    for _ in range(budget.random_length):
        samples = budget.sync_samples if any(v == X for v in state) else 1
        candidates = [
            tuple(1 if rng.random() < weights[i] else 0 for i in range(num_inputs))
            for _ in range(samples)
        ]
        mask = (1 << samples) - 1
        _, next_rails = step(
            stepper.broadcast_state(state, samples),
            stepper.pack_vectors(candidates),
            mask,
        )
        best = 0
        if samples > 1:
            known_words = [ones | zeros for ones, zeros in next_rails]
            best_unknowns = None
            for position in range(samples):
                bit = 1 << position
                unknowns = sum(1 for word in known_words if not word & bit)
                if best_unknowns is None or unknowns < best_unknowns:
                    best, best_unknowns = position, unknowns
        sequence.append(candidates[best])
        state = tuple(rail_pair_trit(pair, best) for pair in next_rails)
    return sequence


def _random_phase(
    circuit: Circuit,
    remaining: List[StuckAtFault],
    detected: Set[StuckAtFault],
    sequences: List[List[Tuple[int, ...]]],
    budget: AtpgBudget,
    meter: EffortMeter,
    rng: random.Random,
) -> Tuple[List[StuckAtFault], int]:
    """Batched weighted-random phase; returns (remaining, random_detected).

    ``random_batch`` synchronizing walks are generated per round and
    fault-simulated in **one** bit-parallel call, instead of one kernel
    invocation per sequence; detections are attributed to the earliest
    detecting walk (the simulator drops within the batch), so results match
    the one-call-per-sequence loop.  The remaining list is rebuilt once per
    round, and only when the round detected something.
    """
    random_detected = 0
    stale = 0
    produced = 0
    num_inputs = len(circuit.input_names)
    walker = vector_fast_stepper(circuit)
    while (
        produced < budget.random_sequences
        and remaining
        and stale < budget.random_stale_limit
        and not meter.out_of_time()
    ):
        count = min(budget.random_batch, budget.random_sequences - produced)
        batch = [
            _synchronizing_walk(walker, rng, budget, num_inputs)
            for _ in range(count)
        ]
        produced += count
        result = parallel_fault_simulate(circuit, batch, remaining)
        by_walk: Dict[int, Set[StuckAtFault]] = {}
        for fault, detection in result.detections.items():
            by_walk.setdefault(detection.sequence_index, set()).add(fault)
        newly_this_round: Set[StuckAtFault] = set()
        for index, walk in enumerate(batch):
            newly = by_walk.get(index)
            if newly:
                sequences.append(walk)
                detected |= newly
                newly_this_round |= newly
                random_detected += len(newly)
                stale = 0
            else:
                stale += 1
                if stale >= budget.random_stale_limit:
                    # Stale cut mid-batch: walks past the cut are discarded
                    # along with their detections, exactly as if they had
                    # never been generated.
                    break
        if newly_this_round:
            remaining = [f for f in remaining if f not in newly_this_round]
    return remaining, random_detected


def run_atpg(
    circuit: Circuit,
    faults: Optional[Sequence[StuckAtFault]] = None,
    budget: Optional[AtpgBudget] = None,
) -> AtpgResult:
    """Generate a test set for the circuit's (collapsed) fault list.

    After the random phase, the exact pair search (:mod:`repro.atpg.exact`)
    decides each remaining fault, up to ``budget.exact_lane_steps``
    lane-steps per fault.  The search is deterministic, so unless the
    clock stops it the result is a function of the circuit, the fault
    list and the budget.  A fault it leaves open is aborted: its effort
    row says ``"cap"`` (over the lane-step cap) or ``"budget"`` (the
    clock ran out first).
    """
    if budget is None:
        budget = AtpgBudget()
    if faults is None:
        faults = collapse_faults(circuit).representatives
    meter = EffortMeter(budget)
    rng = random.Random(budget.seed)

    untestable = structurally_untestable(circuit) & set(faults)
    remaining: List[StuckAtFault] = [f for f in faults if f not in untestable]
    detected: Set[StuckAtFault] = set()
    sequences: List[List[Tuple[int, ...]]] = []

    # ---- Phase 1: random sequences with fault-simulation feedback --------
    # Vectors are chosen with a light synchronization bias: at each cycle a
    # few random candidates are simulated pattern-parallel on the good
    # machine and the one resolving the most unknown flip-flops wins.  Pure
    # random vectors almost never synchronize a machine without a reset
    # line; this greedy walk is the standard practical fix.
    random_start = time.perf_counter()
    queue, random_detected = _random_phase(
        circuit, remaining, detected, sequences, budget, meter, rng
    )
    random_seconds = time.perf_counter() - random_start

    # ---- Phase 2: the exact pair search ----------------------------------
    # It decides every fault it can within its lane-step cap: a test, or a
    # proof that none exists.  Each test is replayed against every fault
    # still undecided, so collateral detections drop out of the queue.
    deterministic_start = time.perf_counter()
    deterministic_detected = 0
    abort_reason: Dict[StuckAtFault, str] = {}
    fault_rows: List[FaultEffort] = []
    search_proved: Set[StuckAtFault] = set()
    for fault, found in iter_exact(
        circuit,
        queue,
        budget.exact_lane_steps,
        skip=detected.__contains__,
        out_of_time=meter.out_of_time,
    ):
        if fault in detected:
            continue  # an earlier test of its batch detects it
        key = EffortMeter.fault_key(fault)
        if found.status == "time":
            fault_rows.append(FaultEffort(key, "budget"))
            abort_reason[fault] = "budget"
            continue
        fault_rows.append(FaultEffort(key, found.status, lane_steps=found.lane_steps))
        if found.status == "cap":
            abort_reason[fault] = "search"
        elif found.status == "proved":
            untestable.add(fault)
            search_proved.add(fault)
        else:
            replay = parallel_fault_simulate(
                circuit,
                [found.sequence],
                [f for f in queue if f not in detected and f not in untestable],
            )
            newly = set(replay.detections)
            if fault not in newly:
                # The test must detect its target; treat a mismatch as an
                # abort rather than trusting the search.
                abort_reason[fault] = "search"
                continue
            sequences.append(found.sequence)
            detected.update(newly)
            deterministic_detected += len(newly)
    deterministic_seconds = time.perf_counter() - deterministic_start

    # A fault left open may still have been detected collaterally by a
    # later fault's test; reconcile the partition.
    for fault in detected:
        abort_reason.pop(fault, None)
    aborted = set(abort_reason)

    test_set = TestSet.from_lists(
        circuit.name, len(circuit.input_names), sequences
    )
    return AtpgResult(
        circuit_name=circuit.name,
        test_set=test_set,
        num_faults=len(faults),
        detected=detected,
        untestable=untestable,
        aborted=aborted,
        cpu_seconds=meter.elapsed(),
        random_detected=random_detected,
        deterministic_detected=deterministic_detected,
        search_exhausted=sum(1 for r in abort_reason.values() if r == "search"),
        budget_aborted=sum(1 for r in abort_reason.values() if r == "budget"),
        random_seconds=random_seconds,
        deterministic_seconds=deterministic_seconds,
        search_proved=search_proved,
        fault_rows=fault_rows,
    )


__all__ = [
    "run_atpg",
    "AtpgResult",
    "structurally_untestable",
]
