"""The full ATPG engine: random phase + deterministic phase.

Mirrors the two-phase organization of HITEC-era tools:

1. **Random phase** -- weighted-random test sequences are generated in
   batches and fault-simulated together (PROOFS-style, with dropping) in a
   single bit-parallel pass per batch; sequences that detect new faults
   join the test set, and the phase ends after a run of unproductive
   sequences or when its budget share is spent.
2. **Deterministic phase** -- the exact product-machine search of
   :mod:`repro.atpg.exact` first decides every remaining fault within its
   lane-step cap: a shortest test, or a proof that no sequence detects the
   fault under 3-valued simulation from the all-X state.  Every fault it
   leaves open (over the cap, or all of them with
   ``AtpgBudget.exact_lane_steps == 0``) is targeted by the sequential
   PODEM engine under a per-fault backtrack limit and a
   global wall-clock budget.  Sequences found are fault-simulated against
   the remaining faults to drop collateral detections.  PODEM runs either
   in-process (``engine="serial"``) or partitioned across a pool of PODEM
   worker processes (``engine="process"``, see :mod:`repro.atpg.parallel`);
   both produce the same detected/untestable/aborted partition and the
   same test set whenever the wall-clock limits are not binding, because
   worker results are replayed in fault-queue order on the parent.

The result reports fault coverage (%FC), fault efficiency (%FE = detected
plus proven-untestable faults) and spent effort (seconds, backtracks) --
the quantities of the paper's Table II.  A fault is proven untestable
structurally (no path to any primary output) or by an exhausted exact
search (:attr:`AtpgResult.search_proved`).  Where the search decides every
fault, FE is exact under the grading semantics; where PODEM aborts, FE is
a lower bound, since HITEC's sequential redundancy identification is out
of scope.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.budget import AtpgBudget, EffortMeter, FaultEffort
from repro.atpg.exact import iter_exact
from repro.atpg.guidance import GuidancePolicy, fault_sort_key, make_policy
from repro.atpg.parallel import (
    FaultOutcome,
    default_workers,
    iter_podem_partitioned,
)
from repro.atpg.podem import PodemEngine
from repro.circuit.netlist import Circuit, LineRef
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim.parallel import parallel_fault_simulate
from repro.logic.three_valued import X
from repro.simulation.backends import resolve_backend
from repro.simulation.cache import vector_fast_stepper
from repro.simulation.codegen import FastStepper
from repro.simulation.vector_codegen import VectorFastStepper, rail_pair_trit
from repro.testset.model import TestSet

ATPG_ENGINES = ("serial", "process", "auto")

#: Below this many deterministic targets a process pool cannot amortize its
#: per-worker initialization (circuit pickle + cache warm-up + kernel exec).
MIN_POOL_FAULTS = 16


def choose_engine(
    num_faults: int,
    workers: Optional[int] = None,
    cpus: Optional[int] = None,
) -> Tuple[str, str]:
    """Pick the deterministic-phase engine for an ``engine="auto"`` run.

    Returns ``(engine, reason)``.  The pool only pays off when there are
    both cores to spread over and enough targeted faults to amortize the
    per-worker warm-up, so single-CPU hosts and small fault partitions
    fall back to the serial loop.
    """
    if cpus is None:
        cpus = os.cpu_count() or 1
    if cpus <= 1:
        return "serial", f"auto: single cpu (cpus={cpus})"
    if num_faults < MIN_POOL_FAULTS:
        return (
            "serial",
            f"auto: fault partition below threshold "
            f"({num_faults} < {MIN_POOL_FAULTS})",
        )
    pool = workers if workers is not None else default_workers()
    return (
        "process",
        f"auto: {num_faults} faults across {pool} workers (cpus={cpus})",
    )


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
    backtracks: int
    random_detected: int
    deterministic_detected: int
    search_exhausted: int = 0
    budget_aborted: int = 0
    random_seconds: float = 0.0
    deterministic_seconds: float = 0.0
    engine: str = "serial"
    workers: int = 1
    engine_reason: str = ""
    simulations: int = 0
    frames_simulated: int = 0
    lanes_evaluated: int = 0
    guidance: str = "off"
    objective_choices: int = 0
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
            f"{len(self.aborted)} aborted) in {self.cpu_seconds:.2f}s, "
            f"{self.backtracks} backtracks"
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
    backend: str = "auto",
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
        result = parallel_fault_simulate(circuit, batch, remaining, backend=backend)
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


def _effort_row(fault: StuckAtFault, outcome: FaultOutcome) -> FaultEffort:
    """Rebuild the per-fault effort row a pool worker metered remotely."""
    if not outcome.attempted:
        return FaultEffort(EffortMeter.fault_key(fault), "budget")
    if outcome.detected:
        status = "det"
    elif outcome.aborted:
        status = "abort"
    else:
        status = "exhausted"
    return FaultEffort(
        fault_key=EffortMeter.fault_key(fault),
        status=status,
        seconds=outcome.seconds,
        backtracks=outcome.backtracks,
        simulations=outcome.simulations,
        frames_simulated=outcome.frames_simulated,
        lanes_evaluated=outcome.lanes_evaluated,
        objective_choices=outcome.objective_choices,
    )


def run_atpg(
    circuit: Circuit,
    faults: Optional[Sequence[StuckAtFault]] = None,
    budget: Optional[AtpgBudget] = None,
    *,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    backend: str = "auto",
    guidance="off",
    checkpoint=None,
    resume: bool = False,
) -> AtpgResult:
    """Generate a test set for the circuit's (collapsed) fault list.

    After the random phase, the exact pair search (:mod:`repro.atpg.exact`)
    decides each remaining fault, up to ``budget.exact_lane_steps``
    lane-steps per fault; only faults over that cap are left to PODEM.
    The search is deterministic and engine- and backend-independent.

    ``engine`` selects how PODEM runs: ``"serial"``
    (default) targets faults one at a time in-process; ``"process"``
    partitions them across ``workers`` PODEM worker processes;
    ``"auto"`` defers the choice to :func:`choose_engine` once the
    post-random fault partition is known (serial on single-CPU hosts or
    small partitions, process otherwise).  When ``engine`` is omitted it
    is inferred from ``workers`` (a count above 1 selects the process
    pool).  Both engines yield the same partition and test set for a
    given seed whenever the wall-clock budget is not the binding limit.

    ``backend`` selects the word implementation for the bit-parallel
    kernels (``"bigint"``, ``"numpy"``, or ``"auto"``, see
    :mod:`repro.simulation.backends`).  All backends produce bit-identical
    detections and test sets; only the speed differs.

    ``guidance`` steers the deterministic phase (see
    :mod:`repro.atpg.guidance`): ``"off"`` (default) keeps every choice
    bit-identical to the unguided engine; ``"scoap"`` orders faults
    hardest-first, ranks PODEM objectives, and prunes provably-infeasible
    time frames from SCOAP testability measures.  A prebuilt
    :class:`~repro.atpg.guidance.GuidancePolicy` is accepted directly.
    Guided runs are deterministic (every ranking ties on the fault key)
    but ordered differently from unguided runs, so their test sets are
    interchangeable -- same coverage contract, verified by the
    preservation suites -- rather than byte-identical.  A ``checkpoint``
    written under one guidance mode should only be resumed under the
    same mode (the flow pipeline keys checkpoints accordingly).

    ``checkpoint`` (an :class:`~repro.store.checkpoint.AtpgCheckpoint`)
    makes the run journal its per-fault outcomes as it goes; with
    ``resume=True`` a valid checkpoint for the same (circuit, faults,
    budget) triple restores the random phase and every deterministic
    detection/exhaustion already proven, so only budget-aborted and
    never-reached faults are targeted again.  Restored outcomes are folded
    back through the same queue-order collateral replay as live ones, so a
    resumed run's test set is bit-identical to an uninterrupted run's
    whenever the wall clock is not the binding limit.
    """
    if budget is None:
        budget = AtpgBudget()
    # Fail fast on an unknown/unavailable backend, before any phase runs.
    resolve_backend(backend)
    if engine is None:
        engine = "process" if workers is not None and workers > 1 else "serial"
        engine_reason = f"inferred from workers={workers}"
    else:
        engine_reason = "requested"
    if engine not in ATPG_ENGINES:
        raise ValueError(f"unknown engine {engine!r} (expected one of {ATPG_ENGINES})")
    if isinstance(guidance, GuidancePolicy):
        policy: Optional[GuidancePolicy] = guidance
    else:
        policy = make_policy(circuit, guidance)  # validates the mode string
    guidance_mode = "scoap" if policy is not None else "off"
    if engine == "process":
        workers = workers if workers is not None else default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
    elif engine == "serial":
        workers = 1
    if faults is None:
        faults = collapse_faults(circuit).representatives
    meter = EffortMeter(budget)
    rng = random.Random(budget.seed)

    restored = None
    if checkpoint is not None and resume:
        restored = checkpoint.load(circuit, faults, budget)

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
    if restored is not None:
        # The phase is seeded, so replaying it would reproduce these very
        # sequences; restoring them verbatim just skips the simulation.
        checkpoint.resume_marker()
        sequences = [list(seq) for seq in restored.sequences]
        detected = set(restored.random_detected_faults)
        random_detected = restored.random_detected
        remaining = [f for f in remaining if f not in detected]
    else:
        if checkpoint is not None:
            checkpoint.start(circuit, faults, budget)
        remaining, random_detected = _random_phase(
            circuit, remaining, detected, sequences, budget, meter, rng, backend
        )
        if checkpoint is not None:
            checkpoint.record_random_phase(sequences, detected, random_detected)
    random_seconds = time.perf_counter() - random_start

    # ---- Phase 2: deterministic search -----------------------------------
    # The time-frame window must cover the circuit's sequential depth:
    # justification through R flip-flops can need on the order of R frames.
    # This is the structural mechanism behind the paper's Table II blowup:
    # retimed circuits carry several times more flip-flops, so the
    # deterministic engine unrolls deeper and every targeted fault costs
    # more.
    deterministic_start = time.perf_counter()
    # ``frames_cap`` bounds the escalation so a register-rich circuit cannot
    # force arbitrarily deep (and arbitrarily expensive) unrolls.
    max_frames = min(
        budget.frames_cap, max(budget.max_frames, 2 * circuit.num_registers())
    )
    deterministic_detected = 0
    abort_reason: Dict[StuckAtFault, str] = {}
    fault_rows: List[FaultEffort] = []
    search_proved: Set[StuckAtFault] = set()
    queue = list(remaining)
    queue_costs: Optional[Dict[StuckAtFault, float]] = None
    if policy is not None and queue:
        # Guided ordering: hardest faults first.  Hard faults need deep
        # time-frame windows, and the long sequences they produce are
        # replayed against the whole queue -- sweeping much of the cheap
        # tail as collateral detections before it is ever targeted.
        # Tackling them while the per-fault budget is untouched also
        # avoids re-deriving their windows late.  (Measured on the Table
        # II set: never worse than cheapest-first, and up to 13% less
        # deterministic effort on the s510/s820 retimings.)  The explicit
        # fault-key tie-break keeps the order reproducible across
        # processes and Python versions.
        queue_costs = policy.score_faults(circuit, queue)
        queue.sort(key=lambda f: (-queue_costs[f], fault_sort_key(f)))

    def absorb(fault: StuckAtFault, outcome: FaultOutcome) -> None:
        """Fold one search outcome into the global partition (queue order).

        An accepted sequence is bit-parallel fault-simulated against every
        fault still undecided, so collateral detections are dropped from
        the queue -- and, in process mode, duplicate effort spent on them
        by other workers is discarded when their turn comes.
        """
        nonlocal deterministic_detected
        if not outcome.attempted:
            abort_reason[fault] = "budget"
            return
        if outcome.detected and outcome.sequence is not None:
            replay = parallel_fault_simulate(
                circuit,
                [outcome.sequence],
                [f for f in queue if f not in detected and f not in untestable],
                backend=backend,
            )
            newly = set(replay.detections)
            if fault not in newly:
                # The generated sequence must detect its target; treat a
                # mismatch as an abort rather than trusting the search.
                abort_reason[fault] = "search"
                return
            sequences.append(outcome.sequence)
            detected.update(newly)
            deterministic_detected += len(newly)
        elif outcome.aborted:
            abort_reason[fault] = "budget"
        else:
            abort_reason[fault] = "search"  # exhausted within frame bound

    # The exact pair search decides every fault it can within its
    # lane-step cap: a test, or a proof that none exists.  It keeps no
    # journal, so a resumed run simply reruns it.  Its outcomes fold in
    # queue order like PODEM's; faults over the cap go on to PODEM
    # afterwards, in queue order.  When the clock runs out mid-search,
    # the faults it leaves undecided reach the PODEM loop out of time,
    # which budget-aborts them.
    targets = queue
    if queue and budget.exact_lane_steps > 0:
        targets = []
        for fault, found in iter_exact(
            circuit,
            queue,
            budget.exact_lane_steps,
            skip=detected.__contains__,
            backend=backend,
            out_of_time=meter.out_of_time,
        ):
            if fault in detected:
                continue  # an earlier test of its batch detects it
            if found.status in ("cap", "time"):
                targets.append(fault)
                continue
            fault_rows.append(
                FaultEffort(
                    EffortMeter.fault_key(fault),
                    found.status,
                    lane_steps=found.lane_steps,
                )
            )
            if found.status == "proved":
                untestable.add(fault)
                search_proved.add(fault)
            else:
                absorb(fault, FaultOutcome(True, found.sequence, 0, False))

    # ``auto`` decides here, with the post-random partition in hand: a pool
    # is only worth spinning up for enough faults on enough cores.
    if engine == "auto":
        engine, engine_reason = choose_engine(len(targets), workers)
        workers = (
            (workers if workers is not None else default_workers())
            if engine == "process"
            else 1
        )

    # Restored outcomes (detections and search exhaustions proven by the
    # interrupted run -- both deterministic) short-circuit their faults;
    # clock-dependent outcomes (budget aborts, never-reached faults) were
    # deliberately not restored and rejoin the live queue below.
    def restored_outcome(fault: StuckAtFault):
        if restored is None:
            return None
        return restored.restorable(fault)

    if engine == "process" and targets:
        # Only non-restored faults go to the pool; restored ones are folded
        # in at their original queue positions so the collateral replay
        # sees the exact interleaving an uninterrupted run would have.
        pending = [f for f in targets if restored_outcome(f) is None]
        pool = iter_podem_partitioned(
            circuit,
            pending,
            budget,
            max_frames,
            workers,
            meter.remaining(),
            guidance=policy,
            costs=(
                [queue_costs[f] for f in pending]
                if queue_costs is not None
                else None
            ),
        )
        for fault in targets:
            record = restored_outcome(fault)
            if record is None:
                _pool_fault, outcome = next(pool)
            if fault in detected:
                # Collaterally detected by an earlier accepted sequence;
                # the worker's redundant effort is dropped, matching the
                # serial loop which never targets such faults.
                continue
            if record is not None:
                meter.backtracks += record.backtracks
                absorb(
                    fault,
                    FaultOutcome(
                        record.status == "det", record.sequence, record.backtracks, False
                    ),
                )
                continue
            meter.backtracks += outcome.backtracks
            meter.simulations += outcome.simulations
            meter.frames_simulated += outcome.frames_simulated
            meter.lanes_evaluated += outcome.lanes_evaluated
            meter.objective_choices += outcome.objective_choices
            fault_rows.append(_effort_row(fault, outcome))
            if checkpoint is not None:
                checkpoint.record_fault(fault, outcome)
            absorb(fault, outcome)
    else:
        # Built for the first PODEM target only: construction compiles the
        # dual stepper, which a fully searched run never calls.
        podem = None
        for fault in targets:
            if fault in detected:
                continue
            record = restored_outcome(fault)
            if record is not None:
                meter.backtracks += record.backtracks
                absorb(
                    fault,
                    FaultOutcome(
                        record.status == "det", record.sequence, record.backtracks, False
                    ),
                )
                continue
            if meter.out_of_time():
                # The shared clock expired before this fault was targeted;
                # it still flushes a (zero-effort) row so the telemetry
                # accounts for every queued fault.
                meter.skip_fault(fault)
                fault_rows.append(meter.fault_rows[-1])
                abort_reason[fault] = "budget"
                continue
            if podem is None:
                podem = PodemEngine(circuit, guidance=policy)
            result = podem.generate(
                fault,
                meter,
                max_frames=max_frames,
                deadline=time.perf_counter() + budget.seconds_per_fault,
            )
            fault_rows.append(meter.fault_rows[-1])
            outcome = FaultOutcome(
                result.detected, result.sequence, result.backtracks, result.aborted
            )
            if checkpoint is not None:
                checkpoint.record_fault(fault, outcome)
            absorb(fault, outcome)
    deterministic_seconds = time.perf_counter() - deterministic_start
    if checkpoint is not None:
        checkpoint.close()

    # A fault aborted by its own search may still have been detected
    # collaterally by a later fault's sequence; reconcile the partition.
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
        backtracks=meter.backtracks,
        random_detected=random_detected,
        deterministic_detected=deterministic_detected,
        search_exhausted=sum(1 for r in abort_reason.values() if r == "search"),
        budget_aborted=sum(1 for r in abort_reason.values() if r == "budget"),
        random_seconds=random_seconds,
        deterministic_seconds=deterministic_seconds,
        engine=engine,
        workers=workers,
        engine_reason=engine_reason,
        simulations=meter.simulations,
        frames_simulated=meter.frames_simulated,
        lanes_evaluated=meter.lanes_evaluated,
        guidance=guidance_mode,
        objective_choices=meter.objective_choices,
        search_proved=search_proved,
        fault_rows=fault_rows,
    )


__all__ = [
    "run_atpg",
    "AtpgResult",
    "structurally_untestable",
    "choose_engine",
    "ATPG_ENGINES",
    "MIN_POOL_FAULTS",
]
