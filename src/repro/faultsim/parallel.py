"""PROOFS-style parallel fault simulation.

Following Niermann/Cheng/Patel's PROOFS (reference [9] of the paper), faults
are packed into machine words -- bit 0 carries the fault-free machine, every
other bit position an independent faulty machine with its stuck-at injection
applied at its own line -- and the whole group is simulated in one
bit-parallel pass per test sequence.  Detected faults are dropped as soon as
they are found: they are skipped when later groups of the same sequence are
formed and removed from the pending list before the next sequence.

Two kernels implement the group step:

* ``"compiled"`` (default) -- the code-generated
  :class:`~repro.simulation.vector_codegen.VectorFastStepper`: straight-line
  dual-rail integer code with the group's stuck-at masks passed as runtime
  parameters, so one compiled function (cached module-wide, see
  :mod:`repro.simulation.cache`) serves every fault group;
* ``"interpreted"`` -- the original
  :class:`~repro.simulation.vector.VectorSimulator` loop, kept as a
  reference point for the cross-engine tests and the performance harness.

The word width is arbitrary (Python integers).  The default of 1024
positions per group sits at the knee of the width sweep recorded in
``BENCH_faultsim.json`` (see ``benchmarks/perf_faultsim.py``): wider groups
amortize per-cycle costs over more faults with no recompilation, and on the
Table II circuits the gain saturates around 1024 (the collapsed fault lists
fit in one or two groups; beyond that, big-integer word operations stop
being effectively constant-time).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim.result import Detection, FaultSimResult
from repro.faultsim.serial import TestSequence
from repro.logic.three_valued import ONE, Trit, ZERO
from repro.simulation.backends import resolve_backend
from repro.simulation.cache import compiled_circuit, vector_fast_stepper
from repro.simulation.vector import VectorSimulator
from repro.simulation.vector_codegen import VectorFastStepper

DEFAULT_GROUP_SIZE = 1024

KERNELS = ("compiled", "interpreted")


def parallel_fault_simulate(
    circuit: Circuit,
    sequences: Sequence[TestSequence],
    faults: Optional[Sequence[StuckAtFault]] = None,
    drop: bool = True,
    group_size: int = DEFAULT_GROUP_SIZE,
    kernel: str = "compiled",
    backend: str = "auto",
) -> FaultSimResult:
    """Fault-simulate ``sequences`` with fault-parallel words.

    Semantics are identical to :func:`repro.faultsim.serial.
    serial_fault_simulate` (the test suite cross-checks them); only the
    engine differs.  ``kernel`` selects the compiled bit-parallel stepper
    (default) or the interpreted ``VectorSimulator`` reference loop;
    ``backend`` picks the word implementation for the compiled kernel --
    Python bigints (the reference) or the numpy word-plane lowering (see
    :mod:`repro.simulation.wordplane`), with ``"auto"`` preferring numpy
    when the optional dependency is installed.  Detection results are
    bit-identical across backends (the parity suite enforces it).
    """
    if group_size < 2:
        raise ValueError("group_size must leave room for the fault-free bit")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r} (expected one of {KERNELS})")
    resolved = resolve_backend(backend)
    if faults is None:
        faults = collapse_faults(circuit).representatives
    result = FaultSimResult(circuit.name, "parallel", tuple(faults))
    if kernel == "compiled":
        stepper = vector_fast_stepper(circuit)
        _validate_fault_lines(circuit, faults, stepper)
        if resolved == "numpy":
            simulate_group = _make_wordplane_group(stepper, _make_compiled_group(stepper))
        else:
            simulate_group = _make_compiled_group(stepper)
    else:
        compiled = compiled_circuit(circuit)
        simulate_group = _make_interpreted_group(circuit, compiled)

    remaining: List[StuckAtFault] = list(faults)
    output_names = circuit.output_names

    for seq_index, sequence in enumerate(sequences):
        vectors = [tuple(v) for v in sequence]
        if not vectors:
            continue
        pending = remaining if drop else list(faults)
        detected_before = len(result.detections)
        position = 0
        while position < len(pending):
            group: List[StuckAtFault] = []
            while position < len(pending) and len(group) < group_size - 1:
                fault = pending[position]
                position += 1
                # Skip faults another group of this same sequence already
                # detected (with dropping, re-simulating them is pure waste).
                if drop and fault in result.detections:
                    continue
                group.append(fault)
            if group:
                simulate_group(vectors, group, seq_index, output_names, result, drop)
        if drop and len(result.detections) > detected_before:
            # Rebuilding the pending list is O(faults) per sequence; skip it
            # for the (common, late-run) sequences that detected nothing.
            remaining = [f for f in remaining if f not in result.detections]
    return result


def _validate_fault_lines(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    stepper: VectorFastStepper,
) -> None:
    """Reject faults on lines that do not exist on their edge."""
    for fault in faults:
        if fault.line not in stepper.line_slot:
            edge = circuit.edge(fault.line.edge_index)
            raise ValueError(f"line {fault.line} does not exist on edge {edge}")


class _GroupScan:
    """Per-group recording state shared across cycles and outputs.

    ``live_mask`` holds the bits of still-undetected faults;
    ``potential_seen`` the bits already added to ``result.potential`` by
    this group, so a fault whose unknown output persists across cycles is
    enumerated (and hashed into the set) only once."""

    __slots__ = ("live_mask", "potential_seen")

    def __init__(self, live_mask: int):
        self.live_mask = live_mask
        self.potential_seen = 0


def _record_group_observations(
    ones: int,
    zeros: int,
    scan: _GroupScan,
    group: Sequence[StuckAtFault],
    seq_index: int,
    cycle: int,
    output_name: str,
    result: FaultSimResult,
    drop: bool,
) -> None:
    """Record detections/potentials for one output word, updating
    ``scan.live_mask`` (bits of still-undetected faults)."""
    live_mask = scan.live_mask
    if ones & 1:
        detecting = zeros & live_mask
    elif zeros & 1:
        detecting = ones & live_mask
    else:
        return
    # Potential detections: good binary, faulty unknown (PROOFS'
    # "potentially detected" class).
    unknown = ~(ones | zeros) & live_mask & ~scan.potential_seen
    scan.potential_seen |= unknown
    while unknown:
        bit = (unknown & -unknown).bit_length() - 1
        unknown &= unknown - 1
        result.potential.add(group[bit - 1])
    while detecting:
        bit = (detecting & -detecting).bit_length() - 1
        detecting &= detecting - 1
        fault = group[bit - 1]
        result.detections.setdefault(
            fault, Detection(seq_index, cycle, output_name)
        )
        if drop:
            live_mask &= ~(1 << bit)
    scan.live_mask = live_mask


def _make_compiled_group(stepper: VectorFastStepper):
    """Group simulation on the code-generated bit-parallel kernel."""

    def simulate_group(
        vectors: Sequence[Tuple[Trit, ...]],
        group: Sequence[StuckAtFault],
        seq_index: int,
        output_names: Sequence[str],
        result: FaultSimResult,
        drop: bool,
    ) -> None:
        width = len(group) + 1
        mask = (1 << width) - 1
        sa1, sa0 = stepper.blank_injection_masks()
        line_slot = stepper.line_slot
        for bit, fault in enumerate(group, start=1):
            slot = line_slot[fault.line]
            if fault.value == ONE:
                sa1[slot] |= 1 << bit
            else:
                sa0[slot] |= 1 << bit
        state = stepper.unknown_state()
        scan = _GroupScan(mask & ~1)  # faulty bits not yet detected
        step = stepper.step_inject
        broadcast = stepper.broadcast_vector
        for cycle, vector in enumerate(vectors):
            outputs, state = step(state, broadcast(vector, width), mask, sa1, sa0)
            for out_pos, (ones, zeros) in enumerate(outputs):
                _record_group_observations(
                    ones,
                    zeros,
                    scan,
                    group,
                    seq_index,
                    cycle,
                    output_names[out_pos],
                    result,
                    drop,
                )
            if drop and not scan.live_mask:
                break

    return simulate_group


# Below this group width the numpy backend hands the group to the bigint
# kernel: the word-plane step is ufunc-dispatch-bound (its cost is nearly
# width-independent up to a few thousand lanes), so narrow late-run groups
# -- after dropping has thinned the fault list -- run faster on bigints.
# Both kernels are bit-identical, so the handoff is invisible in results;
# the threshold sits where the measured crossover lands on the Table II
# circuits (see BENCH_faultsim.json).
WORDPLANE_MIN_WIDTH = 192


def _make_wordplane_group(stepper: VectorFastStepper, narrow_fallback):
    """Group simulation on the numpy word-plane backend.

    Bit-identical to :func:`_make_compiled_group`: the same injection slots
    drive the same dual-rail program, and every live-mask decision goes
    through the same :func:`_record_group_observations` on exact packed
    words.  The numpy side only restructures the *scan*: a cheap vectorized
    prescan per cycle finds the outputs with detecting lanes (usually none
    after dropping) and the exact bigint scan runs only on those, while
    potential detections -- which carry no cycle/output attribution in the
    result model -- are OR-accumulated as a word per group and harvested
    once at the end.
    """
    from repro.simulation.wordplane import int_from_words, words_from_int, wordplane_plan

    plan = wordplane_plan(stepper)
    line_slot = stepper.line_slot
    # Runners by word count, each a whole number of words wide; a group's
    # spare lanes carry no fault and are never live, so they never count.
    # Dropping narrows the groups sequence by sequence, so only the two
    # most recently used runners are kept (a sequence's full groups and
    # its remainder): each holds about a megabyte of planes.
    runners: Dict[int, object] = {}
    # Input planes depend only on (vector, runner); groups of one sequence
    # share the vectors list, so pack it once per (sequence, runner).
    packed_inputs: Dict[int, Tuple[Sequence, list]] = {}

    def simulate_group(
        vectors: Sequence[Tuple[Trit, ...]],
        group: Sequence[StuckAtFault],
        seq_index: int,
        output_names: Sequence[str],
        result: FaultSimResult,
        drop: bool,
    ) -> None:
        width = len(group) + 1
        if width < WORDPLANE_MIN_WIDTH:
            narrow_fallback(vectors, group, seq_index, output_names, result, drop)
            return
        words = -(-width // 64)
        runner = runners.pop(words, None)
        if runner is None:
            runner = plan.runner(64 * words)
            if len(runners) > 1:
                evicted = next(iter(runners))
                del runners[evicted]
                packed_inputs.pop(evicted, None)
        runners[words] = runner  # most recently used last
        cached = packed_inputs.get(words)
        if cached is None or cached[0] is not vectors:
            packed = [runner.pack_input_bits(vector) for vector in vectors]
            packed_inputs[words] = (vectors, packed)
        else:
            packed = cached[1]
        runner.set_group_faults(
            [line_slot[fault.line] for fault in group],
            [1 if fault.value == ONE else 0 for fault in group],
        )
        runner.reset_state()
        scan = _GroupScan(((1 << width) - 1) & ~1)
        live_words = words_from_int(scan.live_mask, runner.words)
        potential_acc = words_from_int(0, runner.words)
        for cycle, vector in enumerate(vectors):
            runner.load_input_bits(*packed[cycle])
            runner.step()
            hits = runner.detect_scan(live_words, potential_acc)
            if hits is None:
                continue
            before = scan.live_mask
            for out_pos in hits:
                ones, zeros = runner.output_pair_ints(out_pos)
                _record_group_observations(
                    ones,
                    zeros,
                    scan,
                    group,
                    seq_index,
                    cycle,
                    output_names[out_pos],
                    result,
                    drop,
                )
            if scan.live_mask != before:
                if drop and not scan.live_mask:
                    break
                live_words = words_from_int(scan.live_mask, runner.words)
        # Harvest the accumulated potential-detection lanes (faults whose
        # output went X while the good machine was binary and the fault was
        # still live that cycle; the set is unordered, so once per group).
        unknown = int_from_words(potential_acc)
        while unknown:
            bit = (unknown & -unknown).bit_length() - 1
            unknown &= unknown - 1
            result.potential.add(group[bit - 1])

    return simulate_group


def _make_interpreted_group(circuit: Circuit, compiled):
    """Group simulation on the interpreted ``VectorSimulator`` (reference)."""

    def simulate_group(
        vectors: Sequence[Tuple[Trit, ...]],
        group: Sequence[StuckAtFault],
        seq_index: int,
        output_names: Sequence[str],
        result: FaultSimResult,
        drop: bool,
    ) -> None:
        width = len(group) + 1
        injections: Dict[LineRef, Tuple[int, int]] = {}
        for bit, fault in enumerate(group, start=1):
            sa1, sa0 = injections.get(fault.line, (0, 0))
            if fault.value == ONE:
                sa1 |= 1 << bit
            else:
                sa0 |= 1 << bit
            injections[fault.line] = (sa1, sa0)
        simulator = VectorSimulator(circuit, width, injections, compiled=compiled)
        state = simulator.unknown_state()
        scan = _GroupScan(((1 << width) - 1) & ~1)
        for cycle, vector in enumerate(vectors):
            step = simulator.step(state, simulator.broadcast_vector(vector))
            state = step.next_state
            for out_pos, value in enumerate(step.outputs):
                _record_group_observations(
                    value.ones,
                    value.zeros,
                    scan,
                    group,
                    seq_index,
                    cycle,
                    output_names[out_pos],
                    result,
                    drop,
                )
            if drop and not scan.live_mask:
                break

    return simulate_group


__all__ = ["parallel_fault_simulate", "DEFAULT_GROUP_SIZE", "KERNELS"]
