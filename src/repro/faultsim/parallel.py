"""PROOFS-style parallel fault simulation in (sequence x fault) lanes.

Following Niermann/Cheng/Patel's PROOFS (reference [9] of the paper), every
faulty machine is one bit position -- a *lane* -- of a machine word, with
its stuck-at injected at its own line, simulated beside a fault-free lane
in one bit-parallel step.  Lanes come in *blocks*, one per (test sequence,
fault group): lane 0 is fault-free and lanes 1..G carry the group's faults
in list order.  A *pass* lays the blocks of several sequences side by side,
each block reading its own sequence's vectors, so one compiled step
advances them all:

* per lane, the pass records the first detecting (cycle, output) and
  whether the lane showed X under its block's binary fault-free value while
  *live* -- until its first detection when faults are dropped, for its
  whole sequence otherwise.  Outputs are scanned in circuit order, so with
  dropping an X at a later output of the detecting cycle does not count;
* the lanes of each fault are then folded in sequence order: its detection
  is the lowest (sequence, cycle, output), its potential bit the OR over
  its lanes in sequences up to and including that one (over all of them
  when it stays undetected or nothing is dropped);
* with dropping, detected faults leave the fault list before the next pass.

A fault's result depends only on its own lanes, so grouping and pass layout
change speed, never a result.  A pass takes the next sequences whose blocks
fit a fixed memory budget; a sequence whose blocks alone exceed it runs its
groups in consecutive passes.

Two legs run a pass, bit for bit alike: the numpy word-plane runner
(:mod:`repro.simulation.wordplane`, blocks padded to whole 64-lane words)
whenever numpy is installed, whatever the width, and the bigint
``step_inject`` of :class:`~repro.simulation.vector_codegen.VectorFastStepper`
otherwise (the reference leg).  ``group_size`` is the number of lanes per
block, fault-free lane included; the default of 1024 puts every Table II
collapsed fault list in one block per sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim.result import Detection, FaultSimResult
from repro.faultsim.serial import TestSequence
from repro.logic.three_valued import ONE, X, ZERO
from repro.simulation.backends import numpy_or_none
from repro.simulation.cache import vector_fast_stepper
from repro.simulation.vector_codegen import VectorFastStepper

DEFAULT_GROUP_SIZE = 1024

#: Bytes of word-plane state one numpy pass may allocate.  A 64-lane word
#: costs 8 bytes in every value row and operand row, and at most 32 more
#: per operand row an injection entry can fall in; at 2 MiB, s510.jo.sr.re
#: packs 2,240 lanes a pass.  The entries a pass loads are a few percent of
#: that bound, so a pass holds well under the budget; 2.5 and 3 MiB
#: measured no faster on validate and raised its peak memory.
PASS_BUDGET_BYTES = 2 << 20

#: Lanes one bigint pass may pack.
BIGINT_PASS_LANES = 4096

#: Cycles a numpy pass steps before comparing their outputs with lane 0 in
#: one go; per cycle it only copies the outputs aside.  On a validate round
#: the pass loop outside the step took 0.27, 0.21 and 0.30 s at spans of 4,
#: 16 and 64 cycles: short spans repeat the per-span array calls more
#: often, and long ones compare through temporaries of several MB (about 4
#: MB for 64 cycles on scf's 1,024-lane passes).
COMPARE_CYCLES = 16

_TRITS = frozenset((ZERO, ONE, X))

#: One pass's per-lane record: (cycle, output, lanes) for each lane's first
#: detection, and the lanes that showed X under a binary fault-free value.
_PassLanes = Tuple[List[Tuple[int, int, int]], int]


def parallel_fault_simulate(
    circuit: Circuit,
    sequences: Sequence[TestSequence],
    faults: Optional[Sequence[StuckAtFault]] = None,
    drop: bool = True,
    group_size: int = DEFAULT_GROUP_SIZE,
) -> FaultSimResult:
    """Fault-simulate ``sequences`` in (sequence x fault) lanes.

    Detections and the potential set are identical to
    :func:`repro.faultsim.serial.serial_fault_simulate` (the test suite
    cross-checks them); only the engine differs.  The pass runs on the
    numpy word-plane runner when numpy is importable and on Python bigints
    (the reference) otherwise; the leg never changes a result.
    """
    if group_size < 2:
        raise ValueError("group_size must leave room for the fault-free bit")
    if faults is None:
        faults = collapse_faults(circuit).representatives
    result = FaultSimResult(circuit.name, "parallel", tuple(faults))
    stepper = vector_fast_stepper(circuit)
    slots = _fault_slots(circuit, faults, stepper)
    stuck = [fault.value for fault in faults]
    leg = (_WordPlaneLeg if numpy_or_none() is not None else _BigintLeg)(stepper)
    num_inputs = len(circuit.input_names)
    rows = [
        (index, _checked_vectors(sequence, num_inputs))
        for index, sequence in enumerate(sequences)
    ]
    rows = [row for row in rows if row[1]]
    per_group = group_size - 1
    pending = list(range(len(faults)))
    detected = bytearray(len(faults))  # by fault-list position
    cursor = 0
    while cursor < len(rows) and pending:
        groups = [
            pending[start : start + per_group]
            for start in range(0, len(pending), per_group)
        ]
        stride = leg.stride(len(groups[0]) + 1)
        blocks = max(1, leg.pass_lanes() // stride)
        if len(groups) <= blocks:
            take = blocks // len(groups)
            passes = [(rows[cursor : cursor + take], groups)]
            cursor += take
        else:
            passes = [
                ([rows[cursor]], groups[start : start + blocks])
                for start in range(0, len(groups), blocks)
            ]
            cursor += 1
        for pass_rows, pass_groups in passes:
            layout = _Layout(pass_rows, pass_groups, stride, slots, stuck)
            events, potential = leg.run(layout, drop)
            _fold(
                layout, events, potential, drop, faults, circuit.output_names,
                result, detected,
            )
        if drop:
            pending = [index for index in pending if not detected[index]]
    return result


def _fault_slots(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    stepper: VectorFastStepper,
) -> List[int]:
    """Each fault's injection slot; rejects lines that do not exist on
    their edge."""
    line_slot = stepper.line_slot
    slots = []
    for fault in faults:
        slot = line_slot.get(fault.line)
        if slot is None:
            edge = circuit.edge(fault.line.edge_index)
            raise ValueError(f"line {fault.line} does not exist on edge {edge}")
        slots.append(slot)
    return slots


def _checked_vectors(sequence: TestSequence, num_inputs: int) -> List[Tuple[int, ...]]:
    vectors = [tuple(vector) for vector in sequence]
    for vector in vectors:
        if len(vector) != num_inputs:
            raise ValueError(f"vector needs {num_inputs} trits, got {len(vector)}")
    if not _TRITS.issuperset(set().union(*vectors)):
        raise ValueError(f"not a trit sequence: {vectors!r}")
    return vectors


class _Layout:
    """Where every lane of one pass lives.

    Rows are the pass's sequences, each ``row_lanes`` wide; a row holds one
    block of ``stride`` lanes per fault group.  Lane ``k`` of a block
    (``k >= 1``) carries member ``k - 1`` of its group; lane 0 and the
    padding past the group's last member carry no fault and are never live.
    """

    def __init__(
        self,
        rows: Sequence[Tuple[int, List[Tuple[int, ...]]]],
        groups: Sequence[Sequence[int]],
        stride: int,
        slots: Sequence[int],
        stuck: Sequence[int],
    ):
        self.rows = rows
        self.stride = stride
        self.row_lanes = len(groups) * stride
        self.width = len(rows) * self.row_lanes
        self.cycles = max(len(vectors) for _index, vectors in rows)
        # One row's fault lanes; every row repeats them.  ``members`` maps
        # a row offset to its fault-list position (-1 on fault-free lanes).
        self.lanes: List[int] = []
        self.members: List[int] = [-1] * self.row_lanes
        valid = 0
        for position, group in enumerate(groups):
            base = position * stride + 1
            valid |= ((1 << len(group)) - 1) << base
            self.lanes.extend(range(base, base + len(group)))
            self.members[base : base + len(group)] = group
        order = [index for group in groups for index in group]
        self.slots = [slots[index] for index in order]
        self.values = [stuck[index] for index in order]
        self.valid_row = valid

    def ends(self) -> Dict[int, List[int]]:
        """Rows by the cycle at which their sequence has ended."""
        ends: Dict[int, List[int]] = {}
        for row, (_index, vectors) in enumerate(self.rows):
            if len(vectors) < self.cycles:
                ends.setdefault(len(vectors), []).append(row)
        return ends

    def fold_rows(self, lanes: int) -> int:
        """OR every row of a pass-wide lane mask onto row 0."""
        span = self.row_lanes
        row_mask = (1 << span) - 1
        merged = 0
        while lanes:
            merged |= lanes & row_mask
            lanes >>= span
        return merged

    def rows_before(self, lanes: int) -> int:
        """Per lane, the OR of the same lane in every earlier row."""
        span = self.row_lanes
        row_mask = (1 << span) - 1
        below = 0
        seen = 0
        for row in range(len(self.rows)):
            below |= seen << (row * span)
            seen |= (lanes >> (row * span)) & row_mask
        return below


def _fold(
    layout: _Layout,
    events: List[Tuple[int, int, int]],
    potential: int,
    drop: bool,
    faults: Sequence[StuckAtFault],
    output_names: Sequence[str],
    result: FaultSimResult,
    detected_positions: bytearray,
) -> None:
    """Fold one pass's lanes into per-fault detections and potentials.

    ``events`` lists (cycle, output, lanes) for each lane's first detection
    and ``potential`` the lanes that showed X under a binary fault-free
    value while live.  A fault's detection comes from the earliest row
    (sequence) that detects it; with dropping, its potential counts only
    in rows up to that one.  Flags the fault-list positions detected.
    """
    detected = 0
    for _cycle, _output, lanes in events:
        detected |= lanes
    earlier = layout.rows_before(detected)
    first = detected & ~earlier
    span = layout.row_lanes
    members = layout.members
    for cycle, output, lanes in events:
        for lane in _set_bits(lanes & first):
            row, offset = divmod(lane, span)
            index = members[offset]
            detected_positions[index] = 1
            result.detections.setdefault(
                faults[index],
                Detection(layout.rows[row][0], cycle, output_names[output]),
            )
    if drop:
        potential &= ~earlier
    for offset in _set_bits(layout.fold_rows(potential)):
        result.potential.add(faults[members[offset]])


def _set_bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    text = bin(mask)[:1:-1]
    bits = []
    position = text.find("1")
    while position >= 0:
        bits.append(position)
        position = text.find("1", position + 1)
    return bits


class _BigintLeg:
    """Passes on the bigint ``step_inject`` (the reference leg)."""

    def __init__(self, stepper: VectorFastStepper):
        self.stepper = stepper

    @staticmethod
    def stride(block: int) -> int:
        return block

    @staticmethod
    def pass_lanes() -> int:
        return BIGINT_PASS_LANES

    def run(self, layout: _Layout, drop: bool) -> _PassLanes:
        stepper = self.stepper
        span = layout.row_lanes
        count = len(layout.rows)
        mask = (1 << layout.width) - 1
        row_fill = [((1 << span) - 1) << (row * span) for row in range(count)]
        repeat = sum(1 << (row * span) for row in range(count))
        sa1, sa0 = stepper.blank_injection_masks()
        for lane, slot, value in zip(layout.lanes, layout.slots, layout.values):
            (sa1 if value == ONE else sa0)[slot] |= 1 << lane
        if count > 1:
            sa1 = [lanes * repeat for lanes in sa1]
            sa0 = [lanes * repeat for lanes in sa0]
        # Block starts (the fault-free lanes), and the multiplier that
        # spreads each start bit over its whole block.
        starts = sum(1 << start for start in range(0, layout.width, layout.stride))
        fill = (1 << layout.stride) - 1
        live = layout.valid_row * repeat
        ends = {
            cycle: sum(row_fill[row] for row in rows)
            for cycle, rows in layout.ends().items()
        }
        num_inputs = stepper.compiled.num_inputs
        found = 0
        potential = 0
        events: List[Tuple[int, int, int]] = []
        state = stepper.unknown_state()
        step = stepper.step_inject
        for cycle in range(layout.cycles):
            ended = ends.get(cycle)
            if ended:
                live &= ~ended
            if not live:
                break
            vector = [[0, 0] for _pin in range(num_inputs)]  # (ones, zeros)
            for row, (_index, vectors) in enumerate(layout.rows):
                if cycle < len(vectors):
                    for rails, value in zip(vector, vectors[cycle]):
                        if value != X:
                            rails[value == ZERO] |= row_fill[row]
            outputs, state = step(state, vector, mask, sa1, sa0)
            for output, (ones, zeros) in enumerate(outputs):
                good_one = (ones & starts) * fill
                good_zero = (zeros & starts) * fill
                binary = good_one | good_zero
                if not binary:
                    continue
                potential |= binary & ~(ones | zeros) & live
                hit = ((good_one & zeros) | (good_zero & ones)) & live & ~found
                if hit:
                    events.append((cycle, output, hit))
                    found |= hit
                    if drop:
                        live &= ~hit
        return events, potential


class _WordPlaneLeg:
    """Passes on the numpy word-plane runner, at any width.

    Blocks are padded to whole 64-lane words, so each block's fault-free
    value is a per-word broadcast of its bit 0.  A pass steps up to
    :data:`COMPARE_CYCLES` cycles, keeping their outputs, then compares the
    span with lane 0 and scans it in (cycle, output) order in a few array
    operations: detections and live masks never feed back into the step,
    so deferring the compare changes no result.  At most two runners,
    keyed by word count, stay alive per call: dropping narrows the passes.
    """

    def __init__(self, stepper: VectorFastStepper):
        from repro.simulation.wordplane import wordplane_plan

        self.plan = wordplane_plan(stepper)
        plan = self.plan
        # Bytes per 64-lane word: value rows, operand rows and, at most
        # one per operand row an entry can fall in, injection entries of
        # four words (index, OR, AND, buffer).
        self.footprint = 8 * (plan.nrows + plan.gather + 4 * plan.injectable)
        self.runners: Dict[int, object] = {}

    @staticmethod
    def stride(block: int) -> int:
        return 64 * -(-block // 64)

    def pass_lanes(self) -> int:
        return 64 * max(1, PASS_BUDGET_BYTES // self.footprint)

    def _runner(self, words: int):
        runner = self.runners.pop(words, None)
        if runner is None:
            runner = self.plan.runner(64 * words)
            if len(self.runners) > 1:
                del self.runners[next(iter(self.runners))]
        self.runners[words] = runner  # most recently used last
        return runner

    def run(self, layout: _Layout, drop: bool) -> _PassLanes:
        import numpy as np

        from repro.simulation.wordplane import (
            block_compare,
            int_from_words,
            words_from_int,
        )

        count = len(layout.rows)
        cycles = layout.cycles
        words = layout.width // 64
        runner = self._runner(words)
        row_starts = np.arange(count, dtype=np.intp)[:, None] * layout.row_lanes
        lanes = (row_starts + np.asarray(layout.lanes, dtype=np.intp)).ravel()
        runner.set_lane_faults(
            lanes, np.tile(layout.slots, count), np.tile(layout.values, count)
        )
        runner.reset_state()
        # Input word fills per (cycle, input, row); rows past their end read X.
        trits = np.full((count, cycles, self.plan.num_inputs), X, dtype=np.int8)
        for row, (_index, vectors) in enumerate(layout.rows):
            trits[row, : len(vectors)] = vectors
        full = np.uint64(0xFFFFFFFFFFFFFFFF)
        ones_in = np.where(trits == ONE, full, np.uint64(0)).transpose(1, 2, 0)
        zeros_in = np.where(trits == ZERO, full, np.uint64(0)).transpose(1, 2, 0)
        # Per cycle, the fault lanes of the rows whose sequence still runs.
        lengths = np.array([len(vectors) for _index, vectors in layout.rows])
        running = np.arange(cycles)[:, None] < lengths
        valid = words_from_int(layout.valid_row, words // count)
        live = (running[:, :, None] * valid).reshape(cycles, 1, words)
        blocks = words * 64 // layout.stride
        outputs = runner.output_view()
        span = min(cycles, COMPARE_CYCLES)
        history = np.empty((span,) + outputs.shape, dtype=np.uint64)
        # Row 0 holds the lanes detected before the span; row t + 1, after
        # the scan, those detected up to its t-th (cycle, output).
        scan = np.empty((span * self.plan.num_outputs + 1, words), dtype=np.uint64)
        scan[0] = 0
        potential = np.zeros(words, dtype=np.uint64)
        events: List[Tuple[int, int, int]] = []
        for start in range(0, cycles, span):
            stop = min(start + span, cycles)
            for cycle in range(start, stop):
                runner.load_input_blocks(ones_in[cycle], zeros_in[cycle])
                runner.step()
                history[cycle - start] = outputs
            opposite, unknown = block_compare(history[: stop - start], blocks)
            opposite &= live[start:stop]
            unknown &= live[start:stop]
            # The ordered scan over (cycle, output): a lane is new only at
            # its first detection and, with dropping, live only before it.
            opposite = opposite.reshape(-1, words)
            unknown = unknown.reshape(-1, words)
            depth = len(opposite)
            scan[1 : depth + 1] = opposite
            np.bitwise_or.accumulate(scan[: depth + 1], axis=0, out=scan[: depth + 1])
            undetected = ~scan[:depth]
            opposite &= undetected
            if drop:
                unknown &= undetected
            potential |= np.bitwise_or.reduce(unknown, axis=0)
            scan[0] = scan[depth]
            for at in np.flatnonzero(opposite.any(axis=1)).tolist():
                cycle, output = divmod(at, self.plan.num_outputs)
                events.append((start + cycle, output, int_from_words(opposite[at])))
            if drop and stop < cycles and not (live[stop] & ~scan[0]).any():
                break
        return events, int_from_words(potential)


__all__ = [
    "parallel_fault_simulate",
    "BIGINT_PASS_LANES",
    "DEFAULT_GROUP_SIZE",
    "PASS_BUDGET_BYTES",
]
