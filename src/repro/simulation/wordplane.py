"""The numpy word-plane backend: levelized uint64 lowering of the kernels.

The bigint steppers (:mod:`repro.simulation.vector_codegen`) evaluate one
Python expression per gate per cycle, so a step costs O(gates) interpreter
dispatches regardless of how cheap each bitwise op is.  This module lowers
the same compiled program to a *levelized word-plane* form executed with a
handful of numpy ufunc calls per logic level:

* every dual-rail plane (the ``ones``/``zeros`` mask of one signal) is a
  row of a ``(rows, words)`` ``uint64`` array, lane ``i`` living at bit
  ``i % 64`` of word ``i // 64``.  The *value* array ``V`` holds the
  constant, register, input and gate-output planes; the *operand* array
  ``G`` holds every gathered operand, one contiguous block per level;
* all gates of one topological level are evaluated together: one
  ``np.take`` gathers every operand plane from ``V`` into the level's
  block of ``G``, the group's stuck-at injection touches only the operand
  words that hold a forced lane (below), and one contiguous
  ``bitwise_and``/``bitwise_or`` each computes all AND-products and
  OR-unions of the level into ``V`` (operands are laid out as separate
  A/B blocks, not interleaved, so the gate ufuncs run on contiguous 2-D
  slabs).  The gather never writes the array it reads: numpy routes a
  ``take`` whose ``out`` overlaps its source through a temporary copy of
  the whole block, about half the gather's time at 16 words;
* NOT / BUF / FANOUT / OUTPUT vertices are never materialized: a NOT is a
  rail swap and a copy is a row alias, so each is *folded* into the
  consuming read.  Each gather position keeps its copy chain as
  ``(slot, rail)`` stages, swaps already resolved; per lane, any chain of
  ``(x | force1) & ~force0`` stages is again a single ``(x | O) & A``
  stage;
* the injection is sparse, as in PROOFS, where each faulty machine is
  forced only where its fault sits: loading a fault group builds one
  *entry* per operand word that holds a forced lane -- its flat index into
  ``G``, an OR word and an AND word -- and each level takes its entries'
  words, ORs, ANDs and puts them back.  A level without entries (every
  level of a fault-free step) makes no injection call.

Gate semantics match :func:`repro.simulation.codegen.gate_rail_exprs`
bit-for-bit: AND/OR reduce pairwise (associative on both rails), NAND/NOR
are AND/OR with the output rails swapped, and XOR/XNOR expand into the four
cross products and two unions of the dual-rail formula.  The parity suite
asserts packed-word equality against the bigint kernel on randomized
circuits, states and fault groups.

High bits of the last word (beyond the lane count) are kept zero in every
value row by construction: the loaders reject lanes and mask bits past the
width, so an OR word cannot set garbage, and an AND word (whose high bits
are ones after ``~``) cannot turn zeros into ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.types import GateType, NodeKind
from repro.simulation.backends import WORDPLANE_VERSION
from repro.simulation.vector_codegen import VectorFastStepper

_U64 = np.uint64
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE64 = np.uint64(1)


# -- lane-word packing -------------------------------------------------------


def word_count(width: int) -> int:
    """Words needed for ``width`` lanes (the effective word count)."""
    return (max(width, 1) + 63) // 64


def width_mask_words(width: int, words: Optional[int] = None) -> "np.ndarray":
    """The ``(1 << width) - 1`` mask as a little-endian uint64 word array."""
    if words is None:
        words = word_count(width)
    mask = np.zeros(words, dtype=_U64)
    full, rem = divmod(width, 64)
    mask[:full] = _FULL
    if rem:
        mask[full] = (_ONE64 << np.uint64(rem)) - _ONE64
    return mask


def words_from_int(value: int, words: int) -> "np.ndarray":
    """Slice a non-negative bigint mask into ``words`` uint64 lane words."""
    if value < 0:
        raise ValueError("lane masks are non-negative")
    data = value.to_bytes(words * 8, "little")
    return np.frombuffer(data, dtype=_U64).copy()


def int_from_words(words: "np.ndarray") -> int:
    """Rebuild the bigint mask from its little-endian uint64 lane words."""
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


# -- plan construction -------------------------------------------------------


class _Out:
    """One plane produced by a primitive op, materialized at ``level``."""

    __slots__ = ("level", "row")

    def __init__(self, level: int):
        self.level = level
        self.row = -1


# An operand: (plane, mask_ops) where plane is an int row (level-0 source)
# or an _Out, and mask_ops is the composed injection chain as a tuple of
# (slot, rail) stages, innermost first.
_Operand = Tuple[object, Tuple[Tuple[int, int], ...]]


class _Val:
    """A signal value: dual-rail planes plus a folded copy chain.

    ``stages`` records the line reads folded into this value as
    ``(slot, swap)`` pairs in base-to-consumer order; ``swap`` marks a NOT
    (rail exchange after the injection).
    """

    __slots__ = ("planes", "stages")

    def __init__(self, planes, stages=()):
        self.planes = planes
        self.stages = stages


class WordPlanePlan:
    """The levelized lowering of one circuit, shared by every runner.

    Built from the :class:`VectorFastStepper` so the injection slot
    numbering is exactly the bigint kernel's (``line_slot``) -- the same
    ``(sa1, sa0)`` group masks drive both backends.
    """

    def __init__(self, stepper: VectorFastStepper):
        self.circuit = stepper.circuit
        self.num_slots = stepper.num_injection_slots
        compiled = stepper.compiled
        line_slot = stepper.line_slot
        self.num_inputs = compiled.num_inputs
        self.num_registers = compiled.num_registers
        self.num_outputs = compiled.num_outputs

        ZROW, MROW = 0, 1
        nrows = 2
        reg_planes = []
        for _ in range(compiled.num_registers):
            reg_planes.append((nrows, nrows + 1))
            nrows += 2
        vin_planes = []
        for _ in range(compiled.num_inputs):
            vin_planes.append((nrows, nrows + 1))
            nrows += 2
        self.reg0 = 2
        self.vin0 = 2 + 2 * compiled.num_registers

        prims: List[Tuple[str, _Out, _Operand, _Operand]] = []

        def plane_level(operand: _Operand) -> int:
            plane = operand[0]
            return plane.level if isinstance(plane, _Out) else 0

        def emit(kind: str, a: _Operand, b: _Operand) -> _Out:
            out = _Out(1 + max(plane_level(a), plane_level(b)))
            prims.append((kind, out, a, b))
            return out

        def operand(val: _Val, rail: int, read_slot: Optional[int]) -> _Operand:
            stages = val.stages
            if read_slot is not None:
                stages = stages + ((read_slot, False),)
            cur = rail
            mask_ops: List[Tuple[int, int]] = []
            for slot, swap in reversed(stages):
                if swap:
                    cur ^= 1
                mask_ops.append((slot, cur))
            mask_ops.reverse()
            return (val.planes[cur], tuple(mask_ops))

        def reduce_and_or(items, base_is_and: bool):
            """Balanced pairwise reduction; exact on both rails."""
            while len(items) > 1:
                merged = []
                for i in range(0, len(items) - 1, 2):
                    (a1, a0), (b1, b0) = items[i], items[i + 1]
                    if base_is_and:
                        one = emit("and", a1, b1)
                        zero = emit("or", a0, b0)
                    else:
                        one = emit("or", a1, b1)
                        zero = emit("and", a0, b0)
                    merged.append(((one, ()), (zero, ())))
                if len(items) % 2:
                    merged.append(items[-1])
                items = merged
            return items[0]

        def xor_pair(a_pair, b_pair):
            (a1, a0), (b1, b0) = a_pair, b_pair
            p_one_a = emit("and", a1, b0)
            p_one_b = emit("and", a0, b1)
            p_zero_a = emit("and", a1, b1)
            p_zero_b = emit("and", a0, b0)
            one = emit("or", (p_one_a, ()), (p_one_b, ()))
            zero = emit("or", (p_zero_a, ()), (p_zero_b, ()))
            return ((one, ()), (zero, ()))

        vals: Dict[int, _Val] = {}

        def rsrc(read) -> _Val:
            if read.from_register:
                return _Val(reg_planes[read.index])
            return vals[read.index]

        for op in compiled.ops:
            slot = op.slot
            if op.kind is NodeKind.INPUT:
                vals[slot] = _Val(vin_planes[op.pi_index])
                continue
            if op.kind is NodeKind.CONST0:
                vals[slot] = _Val((ZROW, MROW))
                continue
            if op.kind is NodeKind.CONST1:
                vals[slot] = _Val((MROW, ZROW))
                continue
            srcs = [rsrc(r) for r in op.reads]
            gate = op.gate_type
            unary_copy = op.kind in (NodeKind.FANOUT, NodeKind.OUTPUT) or (
                op.kind is NodeKind.GATE
                and (gate in (GateType.BUF, GateType.NOT) or len(srcs) == 1)
            )
            if unary_copy:
                src = srcs[0]
                swap = op.kind is NodeKind.GATE and gate is not None and gate.inverting
                vals[slot] = _Val(
                    src.planes,
                    src.stages + ((line_slot[op.reads[0].line], swap),),
                )
                continue
            pairs = [
                (operand(v, 0, line_slot[r.line]), operand(v, 1, line_slot[r.line]))
                for v, r in zip(srcs, op.reads)
            ]
            if gate in (GateType.AND, GateType.NAND):
                one, zero = reduce_and_or(pairs, base_is_and=True)
            elif gate in (GateType.OR, GateType.NOR):
                one, zero = reduce_and_or(pairs, base_is_and=False)
            elif gate in (GateType.XOR, GateType.XNOR):
                acc = pairs[0]
                for nxt in pairs[1:]:
                    acc = xor_pair(acc, nxt)
                one, zero = acc
            else:  # pragma: no cover - exhaustive over GateType
                raise ValueError(f"unsupported gate type {gate}")
            planes = (one[0], zero[0])
            if gate.inverting:
                planes = (planes[1], planes[0])
            vals[slot] = _Val(planes)

        # Terminal gather: register-load reads (with their line injection)
        # first, in register order, then primary-output planes -- so the
        # next-state copy is one contiguous slice assignment.
        final_ops: List[_Operand] = []
        for read in compiled.register_loads:
            val = rsrc(read)
            slot = line_slot[read.line]
            final_ops.append(operand(val, 0, slot))
            final_ops.append(operand(val, 1, slot))
        for name in self.circuit.output_names:
            val = vals[compiled.slot_of[name]]
            final_ops.append(operand(val, 0, None))
            final_ops.append(operand(val, 1, None))

        # -- row assignment, level by level --------------------------------
        by_level: Dict[int, Tuple[list, list]] = {}
        for kind, out, a, b in prims:
            ands, ors = by_level.setdefault(out.level, ([], []))
            (ands if kind == "and" else ors).append((out, a, b))

        self.levels: List[dict] = []
        all_src: List[int] = []
        # Each gather position's composed injection chain, innermost first.
        chains: List[Tuple[Tuple[int, int], ...]] = []

        def add_operands(operands: List[_Operand]) -> None:
            for plane, mask_ops in operands:
                all_src.append(plane.row if isinstance(plane, _Out) else plane)
                chains.append(mask_ops)

        def assign_level(ands, ors) -> None:
            nonlocal nrows
            na, no = len(ands), len(ors)
            d = nrows
            e = d + na
            nrows = e + no
            # A operands first, then B operands, per op family: the gate
            # ufuncs then run over contiguous blocks of G.
            operands: List[_Operand] = []
            for i, (out, a, b) in enumerate(ands):
                out.row = d + i
                operands.append(a)
            for _out, _a, b in ands:
                operands.append(b)
            for i, (out, a, b) in enumerate(ors):
                out.row = e + i
                operands.append(a)
            for _out, _a, b in ors:
                operands.append(b)
            gstart = len(all_src)
            add_operands(operands)
            self.levels.append(
                dict(d=d, e=e, na=na, no=no, gstart=gstart, gend=len(all_src))
            )

        for level in sorted(by_level):
            ands, ors = by_level[level]
            assign_level(ands, ors)
        # The terminal gather is one more (gate-free) level; its operand
        # block holds the next state, then the primary outputs.
        self.nrows = nrows
        self.next0 = len(all_src)
        self.out0 = self.next0 + 2 * self.num_registers
        add_operands(final_ops)
        self.levels.append(
            dict(d=nrows, e=nrows, na=0, no=0, gstart=self.next0, gend=len(all_src))
        )

        self.gather = len(all_src)
        self.src = np.array(all_src, dtype=np.intp)
        for level in self.levels:
            level["src"] = self.src[level["gstart"] : level["gend"]]

        # The chains as two CSR indexes (int32 positions and slots, uint8
        # rails: 32 plans stay alive through a Table III round).  Per gather
        # position, its stages ``chain_slot``/``chain_rail[chain_ptr[p] :
        # chain_ptr[p + 1]]``, innermost first; per slot, the ``(slot_pos,
        # slot_rail)`` stages that read it, by ascending position (a slot
        # occurs at most once in a chain: copy chains are paths of
        # distinct lines).
        depths = np.array([len(chain) for chain in chains], dtype=np.int32)
        self.chain_ptr = np.zeros(self.gather + 1, dtype=np.int32)
        np.cumsum(depths, out=self.chain_ptr[1:])
        stages = [stage for chain in chains for stage in chain]
        self.chain_slot = np.array([s for s, _r in stages], dtype=np.int32)
        self.chain_rail = np.array([r for _s, r in stages], dtype=np.uint8)
        order = np.argsort(self.chain_slot, kind="stable")
        self.slot_pos = np.repeat(np.arange(self.gather, dtype=np.int32), depths)[order]
        self.slot_rail = self.chain_rail[order]
        self.slot_ptr = np.zeros(self.num_slots + 1, dtype=np.int32)
        np.cumsum(
            np.bincount(self.chain_slot, minlength=self.num_slots),
            out=self.slot_ptr[1:],
        )
        # The operand rows an entry can fall in.
        self.injectable = int(np.count_nonzero(depths))
        # Entries sort by flat G index; a level's words start here.
        self.level_starts = np.array(
            [lv["gstart"] for lv in self.levels] + [self.gather], dtype=np.intp
        )

    def runner(self, width: int) -> "WordPlaneRunner":
        return WordPlaneRunner(self, width)


# -- execution ---------------------------------------------------------------


class WordPlaneRunner:
    """Executable state for one plan at one lane width.

    A runner owns the value array ``V`` (``(plan.nrows, words)``: constant,
    register, input and gate-output planes), the operand array ``G``
    (``(plan.gather, words)``: every level's gathered operands, the last
    level's being the next state and the primary outputs), the width mask
    and the loaded fault group's injection :attr:`entries`: one per operand
    word that holds a forced lane, as ``(flat, orw, andw)`` arrays of its
    flat index into ``G`` and the OR and AND words that force it, sorted by
    index and split by level.
    :meth:`set_group` loads bigint stuck-at masks, :meth:`set_lane_faults`
    one fault per lane, :meth:`clear_group` nothing, and :meth:`step`
    advances every lane one clock cycle with no per-step allocation; a
    level without entries makes no injection call.  Runners are reusable
    (reload the faults and call :meth:`reset_state` between uses).
    """

    def __init__(self, plan: WordPlanePlan, width: int):
        if width < 1:
            raise ValueError("width must be at least 1")
        self.plan = plan
        self.width = width
        self.words = W = word_count(width)
        self.mask_words = width_mask_words(width, W)
        self.V = V = np.zeros((plan.nrows, W), dtype=_U64)
        V[1] = self.mask_words  # the all-ones (width-clean) row
        self.G = G = np.zeros((plan.gather, W), dtype=_U64)
        self._flat = G.reshape(-1)
        # Per-level execution records, flattened to 1-D views where the
        # storage is contiguous: ufunc dispatch overhead at these sizes
        # (~1us/call) rivals the actual bit work, and 1-D contiguous loops
        # are the cheapest shape numpy has.  :meth:`_load` puts the
        # level's injection (``None`` when no entry falls in it) between
        # its gather and its gate views.
        self._levels = []
        for lv in plan.levels:
            g, d, e, na, no = lv["gstart"], lv["d"], lv["e"], lv["na"], lv["no"]
            q = g + 2 * na
            gates = (
                G[g : g + na].reshape(-1) if na else None,
                G[g + na : q].reshape(-1) if na else None,
                V[d:e].reshape(-1) if na else None,
                G[q : q + no].reshape(-1) if no else None,
                G[q + no : q + 2 * no].reshape(-1) if no else None,
                V[e : e + no].reshape(-1) if no else None,
            )
            self._levels.append((lv["src"], G[g : lv["gend"]], gates))
        self.clear_group()
        r0 = plan.reg0
        self._reg_dst = V[r0 : r0 + 2 * plan.num_registers]
        self._next = G[plan.next0 : plan.out0]
        self._outputs = G[plan.out0 : plan.out0 + 2 * plan.num_outputs]

    # -- group loading ------------------------------------------------------

    def _load(self, flat: "np.ndarray", orw: "np.ndarray", andw: "np.ndarray") -> None:
        """Install injection entries: ascending, distinct flat ``G``
        indices with their OR and AND words."""
        self.entries = (flat, orw, andw)
        cuts = np.searchsorted(flat, self.plan.level_starts * self.words).tolist()
        buf = np.empty(len(flat), dtype=_U64)
        self._exec = [
            (src, ops, (flat[i:j], orw[i:j], andw[i:j], buf[i:j]) if j > i else None)
            + gates
            for (src, ops, gates), i, j in zip(self._levels, cuts, cuts[1:])
        ]

    def set_group(self, sa1: Sequence[int], sa0: Sequence[int]) -> None:
        """Load one fault group's per-slot stuck-at masks (bigint form).

        Accepts exactly the ``(sa1, sa0)`` arrays that drive the bigint
        ``step_inject``, so group construction is shared across backends.
        A lane may carry several faults: each gather position whose chain
        reads a faulted slot composes its stages, per lane, as::

            A' = a_outer & (o_outer | A)        O' = a_outer & (o_outer | O)

        and the words that are not the identity become entries.  Raises
        ``ValueError``, loading nothing, on a slot past ``num_slots`` or a
        mask bit past the width.
        """
        plan = self.plan
        ns, W = plan.num_slots, self.words
        if len(sa1) > ns or len(sa0) > ns:
            raise ValueError(f"masks name slots past the {ns} of this plan")
        masks = {}
        for rail, values in enumerate((sa1, sa0)):
            for slot, value in enumerate(values):
                if value:
                    if value < 0 or value >> self.width:
                        raise ValueError(
                            f"slot {slot} mask has bits outside the "
                            f"{self.width} lanes"
                        )
                    masks[rail, slot] = value
        faulted = sorted({slot for _rail, slot in masks})
        if not faulted:
            self.clear_group()
            return
        # Forced words per faulted slot and rail; row -1 (past the faulted
        # slots) is the identity an unfaulted stage reads.
        index = np.full(ns, -1, dtype=np.intp)
        index[faulted] = np.arange(len(faulted))
        force = np.zeros((2, len(faulted) + 1, W), dtype=_U64)
        for (rail, slot), value in masks.items():
            force[rail, index[slot]] = words_from_int(value, W)
        touched = np.zeros(plan.gather, dtype=bool)
        for slot in faulted:
            touched[plan.slot_pos[plan.slot_ptr[slot] : plan.slot_ptr[slot + 1]]] = True
        positions = np.flatnonzero(touched)
        starts = plan.chain_ptr[positions]
        depths = plan.chain_ptr[positions + 1] - starts
        orw = np.zeros((len(positions), W), dtype=_U64)
        andw = np.full((len(positions), W), _FULL)
        for depth in range(int(depths.max(initial=0))):
            rows = np.flatnonzero(depths > depth)
            stage = starts[rows] + depth
            row = index[plan.chain_slot[stage]]
            rail = plan.chain_rail[stage]
            outer_o = force[rail, row]
            outer_a = ~force[1 - rail, row]
            orw[rows] = outer_a & (outer_o | orw[rows])
            andw[rows] = outer_a & (outer_o | andw[rows])
        forced = (orw != 0) | (andw != _FULL)
        at, word = np.nonzero(forced)
        self._load(positions[at] * W + word, orw[forced], andw[forced])

    def set_lane_faults(
        self, lanes: Sequence[int], slots: Sequence[int], values: Sequence[int]
    ) -> None:
        """Load one stuck-at fault per listed lane.

        Lane ``lanes[i]`` carries the fault with injection slot ``slots[i]``
        stuck at ``values[i]``; every other lane is fault-free.  Builds the
        entries :meth:`set_group` builds from the equivalent bigint masks,
        without materializing them: a lane's one fault forces it at exactly
        one stage of every chain through its slot, so nothing composes --
        the bit is set where the stage's rail differs from the stuck value
        and cleared where they are equal.  Raises ``ValueError``, loading
        nothing, on a lane outside ``[0, width)`` or listed twice, a slot
        outside ``[0, num_slots)`` or a value other than 0 and 1.
        """
        plan = self.plan
        W = self.words
        lane_arr = np.asarray(lanes, dtype=np.intp).reshape(-1)
        slot_arr = np.asarray(slots, dtype=np.intp).reshape(-1)
        value_arr = np.asarray(values, dtype=np.intp).reshape(-1)
        if not len(lane_arr) == len(slot_arr) == len(value_arr):
            raise ValueError("lanes, slots and values differ in length")
        for name, arr, bound in (
            ("lane", lane_arr, self.width),
            ("slot", slot_arr, plan.num_slots),
            ("value", value_arr, 2),
        ):
            if len(arr) and (arr.min() < 0 or arr.max() >= bound):
                raise ValueError(f"a {name} is outside [0, {bound})")
        ordered = np.sort(lane_arr)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("a lane is listed twice")
        # Expand each fault over its slot's stages (CSR rows), as sort keys
        # (flat G index, lane bit, whether the stage sets the lane).
        starts = plan.slot_ptr[slot_arr]
        counts = plan.slot_ptr[slot_arr + 1] - starts
        fault = np.repeat(np.arange(len(lane_arr)), counts)
        stage = np.arange(len(fault)) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )
        lane = lane_arr[fault]
        key = (plan.slot_pos[stage].astype(np.intp) * W + (lane >> 6)) << 7
        key |= (lane & 63) << 1
        key |= plan.slot_rail[stage] != value_arr[fault]
        key.sort()
        flat = key >> 7
        head = np.flatnonzero(np.diff(flat, prepend=-1))
        # Per word, OR the set bits and (column 1) the cleared ones; each
        # lane has one fault, so no bit lands in both columns.
        bits = np.empty((len(key), 2), dtype=_U64)
        np.left_shift(_ONE64, ((key >> 1) & 63).astype(_U64), out=bits[:, 1])
        np.multiply(bits[:, 1], (key & 1).astype(_U64), out=bits[:, 0])
        bits[:, 1] ^= bits[:, 0]
        words = np.bitwise_or.reduceat(bits, head, axis=0) if len(key) else bits
        self._load(flat[head], words[:, 0].copy(), ~words[:, 1])

    def clear_group(self) -> None:
        """Load no fault (the fault-free ``step_clean`` form): no entries."""
        self._load(np.empty(0, np.intp), np.empty(0, _U64), np.empty(0, _U64))

    # -- state & input loading ----------------------------------------------

    def reset_state(self) -> None:
        """All registers X on every lane (the fault-group initial state)."""
        self._reg_dst[:] = 0

    def load_state_ints(self, state: Sequence[Tuple[int, int]]) -> None:
        """Load packed bigint ``(ones, zeros)`` rails into the registers."""
        r0 = self.plan.reg0
        for k, (ones, zeros) in enumerate(state):
            self.V[r0 + 2 * k] = words_from_int(ones, self.words)
            self.V[r0 + 2 * k + 1] = words_from_int(zeros, self.words)

    def load_input_blocks(self, ones: "np.ndarray", zeros: "np.ndarray") -> None:
        """Drive equal lane blocks with one input vector each.

        ``ones``/``zeros`` are ``(num_inputs, blocks)`` uint64 word fills
        (0 or all-ones): block ``b`` spans ``words // blocks`` whole words
        and reads input ``i`` as ``ones[i, b]``/``zeros[i, b]``.
        """
        n, blocks = ones.shape
        planes = self.V[self.plan.vin0 : self.plan.vin0 + 2 * n].reshape(
            n, 2, blocks, self.words // blocks
        )
        planes[:, 0] = ones[:, :, None]
        planes[:, 1] = zeros[:, :, None]

    def load_vector_ints(self, vector: Sequence[Tuple[int, int]]) -> None:
        """Load packed bigint per-input rails (pattern-parallel form)."""
        v0 = self.plan.vin0
        for k, (ones, zeros) in enumerate(vector):
            self.V[v0 + 2 * k] = words_from_int(ones, self.words)
            self.V[v0 + 2 * k + 1] = words_from_int(zeros, self.words)

    # -- the step -----------------------------------------------------------

    def step(self) -> None:
        """Advance one clock cycle; inputs/state must already be loaded.

        Leaves primary-output planes in :meth:`output_view` and copies the
        next state into the register source rows.
        """
        take = self.V.take
        flat = self._flat
        gtake = flat.take
        band = np.bitwise_and
        bor = np.bitwise_or
        for src, ops, inject, a, b, ao, oa, ob, oo in self._exec:
            # mode="clip" skips per-index bounds checking (indices are
            # plan-constructed, always in range); a positional ``out``
            # parses faster than the keyword.
            take(src, 0, ops, "clip")
            if inject is not None:
                at, orw, andw, buf = inject
                gtake(at, 0, buf, "clip")
                bor(buf, orw, buf)
                band(buf, andw, buf)
                flat[at] = buf  # faster than ``put`` at these sizes
            if a is not None:
                band(a, b, ao)
            if oa is not None:
                bor(oa, ob, oo)
        self._reg_dst[:] = self._next

    # -- observation ---------------------------------------------------------

    def output_view(self) -> "np.ndarray":
        """The ``(2 * num_outputs, words)`` output plane block (ones, zeros
        interleaved, circuit output order)."""
        return self._outputs

    def output_ints(self) -> List[Tuple[int, int]]:
        block = self.output_view()
        return [
            (int_from_words(block[2 * k]), int_from_words(block[2 * k + 1]))
            for k in range(self.plan.num_outputs)
        ]

    def next_state_view(self) -> "np.ndarray":
        """The ``(2 * num_registers, words)`` next-state plane block after
        :meth:`step` (ones, zeros interleaved, register order)."""
        return self._next

    def state_ints(self) -> List[Tuple[int, int]]:
        block = self._next
        return [
            (int_from_words(block[2 * k]), int_from_words(block[2 * k + 1]))
            for k in range(self.plan.num_registers)
        ]

    def block_compare(self, blocks: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """:func:`block_compare` of this step's :meth:`output_view`."""
        return block_compare(self.output_view(), blocks)


def block_compare(rails: "np.ndarray", blocks: int) -> Tuple["np.ndarray", "np.ndarray"]:
    """Each output lane against lane 0 of its block.

    ``rails`` holds ``(2 * outputs, words)`` output plane blocks (ones,
    zeros interleaved), with any leading axes (say, several cycles); the
    lanes split into ``blocks`` equal runs of whole words.  Returns two
    ``(..., outputs, words)`` planes: the lanes binary and opposite to their
    block's lane 0 (a detection when lane 0 is fault-free), and the lanes X
    where their block's lane 0 is binary (a potential detection).  Both are
    empty in a block whose lane 0 is X.

    XOR-ing both rails with their block's lane 0 leaves, under a binary
    lane 0, both rails set on the opposite value and exactly one set on
    X; under an X lane 0 it leaves the lane's own rails, never both set.
    """
    *lead, rows, words = rails.shape
    n = rows // 2
    planes = rails.reshape(*lead, n, 2, blocks, words // blocks)
    lane0 = np.multiply(planes[..., :1] & _ONE64, _FULL)
    diff = planes ^ lane0
    ones, zeros = diff[..., 0, :, :], diff[..., 1, :, :]
    opposite = ones & zeros
    unknown = (ones ^ zeros) & (lane0[..., 0, :, :] | lane0[..., 1, :, :])
    return opposite.reshape(*lead, n, words), unknown.reshape(*lead, n, words)


# -- plan caching ------------------------------------------------------------

_PLAN_ATTR = "_wordplane_plan"


def wordplane_plan(stepper: VectorFastStepper) -> WordPlanePlan:
    """The (stepper-cached) word-plane plan for a compiled circuit."""
    plan = getattr(stepper, _PLAN_ATTR, None)
    if plan is None:
        plan = WordPlanePlan(stepper)
        setattr(stepper, _PLAN_ATTR, plan)
    return plan


__all__ = [
    "WORDPLANE_VERSION",
    "WordPlanePlan",
    "WordPlaneRunner",
    "block_compare",
    "int_from_words",
    "width_mask_words",
    "word_count",
    "words_from_int",
    "wordplane_plan",
]
