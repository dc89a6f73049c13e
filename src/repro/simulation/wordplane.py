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
  block of ``G``, one ``|=``/``&=`` pair applies the group's stuck-at
  injection masks, and one contiguous ``bitwise_and``/``bitwise_or`` each
  computes all AND-products and OR-unions of the level into ``V``
  (operands are laid out as separate A/B blocks, not interleaved, so the
  gate ufuncs run on contiguous 2-D slabs).  The gather never writes the
  array it reads: numpy routes a ``take`` whose ``out`` overlaps its
  source through a temporary copy of the whole block, about half the
  gather's time at 16 words;
* NOT / BUF / FANOUT / OUTPUT vertices are never materialized: a NOT is a
  rail swap and a copy is a row alias, so each is *folded* into the
  consuming read.  Folding composes the injection masks along the copy
  chain -- per lane, any chain of ``(x | force1) & ~force0`` stages is
  again a single ``(x | O) & A`` stage with::

      A' = a_outer & (o_outer | A)        O' = a_outer & (o_outer | O)

  computed once per fault group (``O subset A`` holds inductively because a
  lane is never simultaneously forced to 0 and 1).

Gate semantics match :func:`repro.simulation.codegen.gate_rail_exprs`
bit-for-bit: AND/OR reduce pairwise (associative on both rails), NAND/NOR
are AND/OR with the output rails swapped, and XOR/XNOR expand into the four
cross products and two unions of the dual-rail formula.  The parity suite
asserts packed-word equality against the bigint kernel on randomized
circuits, states and fault groups.

High bits of the last word (beyond the lane count) are kept zero in every
value row by construction: injection masks are width-clean, so ``| ORM``
cannot set garbage, and ``& ANDM`` (whose high bits may be garbage after
``~``) cannot turn zeros into ones.
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

        ns = self.num_slots
        zero_row = 2 * ns  # index of the all-zero row of the slot table

        def table_indices(operand_: _Operand) -> Tuple[int, int]:
            """(or_idx, and_idx_raw) into the slot table for the innermost
            stage; the AND mask is the complement of its table row."""
            mask_ops = operand_[1]
            if not mask_ops:
                return zero_row, zero_row
            slot, rail = mask_ops[0]
            return rail * ns + slot, (1 - rail) * ns + slot

        self.levels: List[dict] = []
        all_src: List[int] = []
        all_or_idx: List[int] = []
        all_and_idx: List[int] = []
        # Gather positions whose composed chain is deeper than one stage,
        # fixed up (vectorized, stage by stage) after the table gather.
        deep: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []

        def add_operands(operands: List[_Operand]) -> None:
            for op_ in operands:
                plane = op_[0]
                all_src.append(plane.row if isinstance(plane, _Out) else plane)
                or_idx, and_idx = table_indices(op_)
                all_or_idx.append(or_idx)
                all_and_idx.append(and_idx)
                if len(op_[1]) > 1:
                    deep.append((len(all_src) - 1, op_[1][1:]))

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
        self.or_idx = np.array(all_or_idx, dtype=np.intp)
        self.and_idx = np.array(all_and_idx, dtype=np.intp)
        for level in self.levels:
            level["src"] = self.src[level["gstart"] : level["gend"]]

        # Deep chains, regrouped per extra stage depth for vectorized
        # composition: stage k holds every gather position whose chain has
        # a (k+2)-th stage, with that stage's slot and table indices.
        max_extra = max((len(rest) for _pos, rest in deep), default=0)
        self.deep_stages: List[Tuple["np.ndarray", ...]] = []
        for k in range(max_extra):
            positions = []
            slots = []
            or_rows = []
            and_rows = []
            for pos, rest in deep:
                if k < len(rest):
                    slot, rail = rest[k]
                    positions.append(pos)
                    slots.append(slot)
                    or_rows.append(rail * ns + slot)
                    and_rows.append((1 - rail) * ns + slot)
            self.deep_stages.append(
                tuple(
                    np.array(column, dtype=np.intp)
                    for column in (positions, slots, or_rows, and_rows)
                )
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
    and the gather-ordered injection mask matrices; :meth:`set_group`
    loads bigint stuck-at masks, :meth:`set_lane_faults` one fault per
    lane, and :meth:`step` advances every lane one clock cycle with no
    per-step allocation.  Runners are reusable (reload the faults and call
    :meth:`reset_state` between uses).
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
        # Gather-ordered injection matrices (ANDM high bits may be garbage
        # after ~; value rows stay width-clean regardless) plus the per-
        # (slot, rail) mask table they are gathered from.
        self._orm = np.zeros((plan.gather, W), dtype=_U64)
        self._andm = np.full((plan.gather, W), _FULL)
        self._table = np.zeros((2 * plan.num_slots + 1, W), dtype=_U64)
        # Per-level execution records, flattened to 1-D views where the
        # storage is contiguous: ufunc dispatch overhead at these sizes
        # (~1us/call) rivals the actual bit work, and 1-D contiguous loops
        # are the cheapest shape numpy has.
        self._exec = []
        for lv in plan.levels:
            g, d, e, na, no = lv["gstart"], lv["d"], lv["e"], lv["na"], lv["no"]
            ops = G[g : lv["gend"]]
            q = g + 2 * na
            self._exec.append(
                (
                    lv["src"],
                    ops,
                    ops.reshape(-1),
                    self._orm[g : lv["gend"]].reshape(-1),
                    self._andm[g : lv["gend"]].reshape(-1),
                    G[g : g + na].reshape(-1) if na else None,
                    G[g + na : q].reshape(-1) if na else None,
                    V[d:e].reshape(-1) if na else None,
                    G[q : q + no].reshape(-1) if no else None,
                    G[q + no : q + 2 * no].reshape(-1) if no else None,
                    V[e : e + no].reshape(-1) if no else None,
                )
            )
        r0 = plan.reg0
        self._reg_dst = V[r0 : r0 + 2 * plan.num_registers]
        self._next = G[plan.next0 : plan.out0]
        self._outputs = G[plan.out0 : plan.out0 + 2 * plan.num_outputs]

    # -- group loading ------------------------------------------------------

    def _gather_masks(self, faulted: "np.ndarray") -> None:
        """Rebuild the gather-ordered ORM/ANDM matrices from the table;
        ``faulted`` flags the slots whose table rows carry a mask."""
        table = self._table
        table.take(self.plan.or_idx, 0, self._orm, "clip")
        table.take(self.plan.and_idx, 0, self._andm, "clip")
        np.invert(self._andm, out=self._andm)
        # Deep-chain composition, restricted to rows whose outer stage
        # actually carries a mask in this group (an unfaulted outer slot
        # composes as the identity).
        for positions, slots, or_rows, and_rows in self.plan.deep_stages:
            active = np.flatnonzero(faulted[slots])
            if not active.size:
                continue
            pos = positions[active]
            outer_o = table[or_rows[active]]
            outer_a = table[and_rows[active]]
            np.invert(outer_a, out=outer_a)
            for masks in (self._orm, self._andm):
                inner = masks[pos]
                inner |= outer_o
                inner &= outer_a
                masks[pos] = inner

    def set_group(self, sa1: Sequence[int], sa0: Sequence[int]) -> None:
        """Load one fault group's per-slot stuck-at masks (bigint form).

        Accepts exactly the ``(sa1, sa0)`` arrays that drive the bigint
        ``step_inject``, so group construction is shared across backends.
        """
        ns = self.plan.num_slots
        W = self.words
        table = self._table
        table[:] = 0
        faulted = np.zeros(ns, dtype=bool)
        for rail, masks in enumerate((sa1, sa0)):
            for slot, value in enumerate(masks):
                if value:
                    table[rail * ns + slot] = words_from_int(value, W)
                    faulted[slot] = True
        self._gather_masks(faulted)

    def set_lane_faults(
        self, lanes: Sequence[int], slots: Sequence[int], values: Sequence[int]
    ) -> None:
        """Load one stuck-at fault per listed lane.

        Lane ``lanes[i]`` carries the fault with injection slot ``slots[i]``
        stuck at ``values[i]``; every other lane is fault-free.  Builds the
        same table :meth:`set_group` builds from the equivalent bigint
        masks, without materializing them.
        """
        ns = self.plan.num_slots
        W = self.words
        table = self._table
        table[:] = 0
        faulted = np.zeros(ns, dtype=bool)
        if len(lanes):
            lane_arr = np.asarray(lanes, dtype=np.intp)
            slot_arr = np.asarray(slots, dtype=np.intp)
            value_arr = np.asarray(values, dtype=np.intp)
            flat = (slot_arr + ns * (1 - value_arr)) * W + (lane_arr >> 6)
            bits = _ONE64 << (lane_arr & 63).astype(_U64)
            np.bitwise_or.at(table.reshape(-1), flat, bits)
            faulted[slot_arr] = True
        self._gather_masks(faulted)

    def clear_group(self) -> None:
        """Reset every injection mask (the fault-free ``step_clean`` form)."""
        self._table[:] = 0
        self._orm[:] = 0
        self._andm[:] = _FULL

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
        band = np.bitwise_and
        bor = np.bitwise_or
        for src, ops, ops1, orm, andm, a, b, ao, oa, ob, oo in self._exec:
            # mode="clip" skips per-index bounds checking (indices are
            # plan-constructed, always in range); a positional ``out``
            # parses faster than the keyword.
            take(src, 0, ops, "clip")
            bor(ops1, orm, ops1)
            band(ops1, andm, ops1)
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
