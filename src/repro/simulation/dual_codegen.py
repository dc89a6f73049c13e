"""Code-generated dual-machine stepper: the PODEM resimulation kernel.

The sequential PODEM engine re-simulates the fault-free *and* the faulty
machine after every decision, then rescans the frame caches for detections,
surviving fault effects and prune conditions.  With the scalar
:class:`~repro.simulation.codegen.FastStepper` that is two compiled calls
per time frame plus three interpreted Python scans per decision.  This
module lowers a :class:`CompiledCircuit` once into a *single* straight-line
function that steps both machines together and returns the scan results as
precomputed bitmasks.

Signals travel as **two planes** of integer bitmasks::

    value -- bit *i* set when lane *i* carries logic 1
    care  -- bit *i* set when lane *i* is binary (0 or 1); clear -> X

with the invariant ``value & ~care == 0``.  A *lane* is one independent
scalar simulation: PODEM's branch-lane lookahead packs the two branches of
a decision (the assigned value and its complement) into lanes 0 and 1 of
the same pass, so backtracking to the complementary branch costs no new
simulation.  Internally gates are evaluated in the same dual-rail form the
scalar and vector code generators share (:func:`gate_rail_exprs`); the
planes are converted at the function boundary (``zeros = care & ~value``,
``care = ones | zeros``).

The faulty machine's stuck-at injection uses **runtime masks** exactly like
the PROOFS kernel's ``step_inject``: ``sa1[k]`` / ``sa0[k]`` force the
masked lanes of injection slot ``k`` (see :attr:`DualFastStepper.line_slot`)
to 1 / 0 at the line's consumer read, on the faulty plane only.  One
compiled function therefore serves *every* fault of the circuit -- the
PODEM engine never recompiles per fault, and the generated source is
cacheable in the compile cache and the persistent artifact store.

Per step the kernel also computes, in compiled code:

* ``det``   -- lanes where some primary output provably differs (a binary
  1/0 disagreement between the machines): the detection check;
* ``vdiff`` -- lanes where some vertex value provably differs;
* ``sdiff`` -- lanes where some next-state register provably differs
  (``vdiff``/``sdiff`` together replace the fault-effect rescan);
* ``same``  -- lanes where the two next states are identical *and* fully
  binary: the stored-effect prune condition.

Semantics are cross-checked against the scalar good/faulty steppers by the
test suite (``tests/simulation/test_dual_codegen.py``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import NodeKind
from repro.logic.three_valued import ONE, Trit, X, ZERO
from repro.simulation.codegen import gate_rail_exprs
from repro.simulation.compiled import CompiledCircuit, Read

#: Bump whenever the generated dual stepper source changes shape, so
#: persisted stepper artifacts from older generators are invalidated
#: (the artifact store folds this into its schema version).
DUAL_CODEGEN_VERSION = 1

# A bit-parallel signal value: (value, care) integer plane pair.
PlanePair = Tuple[int, int]
DualState = Tuple[PlanePair, ...]

# One step's result:
# (good_values, good_cares, bad_values, bad_cares,
#  good_next, bad_next, det, vdiff, sdiff, same)
DualStep = Tuple[
    Tuple[int, ...],
    Tuple[int, ...],
    Tuple[int, ...],
    Tuple[int, ...],
    DualState,
    DualState,
    int,
    int,
    int,
    int,
]


class DualFastStepper:
    """A compiled good+faulty ``step_dual`` over two-plane integer masks.

    The stepper is width-agnostic: the active lane count is carried by the
    ``mask`` argument (``(1 << lanes) - 1``), so the same compiled function
    serves the single-lane and the branch-lookahead calls alike.
    """

    def __init__(
        self,
        circuit: Circuit,
        compiled: Optional[CompiledCircuit] = None,
        source: Optional[str] = None,
    ):
        self.circuit = circuit
        self.compiled = compiled if compiled is not None else CompiledCircuit(circuit)
        # Injection slot numbering: identical scheme to the bit-parallel
        # fault-simulation kernel -- one slot per consumed line, assigned in
        # program order, so the numbering is deterministic and matches any
        # persisted source it was generated with.
        self.line_slot: Dict[LineRef, int] = {}
        for op in self.compiled.ops:
            for read in op.reads:
                self.line_slot.setdefault(read.line, len(self.line_slot))
        for read in self.compiled.register_loads:
            self.line_slot.setdefault(read.line, len(self.line_slot))
        self.num_injection_slots = len(self.line_slot)

        # ``source`` lets a persistent cache skip regeneration.
        if source is None:
            source = self._generate()
        self._source = source

    @cached_property
    def step_dual(self) -> Callable:
        """The compiled ``step_dual``, exec'd on first use: a stepper built
        only to persist its source never compiles it."""
        namespace: Dict[str, object] = {}
        exec(compile(self._source, f"<dualstep {self.circuit.name}>", "exec"), namespace)
        return namespace["step_dual"]  # type: ignore[return-value]

    # -- code generation ----------------------------------------------------

    def _bad_read_exprs(self, read: Read, prelude: List[str]) -> Tuple[str, str]:
        """Faulty-plane rail expressions for one read, with injection."""
        if read.from_register:
            base = (f"br{read.index}_1", f"br{read.index}_0")
        else:
            base = (f"b{read.index}_1", f"b{read.index}_0")
        slot = self.line_slot[read.line]
        one, zero = base
        prelude.append(f"    f{slot}_1 = ({one} | sa1[{slot}]) & ~sa0[{slot}]")
        prelude.append(f"    f{slot}_0 = ({zero} | sa0[{slot}]) & ~sa1[{slot}]")
        return f"f{slot}_1", f"f{slot}_0"

    @staticmethod
    def _good_read_exprs(read: Read) -> Tuple[str, str]:
        if read.from_register:
            return f"gr{read.index}_1", f"gr{read.index}_0"
        return f"g{read.index}_1", f"g{read.index}_0"

    def _generate(self) -> str:
        compiled = self.compiled
        lines: List[str] = [
            "def step_dual(good_state, bad_state, vector, mask, sa1, sa0):"
        ]
        # State prologue: planes -> rails, per machine.
        for k in range(compiled.num_registers):
            lines.append(f"    gr{k}_1, gr{k}_c = good_state[{k}]")
            lines.append(f"    gr{k}_0 = gr{k}_c & ~gr{k}_1")
            lines.append(f"    br{k}_1, br{k}_c = bad_state[{k}]")
            lines.append(f"    br{k}_0 = br{k}_c & ~br{k}_1")
        diff_terms: List[str] = []
        for op in compiled.ops:
            slot = op.slot
            if op.kind is NodeKind.INPUT:
                # Primary inputs drive both machines identically (the fault
                # is injected at consumer reads, never at the source).
                lines.append(f"    g{slot}_1, g{slot}_c = vector[{op.pi_index}]")
                lines.append(f"    g{slot}_0 = g{slot}_c & ~g{slot}_1")
                lines.append(f"    b{slot}_1 = g{slot}_1")
                lines.append(f"    b{slot}_0 = g{slot}_0")
                continue
            if op.kind is NodeKind.CONST0:
                lines.append(f"    g{slot}_1, g{slot}_0 = 0, mask")
                lines.append(f"    b{slot}_1, b{slot}_0 = 0, mask")
                continue
            if op.kind is NodeKind.CONST1:
                lines.append(f"    g{slot}_1, g{slot}_0 = mask, 0")
                lines.append(f"    b{slot}_1, b{slot}_0 = mask, 0")
                continue
            good_reads = [self._good_read_exprs(r) for r in op.reads]
            prelude: List[str] = []
            bad_reads = [self._bad_read_exprs(r, prelude) for r in op.reads]
            lines.extend(prelude)
            if op.kind in (NodeKind.FANOUT, NodeKind.OUTPUT):
                lines.append(f"    g{slot}_1 = {good_reads[0][0]}")
                lines.append(f"    g{slot}_0 = {good_reads[0][1]}")
                lines.append(f"    b{slot}_1 = {bad_reads[0][0]}")
                lines.append(f"    b{slot}_0 = {bad_reads[0][1]}")
            else:
                one, zero = gate_rail_exprs(op.gate_type, good_reads)
                lines.append(f"    g{slot}_1 = {one}")
                lines.append(f"    g{slot}_0 = {zero}")
                one, zero = gate_rail_exprs(op.gate_type, bad_reads)
                lines.append(f"    b{slot}_1 = {one}")
                lines.append(f"    b{slot}_0 = {zero}")
            diff_terms.append(
                f"g{slot}_1 & b{slot}_0 | g{slot}_0 & b{slot}_1"
            )
        # Next-state loads (injection applies to the faulty loads too).
        state_same_terms: List[str] = []
        state_diff_terms: List[str] = []
        good_next: List[str] = []
        bad_next: List[str] = []
        for k, read in enumerate(compiled.register_loads):
            one, zero = self._good_read_exprs(read)
            lines.append(f"    gn{k}_1 = {one}")
            lines.append(f"    gn{k}_0 = {zero}")
            prelude = []
            one, zero = self._bad_read_exprs(read, prelude)
            lines.extend(prelude)
            lines.append(f"    bn{k}_1 = {one}")
            lines.append(f"    bn{k}_0 = {zero}")
            good_next.append(f"(gn{k}_1, gn{k}_1 | gn{k}_0)")
            bad_next.append(f"(bn{k}_1, bn{k}_1 | bn{k}_0)")
            state_diff_terms.append(f"gn{k}_1 & bn{k}_0 | gn{k}_0 & bn{k}_1")
            state_same_terms.append(
                f"(gn{k}_1 | gn{k}_0) & (bn{k}_1 | bn{k}_0) & ~(gn{k}_1 ^ bn{k}_1)"
            )
        det_terms = []
        for name in self.circuit.output_names:
            slot = compiled.slot_of[name]
            det_terms.append(f"g{slot}_1 & b{slot}_0 | g{slot}_0 & b{slot}_1")
        lines.append(
            "    good_values = ("
            + ", ".join(f"g{k}_1" for k in range(compiled.num_slots))
            + ("," if compiled.num_slots else "")
            + ")"
        )
        lines.append(
            "    good_cares = ("
            + ", ".join(f"g{k}_1 | g{k}_0" for k in range(compiled.num_slots))
            + ("," if compiled.num_slots else "")
            + ")"
        )
        lines.append(
            "    bad_values = ("
            + ", ".join(f"b{k}_1" for k in range(compiled.num_slots))
            + ("," if compiled.num_slots else "")
            + ")"
        )
        lines.append(
            "    bad_cares = ("
            + ", ".join(f"b{k}_1 | b{k}_0" for k in range(compiled.num_slots))
            + ("," if compiled.num_slots else "")
            + ")"
        )
        lines.append(
            "    good_next = ("
            + ", ".join(good_next)
            + ("," if good_next else "")
            + ")"
        )
        lines.append(
            "    bad_next = (" + ", ".join(bad_next) + ("," if bad_next else "") + ")"
        )
        lines.append("    det = " + (" | ".join(det_terms) or "0"))
        lines.append("    vdiff = " + (" | ".join(diff_terms) or "0"))
        lines.append("    sdiff = " + (" | ".join(state_diff_terms) or "0"))
        if state_same_terms:
            lines.append("    same = mask & " + " & ".join(f"({t})" for t in state_same_terms))
        else:
            lines.append("    same = mask")
        lines.append(
            "    return (good_values, good_cares, bad_values, bad_cares, "
            "good_next, bad_next, det, vdiff, sdiff, same)"
        )
        return "\n".join(lines)

    # -- packing helpers ----------------------------------------------------

    def unknown_state(self) -> DualState:
        """All registers X in every lane."""
        return ((0, 0),) * self.compiled.num_registers

    def broadcast_state(self, scalars: Sequence[Trit], width: int) -> DualState:
        """Replicate a scalar ternary state across all lanes."""
        return tuple(_filled(value, width) for value in scalars)

    def broadcast_vector(
        self, scalars: Sequence[Trit], width: int
    ) -> Tuple[PlanePair, ...]:
        """Replicate a scalar input vector across all lanes."""
        if len(scalars) != self.compiled.num_inputs:
            raise ValueError(
                f"vector needs {self.compiled.num_inputs} trits, got {len(scalars)}"
            )
        return tuple(_filled(value, width) for value in scalars)

    def pack_vectors(
        self, vectors: Sequence[Sequence[Trit]]
    ) -> Tuple[PlanePair, ...]:
        """Pack one scalar vector per lane (lane-parallel input planes)."""
        num_inputs = self.compiled.num_inputs
        for position, vector in enumerate(vectors):
            if len(vector) != num_inputs:
                raise ValueError(
                    f"vector {position} has {len(vector)} trits, "
                    f"expected {num_inputs}"
                )
        packed = []
        for pi in range(num_inputs):
            value = 0
            care = 0
            for position, vector in enumerate(vectors):
                trit = vector[pi]
                if trit == ONE:
                    value |= 1 << position
                    care |= 1 << position
                elif trit == ZERO:
                    care |= 1 << position
                elif trit != X:
                    raise ValueError(f"not a trit: {trit!r}")
            packed.append((value, care))
        return tuple(packed)

    def injection_masks(
        self, fault=None, width: int = 1
    ) -> Tuple[List[int], List[int]]:
        """``(sa1, sa0)`` arrays forcing ``fault`` in every lane.

        ``fault`` may be ``None`` (all-clear masks).  A fault on a line
        with no consumer read -- structurally unobservable -- yields
        all-clear masks, matching the scalar fault stepper, which never
        forces anything for such a line either.
        """
        sa1 = [0] * self.num_injection_slots
        sa0 = [0] * self.num_injection_slots
        if fault is not None:
            slot = self.line_slot.get(fault.line)
            if slot is not None:
                filled = (1 << width) - 1
                if fault.value == 1:
                    sa1[slot] = filled
                else:
                    sa0[slot] = filled
        return sa1, sa0

    def source(self) -> str:
        """The generated source text (for caching and debugging)."""
        return self._source


def _filled(value: Trit, width: int) -> PlanePair:
    mask = (1 << width) - 1
    if value == ONE:
        return (mask, mask)
    if value == ZERO:
        return (0, mask)
    if value == X:
        return (0, 0)
    raise ValueError(f"not a trit: {value!r}")


def plane_trit(value: int, care: int, lane: int) -> Trit:
    """The ternary value carried by ``lane`` of a plane pair."""
    bit = 1 << lane
    if care & bit:
        return ONE if value & bit else ZERO
    return X


def plane_pair_trit(pair: PlanePair, lane: int) -> Trit:
    """The ternary value carried by ``lane`` of a ``(value, care)`` pair."""
    return plane_trit(pair[0], pair[1], lane)


__all__ = [
    "DUAL_CODEGEN_VERSION",
    "DualFastStepper",
    "DualState",
    "PlanePair",
    "plane_pair_trit",
    "plane_trit",
]
