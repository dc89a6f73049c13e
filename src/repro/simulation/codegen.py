"""Code-generated scalar three-valued stepper.

For search-heavy workloads (the synchronizing-sequence searches step the
machine once per candidate vector) the interpreted
:class:`SequentialSimulator` loop dominates runtime.  This module compiles one circuit (plus optionally one stuck-at
fault, inlined as constants at the faulted line's consumer reads) into a
straight-line Python function using the dual-rail encoding::

    v1 = 1  when the signal is logic 1
    v0 = 1  when the signal is logic 0
    both 0  when the signal is X

so every gate costs a couple of bitwise integer operations and no
interpreter dispatch.  Semantics are identical to the reference simulator
(cross-checked by the test suite).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import GateType, NodeKind
from repro.faults.model import StuckAtFault
from repro.logic.three_valued import Trit, X
from repro.simulation.compiled import CompiledCircuit, Read

#: Bump whenever the generated scalar stepper source changes shape, so
#: persisted stepper artifacts from older generators are invalidated
#: (the artifact store folds this into its schema version).
CODEGEN_VERSION = 1

# trit -> (rail1, rail0)
_RAILS = ((0, 1), (1, 0), (0, 0))
# (rail1, rail0) -> trit via _TRIT[rail1][rail0]
_TRIT = ((2, 0), (1, 1))


def gate_rail_exprs(
    gate_type: GateType, reads: List[Tuple[str, str]]
) -> Tuple[str, str]:
    """Dual-rail ``(one_expr, zero_expr)`` source for one gate evaluation.

    ``reads`` are the operand rail expressions as ``(one, zero)`` source
    strings.  The formulas are width-agnostic: they are correct whether the
    rails are single bits (scalar stepper) or arbitrary-width integer masks
    (bit-parallel stepper), which is why both code generators share them.
    """
    ones = [r[0] for r in reads]
    zeros = [r[1] for r in reads]
    if gate_type in (GateType.AND, GateType.NAND):
        one_expr = " & ".join(ones)
        zero_expr = " | ".join(zeros)
        if gate_type is GateType.NAND:
            one_expr, zero_expr = zero_expr, one_expr
    elif gate_type in (GateType.OR, GateType.NOR):
        one_expr = " | ".join(ones)
        zero_expr = " & ".join(zeros)
        if gate_type is GateType.NOR:
            one_expr, zero_expr = zero_expr, one_expr
    elif gate_type in (GateType.XOR, GateType.XNOR):
        one_expr, zero_expr = ones[0], zeros[0]
        for one, zero in zip(ones[1:], zeros[1:]):
            new_one = f"(({one_expr}) & {zero} | ({zero_expr}) & {one})"
            new_zero = f"(({one_expr}) & {one} | ({zero_expr}) & {zero})"
            one_expr, zero_expr = new_one, new_zero
        if gate_type is GateType.XNOR:
            one_expr, zero_expr = zero_expr, one_expr
    elif gate_type is GateType.NOT:
        one_expr, zero_expr = zeros[0], ones[0]
    elif gate_type is GateType.BUF:
        one_expr, zero_expr = ones[0], zeros[0]
    else:  # pragma: no cover - exhaustive over GateType
        raise ValueError(f"unknown gate type {gate_type}")
    return one_expr, zero_expr


class FastStepper:
    """A compiled ``step(state, vector) -> (outputs, next_state, values)``.

    ``state``/``vector`` are tuples of trits in the canonical orders;
    ``values`` is the per-slot trit list matching
    :class:`CompiledCircuit` slot numbering (same as the reference
    simulator's ``node_values``).
    """

    def __init__(
        self,
        circuit: Circuit,
        fault: Optional[StuckAtFault] = None,
        compiled: Optional[CompiledCircuit] = None,
        source: Optional[str] = None,
    ):
        self.circuit = circuit
        self.compiled = compiled if compiled is not None else CompiledCircuit(circuit)
        self.fault = fault
        # ``source`` lets a persistent cache skip regeneration; only the
        # fault-free stepper is ever persisted (fault steppers inline the
        # fault as constants, so their source is fault-specific).
        if source is None:
            source = self._generate()
        self._source = source

    @cached_property
    def step(self) -> Callable:
        """The compiled ``step``, exec'd on first use: a stepper built only
        to persist its source never compiles it."""
        namespace: Dict[str, object] = {"_RAILS": _RAILS, "_TRIT": _TRIT}
        exec(compile(self._source, f"<faststep {self.circuit.name}>", "exec"), namespace)
        return namespace["step"]  # type: ignore[return-value]

    # -- code generation ----------------------------------------------------

    def _forced_rails(self, line: LineRef) -> Optional[Tuple[int, int]]:
        if self.fault is None or self.fault.line != line:
            return None
        return _RAILS[self.fault.value]

    def _read_expr(self, read: Read) -> Tuple[str, str]:
        forced = self._forced_rails(read.line)
        if forced is not None:
            return str(forced[0]), str(forced[1])
        if read.from_register:
            return f"s{read.index}_1", f"s{read.index}_0"
        return f"v{read.index}_1", f"v{read.index}_0"

    def _generate(self) -> str:
        compiled = self.compiled
        lines: List[str] = [
            "def step(state, vector):",
        ]
        for k in range(compiled.num_registers):
            lines.append(f"    s{k}_1, s{k}_0 = _RAILS[state[{k}]]")
        for op in compiled.ops:
            slot = op.slot
            if op.kind is NodeKind.INPUT:
                lines.append(
                    f"    v{slot}_1, v{slot}_0 = _RAILS[vector[{op.pi_index}]]"
                )
                continue
            if op.kind is NodeKind.CONST0:
                lines.append(f"    v{slot}_1, v{slot}_0 = 0, 1")
                continue
            if op.kind is NodeKind.CONST1:
                lines.append(f"    v{slot}_1, v{slot}_0 = 1, 0")
                continue
            reads = [self._read_expr(r) for r in op.reads]
            if op.kind in (NodeKind.FANOUT, NodeKind.OUTPUT):
                one, zero = reads[0]
                lines.append(f"    v{slot}_1 = {one}")
                lines.append(f"    v{slot}_0 = {zero}")
                continue
            lines.extend(self._gate_lines(slot, op.gate_type, reads))
        next_state = []
        for read in compiled.register_loads:
            one, zero = self._read_expr(read)
            next_state.append(f"_TRIT[{one}][{zero}]")
        outputs = []
        for name in self.circuit.output_names:
            slot = compiled.slot_of[name]
            outputs.append(f"_TRIT[v{slot}_1][v{slot}_0]")
        values = ", ".join(
            f"_TRIT[v{k}_1][v{k}_0]" for k in range(compiled.num_slots)
        )
        lines.append(f"    outputs = ({', '.join(outputs)}{',' if outputs else ''})")
        lines.append(
            f"    next_state = ({', '.join(next_state)}{',' if next_state else ''})"
        )
        lines.append(f"    values = ({values}{',' if values else ''})")
        lines.append("    return outputs, next_state, values")
        return "\n".join(lines)

    @staticmethod
    def _gate_lines(slot: int, gate_type: GateType, reads) -> List[str]:
        one_expr, zero_expr = gate_rail_exprs(gate_type, reads)
        return [
            f"    v{slot}_1 = {one_expr}",
            f"    v{slot}_0 = {zero_expr}",
        ]

    # -- convenience ----------------------------------------------------------

    def unknown_state(self) -> Tuple[Trit, ...]:
        return (X,) * self.compiled.num_registers

    def run(self, vectors, state=None):
        """Multi-cycle convenience run (outputs list, final state)."""
        current = self.unknown_state() if state is None else tuple(state)
        outputs = []
        for vector in vectors:
            out, current, _ = self.step(current, tuple(vector))
            outputs.append(out)
        return outputs, current


__all__ = ["CODEGEN_VERSION", "FastStepper", "gate_rail_exprs"]
