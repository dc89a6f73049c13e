"""Code-generated bit-parallel stepper: the fault-simulation kernel.

The interpreted :class:`repro.simulation.vector.VectorSimulator` pays one
:class:`~repro.logic.bitparallel.BitVec` allocation (with construction-time
validation) plus one ``eval_gate_vector`` dispatch per gate per cycle.  This
module lowers a :class:`CompiledCircuit` once into straight-line Python over
bare dual-rail integer masks::

    ones  -- bit *i* set when machine *i* carries logic 1
    zeros -- bit *i* set when machine *i* carries logic 0
    neither set -> X

so every gate costs a couple of bitwise integer operations on arbitrary-
precision ints, independent of the word width.

Two entry points are generated per circuit:

* ``step_clean(state, vector, mask)`` -- fault-free bit-parallel step, used
  for pattern-parallel batch simulation;
* ``step_inject(state, vector, mask, sa1, sa0)`` -- the same evaluation with
  per-line stuck-at injection masks supplied *at call time*.  ``sa1[k]`` /
  ``sa0[k]`` force the masked bit positions of the line with injection slot
  ``k`` (see :attr:`VectorFastStepper.line_slot`) to 1 / 0 at its consumer
  read.  Because the masks are runtime parameters, **one compiled function
  serves every fault group** -- the PROOFS-style engine never recompiles.

:meth:`VectorFastStepper.inject_step` generates the same entry point with
injection code at a given set of slots only, every other read compiled as
in ``step_clean``: the exact ATPG search (:mod:`repro.atpg.exact`) builds
one per search, over the lines of the faults it will search, and never
execs the dense ``step_inject``.  It is not persisted.

``state``/``vector``/``outputs``/``next_state`` are tuples of
``(ones, zeros)`` integer pairs in the same canonical orders as the
interpreted simulators.  Semantics are cross-checked against both the
scalar reference simulator and the interpreted vector simulator by the
test suite.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Container, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import NodeKind
from repro.logic.three_valued import ONE, Trit, X, ZERO
from repro.simulation.codegen import gate_rail_exprs
from repro.simulation.compiled import CompiledCircuit, Read

#: Bump whenever the generated bit-parallel stepper source changes shape,
#: so persisted stepper artifacts from older generators are invalidated
#: (the artifact store folds this into its schema version).
VECTOR_CODEGEN_VERSION = 1

# A bit-parallel signal value: (ones, zeros) integer masks.
RailPair = Tuple[int, int]
VectorFastState = Tuple[RailPair, ...]


class VectorFastStepper:
    """A compiled bit-parallel ``step`` over dual-rail integer masks.

    The stepper is width-agnostic: the active word width is carried by the
    ``mask`` argument (``(1 << width) - 1``), so the same compiled function
    serves 64-, 256- or 1024-wide fault groups alike.
    """

    def __init__(
        self,
        circuit: Circuit,
        compiled: Optional[CompiledCircuit] = None,
        sources: Optional[Tuple[str, str]] = None,
    ):
        self.circuit = circuit
        self.compiled = compiled if compiled is not None else CompiledCircuit(circuit)
        # Injection slot numbering: one slot per line consumed by the
        # evaluation program (every line of the circuit has exactly one
        # consumer read -- paper Fig. 4 semantics), assigned in program
        # order so the numbering is deterministic.
        self.line_slot: Dict[LineRef, int] = {}
        for op in self.compiled.ops:
            for read in op.reads:
                self.line_slot.setdefault(read.line, len(self.line_slot))
        for read in self.compiled.register_loads:
            self.line_slot.setdefault(read.line, len(self.line_slot))
        self.num_injection_slots = len(self.line_slot)

        # ``sources`` lets a persistent cache skip regeneration; the slot
        # numbering above is recomputed either way (it is deterministic in
        # program order, so it matches the sources it was generated with).
        if sources is not None:
            self._source_clean, self._source_inject = sources
        else:
            self._source_clean = self._generate(inject=False)
            self._source_inject = self._generate(inject=True)

    # The entry points are exec'd on first use: the injection source is
    # several times the size of the clean one, and a fault-free flow, or
    # one that only drives the word-plane runner, never calls it.

    @cached_property
    def step_clean(self) -> Callable:
        return self._exec(self._source_clean, "step_clean", "vectorstep")

    @cached_property
    def step_inject(self) -> Callable:
        return self._exec(self._source_inject, "step_inject", "vectorstep+inject")

    def inject_step(self, slots: Iterable[int]) -> Callable:
        """``step_inject`` with injection code at ``slots`` only: the same
        results wherever ``sa1``/``sa0`` are zero at every other slot."""
        slots = frozenset(slots)
        source = self._generate(inject=True, slots=slots)
        return self._exec(source, "step_inject", f"vectorstep+inject[{len(slots)}]")

    def _exec(self, source: str, name: str, tag: str) -> Callable:
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<{tag} {self.circuit.name}>", "exec"), namespace)
        return namespace[name]  # type: ignore[return-value]

    # -- code generation ----------------------------------------------------

    def _read_exprs(
        self, read: Read, inject: Optional[Container[int]], prelude: List[str]
    ) -> Tuple[str, str]:
        """Rail expressions for one read, emitting injection code if its
        slot is in ``inject``."""
        if read.from_register:
            base = (f"s{read.index}_1", f"s{read.index}_0")
        else:
            base = (f"v{read.index}_1", f"v{read.index}_0")
        slot = self.line_slot[read.line]
        if inject is None or slot not in inject:
            return base
        one, zero = base
        prelude.append(f"    r{slot}_1 = ({one} | sa1[{slot}]) & ~sa0[{slot}]")
        prelude.append(f"    r{slot}_0 = ({zero} | sa0[{slot}]) & ~sa1[{slot}]")
        return f"r{slot}_1", f"r{slot}_0"

    def _generate(self, inject: bool, slots: Optional[Container[int]] = None) -> str:
        """``step_inject`` source, injecting at ``slots`` (default: every
        slot), or ``step_clean`` source."""
        compiled = self.compiled
        name = "step_inject" if inject else "step_clean"
        params = "state, vector, mask, sa1, sa0" if inject else "state, vector, mask"
        injected = None
        if inject:
            injected = range(self.num_injection_slots) if slots is None else slots
        lines: List[str] = [f"def {name}({params}):"]
        for k in range(compiled.num_registers):
            lines.append(f"    s{k}_1, s{k}_0 = state[{k}]")
        for op in compiled.ops:
            slot = op.slot
            if op.kind is NodeKind.INPUT:
                lines.append(f"    v{slot}_1, v{slot}_0 = vector[{op.pi_index}]")
                continue
            if op.kind is NodeKind.CONST0:
                lines.append(f"    v{slot}_1, v{slot}_0 = 0, mask")
                continue
            if op.kind is NodeKind.CONST1:
                lines.append(f"    v{slot}_1, v{slot}_0 = mask, 0")
                continue
            prelude: List[str] = []
            reads = [self._read_exprs(r, injected, prelude) for r in op.reads]
            lines.extend(prelude)
            if op.kind in (NodeKind.FANOUT, NodeKind.OUTPUT):
                one, zero = reads[0]
                lines.append(f"    v{slot}_1 = {one}")
                lines.append(f"    v{slot}_0 = {zero}")
                continue
            one_expr, zero_expr = gate_rail_exprs(op.gate_type, reads)
            lines.append(f"    v{slot}_1 = {one_expr}")
            lines.append(f"    v{slot}_0 = {zero_expr}")
        next_state = []
        for read in compiled.register_loads:
            prelude = []
            one, zero = self._read_exprs(read, injected, prelude)
            lines.extend(prelude)
            next_state.append(f"({one}, {zero})")
        outputs = []
        for name_ in self.circuit.output_names:
            slot = compiled.slot_of[name_]
            outputs.append(f"(v{slot}_1, v{slot}_0)")
        lines.append(f"    outputs = ({', '.join(outputs)}{',' if outputs else ''})")
        lines.append(
            f"    next_state = ({', '.join(next_state)}{',' if next_state else ''})"
        )
        lines.append("    return outputs, next_state")
        return "\n".join(lines)

    # -- packing helpers ----------------------------------------------------

    def unknown_state(self) -> VectorFastState:
        """All registers X in every bit position."""
        return ((0, 0),) * self.compiled.num_registers

    def broadcast_state(self, scalars: Sequence[Trit], width: int) -> VectorFastState:
        """Replicate a scalar ternary state across all bit positions."""
        return tuple(_filled(value, width) for value in scalars)

    def broadcast_vector(
        self, scalars: Sequence[Trit], width: int
    ) -> Tuple[RailPair, ...]:
        """Replicate a scalar input vector across all bit positions."""
        if len(scalars) != self.compiled.num_inputs:
            raise ValueError(
                f"vector needs {self.compiled.num_inputs} trits, got {len(scalars)}"
            )
        return tuple(_filled(value, width) for value in scalars)

    def pack_vectors(
        self, vectors: Sequence[Sequence[Trit]]
    ) -> Tuple[RailPair, ...]:
        """Pack one scalar vector per bit position (pattern-parallel input)."""
        num_inputs = self.compiled.num_inputs
        for position, vector in enumerate(vectors):
            if len(vector) != num_inputs:
                raise ValueError(
                    f"vector {position} has {len(vector)} trits, "
                    f"expected {num_inputs}"
                )
        packed = []
        for pi in range(num_inputs):
            ones = 0
            zeros = 0
            for position, vector in enumerate(vectors):
                value = vector[pi]
                if value == ONE:
                    ones |= 1 << position
                elif value == ZERO:
                    zeros |= 1 << position
                elif value != X:
                    raise ValueError(f"not a trit: {value!r}")
            packed.append((ones, zeros))
        return tuple(packed)

    def blank_injection_masks(self) -> Tuple[List[int], List[int]]:
        """Fresh all-zero ``(sa1, sa0)`` mask arrays for ``step_inject``."""
        return [0] * self.num_injection_slots, [0] * self.num_injection_slots

    # -- convenience ---------------------------------------------------------

    def run_clean(
        self,
        vectors: Sequence[Sequence[RailPair]],
        width: int,
        state: Optional[VectorFastState] = None,
    ) -> Tuple[List[Tuple[RailPair, ...]], VectorFastState]:
        """Fault-free multi-cycle run over pre-packed vectors."""
        mask = (1 << width) - 1
        current = self.unknown_state() if state is None else tuple(state)
        step = self.step_clean
        outputs: List[Tuple[RailPair, ...]] = []
        for vector in vectors:
            out, current = step(current, tuple(vector), mask)
            outputs.append(out)
        return outputs, current

    def sources(self) -> Tuple[str, str]:
        """The generated ``(clean, inject)`` source texts (for debugging)."""
        return self._source_clean, self._source_inject

    def word_runner(self, width: int):
        """A word-plane runner for this kernel: the numpy backend.

        The runner executes the same dual-rail program as ``step_inject``
        over ``uint64`` lane-word arrays (see
        :mod:`repro.simulation.wordplane`), with the identical injection
        slot numbering, and is bit-identical to the bigint entry points.
        Raises :class:`RuntimeError` when the optional numpy dependency is
        not installed.
        """
        from repro.simulation.backends import numpy_or_none

        if numpy_or_none() is None:
            raise RuntimeError(
                "word_runner requires the optional numpy dependency "
                "(install the [perf] extra)"
            )
        from repro.simulation.wordplane import wordplane_plan

        return wordplane_plan(self).runner(width)


def _filled(value: Trit, width: int) -> RailPair:
    mask = (1 << width) - 1
    if value == ONE:
        return (mask, 0)
    if value == ZERO:
        return (0, mask)
    if value == X:
        return (0, 0)
    raise ValueError(f"not a trit: {value!r}")


def rail_pair_trit(pair: RailPair, position: int) -> Trit:
    """The ternary value carried by bit ``position`` of a rail pair."""
    bit = 1 << position
    if pair[0] & bit:
        return ONE
    if pair[1] & bit:
        return ZERO
    return X


__all__ = [
    "VECTOR_CODEGEN_VERSION",
    "VectorFastStepper",
    "VectorFastState",
    "RailPair",
    "rail_pair_trit",
]
