"""Structural equivalence fault collapsing.

Two faults are structurally equivalent when every test for one is a test for
the other; simulating one representative per equivalence class is then
sufficient.  The classes used here are the classical gate-local rules,
applied through the graph model:

* the line directly feeding a gate (sink-side segment of an input edge) and
  the line directly driven by it (source-side segment of its output edge)
  collapse according to the gate function:

  - AND:  input s-a-0 == output s-a-0
  - NAND: input s-a-0 == output s-a-1
  - OR:   input s-a-1 == output s-a-1
  - NOR:  input s-a-1 == output s-a-0
  - NOT:  input s-a-v == output s-a-(1-v)
  - BUF:  input s-a-v == output s-a-v
  - XOR/XNOR: no collapsing

* no collapsing is performed across registers (a fault before and after a
  flip-flop differ in time behaviour and initialization) nor across fanout
  stems (a stem fault is a multiple fault of the branches).

These are exactly the situations the paper leans on in Section V.C when
explaining the Table III discrepancies: adding a register to a line splits
one collapsed fault into two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import GateType
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.logic.three_valued import ONE, ZERO


@dataclass(frozen=True)
class CollapsedFaults:
    """Result of equivalence collapsing."""

    representatives: Tuple[StuckAtFault, ...]
    class_of: Dict[StuckAtFault, StuckAtFault]

    @property
    def num_collapsed(self) -> int:
        return len(self.representatives)

    @property
    def num_total(self) -> int:
        return len(self.class_of)

    def class_members(self, representative: StuckAtFault) -> List[StuckAtFault]:
        return sorted(
            fault for fault, rep in self.class_of.items() if rep == representative
        )


#: Per gate type, the (input value, output value) stuck-at pairs that are
#: equivalent across the gate.
_GATE_RULES = {
    GateType.AND: ((ZERO, ZERO),),
    GateType.NAND: ((ZERO, ONE),),
    GateType.OR: ((ONE, ONE),),
    GateType.NOR: ((ONE, ZERO),),
    GateType.NOT: ((ZERO, ONE), (ONE, ZERO)),
    GateType.BUF: ((ZERO, ZERO), (ONE, ONE)),
}


def _gate_local_edges(circuit: Circuit, gate_name: str):
    """The input edges, output edge and rules of one collapsing gate.

    The line feeding the gate is the last segment of an input edge; the
    line it drives is the first segment of its output edge.  Returns None
    for XOR/XNOR and for a dangling gate: nothing collapses across them.
    """
    rules = _GATE_RULES.get(circuit.node(gate_name).gate_type)
    out_edges = circuit.out_edges(gate_name)
    if rules is None or not out_edges:
        return None
    return circuit.in_edges(gate_name), out_edges[0], rules


def _gate_local_pairs(circuit: Circuit, gate_name: str):
    """Yield (input fault, output fault) equivalent pairs across one gate."""
    local = _gate_local_edges(circuit, gate_name)
    if local is None:
        return
    in_edges, out_edge, rules = local
    out_line = LineRef(out_edge.index, 1)
    for in_edge in in_edges:
        in_line = LineRef(in_edge.index, in_edge.num_lines)
        for in_value, out_value in rules:
            yield StuckAtFault(in_line, in_value), StuckAtFault(out_line, out_value)


def collapse_faults(
    circuit: Circuit, faults: Optional[List[StuckAtFault]] = None
) -> CollapsedFaults:
    """Collapse a fault list (default: the full universe) into classes.

    Equivalence pairs are only merged when *both* faults are inside the
    considered fault list.  Each class is represented by its smallest
    fault in canonical order.

    Faults are numbered ``2 * line + value`` over ``circuit.lines()``
    (canonical order, so numbers sort like faults) and united on a list,
    so no fault object is hashed until the result is built.
    """
    first_line = []  # per edge, the number of its segment-1 line
    count = 0
    for edge in circuit.edges:
        first_line.append(count)
        count += edge.num_lines

    def number(fault: StuckAtFault) -> int:
        line = fault.line
        if not (
            0 <= line.edge_index < len(first_line)
            and 1 <= line.segment <= circuit.edges[line.edge_index].num_lines
        ):
            raise ValueError(f"fault {fault} is not on a line of {circuit.name}")
        return 2 * (first_line[line.edge_index] + line.segment - 1) + fault.value

    if faults is None:
        faults = full_fault_universe(circuit)
    numbers = [number(fault) for fault in faults]
    member = dict(zip(numbers, faults))
    listed = bytearray(2 * count)
    for k in numbers:
        listed[k] = 1

    parent = list(range(2 * count))

    def find(item: int) -> int:
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    for gate in circuit.gate_nodes():
        local = _gate_local_edges(circuit, gate.name)
        if local is None:
            continue
        in_edges, out_edge, rules = local
        base_out = 2 * first_line[out_edge.index]
        for in_edge in in_edges:
            base_in = 2 * (first_line[in_edge.index] + in_edge.num_lines - 1)
            for in_value, out_value in rules:
                a, b = base_in + in_value, base_out + out_value
                if not (listed[a] and listed[b]):
                    continue
                root_a, root_b = find(a), find(b)
                if root_a != root_b:
                    # The smaller number (canonical order) stays the root.
                    if root_b < root_a:
                        root_a, root_b = root_b, root_a
                    parent[root_b] = root_a
    roots = [find(k) for k in numbers]
    class_of = {fault: member[root] for fault, root in zip(faults, roots)}
    representatives = tuple(member[root] for root in sorted(set(roots)))
    return CollapsedFaults(representatives, class_of)


__all__ = ["collapse_faults", "CollapsedFaults"]
