"""Cone-of-influence reduction: drop logic outside every output's support.

Reachability-bounded STG extraction (``initial_states="reset"``) only
needs the machine *as observed at the primary outputs*: a register whose
value can never reach an output (and never feeds a kept register's
next-state function) contributes nothing to the transition/output tables
the paper's Section II machinery inspects, yet doubles the state space.
This pass computes the backward closure of the output vertices over all
interconnections -- registered edges included, so the full load cone of
every kept register is retained -- and rebuilds the circuit with only the
closure's edges.

Because the closure is transitively closed over in-edges, every kept
node keeps *all* of its in-edges: sink pins stay contiguous and the kept
sub-machine's dynamics are autonomous (stepping the reduced circuit equals
stepping the original and projecting onto the kept registers).  Primary
inputs are always kept so the reduced circuit accepts the original input
vectors unchanged.

The reduced circuit is an internal simulation artifact: it can violate the
strict structural invariants of :mod:`repro.circuit.validate` (a fanout
stem may be left with a single branch when its other branches fed dropped
logic), which the simulators tolerate.  Do not feed it back into ATPG or
retiming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.circuit.netlist import Circuit, Edge
from repro.circuit.types import NodeKind


@dataclass(frozen=True)
class ConeReduction:
    """Result of :func:`cone_of_influence`.

    ``circuit`` is the reduced circuit (the original object itself when
    nothing was droppable); ``edge_map`` maps original edge indices to
    reduced edge indices (dropped edges are absent);
    ``kept_register_positions`` gives, for each reduced register in the
    reduced circuit's canonical order, the index of the corresponding
    register in ``original.registers()`` -- the projection used to map
    full-width states onto cone states.
    """

    original: Circuit
    circuit: Circuit
    edge_map: Dict[int, int] = field(repr=False)
    kept_register_positions: Tuple[int, ...] = field(repr=False)
    dropped_registers: int = 0
    dropped_nodes: int = 0

    @property
    def is_identity(self) -> bool:
        return self.circuit is self.original

    def project_state(self, state) -> Tuple[int, ...]:
        """Project a full-width register state onto the kept registers."""
        return tuple(state[position] for position in self.kept_register_positions)


def cone_of_influence(circuit: Circuit) -> ConeReduction:
    """Reduce ``circuit`` to the union of its outputs' cones of influence.

    Keeps every node backward-reachable from a primary output (crossing
    registered edges), plus all primary inputs; keeps exactly the in-edges
    of kept nodes.  Edge indices are renumbered densely preserving the
    original relative order, so ``circuit.registers()`` of the reduction is
    the original register list filtered to kept edges.
    """
    closure = set()
    worklist = [
        node.name for node in circuit.nodes.values() if node.kind is NodeKind.OUTPUT
    ]
    closure.update(worklist)
    while worklist:
        name = worklist.pop()
        for edge in circuit.in_edges(name):
            if edge.source not in closure:
                closure.add(edge.source)
                worklist.append(edge.source)

    kept_edge_indices = [
        edge.index for edge in circuit.edges if edge.sink in closure
    ]
    if len(kept_edge_indices) == len(circuit.edges):
        identity_map = {edge.index: edge.index for edge in circuit.edges}
        return ConeReduction(
            original=circuit,
            circuit=circuit,
            edge_map=identity_map,
            kept_register_positions=tuple(range(circuit.num_registers())),
            dropped_registers=0,
            dropped_nodes=0,
        )

    kept_nodes = {
        name: node
        for name, node in circuit.nodes.items()
        if name in closure or node.kind is NodeKind.INPUT
    }
    edge_map: Dict[int, int] = {}
    new_edges = []
    for original_index in kept_edge_indices:
        edge = circuit.edges[original_index]
        new_index = len(new_edges)
        edge_map[original_index] = new_index
        new_edges.append(
            Edge(new_index, edge.source, edge.sink, edge.sink_pin, edge.weight)
        )

    kept_edge_set = set(kept_edge_indices)
    kept_positions = tuple(
        position
        for position, ref in enumerate(circuit.registers())
        if ref.edge_index in kept_edge_set
    )
    reduced = Circuit(f"{circuit.name}|cone", kept_nodes, new_edges)
    return ConeReduction(
        original=circuit,
        circuit=reduced,
        edge_map=edge_map,
        kept_register_positions=kept_positions,
        dropped_registers=circuit.num_registers() - reduced.num_registers(),
        dropped_nodes=len(circuit.nodes) - len(kept_nodes),
    )


__all__ = ["ConeReduction", "cone_of_influence"]
