"""Search guidance for ATPG: SCOAP testability measures.

The deterministic PODEM phase spends its effort in two kinds of choices:
*which fault to target next* (collateral detection drops every fault a
found sequence also covers, so ordering changes total work) and *which
objective/input to backtrace* (a bad choice burns backtracks).  The seed
engine makes both choices with fixed structural heuristics; the
``guidance="scoap"`` knob swaps in value-aware ones.

Classic SCOAP/COP testability measures (Goldstein's controllability
CC0/CC1 and observability CO) are computed once per circuit as a monotone
fixpoint over the cyclic graph.  Crossing a register costs
:data:`SCOAP_REGISTER_COST` -- the sequential engine must justify state a
frame earlier per register, so the measures are sequential-depth-aware,
exactly like the engine's frame escalation.  Faults are ordered
hardest-first (hard faults need deep windows; the long sequences they
produce sweep much of the cheap tail as collateral detections, and they
get the per-fault budget while it is fresh), PODEM excitation objectives
become value-aware (CC0 vs CC1 instead of one value-blind cost),
D-frontier gates are ranked by observability instead of raw depth, and
exact register-distance fixpoints frame-gate the search:
provably-infeasible escalation levels, excitation frames and frontier
entries are skipped outright.

Everything here is **deterministic**: fixpoints iterate in topological
order and every ranking sort carries an explicit ``(score, fault_key)``
tie-break.  Guided runs therefore reproduce bit-for-bit across processes,
hosts and Python versions, which the process-pool parity checks in
``benchmarks/perf_atpg.py`` assert.

The measures are cached in the artifact store under kind ``scoap``, keyed
by circuit digest and :data:`GUIDANCE_FORMAT_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import GateType, NodeKind
from repro.faults.model import StuckAtFault

#: Bump when the SCOAP rules change; folded into the store's composite
#: schema version.
GUIDANCE_FORMAT_VERSION = 1

#: Valid values of the ``guidance`` knob.
GUIDANCE_MODES = ("off", "scoap")

#: SCOAP cost of crossing one register: justifying a value behind a
#: flip-flop forces the objective one time frame earlier, which the
#: engine's iterative deepening pays for with a whole extra level.
SCOAP_REGISTER_COST = 20.0

#: Saturation bound for uncontrollable / unobservable lines.
UNREACHABLE = 1.0e9

def fault_sort_key(fault: StuckAtFault) -> Tuple[int, int, int]:
    """The explicit tie-break appended to every fault-ranking sort."""
    return (fault.line.edge_index, fault.line.segment, fault.value)


# -- SCOAP measures ----------------------------------------------------------


@dataclass(frozen=True)
class ScoapMeasures:
    """Per-node controllability/observability plus per-edge observability.

    ``cc0[n]`` / ``cc1[n]`` estimate the cost of driving node ``n``'s
    output to 0 / 1 from the primary inputs; ``co[n]`` the cost of
    propagating a difference on ``n``'s output to a primary output;
    ``edge_co[i]`` the observability *at edge i's sink pin* (after the
    edge's registers have been crossed).  ``depth[n]`` is the static
    distance-to-output estimate.  Register crossings cost
    :data:`SCOAP_REGISTER_COST` apiece, so all measures are sequential-
    depth-aware.  Line-level measures derive from these: segment ``s`` of
    edge ``e`` sits ``s - 1`` registers after the driver and
    ``num_lines - s`` registers before the sink.

    ``min_frames[i]`` is a **sound lower bound** on the time-frame window
    any fault on edge ``i`` needs: with an all-X initial state a node
    whose every source path crosses ``k`` registers cannot carry a known
    value before frame ``k`` (every 3-valued gate maps all-X inputs to
    X), and an effect must still cross the edge's own registers plus the
    cheapest register path to an output before it is observed.  Searching
    a shallower window is provably futile, which the guided engine
    exploits to skip escalation levels (and whole faults, proven
    undetectable within the cap) that the unguided ladder burns whole
    backtrack budgets on.
    """

    cc0: Dict[str, float]
    cc1: Dict[str, float]
    co: Dict[str, float]
    edge_co: Dict[int, float]
    depth: Dict[str, int]
    min_frames: Dict[int, int] = field(default_factory=dict)
    # The integer register-distance fixpoints behind ``min_frames``, kept
    # so the engine can frame-gate individual excitation objectives too:
    # ``known[n]`` = registers on the cheapest input->n path (n is
    # provably X before that frame); ``pin_regs[i]`` = registers on the
    # cheapest path from edge i's sink pin to an output.
    known: Dict[str, int] = field(default_factory=dict)
    pin_regs: Dict[int, int] = field(default_factory=dict)

    def line_measures(
        self, circuit: Circuit, line: LineRef
    ) -> Tuple[float, float, float]:
        """``(cc0, cc1, co)`` of one line of one edge."""
        edge = circuit.edge(line.edge_index)
        before = SCOAP_REGISTER_COST * (line.segment - 1)
        after = SCOAP_REGISTER_COST * (edge.num_lines - line.segment)
        cc0 = min(self.cc0.get(edge.source, UNREACHABLE) + before, UNREACHABLE)
        cc1 = min(self.cc1.get(edge.source, UNREACHABLE) + before, UNREACHABLE)
        co = min(self.edge_co.get(line.edge_index, UNREACHABLE) + after, UNREACHABLE)
        return cc0, cc1, co

    def detect_cost(self, circuit: Circuit, fault: StuckAtFault) -> float:
        """Estimated cost of exciting *and* observing one stuck-at fault."""
        cc0, cc1, co = self.line_measures(circuit, fault.line)
        excite = cc1 if fault.value == 0 else cc0
        return min(excite + co, UNREACHABLE)


def _gate_controllability(
    gate_type: GateType, in0: List[float], in1: List[float]
) -> Tuple[float, float]:
    """SCOAP controllability of one gate from its input-line measures."""
    if gate_type in (GateType.NOT, GateType.BUF):
        c0, c1 = in0[0] + 1.0, in1[0] + 1.0
        if gate_type is GateType.NOT:
            c0, c1 = in1[0] + 1.0, in0[0] + 1.0
        return min(c0, UNREACHABLE), min(c1, UNREACHABLE)
    if gate_type in (GateType.AND, GateType.NAND):
        c1 = min(sum(in1) + 1.0, UNREACHABLE)
        c0 = min(min(in0) + 1.0, UNREACHABLE)
    elif gate_type in (GateType.OR, GateType.NOR):
        c0 = min(sum(in0) + 1.0, UNREACHABLE)
        c1 = min(min(in1) + 1.0, UNREACHABLE)
    else:  # XOR / XNOR: pairwise fold of the two-input rule
        c0, c1 = in0[0], in1[0]
        for a0, a1 in zip(in0[1:], in1[1:]):
            c0, c1 = (
                min(c0 + a0, c1 + a1) + 1.0,
                min(c1 + a0, c0 + a1) + 1.0,
            )
        c0 = min(c0, UNREACHABLE)
        c1 = min(c1, UNREACHABLE)
    if gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR):
        c0, c1 = c1, c0
    return c0, c1


def compute_scoap(circuit: Circuit) -> ScoapMeasures:
    """SCOAP controllability/observability as a fixpoint over the cyclic
    graph (state feedback makes a single topological pass insufficient;
    the measures only ever decrease, so iteration converges)."""
    topo = circuit.topo_order()
    in_edges = {name: tuple(circuit.in_edges(name)) for name in circuit.nodes}
    out_edges = {name: tuple(circuit.out_edges(name)) for name in circuit.nodes}

    cc0: Dict[str, float] = {}
    cc1: Dict[str, float] = {}
    for name, node in circuit.nodes.items():
        if node.kind is NodeKind.INPUT:
            cc0[name], cc1[name] = 1.0, 1.0
        elif node.kind is NodeKind.CONST0:
            cc0[name], cc1[name] = 0.0, UNREACHABLE
        elif node.kind is NodeKind.CONST1:
            cc0[name], cc1[name] = UNREACHABLE, 0.0
        else:
            cc0[name], cc1[name] = UNREACHABLE, UNREACHABLE

    def line_in(edge) -> Tuple[float, float]:
        crossing = SCOAP_REGISTER_COST * edge.weight
        return (
            min(cc0[edge.source] + crossing, UNREACHABLE),
            min(cc1[edge.source] + crossing, UNREACHABLE),
        )

    for _ in range(len(circuit.nodes)):
        changed = False
        for name in topo:
            node = circuit.node(name)
            edges = in_edges[name]
            if not edges or node.kind in (
                NodeKind.INPUT, NodeKind.CONST0, NodeKind.CONST1
            ):
                continue
            if node.kind is NodeKind.GATE:
                pairs = [line_in(edge) for edge in edges]
                c0, c1 = _gate_controllability(
                    node.gate_type, [p[0] for p in pairs], [p[1] for p in pairs]
                )
            else:  # FANOUT / OUTPUT pass the driving line through
                c0, c1 = line_in(edges[0])
            if c0 < cc0[name]:
                cc0[name] = c0
                changed = True
            if c1 < cc1[name]:
                cc1[name] = c1
                changed = True
        if not changed:
            break

    # Observability: backward fixpoint.  edge_co is the cost of observing
    # a difference presented at the edge's *sink pin*; crossing the edge's
    # registers is charged when the measure is pulled back to the driver.
    co: Dict[str, float] = {name: UNREACHABLE for name in circuit.nodes}
    edge_co: Dict[int, float] = {edge.index: UNREACHABLE for edge in circuit.edges}
    side_cost = {
        GateType.AND: cc1, GateType.NAND: cc1,
        GateType.OR: cc0, GateType.NOR: cc0,
    }
    for _ in range(len(circuit.nodes)):
        changed = False
        for name in reversed(topo):
            node = circuit.node(name)
            for edge in out_edges[name]:
                sink = circuit.node(edge.sink)
                if sink.kind is NodeKind.OUTPUT:
                    pin_co = 0.0
                elif sink.kind is NodeKind.FANOUT:
                    pin_co = co[edge.sink]
                elif sink.kind is NodeKind.GATE:
                    pin_co = co[edge.sink] + 1.0
                    sides = side_cost.get(sink.gate_type)
                    for other in in_edges[edge.sink]:
                        if other.index == edge.index:
                            continue
                        crossing = SCOAP_REGISTER_COST * other.weight
                        if sides is not None:
                            pin_co += sides[other.source] + crossing
                        elif sink.gate_type in (GateType.XOR, GateType.XNOR):
                            pin_co += (
                                min(cc0[other.source], cc1[other.source])
                                + crossing
                            )
                else:
                    continue
                pin_co = min(pin_co, UNREACHABLE)
                if pin_co < edge_co[edge.index]:
                    edge_co[edge.index] = pin_co
                    changed = True
                pulled = min(
                    pin_co + SCOAP_REGISTER_COST * edge.weight, UNREACHABLE
                )
                if pulled < co[name]:
                    co[name] = pulled
                    changed = True
        if not changed:
            break

    depth: Dict[str, int] = {}
    for name in reversed(topo):
        edges = out_edges[name]
        if not edges:
            depth[name] = (
                0 if circuit.node(name).kind is NodeKind.OUTPUT else 999
            )
            continue
        depth[name] = min(depth.get(edge.sink, 999) + 1 for edge in edges)

    # Sound per-edge detection-depth bound from exact register distances.
    # ``known[n]``: registers on the cheapest source->n path (a node cannot
    # be non-X earlier); ``pin_regs[i]``: registers on the cheapest path
    # from edge i's sink pin to an output.  An effect excited on the edge
    # must additionally cross the edge's own registers, and observing at
    # frame f needs a window of f + 1 frames.
    BIG_I = 10 ** 6
    known: Dict[str, int] = {}
    for name, node in circuit.nodes.items():
        known[name] = (
            0
            if node.kind in (NodeKind.INPUT, NodeKind.CONST0, NodeKind.CONST1)
            else BIG_I
        )
    for _ in range(len(circuit.nodes)):
        changed = False
        for name in topo:
            if known[name] == 0:
                continue
            edges = in_edges[name]
            if not edges:
                continue
            best = min(edge.weight + known[edge.source] for edge in edges)
            if best < known[name]:
                known[name] = best
                changed = True
        if not changed:
            break
    obs_regs: Dict[str, int] = {name: BIG_I for name in circuit.nodes}
    pin_regs: Dict[int, int] = {}
    for _ in range(len(circuit.nodes)):
        changed = False
        for name in reversed(topo):
            for edge in out_edges[name]:
                sink = circuit.node(edge.sink)
                pin = 0 if sink.kind is NodeKind.OUTPUT else obs_regs[edge.sink]
                if pin < pin_regs.get(edge.index, BIG_I):
                    pin_regs[edge.index] = pin
                    changed = True
                pulled = edge.weight + pin
                if pulled < obs_regs[name]:
                    obs_regs[name] = pulled
                    changed = True
        if not changed:
            break
    min_frames = {
        edge.index: min(
            known[edge.source] + edge.weight + pin_regs.get(edge.index, BIG_I) + 1,
            BIG_I,
        )
        for edge in circuit.edges
    }
    return ScoapMeasures(
        cc0=cc0,
        cc1=cc1,
        co=co,
        edge_co=edge_co,
        depth=depth,
        min_frames=min_frames,
        known=known,
        pin_regs=pin_regs,
    )


def scoap_measures(circuit: Circuit, store=None, pin=None) -> ScoapMeasures:
    """Compute (or fetch from the store) the circuit's SCOAP measures.

    Cached under kind ``scoap``, keyed by circuit digest + structural
    identity + :data:`GUIDANCE_FORMAT_VERSION`; the payload echoes the
    structural identity so a colliding record is a plain miss.
    """
    if store is None:
        return compute_scoap(circuit)
    from repro.circuit.digest import circuit_digest, structural_identity
    from repro.store.artifacts import scoap_from_payload, scoap_payload

    key = store.key(
        "scoap",
        circuit_digest(circuit),
        structural_identity(circuit),
        GUIDANCE_FORMAT_VERSION,
    )
    payload = store.get("scoap", key, pin=pin)
    if payload is not None:
        measures = scoap_from_payload(payload, circuit)
        if measures is not None:
            return measures
    measures = compute_scoap(circuit)
    try:
        store.put("scoap", key, scoap_payload(circuit, measures), pin=pin)
    except OSError:
        pass  # an unwritable store only loses memoization
    return measures


# -- the policy object the engine consumes -----------------------------------


@dataclass(frozen=True)
class GuidancePolicy:
    """The per-node guidance tables PODEM consults for one circuit.

    ``cost0[n]`` / ``cost1[n]`` score the difficulty of justifying node
    ``n`` to 0 / 1 (SCOAP controllability); ``observe[n]`` ranks
    D-frontier gates (lower = easier to propagate through, SCOAP
    observability).  Plain data: cheap to pickle to pool workers, and
    every consumer adds an explicit tie-break, so guided runs are
    reproducible.
    """

    scoap: ScoapMeasures

    @property
    def cost0(self) -> Dict[str, float]:
        return self.scoap.cc0

    @property
    def cost1(self) -> Dict[str, float]:
        return self.scoap.cc1

    @property
    def observe(self) -> Dict[str, float]:
        return self.scoap.co

    def score_faults(
        self, circuit: Circuit, faults: Sequence[StuckAtFault]
    ) -> Dict[StuckAtFault, float]:
        """Each fault's SCOAP detection cost, for ordering and the pool's
        cost-balanced partition."""
        return {fault: self.scoap.detect_cost(circuit, fault) for fault in faults}


def make_policy(
    circuit: Circuit, mode: str, *, store=None, pin=None
) -> Optional[GuidancePolicy]:
    """Resolve a ``guidance`` mode into a policy (``None`` for ``off``)."""
    if mode in (None, "off"):
        return None
    if mode not in GUIDANCE_MODES:
        raise ValueError(
            f"unknown guidance {mode!r} (expected one of {GUIDANCE_MODES})"
        )
    return GuidancePolicy(scoap_measures(circuit, store=store, pin=pin))


__all__ = [
    "GUIDANCE_FORMAT_VERSION",
    "GUIDANCE_MODES",
    "GuidancePolicy",
    "SCOAP_REGISTER_COST",
    "ScoapMeasures",
    "compute_scoap",
    "fault_sort_key",
    "make_policy",
    "scoap_measures",
]
