"""Search guidance for ATPG: SCOAP testability + a trained meta-predictor.

The deterministic PODEM phase spends its effort in two kinds of choices:
*which fault to target next* (collateral detection drops every fault a
found sequence also covers, so ordering changes total work) and *which
objective/input to backtrace* (a bad choice burns backtracks).  The seed
engine makes both choices with fixed structural heuristics; this module
supplies value-aware ones, in two tiers behind one knob:

``guidance="scoap"``
    Classic SCOAP/COP testability measures (Goldstein's controllability
    CC0/CC1 and observability CO), computed once per circuit as a monotone
    fixpoint over the cyclic graph.  Crossing a register costs
    :data:`SCOAP_REGISTER_COST` -- the sequential engine must justify
    state a frame earlier per register, so the measures are sequential-
    depth-aware, exactly like the engine's frame escalation.  Faults are
    ordered hardest-first (hard faults need deep windows; the long
    sequences they produce sweep much of the cheap tail as collateral
    detections, and they get the per-fault budget while it is fresh),
    PODEM excitation objectives become value-aware (CC0 vs CC1 instead
    of one value-blind cost), D-frontier gates are ranked by
    observability instead of raw depth, and exact register-distance
    fixpoints frame-gate the search: provably-infeasible escalation
    levels, excitation frames and frontier entries are skipped outright.

``guidance="learned"``
    A pure-python trained meta-predictor (a small deterministic ensemble
    of CART regression trees, no dependencies) on top of the SCOAP
    features plus the per-fault :class:`~repro.atpg.budget.EffortMeter`
    counters logged by earlier runs.  The predictor scores faults (for
    ordering and for predicted-cost pool partitioning) and candidate
    objectives (per-node value costs, precomputed once at engine setup
    so PODEM's decision loops stay table-driven).  Without a trained
    predictor the tier falls back to the SCOAP policy.

``guidance="auto"``
    ``learned`` when a persisted predictor is available in the artifact
    store, ``scoap`` otherwise.

Everything here is **deterministic**: fixpoints iterate in topological
order, every ranking sort carries an explicit ``(score, fault_key)``
tie-break, and tree training breaks split ties on (SSE, feature index,
threshold).  Guided runs therefore reproduce bit-for-bit across
processes, hosts and Python versions, which the process-pool parity
checks in ``benchmarks/perf_atpg.py`` assert.

Store integration (all keyed under :data:`GUIDANCE_FORMAT_VERSION`):

``scoap``          cached :class:`ScoapMeasures` per circuit digest;
``guidance-data``  training datasets (feature rows + effort labels)
                   logged by :class:`~repro.pipeline.flow.FlowPipeline`
                   after any fresh ATPG stage;
``predictor``      a persisted :class:`MetaPredictor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import GateType, NodeKind
from repro.faults.model import StuckAtFault

#: Bump when the SCOAP rules, the feature schema or the predictor format
#: change; folded into the store's composite schema version.
GUIDANCE_FORMAT_VERSION = 1

#: Persisted-predictor payload format.
PREDICTOR_FORMAT_VERSION = 1

#: Valid values of the ``guidance`` knob.
GUIDANCE_MODES = ("off", "scoap", "learned", "auto")

#: SCOAP cost of crossing one register: justifying a value behind a
#: flip-flop forces the objective one time frame earlier, which the
#: engine's iterative deepening pays for with a whole extra level.
SCOAP_REGISTER_COST = 20.0

#: Saturation bound for uncontrollable / unobservable lines.
UNREACHABLE = 1.0e9

#: Feature vector layout for the meta-predictor (one row per fault).
FEATURE_NAMES = (
    "cc0_line",          # SCOAP 0-controllability of the faulted line
    "cc1_line",          # SCOAP 1-controllability of the faulted line
    "co_line",           # SCOAP observability of the faulted line
    "excite_cost",       # controllability of the *detecting* value
    "detect_cost",       # excite_cost + co_line (the ranking score)
    "regs_before",       # registers between the driving node and the line
    "regs_after",        # registers between the line and the edge's sink
    "depth",             # static distance from the driver to an output
    "fanout",            # out-degree of the driving node
    "stuck_value",       # 0 or 1
    "circuit_gates",     # workload-scale context features
    "circuit_registers",
)


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


# -- feature extraction ------------------------------------------------------


def fault_features(
    circuit: Circuit, scoap: ScoapMeasures, fault: StuckAtFault
) -> List[float]:
    """One predictor feature row (layout :data:`FEATURE_NAMES`)."""
    edge = circuit.edge(fault.line.edge_index)
    cc0, cc1, co = scoap.line_measures(circuit, fault.line)
    excite = cc1 if fault.value == 0 else cc0
    return [
        cc0,
        cc1,
        co,
        excite,
        min(excite + co, UNREACHABLE),
        float(fault.line.segment - 1),
        float(edge.num_lines - fault.line.segment),
        float(scoap.depth.get(edge.source, 999)),
        float(len(circuit.out_edges(edge.source))),
        float(fault.value),
        float(circuit.num_gates()),
        float(circuit.num_registers()),
    ]


def effort_label(backtracks: int, frames_simulated: int) -> float:
    """The training target: log-compressed deterministic-phase effort."""
    return math.log2(1.0 + backtracks + frames_simulated)


def _trainable(record) -> bool:
    """Whether one :class:`~repro.atpg.budget.FaultEffort` record is a
    training example (see :func:`training_rows`)."""
    return not record.lane_steps and not (
        record.status == "budget" and record.backtracks == 0
    )


def training_rows(
    circuit: Circuit, scoap: ScoapMeasures, fault_rows: Sequence
) -> List[List[float]]:
    """Feature rows + effort label from per-fault
    :class:`~repro.atpg.budget.FaultEffort` records (one list per fault,
    label last).  Faults never attempted (``status == "budget"`` with zero
    counters) carry no effort signal, and faults the exact search decided
    (effort in ``lane_steps``, not PODEM search) would skew the label, so
    both are skipped."""
    rows: List[List[float]] = []
    for record in fault_rows:
        if not _trainable(record):
            continue
        fault = StuckAtFault(
            LineRef(record.fault_key[0], record.fault_key[1]), record.fault_key[2]
        )
        features = fault_features(circuit, scoap, fault)
        features.append(effort_label(record.backtracks, record.frames_simulated))
        rows.append(features)
    return rows


# -- the meta-predictor: a deterministic CART regression ensemble ------------


def _best_split(
    rows: Sequence[Sequence[float]],
    labels: Sequence[float],
    indices: List[int],
    min_leaf: int,
) -> Optional[Tuple[float, int, float]]:
    """``(sse, feature, threshold)`` of the best binary split, or None.

    Scanned with prefix sums over each feature's sorted order; ties break
    on (SSE, feature index, threshold) so training is deterministic.
    """
    count = len(indices)
    total = sum(labels[i] for i in indices)
    total_sq = sum(labels[i] * labels[i] for i in indices)
    base_sse = total_sq - total * total / count
    best: Optional[Tuple[float, int, float]] = None
    num_features = len(rows[indices[0]])
    for feature in range(num_features):
        order = sorted(indices, key=lambda i: (rows[i][feature], i))
        prefix = 0.0
        prefix_sq = 0.0
        for position in range(count - 1):
            index = order[position]
            value = labels[index]
            prefix += value
            prefix_sq += value * value
            left = position + 1
            right = count - left
            here = rows[index][feature]
            after = rows[order[position + 1]][feature]
            if here == after or left < min_leaf or right < min_leaf:
                continue
            sse = (prefix_sq - prefix * prefix / left) + (
                (total_sq - prefix_sq) - (total - prefix) * (total - prefix) / right
            )
            candidate = (sse, feature, (here + after) / 2.0)
            if best is None or candidate < best:
                best = candidate
    if best is None or best[0] >= base_sse - 1e-12:
        return None
    return best


def _build_tree(
    rows: Sequence[Sequence[float]],
    labels: Sequence[float],
    indices: List[int],
    depth: int,
    max_depth: int,
    min_leaf: int,
) -> List:
    """A CART regression tree as nested JSON-able lists.

    Leaf: ``[mean]``; internal: ``[feature, threshold, left, right]``
    (``row[feature] <= threshold`` goes left).
    """
    mean = sum(labels[i] for i in indices) / len(indices)
    if depth >= max_depth or len(indices) < 2 * min_leaf:
        return [mean]
    split = _best_split(rows, labels, indices, min_leaf)
    if split is None:
        return [mean]
    _, feature, threshold = split
    left = [i for i in indices if rows[i][feature] <= threshold]
    right = [i for i in indices if rows[i][feature] > threshold]
    if not left or not right:
        return [mean]
    return [
        feature,
        threshold,
        _build_tree(rows, labels, left, depth + 1, max_depth, min_leaf),
        _build_tree(rows, labels, right, depth + 1, max_depth, min_leaf),
    ]


def _tree_predict(tree: Sequence, features: Sequence[float]) -> float:
    while len(tree) == 4:
        tree = tree[2] if features[tree[0]] <= tree[1] else tree[3]
    return tree[0]


@dataclass(frozen=True)
class MetaPredictor:
    """A trained fault-effort predictor: a small CART ensemble.

    Pure data (nested lists of floats), so it pickles to pool workers,
    serializes to a store artifact, and predicts identically everywhere.
    Predictions are in :func:`effort_label` space (log2 effort); ranking
    is monotone in it, and :meth:`predicted_cost` maps back to linear
    effort for load balancing.
    """

    feature_names: Tuple[str, ...]
    trees: Tuple
    training_rows: int = 0

    def predict(self, features: Sequence[float]) -> float:
        total = 0.0
        for tree in self.trees:
            total += _tree_predict(tree, features)
        return total / len(self.trees)

    def predicted_cost(self, features: Sequence[float]) -> float:
        """Predicted linear effort (backtracks + frames) for one fault."""
        return max(0.0, 2.0 ** self.predict(features) - 1.0)

    def to_payload(self) -> Dict[str, object]:
        return {
            "version": PREDICTOR_FORMAT_VERSION,
            "feature_names": list(self.feature_names),
            "trees": [list(_copy_tree(tree)) for tree in self.trees],
            "training_rows": self.training_rows,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> Optional["MetaPredictor"]:
        try:
            if payload.get("version") != PREDICTOR_FORMAT_VERSION:
                return None
            names = tuple(str(n) for n in payload["feature_names"])
            if names != FEATURE_NAMES:
                return None
            trees = tuple(_copy_tree(tree) for tree in payload["trees"])
            if not trees:
                return None
            return cls(
                feature_names=names,
                trees=trees,
                training_rows=int(payload.get("training_rows", 0)),
            )
        except (KeyError, TypeError, ValueError, IndexError):
            return None


def _copy_tree(tree: Sequence):
    if len(tree) == 4:
        return [int(tree[0]), float(tree[1]), _copy_tree(tree[2]), _copy_tree(tree[3])]
    return [float(tree[0])]


def train_predictor(
    rows: Sequence[Sequence[float]],
    *,
    num_trees: int = 3,
    max_depth: int = 6,
    min_leaf: int = 3,
) -> Optional[MetaPredictor]:
    """Train the ensemble on labelled rows (features + label last).

    Each tree trains on a deterministic fold (row ``i`` left out of tree
    ``i % num_trees`` when there are enough rows), a stride-bagging that
    de-correlates the trees without randomness.  Returns ``None`` when the
    dataset is too small to split at all.
    """
    rows = [list(map(float, row)) for row in rows]
    if len(rows) < 2 * min_leaf:
        return None
    features = [row[:-1] for row in rows]
    labels = [row[-1] for row in rows]
    trees = []
    for tree_index in range(num_trees):
        fold = [
            i for i in range(len(rows)) if i % num_trees != tree_index
        ]
        if len(fold) < 2 * min_leaf:
            fold = list(range(len(rows)))
        trees.append(
            _build_tree(features, labels, fold, 0, max_depth, min_leaf)
        )
    return MetaPredictor(
        feature_names=FEATURE_NAMES,
        trees=tuple(trees),
        training_rows=len(rows),
    )


# -- the policy object the engine consumes -----------------------------------


@dataclass(frozen=True)
class GuidancePolicy:
    """Precomputed per-node guidance tables for one circuit.

    ``cost0[n]`` / ``cost1[n]`` score the difficulty of justifying node
    ``n`` to 0 / 1 (SCOAP controllability, or predictor-adjusted in
    learned mode); ``observe[n]`` ranks D-frontier gates (lower = easier
    to propagate through).  ``fault_cost`` maps each fault's
    :func:`fault_sort_key` to its predicted detection cost, filled in by
    :meth:`score_faults` and reused by the pool partitioner.  Plain
    dictionaries of floats: cheap to pickle to pool workers, and every
    consumer adds an explicit tie-break, so guided runs are reproducible.
    """

    mode: str  # "scoap" | "learned"
    scoap: ScoapMeasures
    predictor: Optional[MetaPredictor] = None
    cost0: Dict[str, float] = field(default_factory=dict)
    cost1: Dict[str, float] = field(default_factory=dict)
    observe: Dict[str, float] = field(default_factory=dict)

    def fault_score(self, circuit: Circuit, fault: StuckAtFault) -> float:
        if self.predictor is not None:
            return self.predictor.predicted_cost(
                fault_features(circuit, self.scoap, fault)
            )
        return self.scoap.detect_cost(circuit, fault)

    def score_faults(
        self, circuit: Circuit, faults: Sequence[StuckAtFault]
    ) -> Dict[StuckAtFault, float]:
        return {fault: self.fault_score(circuit, fault) for fault in faults}


def _learned_node_costs(
    circuit: Circuit, scoap: ScoapMeasures, predictor: MetaPredictor
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Predictor-scored objective tables, one prediction per (node, value).

    The cost of the objective "justify node ``n`` to ``v``" is scored as
    the predicted detection cost of the *virtual fault* ``n``
    stuck-at-``not v`` on its output line -- exciting that fault is
    exactly driving ``n`` to ``v``.  Precomputing here keeps PODEM's
    objective-selection loop free of predictor calls.
    """
    cost0: Dict[str, float] = {}
    cost1: Dict[str, float] = {}
    observe: Dict[str, float] = {}
    for name in circuit.topo_order():
        edges = circuit.out_edges(name)
        if not edges:
            continue
        line = LineRef(edges[0].index, 1)
        p1 = predictor.predicted_cost(
            fault_features(circuit, scoap, StuckAtFault(line, 0))
        )
        p0 = predictor.predicted_cost(
            fault_features(circuit, scoap, StuckAtFault(line, 1))
        )
        cost0[name] = p0
        cost1[name] = p1
        observe[name] = (p0 + p1) / 2.0
    return cost0, cost1, observe


def make_policy(
    circuit: Circuit,
    mode: str,
    *,
    predictor: Optional[MetaPredictor] = None,
    scoap: Optional[ScoapMeasures] = None,
    store=None,
    pin=None,
) -> Optional[GuidancePolicy]:
    """Resolve a ``guidance`` mode into a policy (``None`` for ``off``).

    ``auto`` resolves to ``learned`` when a predictor is at hand (passed
    in, or persisted in the store under kind ``predictor``), ``scoap``
    otherwise; ``learned`` without any predictor falls back to the SCOAP
    policy rather than failing -- the knob is a speed request, not a
    correctness contract.
    """
    if mode in (None, "off"):
        return None
    if mode not in GUIDANCE_MODES:
        raise ValueError(
            f"unknown guidance {mode!r} (expected one of {GUIDANCE_MODES})"
        )
    if scoap is None:
        scoap = scoap_measures(circuit, store=store, pin=pin)
    if predictor is None and mode in ("learned", "auto") and store is not None:
        predictor = load_predictor(store, pin=pin)
    if mode in ("learned", "auto") and predictor is not None:
        cost0, cost1, observe = _learned_node_costs(circuit, scoap, predictor)
        return GuidancePolicy(
            mode="learned",
            scoap=scoap,
            predictor=predictor,
            cost0=cost0,
            cost1=cost1,
            observe=observe,
        )
    return GuidancePolicy(
        mode="scoap",
        scoap=scoap,
        cost0=dict(scoap.cc0),
        cost1=dict(scoap.cc1),
        observe=dict(scoap.co),
    )


def policy_from_effort_rows(
    circuit: Circuit,
    fault_rows: Sequence,
    *,
    scoap: Optional[ScoapMeasures] = None,
) -> GuidancePolicy:
    """Train a learned policy directly from one run's effort rows.

    The self-training loop of the benchmarks: run unguided, learn the
    circuit's own cost surface, run guided.  Falls back to the SCOAP
    policy when the rows cannot support a predictor.
    """
    if scoap is None:
        scoap = compute_scoap(circuit)
    predictor = train_predictor(training_rows(circuit, scoap, fault_rows))
    if predictor is None:
        return make_policy(circuit, "scoap", scoap=scoap)
    return make_policy(circuit, "learned", predictor=predictor, scoap=scoap)


# -- store round-trips -------------------------------------------------------

#: Store key under which the (single, shared) trained predictor lives.
PREDICTOR_KEY_NAME = "default"


def predictor_store_key(store) -> str:
    return store.key(
        "predictor", PREDICTOR_KEY_NAME, PREDICTOR_FORMAT_VERSION
    )


def save_predictor(store, predictor: MetaPredictor, pin=None) -> str:
    key = predictor_store_key(store)
    store.put("predictor", key, predictor.to_payload(), pin=pin)
    return key


def load_predictor(store, pin=None) -> Optional[MetaPredictor]:
    payload = store.get("predictor", predictor_store_key(store), pin=pin)
    if payload is None:
        return None
    return MetaPredictor.from_payload(payload)


#: Store key under which the shared training dataset accumulates.
DATASET_KEY_NAME = "dataset"

#: Rows kept in the shared dataset; oldest rows age out first, so the
#: predictor tracks the circuits the store actually serves.
MAX_DATASET_ROWS = 20000


def dataset_store_key(store) -> str:
    return store.key(
        "guidance-data", DATASET_KEY_NAME, GUIDANCE_FORMAT_VERSION
    )


def load_training_rows(store, pin=None) -> List[List[float]]:
    from repro.store.artifacts import guidance_rows_from_payload

    payload = store.get("guidance-data", dataset_store_key(store), pin=pin)
    if payload is None:
        return []
    rows = guidance_rows_from_payload(payload, FEATURE_NAMES)
    return rows if rows is not None else []


def log_training_rows(
    store, circuit: Circuit, fault_rows: Sequence, *, scoap=None, pin=None
) -> int:
    """Fold one run's per-fault effort rows into the shared dataset.

    Called after *every* store-backed ATPG stage regardless of guidance
    mode -- unguided runs are the least biased training signal.  Returns
    the dataset size after the merge.  The read-merge-write is not atomic
    across concurrent writers; a lost merge only loses training rows,
    which is memoization-grade data, so no lock is taken.
    """
    from repro.store.artifacts import guidance_rows_payload

    existing = load_training_rows(store, pin=pin)
    if not any(_trainable(record) for record in fault_rows):
        return len(existing)  # e.g. a run the exact search decided alone
    if scoap is None:
        scoap = scoap_measures(circuit, store=store, pin=pin)
    fresh = training_rows(circuit, scoap, fault_rows)
    merged = (existing + fresh)[-MAX_DATASET_ROWS:]
    try:
        store.put(
            "guidance-data",
            dataset_store_key(store),
            guidance_rows_payload(FEATURE_NAMES, merged),
            pin=pin,
        )
    except OSError:
        pass  # an unwritable store only loses training data
    return len(merged)


def train_predictor_from_store(store, pin=None) -> Optional[MetaPredictor]:
    """Train on the store's accumulated dataset and persist the result.

    The offline half of ``guidance="auto"``: runs log rows as they go,
    this retrains the shared predictor from everything logged so far.
    Returns ``None`` (and persists nothing) when the dataset is still too
    small to split.
    """
    predictor = train_predictor(load_training_rows(store, pin=pin))
    if predictor is not None:
        try:
            save_predictor(store, predictor, pin=pin)
        except OSError:
            pass
    return predictor


__all__ = [
    "FEATURE_NAMES",
    "GUIDANCE_FORMAT_VERSION",
    "GUIDANCE_MODES",
    "GuidancePolicy",
    "MetaPredictor",
    "PREDICTOR_FORMAT_VERSION",
    "SCOAP_REGISTER_COST",
    "ScoapMeasures",
    "compute_scoap",
    "effort_label",
    "fault_features",
    "fault_sort_key",
    "load_predictor",
    "load_training_rows",
    "log_training_rows",
    "make_policy",
    "policy_from_effort_rows",
    "save_predictor",
    "scoap_measures",
    "train_predictor",
    "train_predictor_from_store",
    "training_rows",
]
