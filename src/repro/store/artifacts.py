"""Typed artifact records: encode/decode between flow objects and store JSON.

Every helper pair here round-trips one artifact kind:

==============  =========================================================
kind            contents
==============  =========================================================
``netlist``     a full circuit: exact graph (for faithful reconstruction)
                plus its BENCH text (the interoperable, human-readable view)
``retiming``    a retiming labelling for a circuit
``faults``      a collapsed fault list (edge/segment/value coordinates)
``stepper``     the generated scalar and bit-parallel stepper source
``testset``     a :class:`~repro.testset.model.TestSet` in its text format
``atpg``        a complete :class:`~repro.atpg.engine.AtpgResult`
``faultsim``    a :class:`~repro.faultsim.result.FaultSimResult` summary
``stg``         explicit state-transition-graph tables (flat
                ``next_index``/``output_index`` arrays of one possibly
                faulty machine, see :mod:`repro.equivalence.explicit`)
``reach-stg``   reachability-bounded STG tables (visited state codes in
                discovery order plus their flat tables, the initial-state
                spec and the traversal statistics, see
                :mod:`repro.equivalence.reach`)
``scoap``       SCOAP testability measures of one circuit (per-node
                CC0/CC1/CO, per-edge observability and detection-depth
                bounds, see :mod:`repro.atpg.guidance`)
``guidance-data``  the shared predictor training dataset (feature vector
                + effort label per fault, layout ``FEATURE_NAMES``),
                appended to by every store-backed ATPG stage
``predictor``   the trained fault-effort meta-predictor (handled by
                :func:`repro.atpg.guidance.save_predictor` /
                ``load_predictor`` via ``MetaPredictor.to_payload``)
==============  =========================================================

Artifacts that carry edge-indexed coordinates (``faults``, ``atpg``,
``faultsim``, ``stepper``, ``stg``, ``reach-stg``, ``scoap``)
additionally record
:func:`~repro.circuit.digest.structural_identity`; their loaders refuse --
returning ``None``, a plain miss -- when the raw structure of the circuit
at hand differs from the one the artifact was computed on.  The content
digest addresses the artifact; the structural identity guards it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atpg.budget import AtpgBudget
from repro.circuit.digest import structural_identity
from repro.circuit.bench_io import write_bench
from repro.circuit.netlist import Circuit, Edge, LineRef, Node
from repro.circuit.types import GateType, NodeKind
from repro.faults.model import StuckAtFault
from repro.faultsim.result import Detection, FaultSimResult
from repro.retiming.core import Retiming
from repro.store.core import ArtifactStore
from repro.testset.model import TestSet


# -- primitives -------------------------------------------------------------


def encode_fault(fault: StuckAtFault) -> List[int]:
    return [fault.line.edge_index, fault.line.segment, fault.value]


def decode_fault(item: Sequence[int]) -> StuckAtFault:
    return StuckAtFault(LineRef(int(item[0]), int(item[1])), int(item[2]))


def encode_faults(faults: Sequence[StuckAtFault]) -> List[List[int]]:
    return [encode_fault(fault) for fault in faults]


def decode_faults(items: Sequence[Sequence[int]]) -> List[StuckAtFault]:
    return [decode_fault(item) for item in items]


def encode_sequences(sequences) -> List[List[List[int]]]:
    return [[list(map(int, vector)) for vector in seq] for seq in sequences]


def decode_sequences(items) -> List[List[Tuple[int, ...]]]:
    return [[tuple(int(v) for v in vector) for vector in seq] for seq in items]


def faults_fingerprint(faults: Sequence[StuckAtFault]) -> str:
    """A stable key component for one ordered fault list."""
    return ArtifactStore.key("faults", encode_faults(faults))


def budget_fingerprint(budget: AtpgBudget) -> Dict[str, object]:
    """The budget's identity-relevant knobs, as a JSON-able mapping.

    Wall-clock caps are deliberately *included*: a result computed under a
    tighter clock may have budget-aborted faults a looser run would have
    targeted, so runs under different budgets must not share artifacts.
    """
    return asdict(budget)


# -- netlist ---------------------------------------------------------------


def circuit_payload(circuit: Circuit) -> Dict[str, object]:
    """Exact graph plus BENCH text.  The graph part reconstructs node names
    and edge numbering bit-for-bit, which downstream edge-indexed artifacts
    depend on; the BENCH text is the portable rendering."""
    return {
        "name": circuit.name,
        "nodes": [
            [
                node.name,
                node.kind.value,
                node.gate_type.value if node.gate_type is not None else None,
            ]
            for node in circuit.nodes.values()
        ],
        "edges": [
            [edge.source, edge.sink, edge.sink_pin, edge.weight]
            for edge in circuit.edges
        ],
        "structure": structural_identity(circuit),
        "bench": write_bench(circuit),
    }


def circuit_from_payload(payload: Dict[str, object]) -> Optional[Circuit]:
    try:
        nodes = {
            name: Node(
                name,
                NodeKind(kind),
                GateType(gate_type) if gate_type is not None else None,
            )
            for name, kind, gate_type in payload["nodes"]
        }
        edges = [
            Edge(index, source, sink, int(pin), int(weight))
            for index, (source, sink, pin, weight) in enumerate(payload["edges"])
        ]
        circuit = Circuit(str(payload["name"]), nodes, edges)
    except (KeyError, TypeError, ValueError):
        return None
    if structural_identity(circuit) != payload.get("structure"):
        return None
    return circuit


# -- retiming --------------------------------------------------------------


def retiming_payload(retiming: Retiming) -> Dict[str, object]:
    return {
        "structure": structural_identity(retiming.circuit),
        "labels": {name: int(label) for name, label in retiming.labels.items()},
    }


def retiming_from_payload(
    payload: Dict[str, object], circuit: Circuit
) -> Optional[Retiming]:
    if payload.get("structure") != structural_identity(circuit):
        return None
    try:
        labels = {str(name): int(label) for name, label in payload["labels"].items()}
        return Retiming(circuit, labels)
    except (KeyError, TypeError, ValueError):
        return None


# -- fault lists -----------------------------------------------------------


def faults_payload(circuit: Circuit, faults: Sequence[StuckAtFault]) -> Dict[str, object]:
    return {
        "structure": structural_identity(circuit),
        "faults": encode_faults(faults),
    }


def faults_from_payload(
    payload: Dict[str, object], circuit: Circuit
) -> Optional[List[StuckAtFault]]:
    if payload.get("structure") != structural_identity(circuit):
        return None
    try:
        return decode_faults(payload["faults"])
    except (KeyError, TypeError, ValueError, IndexError):
        return None


# -- test sets -------------------------------------------------------------


def testset_payload(test_set: TestSet) -> Dict[str, object]:
    return {
        "circuit_name": test_set.circuit_name,
        "num_inputs": test_set.num_inputs,
        "text": test_set.to_text(),
    }


def testset_from_payload(payload: Dict[str, object]) -> Optional[TestSet]:
    try:
        test_set = TestSet.from_text(str(payload["text"]))
    except (KeyError, TypeError, ValueError, IndexError):
        return None
    if test_set.num_inputs != payload.get("num_inputs"):
        return None
    return test_set


# -- ATPG results ----------------------------------------------------------


def atpg_result_payload(result) -> Dict[str, object]:
    """Everything :class:`~repro.atpg.engine.AtpgResult` carries, JSON-able."""
    return {
        "circuit_name": result.circuit_name,
        "testset": testset_payload(result.test_set),
        "num_faults": result.num_faults,
        "detected": encode_faults(sorted(result.detected)),
        "untestable": encode_faults(sorted(result.untestable)),
        "aborted": encode_faults(sorted(result.aborted)),
        "cpu_seconds": result.cpu_seconds,
        "backtracks": result.backtracks,
        "random_detected": result.random_detected,
        "deterministic_detected": result.deterministic_detected,
        "search_exhausted": result.search_exhausted,
        "budget_aborted": result.budget_aborted,
        "random_seconds": result.random_seconds,
        "deterministic_seconds": result.deterministic_seconds,
        "engine": result.engine,
        "workers": result.workers,
        "kernel": result.kernel,
        "engine_reason": result.engine_reason,
        "simulations": result.simulations,
        "frames_simulated": result.frames_simulated,
        "lanes_evaluated": result.lanes_evaluated,
        "guidance": result.guidance,
        "objective_choices": result.objective_choices,
        # Proof kind of each untestable fault: these by exhausted search,
        # the rest structurally.
        "search_proved": encode_faults(sorted(result.search_proved)),
    }


def atpg_result_from_payload(payload: Dict[str, object]):
    from repro.atpg.engine import AtpgResult

    try:
        test_set = testset_from_payload(payload["testset"])
        if test_set is None:
            return None
        return AtpgResult(
            circuit_name=str(payload["circuit_name"]),
            test_set=test_set,
            num_faults=int(payload["num_faults"]),
            detected=set(decode_faults(payload["detected"])),
            untestable=set(decode_faults(payload["untestable"])),
            aborted=set(decode_faults(payload["aborted"])),
            cpu_seconds=float(payload["cpu_seconds"]),
            backtracks=int(payload["backtracks"]),
            random_detected=int(payload["random_detected"]),
            deterministic_detected=int(payload["deterministic_detected"]),
            search_exhausted=int(payload["search_exhausted"]),
            budget_aborted=int(payload["budget_aborted"]),
            random_seconds=float(payload["random_seconds"]),
            deterministic_seconds=float(payload["deterministic_seconds"]),
            engine=str(payload["engine"]),
            workers=int(payload["workers"]),
            kernel=str(payload.get("kernel", "scalar")),
            engine_reason=str(payload.get("engine_reason", "")),
            simulations=int(payload.get("simulations", 0)),
            frames_simulated=int(payload.get("frames_simulated", 0)),
            lanes_evaluated=int(payload.get("lanes_evaluated", 0)),
            guidance=str(payload.get("guidance", "off")),
            objective_choices=int(payload.get("objective_choices", 0)),
            search_proved=set(decode_faults(payload.get("search_proved", []))),
        )
    except (KeyError, TypeError, ValueError, IndexError):
        return None


# -- fault-simulation results ----------------------------------------------


def faultsim_payload(circuit: Circuit, result: FaultSimResult) -> Dict[str, object]:
    return {
        "structure": structural_identity(circuit),
        "circuit_name": result.circuit_name,
        "engine": result.engine,
        "faults": encode_faults(result.faults),
        "detections": [
            encode_fault(fault) + [d.sequence_index, d.cycle, d.output_name]
            for fault, d in sorted(result.detections.items())
        ],
        "potential": encode_faults(sorted(result.potential)),
    }


def faultsim_from_payload(
    payload: Dict[str, object], circuit: Circuit
) -> Optional[FaultSimResult]:
    if payload.get("structure") != structural_identity(circuit):
        return None
    try:
        detections = {}
        for item in payload["detections"]:
            fault = decode_fault(item[:3])
            detections[fault] = Detection(int(item[3]), int(item[4]), str(item[5]))
        return FaultSimResult(
            circuit_name=str(payload["circuit_name"]),
            engine=str(payload["engine"]),
            faults=tuple(decode_faults(payload["faults"])),
            detections=detections,
            potential=set(decode_faults(payload["potential"])),
        )
    except (KeyError, TypeError, ValueError, IndexError):
        return None


# -- SCOAP testability measures ---------------------------------------------


def scoap_payload(circuit: Circuit, measures) -> Dict[str, object]:
    """A :class:`~repro.atpg.guidance.ScoapMeasures` record (kind
    ``scoap``).  Edge-indexed maps are keyed by the circuit's edge
    numbering, so the structural identity guards the whole payload."""
    return {
        "structure": structural_identity(circuit),
        "cc0": {name: float(v) for name, v in measures.cc0.items()},
        "cc1": {name: float(v) for name, v in measures.cc1.items()},
        "co": {name: float(v) for name, v in measures.co.items()},
        "edge_co": {str(i): float(v) for i, v in measures.edge_co.items()},
        "depth": {name: int(v) for name, v in measures.depth.items()},
        "min_frames": {
            str(i): int(v) for i, v in measures.min_frames.items()
        },
        "known": {name: int(v) for name, v in measures.known.items()},
        "pin_regs": {
            str(i): int(v) for i, v in measures.pin_regs.items()
        },
    }


def scoap_from_payload(payload: Dict[str, object], circuit: Circuit):
    from repro.atpg.guidance import ScoapMeasures

    if payload.get("structure") != structural_identity(circuit):
        return None
    try:
        return ScoapMeasures(
            cc0={str(n): float(v) for n, v in payload["cc0"].items()},
            cc1={str(n): float(v) for n, v in payload["cc1"].items()},
            co={str(n): float(v) for n, v in payload["co"].items()},
            edge_co={
                int(i): float(v) for i, v in payload["edge_co"].items()
            },
            depth={str(n): int(v) for n, v in payload["depth"].items()},
            min_frames={
                int(i): int(v) for i, v in payload["min_frames"].items()
            },
            known={str(n): int(v) for n, v in payload["known"].items()},
            pin_regs={
                int(i): int(v) for i, v in payload["pin_regs"].items()
            },
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


# -- guidance training data --------------------------------------------------


def guidance_rows_payload(
    feature_names: Sequence[str], rows: Sequence[Sequence[float]]
) -> Dict[str, object]:
    """Predictor training rows (kind ``guidance-data``): one list per
    fault, feature vector in ``feature_names`` layout with the effort
    label appended last.  Deliberately *not* structure-guarded: the
    dataset pools rows across circuits (the per-row features already
    carry the circuit-size context the predictor needs)."""
    return {
        "feature_names": list(feature_names),
        "rows": [[float(v) for v in row] for row in rows],
    }


def guidance_rows_from_payload(
    payload: Dict[str, object], feature_names: Sequence[str]
) -> Optional[List[List[float]]]:
    """The training rows, or ``None`` when the feature layout moved on
    (the layout echo is what keeps pooled rows comparable)."""
    if payload.get("feature_names") != list(feature_names):
        return None
    try:
        width = len(feature_names) + 1
        rows = [[float(v) for v in row] for row in payload["rows"]]
    except (KeyError, TypeError, ValueError):
        return None
    if any(len(row) != width for row in rows):
        return None
    return rows


# -- explicit STG tables ---------------------------------------------------


def stg_payload(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Tuple[int, ...]],
    num_outputs: int,
    next_index: Sequence[Sequence[int]],
    output_index: Sequence[Sequence[int]],
) -> Dict[str, object]:
    """Flat STG tables of one (possibly faulty) machine.

    The tables are state-index/edge-index-coordinate data, so the payload
    records the structural identity *and* echoes the fault coordinates and
    alphabet; the loader refuses on any mismatch with what the caller is
    about to compute, making a stale or colliding record a plain miss.
    """
    return {
        "structure": structural_identity(circuit),
        "faults": encode_faults(faults),
        "alphabet": [list(map(int, vector)) for vector in alphabet],
        "num_outputs": int(num_outputs),
        "next_index": [list(map(int, row)) for row in next_index],
        "output_index": [list(map(int, row)) for row in output_index],
    }


def stg_arrays_from_payload(
    payload: Dict[str, object],
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Tuple[int, ...]],
) -> Optional[Tuple[int, Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]]:
    """``(num_outputs, next_index, output_index)`` or ``None`` on mismatch."""
    if payload.get("structure") != structural_identity(circuit):
        return None
    if payload.get("faults") != encode_faults(faults):
        return None
    if payload.get("alphabet") != [list(map(int, vector)) for vector in alphabet]:
        return None
    try:
        num_states = 1 << circuit.num_registers()
        next_index = tuple(
            tuple(int(entry) for entry in row) for row in payload["next_index"]
        )
        output_index = tuple(
            tuple(int(entry) for entry in row) for row in payload["output_index"]
        )
        num_outputs = int(payload["num_outputs"])
    except (KeyError, TypeError, ValueError):
        return None
    if len(next_index) != len(alphabet) or len(output_index) != len(alphabet):
        return None
    for row in next_index:
        if len(row) != num_states or any(
            not 0 <= entry < num_states for entry in row
        ):
            return None
    for row in output_index:
        if len(row) != num_states:
            return None
    return num_outputs, next_index, output_index


# -- reachability-bounded STG tables ----------------------------------------


def reach_stg_payload(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Tuple[int, ...]],
    initial_spec: object,
    num_outputs: int,
    state_codes: Sequence[int],
    next_index: Sequence[Sequence[int]],
    output_index: Sequence[Sequence[int]],
    cone_registers: int,
    dropped_registers: int,
    peak_frontier: int,
    levels: int,
) -> Dict[str, object]:
    """Reachability-bounded STG of one machine (kind ``reach-stg``).

    ``state_codes`` are the visited states' packed register codes in BFS
    discovery order -- that order *is* the state indexing of the tables,
    so it is recorded verbatim.  The echo guards mirror ``stg``: structure,
    faults, alphabet and additionally the initial-state spec, since the
    same circuit traversed from a different seed is a different machine.
    """
    return {
        "structure": structural_identity(circuit),
        "faults": encode_faults(faults),
        "alphabet": [list(map(int, vector)) for vector in alphabet],
        "initial": initial_spec,
        "num_outputs": int(num_outputs),
        "states": [int(code) for code in state_codes],
        "next_index": [list(map(int, row)) for row in next_index],
        "output_index": [list(map(int, row)) for row in output_index],
        "cone_registers": int(cone_registers),
        "dropped_registers": int(dropped_registers),
        "peak_frontier": int(peak_frontier),
        "levels": int(levels),
    }


def reach_stg_from_payload(
    payload: Dict[str, object],
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Tuple[int, ...]],
    initial_spec: object,
) -> Optional[Tuple[List[int], List[List[int]], List[List[int]], int, int]]:
    """``(state_codes, next_index, output_index, peak_frontier, levels)``
    or ``None`` on any mismatch with what the caller would compute."""
    if payload.get("structure") != structural_identity(circuit):
        return None
    if payload.get("faults") != encode_faults(faults):
        return None
    if payload.get("alphabet") != [list(map(int, vector)) for vector in alphabet]:
        return None
    if payload.get("initial") != initial_spec:
        return None
    if payload.get("num_outputs") != len(circuit.output_names):
        return None
    try:
        cone_registers = int(payload["cone_registers"])
        codes = [int(code) for code in payload["states"]]
        next_index = [
            [int(entry) for entry in row] for row in payload["next_index"]
        ]
        output_index = [
            [int(entry) for entry in row] for row in payload["output_index"]
        ]
        peak_frontier = int(payload["peak_frontier"])
        levels = int(payload["levels"])
    except (KeyError, TypeError, ValueError):
        return None
    num_states = len(codes)
    if len(set(codes)) != num_states or any(
        not 0 <= code < (1 << cone_registers) for code in codes
    ):
        return None
    if len(next_index) != len(alphabet) or len(output_index) != len(alphabet):
        return None
    for row in next_index:
        if len(row) != num_states or any(
            not 0 <= entry < num_states for entry in row
        ):
            return None
    for row in output_index:
        if len(row) != num_states:
            return None
    return codes, next_index, output_index, peak_frontier, levels


# -- stepper source --------------------------------------------------------


def stepper_payload(
    circuit: Circuit,
    scalar_source: str,
    vector_clean: str,
    vector_inject: str,
    dual_source: str,
) -> Dict[str, object]:
    return {
        "structure": structural_identity(circuit),
        "scalar": scalar_source,
        "vector_clean": vector_clean,
        "vector_inject": vector_inject,
        "dual": dual_source,
    }


def stepper_sources_from_payload(
    payload: Dict[str, object], circuit: Circuit
) -> Optional[Tuple[str, str, str, str]]:
    if payload.get("structure") != structural_identity(circuit):
        return None
    try:
        return (
            str(payload["scalar"]),
            str(payload["vector_clean"]),
            str(payload["vector_inject"]),
            str(payload["dual"]),
        )
    except (KeyError, TypeError):
        return None


__all__ = [
    "atpg_result_from_payload",
    "atpg_result_payload",
    "budget_fingerprint",
    "circuit_from_payload",
    "circuit_payload",
    "decode_fault",
    "decode_faults",
    "decode_sequences",
    "encode_fault",
    "encode_faults",
    "encode_sequences",
    "faults_fingerprint",
    "faults_from_payload",
    "faults_payload",
    "faultsim_from_payload",
    "faultsim_payload",
    "guidance_rows_from_payload",
    "guidance_rows_payload",
    "reach_stg_from_payload",
    "reach_stg_payload",
    "retiming_from_payload",
    "retiming_payload",
    "scoap_from_payload",
    "scoap_payload",
    "stepper_payload",
    "stepper_sources_from_payload",
    "stg_arrays_from_payload",
    "stg_payload",
    "testset_from_payload",
    "testset_payload",
]
