"""Reachability-bounded STG extraction: ``extract_stg(initial_states=...)``
with ``"reset"`` or an iterable of start states.

The full-space extraction enumerates all ``2^r`` initial states; real
synthesized FSMs typically reach only a tiny fraction of that space from
their reset state.  This module BFS-expands only the states actually
reachable from a chosen initial set, sweeping each frontier level -- in
blocks of at most ``REACH_LANE_BLOCK`` states, with a chunk of the input
alphabet packed into lanes beside the states -- through the same
:func:`~repro.equivalence.bitset.alphabet_sweep` the full-space sweep
uses, and grows the flat ``next_index``/``output_index`` tables
incrementally as new states are interned.

Before traversal the circuit is passed through
:func:`repro.circuit.cone.cone_of_influence`: registers and gates outside
every output's support are dropped, so the traversed machine can be
strictly smaller than the original.  Faults are remapped onto the reduced
circuit; a fault on a dropped edge cannot affect any output or any kept
register's next state, so its machine is table-identical to the fault-free
one.

The result is a :class:`ReachableSTG` -- an :class:`~repro.equivalence.
explicit.ExplicitSTG` whose state universe *is the reachable set* (in
deterministic BFS discovery order).  Classification, sync-sequence search
and :func:`~repro.equivalence.relations.time_equivalence_bound` run on it
unchanged, with *reachability-bounded* semantics: "all states" means "all
states reachable from the initial set".  The reachable set is closed under
transitions, so on the overlap with the full-space tables the induced
classification and sync-sequence results coincide exactly with the
full-machine results restricted to the reachable states (the parity suite
asserts it); started from every state (an iterable of all ``2^r`` register
tuples) on an identity cone, the tables are bit-identical to the
full-space ones.

Extracted machines are memoized in the artifact store (kind ``reach-stg``)
keyed by circuit digest, fault coordinates, alphabet and initial-state
specification.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.circuit.cone import ConeReduction, cone_of_influence
from repro.circuit.netlist import Circuit, LineRef
from repro.equivalence.bitset import REACH_LANE_BLOCK, alphabet_sweep
from repro.equivalence.explicit import (
    ENGINE_LIMITS,
    ExplicitSTG,
    State,
    StateSpaceTooLarge,
    Vector,
    _STORE_MAX_ENTRIES,
    _machine_name,
    _unpack_bits,
)
from repro.faults.model import StuckAtFault
from repro.simulation.cache import vector_fast_stepper

#: Bump when the ``reach-stg`` artifact payload layout, the traversal
#: order, or the cone-of-influence reduction semantics change; folded into
#: :func:`repro.store.core.schema_version`.
REACH_FORMAT_VERSION = 1

InitialStates = Union[str, Iterable[State]]


class ReachableSTG(ExplicitSTG):
    """An :class:`ExplicitSTG` whose state universe is the reachable set.

    ``states`` holds only the states discovered by the BFS, in
    deterministic discovery order: the initial set first (sorted by packed
    state code), then level by level, successors in (vector index, lane
    index) order.  ``full_bitset`` therefore means "every reachable
    state", which gives the classification / sync-sequence / Lemma 2
    machinery reachability-bounded semantics without modification.

    ``num_registers`` is the register count of the cone-reduced machine
    the states live over; ``total_registers`` is the original circuit's.
    """

    __slots__ = (
        "total_registers",
        "initial_bitset",
        "peak_frontier",
        "levels",
        "dropped_registers",
    )

    def __init__(
        self,
        *args,
        total_registers: int,
        initial_bitset: int,
        peak_frontier: int,
        levels: int,
        dropped_registers: int,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.total_registers = total_registers
        self.initial_bitset = initial_bitset
        self.peak_frontier = peak_frontier
        self.levels = levels
        self.dropped_registers = dropped_registers

    @property
    def visited_states(self) -> int:
        """Number of reachable states discovered (== ``len(self.states)``)."""
        return len(self.states)

    @property
    def total_states(self) -> int:
        """Size of the traversed (cone-reduced) machine's full state space."""
        return 1 << self.num_registers

    def __repr__(self) -> str:
        return (
            f"ReachableSTG({self.name!r}, visited={self.visited_states} of "
            f"{self.total_states}, vectors={len(self.alphabet)}, "
            f"peak_frontier={self.peak_frontier})"
        )


# -- initial-state specification ---------------------------------------------


def _initial_spec_and_codes(
    circuit: Circuit, cone: ConeReduction, initial_states: InitialStates
) -> Tuple[object, List[int]]:
    """Normalize the initial-state request into (store spec, packed codes).

    Codes are packed MSB-first over the *cone* registers (register ``j``
    carries bit ``rc - 1 - j``, the full-space sweep's lane numbering) and
    returned sorted ascending, so the interning order -- and with it every
    downstream table -- is deterministic.
    """
    reduced_registers = cone.circuit.num_registers()
    if initial_states == "reset":
        return "reset", [0]
    if isinstance(initial_states, str):
        raise ValueError(
            f"unknown initial_states spec {initial_states!r} "
            "(choose 'all', 'reset', or an iterable of register states)"
        )
    total_registers = circuit.num_registers()
    codes = set()
    for state in initial_states:
        state = tuple(state)
        if len(state) == total_registers:
            projected = cone.project_state(state)
        elif len(state) == reduced_registers and cone.is_identity:
            projected = state
        else:
            raise ValueError(
                f"{circuit.name}: initial state {state!r} has width "
                f"{len(state)}, expected {total_registers} register bits"
            )
        code = 0
        for bit in projected:
            if bit not in (0, 1):
                raise ValueError(
                    f"{circuit.name}: initial states must be binary, "
                    f"got {state!r}"
                )
            code = code << 1 | bit
        codes.add(code)
    if not codes:
        raise ValueError(f"{circuit.name}: initial_states is empty")
    ordered = sorted(codes)
    return ["explicit", ordered], ordered


# -- fault remapping onto the cone -------------------------------------------


def _remap_faults(
    cone: ConeReduction, faults: Sequence[StuckAtFault]
) -> List[StuckAtFault]:
    """Faults re-addressed to reduced edge indices; dropped-edge faults
    vanish (they cannot affect any output or kept-register next state)."""
    remapped: List[StuckAtFault] = []
    for fault in faults:
        new_edge = cone.edge_map.get(fault.line.edge_index)
        if new_edge is None:
            continue
        remapped.append(
            StuckAtFault(LineRef(new_edge, fault.line.segment), fault.value)
        )
    return remapped


# -- the BFS traversal --------------------------------------------------------


def _traverse(
    reduced: Circuit,
    stepper,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Vector],
    initial_codes: Sequence[int],
) -> Tuple[List[int], List[List[int]], List[List[int]], int, int]:
    """BFS over reachable states, one alphabet sweep per level block.

    Returns ``(codes, next_rows, output_rows, peak_frontier, levels)``
    where ``codes[i]`` is the packed register code of state ``i`` in
    discovery order and the rows are flat ``[vector][state]`` tables whose
    entries are state indices / packed output ints.  Each state's table
    row is produced by the level that discovered it, so rows stay aligned
    with the interning order by construction; successor entries may
    forward-reference states interned later in the same or a deeper level.
    """
    limits = ENGINE_LIMITS["reach"]
    sweep = alphabet_sweep(reduced, stepper, faults, alphabet)

    intern: Dict[int, int] = {}
    codes: List[int] = []
    for code in initial_codes:
        if code not in intern:
            intern[code] = len(codes)
            codes.append(code)
    next_rows: List[List[int]] = [[] for _ in alphabet]
    output_rows: List[List[int]] = [[] for _ in alphabet]

    frontier = list(codes)
    peak_frontier = 0
    levels = 0
    while frontier:
        if len(codes) * len(alphabet) > limits.transitions:
            raise StateSpaceTooLarge(
                f"{reduced.name}: visited {len(codes)} states x "
                f"{len(alphabet)} vectors, past the reachable-state cap of "
                f"{limits.transitions}; the reachable set is not sparse "
                "enough for reachability-bounded extraction"
            )
        peak_frontier = max(peak_frontier, len(frontier))
        levels += 1
        discovered: List[int] = []
        for start in range(0, len(frontier), REACH_LANE_BLOCK):
            block = frontier[start : start + REACH_LANE_BLOCK]
            for vector_index, (next_codes, out_codes) in enumerate(sweep(block)):
                # New successors intern in lane order of first appearance.
                for code in dict.fromkeys(next_codes):
                    if code not in intern:
                        intern[code] = len(codes)
                        codes.append(code)
                        discovered.append(code)
                next_rows[vector_index].extend(map(intern.__getitem__, next_codes))
                output_rows[vector_index].extend(out_codes)
        frontier = discovered
    return codes, next_rows, output_rows, peak_frontier, levels


# -- store plumbing -----------------------------------------------------------


def _reach_store_key(store, circuit, faults, alphabet, initial_spec) -> str:
    from repro.circuit.digest import circuit_digest
    from repro.store.artifacts import encode_faults

    return store.key(
        "reach-stg",
        circuit_digest(circuit),
        encode_faults(faults),
        [list(map(int, vector)) for vector in alphabet],
        initial_spec,
    )


# -- entry point --------------------------------------------------------------


def extract_stg_reach(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Vector],
    initial_states: InitialStates,
    *,
    use_store: bool = True,
) -> ReachableSTG:
    """Reachability-bounded STG of the (possibly faulty) machine.

    Called through :func:`repro.equivalence.explicit.extract_stg`, which
    normalizes ``faults`` and ``alphabet`` and checks the input cap.
    ``initial_states`` seeds the traversal: ``"reset"`` starts from the
    all-zero register state, an iterable of full-width register states
    from exactly those states.
    """
    limits = ENGINE_LIMITS["reach"]
    cone = cone_of_influence(circuit)
    reduced = cone.circuit
    reduced_registers = reduced.num_registers()
    if reduced_registers > limits.registers:
        raise StateSpaceTooLarge(
            f"{circuit.name}: {reduced_registers} flip-flops in the output "
            f"cone ({cone.dropped_registers} dropped) is past the "
            f"reachable-state cap of {limits.registers}"
        )
    initial_spec, initial_codes = _initial_spec_and_codes(
        circuit, cone, initial_states
    )
    kept_faults = _remap_faults(cone, faults)
    name = _machine_name(circuit, faults)
    num_outputs = len(circuit.output_names)

    def build(codes, next_rows, output_rows, peak_frontier, levels):
        states = tuple(
            _unpack_bits(code, reduced_registers) for code in codes
        )
        return ReachableSTG(
            name=name,
            num_inputs=len(circuit.input_names),
            num_registers=reduced_registers,
            alphabet=alphabet,
            states=states,
            num_outputs=num_outputs,
            next_index=next_rows,
            output_index=output_rows,
            total_registers=circuit.num_registers(),
            initial_bitset=(1 << len(initial_codes)) - 1,
            peak_frontier=peak_frontier,
            levels=levels,
            dropped_registers=cone.dropped_registers,
        )

    store = None
    key = None
    if use_store:
        from repro.store.core import default_store

        store = default_store()
    if store is not None:
        from repro.store.artifacts import reach_stg_from_payload

        key = _reach_store_key(store, circuit, faults, alphabet, initial_spec)
        payload = store.get("reach-stg", key)
        if payload is not None:
            tables = reach_stg_from_payload(
                payload, circuit, faults, alphabet, initial_spec
            )
            if tables is not None:
                return build(*tables)

    stepper = vector_fast_stepper(reduced)
    codes, next_rows, output_rows, peak_frontier, levels = _traverse(
        reduced, stepper, kept_faults, alphabet, initial_codes
    )

    if store is not None and len(codes) * len(alphabet) <= _STORE_MAX_ENTRIES:
        from repro.store.artifacts import reach_stg_payload

        try:
            store.put(
                "reach-stg",
                key,
                reach_stg_payload(
                    circuit,
                    faults,
                    alphabet,
                    initial_spec,
                    num_outputs,
                    codes,
                    next_rows,
                    output_rows,
                    reduced_registers,
                    cone.dropped_registers,
                    peak_frontier,
                    levels,
                ),
            )
        except OSError:
            pass  # unwritable store degrades to recomputation

    return build(codes, next_rows, output_rows, peak_frontier, levels)


__all__ = [
    "REACH_FORMAT_VERSION",
    "REACH_LANE_BLOCK",
    "ReachableSTG",
    "extract_stg_reach",
]
