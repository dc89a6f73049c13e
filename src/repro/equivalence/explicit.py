"""Explicit state-transition-graph extraction from gate-level circuits.

The paper's Section II definitions (state equivalence, space/time
containment, functional synchronizing sequences) are all properties of the
state transition graph.  For circuits with a modest number of flip-flops
(the paper's examples have 1-3, the synthesized benchmarks 5-7) the STG can
be built exactly by enumerating all binary states and input vectors.

:func:`extract_stg` answers two questions, chosen by ``initial_states``:

* ``"all"`` (the default) enumerates the full state space: all ``2^r``
  initial states ride as lanes of the compiled bit-parallel stepper, a
  chunk of the input alphabet beside them, one vectorized step per chunk
  (:mod:`repro.equivalence.bitset`);
* ``"reset"`` or an iterable of register states BFS-expands only the
  states reachable from that start set, after a cone-of-influence
  reduction (:mod:`repro.equivalence.reach`) -- reachability-bounded
  semantics, which reach past the full-space register wall on sparse
  machines.

Each space has one cap (:data:`ENGINE_LIMITS`); a machine past it raises
:class:`StateSpaceTooLarge` before any work.  The seed algorithm -- one
scalar :class:`~repro.simulation.sequential.SequentialSimulator` step per
(state, vector) pair -- survives as :func:`extract_stg_reference`, the
oracle the parity suites compare the sweep against.

Either way the machine is stored as **flat integer tables** indexed
``[vector_idx][state_idx]``: ``next_index`` holds successor state indices,
``output_index`` holds output vectors packed MSB-first into ints.  The
:class:`ExplicitSTG` facade keeps the historical dict-style ``next_state``
/ ``output`` mappings as lazy views, and exposes the index/bitset API the
classification and sync-sequence searches run on.

Faulty machines are first-class: pass a fault (or a sequence of faults, for
multiple-fault machines) to :func:`extract_stg` to get the STG of the
faulty circuit ``K^f``.  Extracted tables are memoized in the
content-addressed artifact store (kind ``stg``) keyed by circuit digest,
fault coordinates and alphabet; ``use_store=False`` or
``REPRO_STORE_DISABLE=1`` bypasses the store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.circuit.netlist import Circuit
from repro.equivalence import bitset as _bitset
from repro.faults.model import StuckAtFault
from repro.simulation.sequential import SequentialSimulator

State = Tuple[int, ...]
Vector = Tuple[int, ...]

#: Bump when the ``stg`` artifact payload layout or table semantics change;
#: folded into :func:`repro.store.core.schema_version`.
STG_FORMAT_VERSION = 1

@dataclass(frozen=True)
class EngineLimits:
    """Largest machine one state space will enumerate."""

    registers: int
    inputs: int
    transitions: int  # cap on states x |alphabet|


#: The two caps, measured on the benchmark sweep (see ``BENCH_equiv.json``),
#: keyed by the extraction that answers each space: ``bitset`` sweeps the
#: full state space (2^18-state sweeps take seconds) and ``reach`` the
#: reachable set.  The reach register cap applies to the cone-reduced
#: machine and its transition cap (``visited x |alphabet|``) is enforced
#: *during* traversal; every other cap is checked before any work.
ENGINE_LIMITS: Dict[str, EngineLimits] = {
    "bitset": EngineLimits(registers=18, inputs=12, transitions=1 << 22),
    "reach": EngineLimits(registers=30, inputs=12, transitions=1 << 24),
}


class StateSpaceTooLarge(ValueError):
    """Raised when explicit enumeration would be intractable."""


def _pack_bits(bits: Sequence[int]) -> int:
    packed = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(
                f"STG tables require binary values, got {bit!r} in {tuple(bits)}"
            )
        packed = packed << 1 | bit
    return packed


def _unpack_bits(packed: int, width: int) -> Tuple[int, ...]:
    return tuple((packed >> (width - 1 - position)) & 1 for position in range(width))


class _TableView(Mapping):
    """Read-only dict-compatible view over one flat (vector, state) table."""

    __slots__ = ("_stg", "_lookup")

    def __init__(self, stg: "ExplicitSTG", lookup) -> None:
        self._stg = stg
        self._lookup = lookup

    def __getitem__(self, key):
        state, vector = key
        stg = self._stg
        try:
            state_idx = stg._state_index[tuple(state)]
            vector_idx = stg._vector_index[tuple(vector)]
        except KeyError:
            raise KeyError(key) from None
        return self._lookup(stg, vector_idx, state_idx)

    def __iter__(self):
        for state in self._stg.states:
            for vector in self._stg.alphabet:
                yield (state, vector)

    def __len__(self) -> int:
        return len(self._stg.states) * len(self._stg.alphabet)


def _next_lookup(stg: "ExplicitSTG", vector_idx: int, state_idx: int) -> State:
    return stg.states[stg.next_index[vector_idx][state_idx]]

def _output_lookup(
    stg: "ExplicitSTG", vector_idx: int, state_idx: int
) -> Tuple[int, ...]:
    return stg.output_tuple(stg.output_index[vector_idx][state_idx])


class ExplicitSTG:
    """A fully enumerated Mealy machine over flat transition tables.

    State ``states[s]`` and vector ``alphabet[v]`` meet at table slot
    ``[v][s]``: ``next_index[v][s]`` is the successor *state index*,
    ``output_index[v][s]`` the output vector packed MSB-first into an int.
    The historical dict-style constructor (``next_state``/``output`` keyed
    by ``(state, vector)``) still works and is converted to tables.

    State *sets* travel as Python-int bitsets (bit ``s`` <=> ``states[s]``)
    through :meth:`bitset_of_states` / :meth:`states_of_bitset` /
    :meth:`image_bitset`; set images are memoized per ``(vector_idx,
    bitset)``.  Per-vector successor-state tuples are cached so the
    frozenset-facing API (:meth:`successors`, :meth:`step_set`) stops
    re-hashing ``(state, vector)`` pair keys.
    """

    __slots__ = (
        "name",
        "num_inputs",
        "num_registers",
        "num_outputs",
        "alphabet",
        "states",
        "next_index",
        "output_index",
        "_state_index",
        "_vector_index",
        "_successor_states",
        "_output_tuples",
        "_image_memo",
        "_image_hits",
        "_image_misses",
    )

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_registers: int,
        alphabet: Sequence[Vector],
        states: Sequence[State],
        next_state: Optional[Mapping[Tuple[State, Vector], State]] = None,
        output: Optional[Mapping[Tuple[State, Vector], Tuple[int, ...]]] = None,
        *,
        num_outputs: Optional[int] = None,
        next_index: Optional[Sequence[Sequence[int]]] = None,
        output_index: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.name = name
        self.num_inputs = num_inputs
        self.num_registers = num_registers
        self.alphabet: Tuple[Vector, ...] = tuple(tuple(v) for v in alphabet)
        self.states: Tuple[State, ...] = tuple(tuple(s) for s in states)
        self._state_index: Dict[State, int] = {
            state: index for index, state in enumerate(self.states)
        }
        self._vector_index: Dict[Vector, int] = {
            vector: index for index, vector in enumerate(self.alphabet)
        }
        if next_index is None or output_index is None:
            if next_state is None or output is None:
                raise TypeError(
                    "ExplicitSTG needs either (next_state, output) mappings "
                    "or (next_index, output_index) tables"
                )
            next_index, output_index, inferred = self._tables_from_dicts(
                next_state, output
            )
            if num_outputs is None:
                num_outputs = inferred
        if num_outputs is None:
            raise TypeError("num_outputs is required with table construction")
        self.num_outputs = num_outputs
        self.next_index: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in next_index
        )
        self.output_index: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in output_index
        )
        self._successor_states: List[Optional[Tuple[State, ...]]] = [None] * len(
            self.alphabet
        )
        self._output_tuples: Dict[int, Tuple[int, ...]] = {}
        self._image_memo: Dict[Tuple[int, int], int] = {}
        self._image_hits = 0
        self._image_misses = 0

    def _tables_from_dicts(self, next_state, output):
        num_outputs = 0
        for value in output.values():
            num_outputs = len(value)
            break
        next_rows: List[Tuple[int, ...]] = []
        output_rows: List[Tuple[int, ...]] = []
        state_index = self._state_index
        for vector in self.alphabet:
            next_rows.append(
                tuple(
                    state_index[tuple(next_state[(state, vector)])]
                    for state in self.states
                )
            )
            output_rows.append(
                tuple(_pack_bits(output[(state, vector)]) for state in self.states)
            )
        return tuple(next_rows), tuple(output_rows), num_outputs

    def __repr__(self) -> str:
        return (
            f"ExplicitSTG({self.name!r}, states={len(self.states)}, "
            f"vectors={len(self.alphabet)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitSTG):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_inputs == other.num_inputs
            and self.num_registers == other.num_registers
            and self.num_outputs == other.num_outputs
            and self.alphabet == other.alphabet
            and self.states == other.states
            and self.next_index == other.next_index
            and self.output_index == other.output_index
        )

    __hash__ = None  # mutable caches inside; identity-free hashing is a trap

    # -- dict-compatible views ---------------------------------------------

    @property
    def next_state(self) -> Mapping[Tuple[State, Vector], State]:
        """``(state, vector) -> successor state`` view over the tables."""
        return _TableView(self, _next_lookup)

    @property
    def output(self) -> Mapping[Tuple[State, Vector], Tuple[int, ...]]:
        """``(state, vector) -> output tuple`` view over the tables."""
        return _TableView(self, _output_lookup)

    # -- index arithmetic ---------------------------------------------------

    def index_of_state(self, state: State) -> int:
        return self._state_index[tuple(state)]

    def index_of_vector(self, vector: Vector) -> int:
        return self._vector_index[tuple(vector)]

    def output_tuple(self, packed: int) -> Tuple[int, ...]:
        """Unpack one ``output_index`` entry into the historical tuple form."""
        cached = self._output_tuples.get(packed)
        if cached is None:
            cached = _unpack_bits(packed, self.num_outputs)
            self._output_tuples[packed] = cached
        return cached

    def successor_table(self, vector_index: int) -> Tuple[State, ...]:
        """``state_idx -> successor State`` for one vector, built once."""
        table = self._successor_states[vector_index]
        if table is None:
            states = self.states
            table = tuple(states[i] for i in self.next_index[vector_index])
            self._successor_states[vector_index] = table
        return table

    # -- bitset state sets --------------------------------------------------

    @property
    def full_bitset(self) -> int:
        """The set of all states, as a bitset."""
        return (1 << len(self.states)) - 1

    def bitset_of_states(self, states: Iterable[State]) -> int:
        index = self._state_index
        return _bitset.bitset_from_indices(index[tuple(s)] for s in states)

    def states_of_bitset(self, bits: int) -> FrozenSet[State]:
        states = self.states
        return frozenset(
            states[i] for i in _bitset.iter_bit_indices(bits, len(states))
        )

    def iter_bitset_indices(self, bits: int) -> Iterator[int]:
        return _bitset.iter_bit_indices(bits, len(self.states))

    def image_bitset(self, bits: int, vector_index: int) -> int:
        """Image of the state set ``bits`` under ``alphabet[vector_index]``,
        memoized per ``(vector_index, bits)``."""
        key = (vector_index, bits)
        memo = self._image_memo
        cached = memo.get(key)
        if cached is not None:
            self._image_hits += 1
            return cached
        self._image_misses += 1
        result = _bitset.image_bitset(
            self.next_index[vector_index], bits, len(self.states)
        )
        memo[key] = result
        return result

    def step_all_bitset(self, bits: int) -> int:
        """Union of the images of ``bits`` under every alphabet vector."""
        result = 0
        for vector_index in range(len(self.alphabet)):
            result |= self.image_bitset(bits, vector_index)
        return result

    def states_after_bitset(self, steps: int) -> int:
        bits = self.full_bitset
        for _ in range(steps):
            bits = self.step_all_bitset(bits)
        return bits

    def image_cache_stats(self) -> Dict[str, int]:
        return {
            "hits": self._image_hits,
            "misses": self._image_misses,
            "entries": len(self._image_memo),
        }

    # -- historical frozenset/tuple API ------------------------------------

    def successors(self, state: State) -> List[State]:
        state_idx = self._state_index[state]
        return [
            self.successor_table(vector_index)[state_idx]
            for vector_index in range(len(self.alphabet))
        ]

    def step_set(self, states: Iterable[State], vector: Vector) -> FrozenSet[State]:
        """Image of a state set under one input vector."""
        table = self.successor_table(self._vector_index[tuple(vector)])
        index = self._state_index
        return frozenset(table[index[state]] for state in states)

    def run(
        self, state: State, vectors: Sequence[Vector]
    ) -> Tuple[State, List[Tuple[int, ...]]]:
        """Final state and per-cycle outputs from ``state`` under ``vectors``."""
        outputs = []
        current = self._state_index[tuple(state)]
        for vector in vectors:
            vector_index = self._vector_index[tuple(vector)]
            outputs.append(self.output_tuple(self.output_index[vector_index][current]))
            current = self.next_index[vector_index][current]
        return self.states[current], outputs

    def states_after(self, steps: int) -> FrozenSet[State]:
        """``K_i``: states reachable from *any* state after ``i`` transitions."""
        return self.states_of_bitset(self.states_after_bitset(steps))

    def reachable_from(self, start: State) -> FrozenSet[State]:
        """All states reachable from ``start`` (the paper's *valid states*
        when ``start`` is a reset state)."""
        seen = 1 << self._state_index[start]
        frontier = seen
        while frontier:
            frontier = self.step_all_bitset(frontier) & ~seen
            seen |= frontier
        return self.states_of_bitset(seen)


def all_vectors(width: int) -> List[Vector]:
    """All binary vectors of ``width`` bits, lexicographic."""
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=width)]


FaultSpec = Union[StuckAtFault, Sequence[StuckAtFault], None]


def _normalize_faults(fault: FaultSpec) -> Tuple[StuckAtFault, ...]:
    if fault is None:
        return ()
    if isinstance(fault, (list, tuple)):
        return tuple(fault)
    return (fault,)


def _machine_name(circuit: Circuit, faults: Sequence[StuckAtFault]) -> str:
    """``circuit.name``, suffixed ``^fault+fault`` for a faulty machine."""
    if not faults:
        return circuit.name
    return circuit.name + "^" + "+".join(f.describe(circuit) for f in faults)


def _cap_violation(
    circuit: Circuit, space: str, num_vectors: Optional[int] = None
) -> str:
    """Why ``circuit`` is past the up-front cap of ``space`` ("" if it fits).

    ``space`` is an :data:`ENGINE_LIMITS` key and ``num_vectors`` the
    alphabet size (default: the full binary alphabet, bounded by the input
    cap).  The reach register and transition caps depend on the cone and
    on the states visited, so :mod:`repro.equivalence.reach` checks them.
    """
    limits = ENGINE_LIMITS[space]
    label = "full-space" if space == "bitset" else "reachable-state"
    hint = "; initial_states='reset' extracts the reset-reachable states instead"
    num_registers = circuit.num_registers()
    if space == "bitset" and num_registers > limits.registers:
        return (
            f"{circuit.name}: {num_registers} flip-flops is past the {label} "
            f"cap of {limits.registers} (2^{num_registers} = "
            f"{1 << num_registers} states){hint}"
        )
    if num_vectors is None:
        num_inputs = len(circuit.input_names)
        if num_inputs > limits.inputs:
            return (
                f"{circuit.name}: {num_inputs} inputs is past the {label} cap "
                f"of {limits.inputs} (2^{num_inputs} = {1 << num_inputs} "
                "vectors per state)"
            )
        num_vectors = 1 << num_inputs
    transitions = (1 << num_registers) * num_vectors
    if space == "bitset" and transitions > limits.transitions:
        return (
            f"{circuit.name}: {1 << num_registers} states x {num_vectors} "
            f"vectors = {transitions} transitions is past the {label} cap of "
            f"{limits.transitions}{hint}"
        )
    return ""


def _full_stg(circuit, faults, alphabet, num_outputs, next_index, output_index):
    """The full-space :class:`ExplicitSTG` over the given tables."""
    return ExplicitSTG(
        name=_machine_name(circuit, faults),
        num_inputs=len(circuit.input_names),
        num_registers=circuit.num_registers(),
        alphabet=alphabet,
        states=all_vectors(circuit.num_registers()),
        num_outputs=num_outputs,
        next_index=next_index,
        output_index=output_index,
    )


def extract_stg_reference(
    circuit: Circuit,
    fault: FaultSpec = None,
    alphabet: Optional[Sequence[Vector]] = None,
) -> ExplicitSTG:
    """The full-space STG by the seed algorithm: one scalar simulation per
    (state, vector) pair.

    The oracle the parity suites compare :func:`extract_stg` against; it
    has no cap and no store, so keep it to small machines.
    """
    faults = _normalize_faults(fault)
    if alphabet is None:
        alphabet = all_vectors(len(circuit.input_names))
    alphabet = tuple(tuple(v) for v in alphabet)
    states = all_vectors(circuit.num_registers())
    state_index = {state: index for index, state in enumerate(states)}
    simulator = SequentialSimulator(circuit, fault=list(faults) or None)
    next_rows: List[Tuple[int, ...]] = []
    output_rows: List[Tuple[int, ...]] = []
    for vector in alphabet:
        results = [simulator.step(state, vector) for state in states]
        next_rows.append(tuple(state_index[r.next_state] for r in results))
        output_rows.append(tuple(_pack_bits(r.outputs) for r in results))
    return _full_stg(
        circuit, faults, alphabet, len(circuit.output_names), next_rows, output_rows
    )


#: Records larger than this many (state, vector) table entries are computed
#: but not persisted: a 2^18-state x 4-vector table would be a multi-MB
#: JSON document, slower to decode than to recompute with the lane sweep.
_STORE_MAX_ENTRIES = 1 << 16


def _stg_store_key(store, circuit: Circuit, faults, alphabet) -> str:
    from repro.circuit.digest import circuit_digest
    from repro.store.artifacts import encode_faults

    return store.key(
        "stg",
        circuit_digest(circuit),
        encode_faults(faults),
        [list(map(int, vector)) for vector in alphabet],
    )


def extract_stg(
    circuit: Circuit,
    fault: FaultSpec = None,
    alphabet: Optional[Sequence[Vector]] = None,
    use_store: bool = True,
    backend: str = "auto",
    initial_states: Union[str, Iterable[State]] = "all",
) -> ExplicitSTG:
    """Enumerate the (possibly faulty) machine's STG.

    Args:
        circuit: the machine to enumerate.
        fault: one :class:`~repro.faults.model.StuckAtFault`, a sequence of
            them (a multiple-fault machine), or ``None`` for fault-free.
        alphabet: input vectors to enumerate (default: the full binary
            alphabet over the circuit's inputs).
        use_store: memoize the tables in the content-addressed artifact
            store (skipped automatically for oversized machines and when
            the store is disabled).
        backend: word implementation for the lane-parallel sweeps
            (``"bigint"``, ``"numpy"``, or ``"auto"``); tables are
            identical either way, so the store key deliberately ignores
            it.
        initial_states: the state space.  ``"all"`` (default) enumerates
            every register state; ``"reset"`` (the all-zero state) or an
            iterable of register-state tuples returns the
            :class:`~repro.equivalence.reach.ReachableSTG` of the states
            reachable from that set.

    Raises :class:`StateSpaceTooLarge` when the machine exceeds its
    space's cap (:data:`ENGINE_LIMITS`); the message names the cap and the
    estimated enumeration cost.
    """
    faults = _normalize_faults(fault)
    if alphabet is not None:
        alphabet = tuple(tuple(v) for v in alphabet)
        for vector in alphabet:
            if any(bit not in (0, 1) for bit in vector):
                raise ValueError(
                    f"{circuit.name}: STG extraction needs a binary alphabet, "
                    f"got vector {vector!r}"
                )
    full_space = initial_states == "all"
    problem = _cap_violation(
        circuit,
        "bitset" if full_space else "reach",
        None if alphabet is None else len(alphabet),
    )
    if problem:
        raise StateSpaceTooLarge(problem)
    if alphabet is None:
        alphabet = tuple(all_vectors(len(circuit.input_names)))
    if not full_space:
        from repro.equivalence.reach import extract_stg_reach

        return extract_stg_reach(
            circuit,
            faults,
            alphabet,
            initial_states,
            use_store=use_store,
            backend=backend,
        )

    store = None
    key = None
    persistable = (1 << circuit.num_registers()) * len(alphabet) <= _STORE_MAX_ENTRIES
    if use_store and persistable:
        from repro.store.core import default_store

        store = default_store()
    if store is not None:
        from repro.store.artifacts import stg_arrays_from_payload

        key = _stg_store_key(store, circuit, faults, alphabet)
        payload = store.get("stg", key)
        if payload is not None:
            tables = stg_arrays_from_payload(payload, circuit, faults, alphabet)
            if tables is not None:
                return _full_stg(circuit, faults, alphabet, *tables)

    num_outputs = len(circuit.output_names)
    next_index, output_index = _bitset.extract_arrays_bitset(
        circuit, faults, alphabet, backend=backend
    )
    if store is not None:
        from repro.store.artifacts import stg_payload

        try:
            store.put(
                "stg",
                key,
                stg_payload(
                    circuit, faults, alphabet, num_outputs, next_index, output_index
                ),
            )
        except OSError:
            pass  # unwritable store degrades to recomputation
    return _full_stg(circuit, faults, alphabet, num_outputs, next_index, output_index)


__all__ = [
    "ExplicitSTG",
    "EngineLimits",
    "ENGINE_LIMITS",
    "STG_FORMAT_VERSION",
    "extract_stg",
    "extract_stg_reference",
    "all_vectors",
    "StateSpaceTooLarge",
    "State",
    "Vector",
]
