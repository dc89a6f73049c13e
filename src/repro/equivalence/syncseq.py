"""Synchronizing sequences: structural (3-valued) and functional (STG-based).

Paper Section II distinguishes:

* **structural-based** sequences: validated by three-valued simulation from
  the all-X state -- conservative, and preserved by retiming for
  fault-free circuits (Theorem 1);
* **functional-based** sequences: validated on the state transition graph
  -- a sequence synchronizes the machine when, applied from *every* initial
  state, it always lands in a single equivalence class of states.  These
  are *not* preserved by retiming in general (Observation 1); Theorem 2
  restores them with a prefix of arbitrary vectors.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.equivalence.explicit import ExplicitSTG, State, Vector, all_vectors
from repro.equivalence.relations import (
    StateClassification,
    classify,
    classify_reference,
)
from repro.logic.three_valued import Trit, X
from repro.simulation.cache import fast_stepper


# -- structural (three-valued) ------------------------------------------------
#
# These checks sit inside retiming/verification loops, so they run on the
# cached code-generated stepper rather than the interpreted reference
# simulator (identical semantics, cross-checked by the test suite).


def is_structural_sync_sequence(
    circuit: Circuit, vectors: Sequence[Sequence[Trit]]
) -> bool:
    """Three-valued simulation from all-X ends in a fully binary state."""
    return all(value != X for value in structural_final_state(circuit, vectors))


def structural_final_state(
    circuit: Circuit, vectors: Sequence[Sequence[Trit]]
) -> Tuple[Trit, ...]:
    """The ternary state reached from all-X (binary iff synchronizing)."""
    return fast_stepper(circuit).run(vectors)[1]


def find_structural_sync_sequence(
    circuit: Circuit,
    max_length: int = 8,
    max_visited: int = 200_000,
) -> Optional[List[Vector]]:
    """Shortest structural synchronizing sequence by BFS over ternary states.

    Returns None when no sequence of length <= ``max_length`` exists (or the
    search budget is exhausted).
    """
    stepper = fast_stepper(circuit)
    step = stepper.step
    alphabet = all_vectors(len(circuit.input_names))
    start = stepper.unknown_state()
    if X not in start:
        return []
    visited: Set[Tuple[Trit, ...]] = {start}
    queue: deque = deque([(start, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= max_length:
            continue
        for vector in alphabet:
            next_state = step(state, vector)[1]
            new_path = path + [vector]
            if X not in next_state:
                return new_path
            if next_state not in visited:
                if len(visited) >= max_visited:
                    return None
                visited.add(next_state)
                queue.append((next_state, new_path))
    return None


def covered_states(ternary_state: Sequence[Trit]):
    """All binary states a ternary state vector covers (X bits expand)."""
    import itertools

    choices = [
        (0, 1) if value == X else (value,) for value in ternary_state
    ]
    return [tuple(bits) for bits in itertools.product(*choices)]


def synchronizes_up_to_equivalence(
    circuit: Circuit, vectors: Sequence[Sequence[Trit]]
) -> bool:
    """Three-valued sync where leftover X bits must be unobservable.

    The paper's notion of a synchronized machine allows "a set of
    equivalent states".  After retiming, a structurally synchronizing
    sequence can leave X on registers whose content provably never reaches
    an output (e.g. a register parked behind a reset-controlled gate); the
    machine is then synchronized in the theorem's sense even though the
    ternary state is not fully binary.  This check expands the leftover X
    bits and verifies all covered states are mutually equivalent.

    Only usable on circuits within the full-space extraction cap.
    """
    from repro.equivalence.explicit import extract_stg

    final = structural_final_state(circuit, vectors)
    if X not in final:
        return True
    stg = extract_stg(circuit)
    classification = classify([stg])
    classes = {
        classification.class_of[(0, state)] for state in covered_states(final)
    }
    return len(classes) == 1


# -- functional (STG-based) ----------------------------------------------------
#
# State sets travel as Python-int bitsets (bit s <=> stg.states[s]): images
# are table lookups through the STG's memoized (vector_idx, bitset) cache,
# the "single equivalence class" test is one mask comparison, and BFS dedup
# hashes machine ints instead of frozensets of tuples.  The seed frozenset
# implementations survive as the ``*_reference`` oracles; both traverse in
# identical (BFS x alphabet) order, so they find identical sequences and hit
# identical search-budget cutoffs.


def _start_bitset(stg: ExplicitSTG, start_states) -> int:
    if start_states is None:
        return stg.full_bitset
    return stg.bitset_of_states(start_states)


def _machine_index_of(stg: ExplicitSTG, classification: StateClassification) -> int:
    for index, machine in enumerate(classification.machines):
        if machine is stg:
            return index
    return 0


def _class_masks(
    stg: ExplicitSTG, classification: StateClassification
) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    machine_index = _machine_index_of(stg, classification)
    return (
        classification.class_array(machine_index),
        classification.class_bitsets(machine_index),
    )


def _bitset_within_one_class(
    bits: int, class_array: Sequence[int], class_masks: Dict[int, int]
) -> bool:
    lowest = (bits & -bits).bit_length() - 1
    return bits & ~class_masks[class_array[lowest]] == 0


def is_functional_sync_sequence(
    stg: ExplicitSTG,
    vectors: Sequence[Vector],
    classification: Optional[StateClassification] = None,
    start_states: Optional[Iterable[State]] = None,
) -> bool:
    """Applied from every initial state, the machine lands in one
    equivalence class of states (a known and unique state up to
    equivalence, per the paper's definition).

    ``start_states`` restricts the initial set (default: every state of
    the machine) -- the restriction the parity suite uses to compare
    reachability-bounded searches against full-space ones.
    """
    if classification is None:
        classification = classify([stg])
    bits = _start_bitset(stg, start_states)
    for vector in vectors:
        bits = stg.image_bitset(bits, stg.index_of_vector(vector))
    class_array, class_masks = _class_masks(stg, classification)
    return _bitset_within_one_class(bits, class_array, class_masks)


def functional_final_states(
    stg: ExplicitSTG,
    vectors: Sequence[Vector],
    start_states: Optional[Iterable[State]] = None,
) -> FrozenSet[State]:
    """Image of the (full or restricted) start state set under the sequence."""
    bits = _start_bitset(stg, start_states)
    for vector in vectors:
        bits = stg.image_bitset(bits, stg.index_of_vector(vector))
    return stg.states_of_bitset(bits)


def find_functional_sync_sequence(
    stg: ExplicitSTG,
    max_length: int = 10,
    max_visited: int = 200_000,
    classification: Optional[StateClassification] = None,
    start_states: Optional[Iterable[State]] = None,
) -> Optional[List[Vector]]:
    """Shortest functional synchronizing sequence by BFS over state sets.

    Returns None when no sequence of length <= ``max_length`` exists or the
    ``max_visited`` set budget is exhausted.  ``start_states`` restricts
    the initial set (default: every state).
    """
    if classification is None:
        classification = classify([stg])
    class_array, class_masks = _class_masks(stg, classification)
    start = _start_bitset(stg, start_states)
    if _bitset_within_one_class(start, class_array, class_masks):
        return []
    vector_range = range(len(stg.alphabet))
    visited: Set[int] = {start}
    queue: deque = deque([(start, [])])
    while queue:
        bits, path = queue.popleft()
        if len(path) >= max_length:
            continue
        for vector_index in vector_range:
            image = stg.image_bitset(bits, vector_index)
            new_path = path + [stg.alphabet[vector_index]]
            if _bitset_within_one_class(image, class_array, class_masks):
                return new_path
            if image not in visited:
                if len(visited) >= max_visited:
                    return None
                visited.add(image)
                queue.append((image, new_path))
    return None


# -- the seed frozenset searches: oracles for the parity suite -----------------


def _within_one_class(
    states: FrozenSet[State], classification: StateClassification, machine_index: int
) -> bool:
    return len({classification.class_of[(machine_index, s)] for s in states}) == 1


def functional_final_states_reference(
    stg: ExplicitSTG,
    vectors: Sequence[Vector],
    start_states: Optional[Iterable[State]] = None,
) -> FrozenSet[State]:
    """:func:`functional_final_states` over frozensets of state tuples."""
    if start_states is None:
        start_states = stg.states
    current = frozenset(tuple(state) for state in start_states)
    for vector in vectors:
        current = stg.step_set(current, tuple(vector))
    return current


def is_functional_sync_sequence_reference(
    stg: ExplicitSTG,
    vectors: Sequence[Vector],
    classification: Optional[StateClassification] = None,
    start_states: Optional[Iterable[State]] = None,
) -> bool:
    """:func:`is_functional_sync_sequence` over frozensets of state tuples."""
    if classification is None:
        classification = classify_reference([stg])
    final = functional_final_states_reference(stg, vectors, start_states)
    return _within_one_class(
        final, classification, _machine_index_of(stg, classification)
    )


def find_functional_sync_sequence_reference(
    stg: ExplicitSTG,
    max_length: int = 10,
    max_visited: int = 200_000,
    classification: Optional[StateClassification] = None,
    start_states: Optional[Iterable[State]] = None,
) -> Optional[List[Vector]]:
    """:func:`find_functional_sync_sequence` over frozensets of state
    tuples, in the same (BFS x alphabet) order."""
    if classification is None:
        classification = classify_reference([stg])
    machine_index = _machine_index_of(stg, classification)
    start = functional_final_states_reference(stg, (), start_states)
    if _within_one_class(start, classification, machine_index):
        return []
    visited: Set[FrozenSet[State]] = {start}
    queue: deque = deque([(start, [])])
    while queue:
        states, path = queue.popleft()
        if len(path) >= max_length:
            continue
        for vector in stg.alphabet:
            image = stg.step_set(states, vector)
            new_path = path + [vector]
            if _within_one_class(image, classification, machine_index):
                return new_path
            if image not in visited:
                if len(visited) >= max_visited:
                    return None
                visited.add(image)
                queue.append((image, new_path))
    return None


__all__ = [
    "is_structural_sync_sequence",
    "structural_final_state",
    "find_structural_sync_sequence",
    "is_functional_sync_sequence",
    "functional_final_states",
    "find_functional_sync_sequence",
    "is_functional_sync_sequence_reference",
    "functional_final_states_reference",
    "find_functional_sync_sequence_reference",
]
