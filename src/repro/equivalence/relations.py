"""State equivalence and the paper's containment relations (Section II).

Implemented by joint partition refinement over the disjoint union of any
number of machines sharing an input alphabet: two states (possibly in
different machines) fall in the same final block iff they are equivalent --
same output for every input and equivalent successors (the classic Mealy
machine bisimulation, which for deterministic complete machines coincides
with sequential I/O equivalence).

:func:`classify` runs Moore-style rounds directly over the machines' flat
``next_index``/``output_index`` tables: signatures are small tuples of
ints, block ids are dense lists indexed by state index, and no ``(state,
vector)`` pair is ever hashed.  The seed implementation over dict
signatures survives as :func:`classify_reference`, the oracle the parity
suite holds it to: the two are block-id-identical (same first-occurrence
tie-breaking).

On top of the classifier:

* ``space_contains(a, b)``   --  ``a ⊇s b``: every state of ``b`` has an
  equivalent state in ``a``;
* ``space_equivalent(a, b)`` --  ``a ≡s b``;
* ``time_contains(a, b, n)`` --  ``a ⊇nt b``: every state of ``b_n`` has an
  equivalent state in ``a``;
* ``time_equivalence_bound(a, b, max_n)`` -- least ``N`` with ``a ≡Nt b``;
* ``check_time_equivalence(circuit_a, circuit_b, n)`` -- Lemma 2 on two
  circuits, the one check the flow, ``verify_preservation`` and
  ``verify_retiming`` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.equivalence.explicit import (
    ExplicitSTG,
    State,
    StateSpaceTooLarge,
    _cap_violation,
)

MachineState = Tuple[int, State]  # (machine index, state)


@dataclass(frozen=True)
class StateClassification:
    """Result of joint partition refinement over several machines."""

    machines: Tuple[ExplicitSTG, ...]
    class_of: Dict[MachineState, int]

    def equivalent(self, a: MachineState, b: MachineState) -> bool:
        return self.class_of[a] == self.class_of[b]

    def classes_of_machine(self, index: int) -> FrozenSet[int]:
        return frozenset(self.class_array(index))

    def equivalence_classes(self, index: int) -> Dict[int, List[State]]:
        """class id -> states of machine ``index`` in that class."""
        classes: Dict[int, List[State]] = {}
        machine = self.machines[index]
        for state, cls in zip(machine.states, self.class_array(index)):
            classes.setdefault(cls, []).append(state)
        return classes

    def class_array(self, index: int) -> Tuple[int, ...]:
        """Class ids of machine ``index``'s states, in state-index order."""
        machine = self.machines[index]
        class_of = self.class_of
        return tuple(class_of[(index, state)] for state in machine.states)

    def class_bitsets(self, index: int) -> Dict[int, int]:
        """class id -> bitset of machine ``index``'s states in that class."""
        masks: Dict[int, int] = {}
        for state_idx, cls in enumerate(self.class_array(index)):
            masks[cls] = masks.get(cls, 0) | (1 << state_idx)
        return masks


def _shared_alphabet(machines: Sequence[ExplicitSTG]) -> Tuple:
    if not machines:
        raise ValueError("need at least one machine")
    alphabet = machines[0].alphabet
    for machine in machines[1:]:
        if machine.alphabet != alphabet:
            raise ValueError(
                f"machines {machines[0].name!r} and {machine.name!r} have "
                "different input alphabets"
            )
    return alphabet


def classify(machines: Sequence[ExplicitSTG]) -> StateClassification:
    """Joint bisimulation partition refinement over the flat tables."""
    vector_range = range(len(_shared_alphabet(machines)))
    # Initial partition: output signature over the whole alphabet.  The
    # packed output ints are compared raw -- a machine's output width
    # disambiguates them across machines of different widths, keeping the
    # signature -> block mapping injective (ids then match the reference
    # classifier's, which compares unpacked tuples).
    block_ids: Dict[Tuple, int] = {}
    class_arrays: List[List[int]] = []
    for machine in machines:
        output_index = machine.output_index
        width = machine.num_outputs
        arr: List[int] = []
        for state_idx in range(len(machine.states)):
            key = (width,) + tuple(output_index[v][state_idx] for v in vector_range)
            block = block_ids.get(key)
            if block is None:
                block = block_ids[key] = len(block_ids)
            arr.append(block)
        class_arrays.append(arr)
    num_classes = len(block_ids)
    while True:
        block_ids = {}
        new_arrays: List[List[int]] = []
        for machine, arr in zip(machines, class_arrays):
            next_index = machine.next_index
            new: List[int] = []
            for state_idx in range(len(machine.states)):
                key = (arr[state_idx],) + tuple(
                    arr[next_index[v][state_idx]] for v in vector_range
                )
                block = block_ids.get(key)
                if block is None:
                    block = block_ids[key] = len(block_ids)
                new.append(block)
            new_arrays.append(new)
        if len(block_ids) == num_classes:
            class_of = {
                (index, state): new_arrays[index][state_idx]
                for index, machine in enumerate(machines)
                for state_idx, state in enumerate(machine.states)
            }
            return StateClassification(tuple(machines), class_of)
        class_arrays = new_arrays
        num_classes = len(block_ids)


def classify_reference(machines: Sequence[ExplicitSTG]) -> StateClassification:
    """The seed refinement over dict signatures keyed by ``(state, vector)``:
    the oracle :func:`classify` must match block id for block id."""
    alphabet = _shared_alphabet(machines)
    universe: List[MachineState] = [
        (index, state)
        for index, machine in enumerate(machines)
        for state in machine.states
    ]
    signature: Dict[MachineState, Tuple] = {
        (index, state): tuple(
            machines[index].output[(state, vector)] for vector in alphabet
        )
        for index, state in universe
    }
    class_of = _blocks_from_signatures(universe, signature)
    while True:
        refined_signature = {
            (index, state): (
                class_of[(index, state)],
                tuple(
                    class_of[(index, machines[index].next_state[(state, vector)])]
                    for vector in alphabet
                ),
            )
            for index, state in universe
        }
        new_class_of = _blocks_from_signatures(universe, refined_signature)
        if len(set(new_class_of.values())) == len(set(class_of.values())):
            return StateClassification(tuple(machines), new_class_of)
        class_of = new_class_of


def _blocks_from_signatures(
    universe: List[MachineState], signature: Dict[MachineState, Tuple]
) -> Dict[MachineState, int]:
    block_ids: Dict[Tuple, int] = {}
    class_of: Dict[MachineState, int] = {}
    for item in universe:
        key = signature[item]
        if key not in block_ids:
            block_ids[key] = len(block_ids)
        class_of[item] = block_ids[key]
    return class_of


def states_equivalent(
    a: ExplicitSTG, state_a: State, b: ExplicitSTG, state_b: State
) -> bool:
    """Paper Section II: same I/O behaviour from the two states."""
    classification = classify([a, b])
    return classification.equivalent((0, state_a), (1, state_b))


def space_contains(a: ExplicitSTG, b: ExplicitSTG) -> bool:
    """``a ⊇s b``: every state in ``b`` has at least one equivalent in ``a``."""
    classification = classify([a, b])
    available = set(classification.class_array(0))
    return all(cls in available for cls in classification.class_array(1))


def space_equivalent(a: ExplicitSTG, b: ExplicitSTG) -> bool:
    """``a ≡s b``: mutual space containment."""
    classification = classify([a, b])
    classes_a = set(classification.class_array(0))
    classes_b = set(classification.class_array(1))
    return classes_a == classes_b


def time_contains(a: ExplicitSTG, b: ExplicitSTG, steps: int) -> bool:
    """``a ⊇(steps)t b``: every state of ``b_steps`` has an equivalent in ``a``."""
    classification = classify([a, b])
    available = set(classification.class_array(0))
    classes_b = classification.class_array(1)
    after = b.states_after_bitset(steps)
    return all(
        classes_b[state_idx] in available for state_idx in b.iter_bitset_indices(after)
    )


def time_equivalence_bound(
    a: ExplicitSTG, b: ExplicitSTG, max_steps: int
) -> Optional[int]:
    """Least ``N <= max_steps`` with ``a ≡Nt b`` (None when not found).

    ``a ≡Nt b`` iff ``a ⊇Nt b`` and ``b ⊇Nt a``; containment is monotone in
    ``N`` (``K_i ⊇s K_{i+1}``), so the least bound is well defined.
    """
    classification = classify([a, b])
    classes_a = classification.class_array(0)
    classes_b = classification.class_array(1)
    available_a = set(classes_a)
    available_b = set(classes_b)
    for steps in range(max_steps + 1):
        classes_a_after = {
            classes_a[state_idx]
            for state_idx in a.iter_bitset_indices(a.states_after_bitset(steps))
        }
        classes_b_after = {
            classes_b[state_idx]
            for state_idx in b.iter_bitset_indices(b.states_after_bitset(steps))
        }
        if classes_b_after <= available_a and classes_a_after <= available_b:
            return steps
    return None


@dataclass(frozen=True)
class TimeEquivalenceCheck:
    """Outcome of :func:`check_time_equivalence`.

    ``found`` is the least ``N' <= bound`` with ``a ≡N't b``, or ``None``
    when the check could not run (``skipped`` says why).  ``visited``
    holds, per circuit, the size of its reset-reachable set, or ``None``
    where the full state space was enumerated.
    """

    bound: int
    found: Optional[int] = None
    visited: Tuple[Optional[int], Optional[int]] = (None, None)
    skipped: str = ""

    @property
    def checked(self) -> bool:
        """Lemma 2 was checked and held."""
        return self.found is not None

    @property
    def engine(self) -> str:
        """``"bitset"`` (full space), ``"reach"`` (reset-reachable) or
        ``"bitset+reach"`` (one of each); ``""`` when unverified."""
        if not self.checked:
            return ""
        names = {"bitset" if count is None else "reach" for count in self.visited}
        return "+".join(sorted(names))


def check_time_equivalence(
    a: Circuit, b: Circuit, bound: int
) -> TimeEquivalenceCheck:
    """Lemma 2 on two circuits: ``a ≡Nt b`` with ``N = bound``.

    Each circuit is extracted over its full state space when that fits the
    full-space cap, and over the states reachable from reset otherwise
    (reachability-bounded Lemma 2 on that side).  A circuit past both caps
    leaves the check unverified with the reason; a bound violation raises
    :class:`ValueError`.
    """
    # Looked up through the package at call time, so a rebinding of
    # ``repro.equivalence.extract_stg`` / ``time_equivalence_bound`` (the
    # e2e benchmark's tracer does this) sees these calls.
    from repro.equivalence import ReachableSTG, extract_stg, time_equivalence_bound

    def extract(circuit: Circuit):
        full = not _cap_violation(circuit, "bitset")
        return extract_stg(circuit, initial_states="all" if full else "reset")

    try:
        stgs = [extract(a), extract(b)]
    except StateSpaceTooLarge as error:
        return TimeEquivalenceCheck(bound, skipped=str(error))
    found = time_equivalence_bound(stgs[0], stgs[1], max_steps=bound)
    if found is None:
        raise ValueError(
            f"{a.name} and {b.name} are not {bound}-time-equivalent: "
            "Lemma 2 violated"
        )
    visited = tuple(
        stg.visited_states if isinstance(stg, ReachableSTG) else None for stg in stgs
    )
    return TimeEquivalenceCheck(bound, found, visited)


__all__ = [
    "StateClassification",
    "TimeEquivalenceCheck",
    "classify",
    "classify_reference",
    "states_equivalent",
    "space_contains",
    "space_equivalent",
    "time_contains",
    "time_equivalence_bound",
    "check_time_equivalence",
]
