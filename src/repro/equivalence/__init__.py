"""Explicit state-space analysis: the paper's Section II machinery.

STG extraction (including faulty machines) over the full state space or
the states reachable from a start set, state equivalence via joint
partition refinement, space/time containment and equivalence relations,
the Lemma 2 check (:func:`check_time_equivalence`), and structural/
functional synchronizing sequences.

Extraction, classification and the functional sync-sequence searches run
on bit-packed tables (built by lane-parallel simulation, state sets as int
bitsets).  The scalar seed implementations stay as named oracles --
:func:`~repro.equivalence.explicit.extract_stg_reference`,
:func:`~repro.equivalence.relations.classify_reference` and the
``*_reference`` searches in :mod:`repro.equivalence.syncseq` -- that the
parity suite holds the fast paths to.
"""

from repro.equivalence.explicit import (
    ENGINE_LIMITS,
    EngineLimits,
    ExplicitSTG,
    STG_FORMAT_VERSION,
    StateSpaceTooLarge,
    all_vectors,
    extract_stg,
)
from repro.equivalence.reach import REACH_FORMAT_VERSION, ReachableSTG
from repro.equivalence.relations import (
    StateClassification,
    TimeEquivalenceCheck,
    check_time_equivalence,
    classify,
    space_contains,
    space_equivalent,
    states_equivalent,
    time_contains,
    time_equivalence_bound,
)
from repro.equivalence.syncseq import (
    covered_states,
    find_functional_sync_sequence,
    find_structural_sync_sequence,
    functional_final_states,
    is_functional_sync_sequence,
    is_structural_sync_sequence,
    structural_final_state,
    synchronizes_up_to_equivalence,
)

__all__ = [
    "ExplicitSTG",
    "ReachableSTG",
    "EngineLimits",
    "ENGINE_LIMITS",
    "STG_FORMAT_VERSION",
    "REACH_FORMAT_VERSION",
    "extract_stg",
    "all_vectors",
    "StateSpaceTooLarge",
    "classify",
    "StateClassification",
    "states_equivalent",
    "space_contains",
    "space_equivalent",
    "time_contains",
    "time_equivalence_bound",
    "check_time_equivalence",
    "TimeEquivalenceCheck",
    "is_structural_sync_sequence",
    "synchronizes_up_to_equivalence",
    "covered_states",
    "structural_final_state",
    "find_structural_sync_sequence",
    "is_functional_sync_sequence",
    "functional_final_states",
    "find_functional_sync_sequence",
]
