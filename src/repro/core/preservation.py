"""The paper's headline contribution as a library API.

Ties together the retiming engine, the prefix theorems and the fault
machinery:

* :func:`preservation_plan` -- given a retiming, report everything the
  theorems promise: prefix lengths (Theorems 2-4), the time-equivalence
  bound (Lemma 2), and the fault correspondence;
* :func:`derive_test_set` -- Theorem 4's ``P ∪ T`` construction;
* :func:`verify_preservation` -- empirical validation: fault-simulate ``T``
  on ``K`` and ``P ∪ T`` on ``K'`` and check that every detected original
  fault's corresponding retimed faults are detected (up to the
  register-split effect the paper describes in Section V.C).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.correspondence import FaultCorrespondence
from repro.faults.model import StuckAtFault
from repro.faultsim import fault_simulate
from repro.retiming.core import Retiming
from repro.retiming.prefix import (
    prefix_length_for_sync,
    prefix_length_for_tests,
)
from repro.testset.model import TestSet
from repro.testset.transform import derive_retimed_test_set


@dataclass(frozen=True)
class PreservationPlan:
    """What the theorems guarantee for one retiming."""

    original_name: str
    retimed_name: str
    prefix_length_tests: int  # Theorems 3-4 (any node)
    prefix_length_sync: int  # Theorem 2 (fanout stems)
    time_equivalence_bound: int  # Lemma 2: N = max(F_stem, B_stem)
    forward_moves: int
    backward_moves: int

    def describe(self) -> str:
        return (
            f"{self.original_name} -> {self.retimed_name}: "
            f"prefix |P| = {self.prefix_length_tests} arbitrary vectors "
            f"(sync-only: {self.prefix_length_sync}); "
            f"K =={self.time_equivalence_bound}t K'"
        )


def preservation_plan(retiming: Retiming, retimed: Optional[Circuit] = None) -> PreservationPlan:
    """Summarize the theorem guarantees for a retiming."""
    retimed_name = retimed.name if retimed is not None else f"{retiming.circuit.name}.re"
    return PreservationPlan(
        original_name=retiming.circuit.name,
        retimed_name=retimed_name,
        prefix_length_tests=prefix_length_for_tests(retiming),
        prefix_length_sync=prefix_length_for_sync(retiming),
        time_equivalence_bound=retiming.time_equivalence_bound(),
        forward_moves=retiming.max_forward_moves(),
        backward_moves=retiming.max_backward_moves(),
    )


def derive_test_set(
    test_set: TestSet,
    retiming: Retiming,
    rng: Optional[random.Random] = None,
) -> TestSet:
    """Theorem 4: the derived test set ``P ∪ T`` for the retimed circuit."""
    return derive_retimed_test_set(test_set, retiming, rng=rng)


@dataclass
class PreservationReport:
    """Result of empirically validating Theorem 4 on a circuit pair."""

    plan: PreservationPlan
    original_faults: int
    original_detected: int
    retimed_faults: int
    retimed_detected: int
    missed: List[StuckAtFault] = field(default_factory=list)
    explained_by_register_split: List[StuckAtFault] = field(default_factory=list)
    time_equivalence_checked: bool = False  # Lemma 2 STG check ran and held
    time_equivalence_engine: str = ""  # extraction(s) it ran on ("" if skipped)

    @property
    def holds(self) -> bool:
        """True when every miss is explained by the paper's split effect."""
        return not self.missed


def verify_preservation(
    original: Circuit,
    retiming: Retiming,
    test_set: TestSet,
    retimed: Optional[Circuit] = None,
    engine: str = "parallel",
    check_time_equivalence: bool = False,
) -> PreservationReport:
    """Empirically check Theorem 4 on a test set.

    For every collapsed fault of the retimed circuit whose corresponding
    original-circuit faults include one detected by ``T``, the derived
    test set must detect it -- except for faults whose *entire*
    corresponding class in the original went undetected (the register
    split/merge effect of Section V.C: those are expected misses and are
    reported separately).

    With ``check_time_equivalence=True`` the report additionally validates
    Lemma 2 (``K ≡Nt K'`` with the plan's bound) through
    :func:`~repro.equivalence.check_time_equivalence`: a machine past the
    full-space cap is checked over its reset-reachable states, a pair past
    both caps leaves ``time_equivalence_checked`` False, and a bound
    violation raises :class:`ValueError`.  ``time_equivalence_engine``
    records the extraction(s) the check ran on.
    """
    retimed_circuit = retimed if retimed is not None else retiming.apply()
    correspondence = FaultCorrespondence(original, retimed_circuit)
    plan = preservation_plan(retiming, retimed_circuit)
    derived = derive_test_set(test_set, retiming)

    collapsed_original = collapse_faults(original)
    original_faults = collapsed_original.representatives
    retimed_faults = collapse_faults(retimed_circuit).representatives
    result_original = fault_simulate(
        original, test_set.as_lists(), original_faults, engine=engine
    )
    result_retimed = fault_simulate(
        retimed_circuit, derived.as_lists(), retimed_faults, engine=engine
    )
    detected_original: Set[StuckAtFault] = set(result_original.detections)
    # Extend detection over full equivalence classes (a representative's
    # detection covers its whole class).
    detected_closure: Set[StuckAtFault] = {
        fault
        for fault, rep in collapsed_original.class_of.items()
        if rep in detected_original
    }

    report = PreservationReport(
        plan=plan,
        original_faults=len(original_faults),
        original_detected=len(detected_original),
        retimed_faults=len(retimed_faults),
        retimed_detected=result_retimed.num_detected,
    )
    if check_time_equivalence:
        from repro import equivalence

        check = equivalence.check_time_equivalence(
            original, retimed_circuit, plan.time_equivalence_bound
        )
        report.time_equivalence_checked = check.checked
        report.time_equivalence_engine = check.engine
    for fault in retimed_faults:
        if fault in result_retimed.detections:
            continue
        corresponding = correspondence.originals_of(fault)
        if any(c in detected_closure for c in corresponding):
            report.missed.append(fault)
        else:
            report.explained_by_register_split.append(fault)
    return report


__all__ = [
    "PreservationPlan",
    "preservation_plan",
    "derive_test_set",
    "PreservationReport",
    "verify_preservation",
]
