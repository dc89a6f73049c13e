"""Independent verification that one circuit is a retiming of another.

A release-grade safety net around the retiming engines: given two circuits
(and optionally the labels that supposedly relate them), check

1. **structure** -- identical vertices and edges (retiming only moves
   registers);
2. **labels** -- a labelling reproducing the weight difference exists; when
   not supplied it is *reconstructed* from the weights (weight differences

   determine labels up to a constant on each weakly-connected component,
   pinned to 0 at interface vertices);
3. **legality** -- all retimed weights non-negative, interface labels 0;
4. optionally, **Lemma 2's behavioural guarantee**: ``K ≡Nt K'`` with
   ``N = max(F_stem, B_stem)``, on the explicit state space
   (:func:`repro.equivalence.check_time_equivalence`).

Returns the reconstructed :class:`Retiming`, so callers get the prefix
lengths of Theorems 2-4 for *any* retimed netlist pair, not only pairs
produced by this library's optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuit.netlist import Circuit
from repro.faults.correspondence import check_same_structure
from repro.retiming.core import FIXED_KINDS, Retiming, RetimingError


@dataclass(frozen=True)
class RetimingVerification:
    """Outcome of :func:`verify_retiming`."""

    retiming: Retiming  # original -> retimed, reconstructed or validated
    time_equivalence_bound: int  # Lemma 2's N
    prefix_length_tests: int  # Theorems 3-4's |P|
    behaviour_checked: bool  # True when the STG-level check ran and held
    behaviour_engine: str = ""  # extraction(s) it ran on ("" if skipped)


def reconstruct_labels(original: Circuit, retimed: Circuit) -> Dict[str, int]:
    """Recover the retiming labels from two structurally equal circuits.

    Propagates ``r(sink) = r(source) + (w'(e) - w(e))`` over the edge set
    from the interface vertices (pinned at 0); raises
    :class:`RetimingError` when the weight differences are inconsistent
    (i.e. the pair is *not* related by any retiming) or a component has no
    interface anchor.
    """
    check_same_structure(original, retimed)
    delta = {
        edge.index: retimed.edges[edge.index].weight - edge.weight
        for edge in original.edges
    }
    labels: Dict[str, int] = {}
    for name, node in original.nodes.items():
        if node.kind in FIXED_KINDS:
            labels[name] = 0
    frontier = list(labels)
    adjacency: Dict[str, list] = {name: [] for name in original.nodes}
    for edge in original.edges:
        # r(sink) - r(source) = delta(e)
        adjacency[edge.source].append((edge.sink, delta[edge.index]))
        adjacency[edge.sink].append((edge.source, -delta[edge.index]))
    while frontier:
        name = frontier.pop()
        for neighbour, difference in adjacency[name]:
            value = labels[name] + difference
            if neighbour in labels:
                if labels[neighbour] != value:
                    raise RetimingError(
                        f"weight differences are inconsistent at {neighbour!r}: "
                        "the circuits are not related by a retiming"
                    )
            else:
                labels[neighbour] = value
                frontier.append(neighbour)
    unanchored = set(original.nodes) - set(labels)
    if unanchored:
        # Isolated components without interface vertices: any constant
        # works; pick the one implied by an arbitrary member = 0 and
        # re-propagate for consistency.
        raise RetimingError(
            f"vertices {sorted(unanchored)[:4]} are not connected to the "
            "interface; cannot anchor their labels"
        )
    return {name: value for name, value in labels.items() if value != 0}


def verify_retiming(
    original: Circuit,
    retimed: Circuit,
    labels: Optional[Dict[str, int]] = None,
    check_behaviour: bool = False,
) -> RetimingVerification:
    """Verify that ``retimed`` is a legal retiming of ``original``.

    ``check_behaviour`` adds Lemma 2 through
    :func:`~repro.equivalence.check_time_equivalence`: a machine past the
    full-space cap is checked over its reset-reachable states, and a pair
    past both caps skips the check (``behaviour_checked`` stays False)
    rather than failing.

    Raises :class:`RetimingError` (structure/label/legality problems) or
    :class:`ValueError` on behavioural mismatch.
    """
    if labels is None:
        labels = reconstruct_labels(original, retimed)
    retiming = Retiming(original, labels)
    if retiming.retimed_weights() != retimed.weights():
        raise RetimingError("labels do not reproduce the retimed weights")
    if not retiming.is_legal():
        raise RetimingError(
            f"illegal weights on edges {retiming.illegal_edges()[:5]}"
        )
    bound = retiming.time_equivalence_bound()

    behaviour = None
    if check_behaviour:
        from repro.equivalence import check_time_equivalence

        behaviour = check_time_equivalence(original, retimed, bound)

    return RetimingVerification(
        retiming=retiming,
        time_equivalence_bound=bound,
        prefix_length_tests=retiming.max_forward_moves(),
        behaviour_checked=behaviour is not None and behaviour.checked,
        behaviour_engine=behaviour.engine if behaviour is not None else "",
    )


__all__ = ["verify_retiming", "reconstruct_labels", "RetimingVerification"]
