"""Canonical serialization and content digest for circuits.

The artifact store (:mod:`repro.store`) addresses every derived artifact --
compiled stepper source, collapsed fault lists, ATPG results -- by the
identity of the circuit it was computed from.  Python object identity dies
with the process and raw node names are not stable across a BENCH
write/read round trip (primary outputs are renamed ``po_<driver>`` and
fanout stems are renumbered by emission order), so this module defines a
*canonical* serialization that is invariant under those renamings and
hashes it with SHA-256:

* primary inputs, gates and constants keep their names (the round trip
  preserves them);
* fanout stems are renamed top-down along each stem tree, ordering sibling
  stems by a structural fingerprint of their subtrees;
* primary outputs are renamed by the canonical name and register weight of
  their driving edge;
* edges are emitted as a sorted multiset, so edge *numbering* does not
  participate.

Two circuits share a digest exactly when they are isomorphic under stem/PO
renaming -- same interface, same gates, same register placement, hence the
same behaviour *and* the same fault universe up to line renumbering.
Artifacts that record :class:`~repro.circuit.netlist.LineRef` coordinates
additionally validate :func:`structural_identity` (a hash over the raw,
ordered edge list) before being trusted; see ``repro.store.artifacts``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.circuit.netlist import Circuit
from repro.circuit.types import NodeKind

#: Bump when the canonical serialization below changes shape; participates
#: in the artifact store's schema version (stale digests must not collide
#: with new ones).
DIGEST_VERSION = 1


def _stem_fingerprints(circuit: Circuit) -> Dict[str, str]:
    """A structural fingerprint per fanout stem, computed bottom-up.

    The fingerprint covers the stem's in-path (root driver plus the weight
    of every hop from it) and the sorted multiset of its sinks, recursing
    into sub-stems.  Stems with equal fingerprints are interchangeable:
    they hang off the same driver with identical weights and identical
    subtrees, so any consistent ordering of them yields the same canonical
    edge multiset.
    """
    nodes = circuit.nodes

    def is_stem(name: str) -> bool:
        return nodes[name].kind is NodeKind.FANOUT

    def in_path(stem: str) -> Tuple[str, Tuple[int, ...]]:
        weights: List[int] = []
        current = stem
        while True:
            edge = circuit.in_edges(current)[0]
            weights.append(edge.weight)
            if not is_stem(edge.source):
                return edge.source, tuple(reversed(weights))
            current = edge.source

    fingerprints: Dict[str, str] = {}

    def fingerprint(stem: str) -> str:
        cached = fingerprints.get(stem)
        if cached is not None:
            return cached
        sinks = []
        for edge in circuit.out_edges(stem):
            if is_stem(edge.sink):
                token = fingerprint(edge.sink)
            elif nodes[edge.sink].kind is NodeKind.OUTPUT:
                token = "<po>"
            else:
                token = edge.sink
            sinks.append(f"{token}@{edge.sink_pin}+{edge.weight}")
        root, weights = in_path(stem)
        fingerprints[stem] = (
            f"fo({root}/{','.join(map(str, weights))}|{';'.join(sorted(sinks))})"
        )
        return fingerprints[stem]

    for name in nodes:
        if is_stem(name):
            fingerprint(name)
    return fingerprints


def _canonical_names(circuit: Circuit) -> Dict[str, str]:
    """Canonical name per node: identity for inputs/gates/constants,
    fingerprint-ordered tree positions for stems, driver-derived names for
    primary outputs."""
    nodes = circuit.nodes
    fingerprints = _stem_fingerprints(circuit)
    canon: Dict[str, str] = {}
    for name, node in nodes.items():
        if node.kind not in (NodeKind.FANOUT, NodeKind.OUTPUT):
            canon[name] = name

    def assign_stems(parent: str, parent_canon: str) -> None:
        children = [
            edge.sink
            for edge in circuit.out_edges(parent)
            if nodes[edge.sink].kind is NodeKind.FANOUT
        ]
        for index, stem in enumerate(
            sorted(children, key=lambda s: fingerprints[s])
        ):
            canon[stem] = f"{parent_canon}#f{index}"
            assign_stems(stem, canon[stem])

    for name, node in nodes.items():
        if node.kind not in (NodeKind.FANOUT, NodeKind.OUTPUT):
            assign_stems(name, canon[name])

    po_keys = []
    for po in circuit.output_names:
        edge = circuit.in_edges(po)[0]
        po_keys.append(((canon[edge.source], edge.weight), po))
    # Ties share a driver and weight, making the outputs interchangeable;
    # the secondary sort on the raw name is only there for determinism
    # within one process and cannot affect the emitted multiset.
    for index, (_, po) in enumerate(sorted(po_keys)):
        canon[po] = f"<po:{index}>"
    return canon


def canonical_circuit_text(circuit: Circuit) -> str:
    """The canonical, name-stable serialization the digest hashes.

    Line one is a format tag carrying :data:`DIGEST_VERSION`; then one line
    per node (kind, canonical name, gate type) and one per edge (canonical
    endpoints, sink pin, register weight), each section sorted.  The
    circuit's display name is deliberately excluded: retiming helpers
    suffix names (``.easy``, ``.re``) without changing identity-relevant
    structure.
    """
    canon = _canonical_names(circuit)
    node_lines = sorted(
        f"n {node.kind.value} {canon[name]}"
        + (f" {node.gate_type.value}" if node.gate_type is not None else "")
        for name, node in circuit.nodes.items()
    )
    edge_lines = sorted(
        f"e {canon[edge.source]} {canon[edge.sink]} {edge.sink_pin} {edge.weight}"
        for edge in circuit.edges
    )
    return "\n".join([f"canon-circuit v{DIGEST_VERSION}"] + node_lines + edge_lines) + "\n"


def circuit_digest(circuit: Circuit) -> str:
    """SHA-256 hex digest of the canonical serialization.

    Stable across processes, BENCH round trips and circuit renames; cached
    on the instance (circuits are immutable by convention, and the cache is
    dropped by ``__getstate__`` alongside the compile cache).
    """
    cached = getattr(circuit, "_circuit_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(
        canonical_circuit_text(circuit).encode("utf-8")
    ).hexdigest()
    circuit._circuit_digest = digest
    return digest


def structural_identity(circuit: Circuit) -> str:
    """SHA-256 over the *raw* ordered structure (names, edge numbering).

    Unlike :func:`circuit_digest` this changes when edge indices or node
    names change, even behaviour-preservingly.  Store artifacts that carry
    edge-indexed coordinates (fault lists, test-set detections, stepper
    source with baked-in slot numbers) record it and are only loaded into a
    circuit whose raw structure matches exactly.  Cached on the instance
    like :func:`circuit_digest`.
    """
    cached = getattr(circuit, "_structural_identity", None)
    if cached is not None:
        return cached
    parts: List[str] = []
    for name in sorted(circuit.nodes):
        node = circuit.nodes[name]
        parts.append(
            f"n {node.kind.value} {name}"
            + (f" {node.gate_type.value}" if node.gate_type is not None else "")
        )
    for edge in circuit.edges:
        parts.append(f"e {edge.index} {edge.source} {edge.sink} {edge.sink_pin} {edge.weight}")
    identity = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    circuit._structural_identity = identity
    return identity


__all__ = [
    "DIGEST_VERSION",
    "canonical_circuit_text",
    "circuit_digest",
    "structural_identity",
]
