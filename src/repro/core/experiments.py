"""Drivers for the paper's experiments (Tables I-III, Fig. 6).

This module owns the experiment configuration shared by the benchmark
harness and the examples: the sixteen Table II circuit variants, the
retiming recipe producing each ``.re`` circuit, and the row computations
for each table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import AtpgResult, run_atpg
from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faultsim import fault_simulate
from repro.fsm.mcnc import synthesize_benchmark
from repro.retiming.core import Retiming
from repro.retiming.performance import performance_retiming
from repro.testset.model import TestSet
from repro.testset.transform import derive_retimed_test_set


@dataclass(frozen=True)
class CircuitSpec:
    """One Table II circuit variant."""

    fsm: str
    style: str  # ji / jo / jc
    script: str  # delay / rugged
    forward_stem_moves: int  # 1 for the three circuits the paper names

    @property
    def name(self) -> str:
        code = "sd" if self.script == "delay" else "sr"
        return f"{self.fsm}.{self.style}.{code}"


# The sixteen circuits of Tables II and III.  The paper reports exactly one
# forward retiming move for pma.jo.sd, s510.jc.sd and scf.jo.sd and none
# for the rest (Section V.C).
TABLE2_CIRCUITS: Tuple[CircuitSpec, ...] = (
    CircuitSpec("dk16", "ji", "delay", 0),
    CircuitSpec("pma", "jo", "delay", 1),
    CircuitSpec("s510", "jc", "delay", 1),
    CircuitSpec("s510", "jc", "rugged", 0),
    CircuitSpec("s510", "ji", "delay", 0),
    CircuitSpec("s510", "ji", "rugged", 0),
    CircuitSpec("s510", "jo", "rugged", 0),
    CircuitSpec("s820", "jc", "delay", 0),
    CircuitSpec("s820", "jc", "rugged", 0),
    CircuitSpec("s820", "ji", "rugged", 0),
    CircuitSpec("s820", "jo", "delay", 0),
    CircuitSpec("s820", "jo", "rugged", 0),
    CircuitSpec("s832", "jc", "rugged", 0),
    CircuitSpec("s832", "jo", "rugged", 0),
    CircuitSpec("scf", "ji", "delay", 0),
    CircuitSpec("scf", "jo", "delay", 1),
)


@dataclass
class CircuitPair:
    """An original circuit and its performance-retimed version."""

    spec: CircuitSpec
    original: Circuit
    retimed: Circuit
    retiming: Retiming  # original -> retimed

    @property
    def prefix_length(self) -> int:
        return self.retiming.max_forward_moves()


_pair_cache: Dict[CircuitSpec, CircuitPair] = {}


def synthesize_original(
    spec: CircuitSpec, store=None, pin=None
) -> Tuple[Circuit, str, Optional[str]]:
    """Synthesize one variant, store-backed.

    Returns ``(circuit, cache, key)`` where ``cache`` is the store
    disposition (``hit`` / ``miss`` / ``off``).  The netlist artifact keeps
    the exact graph, so a store hit reproduces node names and edge
    numbering bit-for-bit -- downstream fault coordinates depend on it.
    ``pin`` (a journal's ``artifact_ref``) is forwarded to the store so
    the record is pinned inside its shard lock, atomically with the
    read or write.
    """
    from repro.store.artifacts import circuit_from_payload, circuit_payload

    key = None
    if store is not None:
        key = store.key("synth", spec.fsm, spec.style, spec.script)
        payload = store.get("netlist", key, pin=pin)
        if payload is not None:
            circuit = circuit_from_payload(payload)
            if circuit is not None:
                return circuit, "hit", key
    circuit = synthesize_benchmark(spec.fsm, spec.style, spec.script).circuit
    if store is not None:
        store.put("netlist", key, circuit_payload(circuit), pin=pin)
        return circuit, "miss", key
    return circuit, "off", key


def retime_pair(
    spec: CircuitSpec, original: Circuit, store=None, pin=None
) -> Tuple[Circuit, Retiming, str, Optional[str]]:
    """The register-rich performance retiming of one variant, store-backed.

    The number of backward redistribution passes is chosen adaptively so
    the retimed flip-flop count lands in the paper's 2-6x growth band.
    Returns ``(retimed, retiming, cache, key)``.
    """
    from repro.circuit.digest import circuit_digest, structural_identity
    from repro.store.artifacts import (
        circuit_from_payload,
        circuit_payload,
        retiming_from_payload,
        retiming_payload,
    )

    key = None
    if store is not None:
        key = store.key(
            "pair",
            circuit_digest(original),
            structural_identity(original),
            spec.forward_stem_moves,
        )
        payload = store.get("pair", key, pin=pin)
        if payload is not None:
            try:
                retimed = circuit_from_payload(payload["circuit"])
                retiming = retiming_from_payload(payload["retiming"], original)
            except (KeyError, TypeError):
                retimed = retiming = None
            if retimed is not None and retiming is not None:
                return retimed, retiming, "hit", key
    target_low = 2 * original.num_registers()
    target_high = 6 * original.num_registers()
    chosen = None
    fallback = None
    for passes in (3, 2, 1):
        result = performance_retiming(
            original,
            backward_passes=passes,
            forward_stem_moves=spec.forward_stem_moves,
        )
        count = result.retimed_circuit.num_registers()
        if target_low <= count <= target_high:
            chosen = result
            break
        if fallback is None or abs(count - 4 * original.num_registers()) < abs(
            fallback.retimed_circuit.num_registers() - 4 * original.num_registers()
        ):
            fallback = result
    result = chosen if chosen is not None else fallback
    if store is not None:
        store.put(
            "pair",
            key,
            {
                "circuit": circuit_payload(result.retimed_circuit),
                "retiming": retiming_payload(result.retiming),
            },
            pin=pin,
        )
        return result.retimed_circuit, result.retiming, "miss", key
    return result.retimed_circuit, result.retiming, "off", key


def build_pair(
    spec: CircuitSpec, use_cache: bool = True, store="default"
) -> CircuitPair:
    """Synthesize one variant and its register-rich retimed version.

    Two cache levels: the in-process ``_pair_cache`` (object identity,
    free) and, beneath it, the persistent artifact store -- a fresh
    process re-materializes a previously built pair from netlist and
    retiming records instead of re-running synthesis and the retiming
    sweep.  ``store`` defaults to the process-wide store (pass ``None``
    to force recomputation without persistence).
    """
    if use_cache and spec in _pair_cache:
        return _pair_cache[spec]
    if store == "default":
        from repro.store.core import default_store

        store = default_store()
    original, _cache, _key = synthesize_original(spec, store=store)
    retimed, retiming, _cache, _key = retime_pair(spec, original, store=store)
    pair = CircuitPair(
        spec=spec, original=original, retimed=retimed, retiming=retiming
    )
    if use_cache:
        _pair_cache[spec] = pair
    return pair


def table2_row(
    pair: CircuitPair,
    budget: Optional[AtpgBudget] = None,
) -> Tuple[Dict[str, object], AtpgResult, AtpgResult]:
    """One Table II row: ATPG on the original and the retimed circuit."""
    if budget is None:
        budget = AtpgBudget()
    original_result = run_atpg(pair.original, budget=budget)
    retimed_result = run_atpg(pair.retimed, budget=budget)
    effort_original = max(original_result.cpu_seconds, 1e-9)
    row = {
        "Circuit": pair.spec.name,
        "#DFF": pair.original.num_registers(),
        "%FC": original_result.fault_coverage,
        "%FE": original_result.fault_efficiency,
        "CPU": round(original_result.cpu_seconds, 2),
        "#DFF.re": pair.retimed.num_registers(),
        "%FC.re": retimed_result.fault_coverage,
        "%FE.re": retimed_result.fault_efficiency,
        "CPU.re": round(retimed_result.cpu_seconds, 2),
        "CPU Ratio": retimed_result.cpu_seconds / effort_original,
    }
    return row, original_result, retimed_result


def table3_row(
    pair: CircuitPair, test_set: TestSet
) -> Dict[str, object]:
    """One Table III row: fault-simulate T on K and the derived P+T on K'."""
    derived = derive_retimed_test_set(test_set, pair.retiming)
    original_faults = collapse_faults(pair.original).representatives
    retimed_faults = collapse_faults(pair.retimed).representatives
    original_sim = fault_simulate(
        pair.original, test_set.as_lists(), original_faults
    )
    retimed_sim = fault_simulate(pair.retimed, derived.as_lists(), retimed_faults)
    return {
        "Circuit": pair.spec.name,
        "#Faults": original_sim.num_faults,
        "#UnDet": original_sim.num_undetected,
        "#Faults.re": retimed_sim.num_faults,
        "#UnDet.re": retimed_sim.num_undetected,
        "prefix": pair.prefix_length,
    }


__all__ = [
    "CircuitSpec",
    "CircuitPair",
    "TABLE2_CIRCUITS",
    "build_pair",
    "retime_pair",
    "synthesize_original",
    "table2_row",
    "table3_row",
]
