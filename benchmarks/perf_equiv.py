"""Equivalence-extraction performance harness.

Times three legs on extraction, state classification and functional
sync-sequence search, and writes the results to ``BENCH_equiv.json``:

* ``reference`` -- the scalar oracles (``extract_stg_reference``'s
  per-state ``SequentialSimulator`` sweeps, ``classify_reference``'s dict
  refinement, the frozenset BFS);
* ``bitset`` -- the full state space (``extract_stg``: all ``2^r`` states
  as lanes of one compiled step, array refinement, integer-bitset BFS);
* ``reach`` -- the reset-reachable set (``extract_stg(initial_states=
  "reset")``: BFS frontier expansion from the reset state, one compiled
  sweep per frontier level).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf_equiv --quick
    PYTHONPATH=src python -m benchmarks.perf_equiv --full -o BENCH_equiv.json

Every row cross-checks the legs -- identical transition tables and
classification block ids on the reference/bitset pair, restricted-table
agreement between the reach leg and the full space's reset-reachable
set, bigint/numpy word-backend identity on the reach legs -- so a
benchmark run is also an end-to-end parity check.  Rows past the
full-space 18-register cap (the ``ring`` workloads) carry
``bitset_rejected: true`` and only the reach legs; they are excluded from
the speedup statistics.  Each row records the parameters needed to
regenerate its circuit (``circuit_from_params``), which is how
``benchmarks.perf_guard --equiv-baseline`` re-measures the bitset and
reach legs against a committed baseline.

This module is *not* collected by pytest (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import random
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit import Circuit, CircuitBuilder, GateType
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.equivalence import (
    ENGINE_LIMITS,
    StateSpaceTooLarge,
    classify,
    extract_stg,
    find_functional_sync_sequence,
)
from repro.equivalence.explicit import extract_stg_reference
from repro.equivalence.relations import classify_reference
from repro.equivalence.syncseq import find_functional_sync_sequence_reference
from repro.simulation import clear_compile_cache
from repro.simulation.backends import numpy_available

# Sync-search budgets, shared by every leg so cutoffs are comparable.
SYNC_MAX_LENGTH = 6
SYNC_MAX_VISITED = 2_000

QUICK_PARAMS: Tuple[Dict[str, object], ...] = (
    {"kind": "table2", "spec": "dk16.ji.sd", "variant": "original"},
    {"kind": "random", "seed": 7, "num_inputs": 3, "num_gates": 30, "num_dffs": 8},
    {"kind": "random", "seed": 11, "num_inputs": 4, "num_gates": 45, "num_dffs": 10},
    {"kind": "ring", "width": 12},
    {"kind": "ring", "width": 28},  # past the full-space cap: reach legs only
)
FULL_EXTRA_PARAMS: Tuple[Dict[str, object], ...] = (
    {"kind": "random", "seed": 13, "num_inputs": 4, "num_gates": 60, "num_dffs": 12},
    {"kind": "table2", "spec": "pma.jo.sd", "variant": "original"},
    {"kind": "ring", "width": 16},
)


def _workload_random_circuit(
    seed: int, num_inputs: int, num_gates: int, num_dffs: int
) -> Circuit:
    """A deterministic random sequential circuit for benchmark workloads.

    Gates draw operands from earlier signals plus the registered feedback
    names, so the circuit is sequential with feedback and free of
    combinational cycles; dangling signals are attached to extra outputs
    to keep the netlist strictly valid.
    """
    rng = random.Random(seed)
    builder = CircuitBuilder(f"bench_rand{seed}_{num_dffs}d{num_inputs}i")
    inputs = [builder.input(f"i{k}") for k in range(num_inputs)]
    dff_names = [f"q{k}" for k in range(num_dffs)]
    available = inputs + dff_names
    gate_types = [
        GateType.AND,
        GateType.OR,
        GateType.NAND,
        GateType.NOR,
        GateType.XOR,
        GateType.NOT,
    ]
    gates: List[str] = []
    used = set()
    for k in range(num_gates):
        gate_type = rng.choice(gate_types)
        arity = 1 if gate_type is GateType.NOT else rng.randint(2, 3)
        operands = [rng.choice(available) for _ in range(arity)]
        used.update(operands)
        name = f"g{k}"
        builder.gate(name, gate_type, operands)
        gates.append(name)
        available.append(name)
    if len(gates) < num_dffs:
        raise ValueError("need at least as many gates as flip-flops")
    sources = rng.sample(gates, num_dffs)
    for name, source in zip(dff_names, sources):
        builder.dff(name, source)
        used.add(source)
    observed = set()
    for k in range(2):
        choice = rng.choice(gates)
        builder.output(f"z{k}", choice)
        observed.add(choice)
    extra = 0
    for signal in gates + dff_names:
        if signal not in used and signal not in observed:
            builder.output(f"zx{extra}", signal)
            observed.add(signal)
            extra += 1
    return builder.build()


def _workload_token_ring(width: int) -> Circuit:
    """A one-hot token ring with synchronous reset: ``width`` flip-flops
    but only ``width + 1`` reset-reachable states (empty + one-hots).

    The sparse-reachability workload for the reach leg: at widths past
    18 registers the full-space extraction rejects the circuit outright,
    while the reset-reachable BFS visits a vanishing fraction of
    ``2^width``.
    """
    builder = CircuitBuilder(f"bench_ring{width}")
    builder.input("rst")
    builder.input("start")
    builder.not_("go", "rst")
    qs = [f"q{i}" for i in range(width)]
    level = list(qs)
    k = 0
    while len(level) > 1:
        paired = []
        for i in range(0, len(level) - 1, 2):
            paired.append(builder.or_(f"ort{k}", level[i], level[i + 1]))
            k += 1
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    builder.not_("none_token", level[0])
    builder.and_("inj", "start", "none_token")
    builder.or_("n0", "inj", qs[-1])
    builder.and_("d0", "go", "n0")
    builder.dff(qs[0], "d0")
    for i in range(1, width):
        builder.and_(f"d{i}", "go", qs[i - 1])
        builder.dff(qs[i], f"d{i}")
    builder.buf("zbuf", qs[-1])
    builder.output("z", "zbuf")
    return builder.build()


def circuit_from_params(params: Dict[str, object]) -> Circuit:
    """Regenerate a benchmark-row circuit from its recorded parameters."""
    kind = params["kind"]
    if kind == "table2":
        spec = next(s for s in TABLE2_CIRCUITS if s.name == params["spec"])
        pair = build_pair(spec)
        return pair.retimed if params["variant"] == "retimed" else pair.original
    if kind == "random":
        return _workload_random_circuit(
            int(params["seed"]),
            int(params["num_inputs"]),
            int(params["num_gates"]),
            int(params["num_dffs"]),
        )
    if kind == "ring":
        return _workload_token_ring(int(params["width"]))
    raise ValueError(f"unknown workload kind {kind!r}")


def _time(fn, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def time_engine_leg(
    circuit: Circuit, leg: str, repeats: int, backend: str = "auto"
) -> Tuple[Dict[str, float], object, object, object]:
    """(timings, stg, classification, sequence) for one leg on one row:
    ``"reference"`` (the scalar oracles), ``"bitset"`` (full space) or
    ``"reach"`` (reset-reachable set)."""
    if leg == "reference":
        extract = functools.partial(extract_stg_reference, circuit)
        classifier = classify_reference
        search = find_functional_sync_sequence_reference
    else:
        extract = functools.partial(
            extract_stg,
            circuit,
            use_store=False,
            backend=backend,
            initial_states="reset" if leg == "reach" else "all",
        )
        classifier, search = classify, find_functional_sync_sequence
    extract_s, stg = _time(extract, repeats)
    classify_s, classification = _time(lambda: classifier([stg]), repeats)
    sync_s, sequence = _time(
        lambda: search(
            stg,
            max_length=SYNC_MAX_LENGTH,
            max_visited=SYNC_MAX_VISITED,
            classification=classification,
        ),
        repeats,
    )
    timings = {
        "extract_s": extract_s,
        "classify_s": classify_s,
        "sync_s": sync_s,
        "total_s": extract_s + classify_s + sync_s,
    }
    return timings, stg, classification, sequence


def _assert_restricted_parity(bit_stg, rch_stg, circuit_name: str) -> None:
    """The reach tables must be the full-space tables restricted to the
    reset-reachable set, entry for entry."""
    zeros = (0,) * len(bit_stg.states[0])
    if set(rch_stg.states) != set(bit_stg.reachable_from(zeros)):
        raise AssertionError(f"reach visited set differs on {circuit_name}")
    bit_index = {state: k for k, state in enumerate(bit_stg.states)}
    rch_index = {state: k for k, state in enumerate(rch_stg.states)}
    for v in range(len(bit_stg.alphabet)):
        bit_next, rch_next = bit_stg.next_index[v], rch_stg.next_index[v]
        bit_out, rch_out = bit_stg.output_index[v], rch_stg.output_index[v]
        for state in rch_stg.states:
            b, r = bit_index[state], rch_index[state]
            successor = bit_stg.states[bit_next[b]]
            if rch_next[r] != rch_index[successor] or rch_out[r] != bit_out[b]:
                raise AssertionError(
                    f"reach table restriction differs on {circuit_name}"
                )


def bench_row(params: Dict[str, object], repeats: int) -> Dict[str, object]:
    """One benchmark row: every in-cap leg on one circuit, parity
    asserted.  Rows past the full-space cap get ``bitset_rejected: true``
    and carry only the reach legs."""
    circuit = circuit_from_params(params)
    row: Dict[str, object] = {
        "circuit": circuit.name,
        "params": params,
        "num_gates": circuit.num_gates(),
        "num_dffs": circuit.num_registers(),
        "num_inputs": len(circuit.input_names),
    }

    bit = bit_stg = None
    if circuit.num_registers() <= ENGINE_LIMITS["bitset"].registers:
        # The scalar oracle costs O(states x vectors x circuit) per repeat;
        # best-of-1 keeps the harness bounded while the compiled legs
        # still get warm-cache best-of-``repeats``.
        ref, ref_stg, ref_cls, ref_seq = time_engine_leg(circuit, "reference", 1)
        bit, bit_stg, bit_cls, bit_seq = time_engine_leg(
            circuit, "bitset", repeats
        )
        parity = (
            ref_stg.next_index == bit_stg.next_index
            and ref_stg.output_index == bit_stg.output_index
            and ref_cls.class_of == bit_cls.class_of
            and ref_seq == bit_seq
        )
        if not parity:
            raise AssertionError(f"oracle parity violated on {circuit.name}")
        row.update(
            {
                "num_states": len(bit_stg.states),
                "num_vectors": len(bit_stg.alphabet),
                "num_classes": len(set(bit_cls.class_array(0))),
                "sync_length": None if bit_seq is None else len(bit_seq),
                "reference": {k: round(v, 4) for k, v in ref.items()},
                "bitset": {k: round(v, 4) for k, v in bit.items()},
                "speedup_extract": round(
                    ref["extract_s"] / max(bit["extract_s"], 1e-9), 2
                ),
                "speedup_classify": round(
                    ref["classify_s"] / max(bit["classify_s"], 1e-9), 2
                ),
                "speedup_sync": round(ref["sync_s"] / max(bit["sync_s"], 1e-9), 2),
                "speedup_total": round(
                    ref["total_s"] / max(bit["total_s"], 1e-9), 2
                ),
                "parity": parity,
            }
        )
    else:
        try:
            extract_stg(circuit, use_store=False)
        except StateSpaceTooLarge:
            row["bitset_rejected"] = True
        else:
            raise AssertionError(
                f"{circuit.name} was expected to be past the full-space cap"
            )

    rch, rch_stg, rch_cls, rch_seq = time_engine_leg(
        circuit, "reach", repeats, backend="bigint"
    )
    row.update(
        {
            "reach": {k: round(v, 4) for k, v in rch.items()},
            "visited_states": rch_stg.visited_states,
            "peak_frontier": rch_stg.peak_frontier,
            "reach_levels": rch_stg.levels,
            "total_states": rch_stg.total_states,
            "reach_classes": len(set(rch_cls.class_array(0))),
            "reach_sync_length": None if rch_seq is None else len(rch_seq),
        }
    )
    if numpy_available():
        npy, npy_stg, _, _ = time_engine_leg(
            circuit, "reach", repeats, backend="numpy"
        )
        if (
            npy_stg.states != rch_stg.states
            or npy_stg.next_index != rch_stg.next_index
            or npy_stg.output_index != rch_stg.output_index
        ):
            raise AssertionError(
                f"reach backend parity violated on {circuit.name}"
            )
        row["reach_numpy"] = {k: round(v, 4) for k, v in npy.items()}

    reach_parity = True
    if bit_stg is not None:
        if rch_stg.num_registers == circuit.num_registers():
            _assert_restricted_parity(bit_stg, rch_stg, circuit.name)
        else:
            # A non-identity cone relocates the state bits; count checks
            # still apply but tuple-level restriction does not.
            reach_parity = rch_stg.visited_states <= len(bit_stg.states)
        row["speedup_reach_extract"] = round(
            bit["extract_s"] / max(rch["extract_s"], 1e-9), 2
        )
        row["speedup_reach_total"] = round(
            bit["total_s"] / max(rch["total_s"], 1e-9), 2
        )
    row["reach_parity"] = reach_parity
    return row


def run(args: argparse.Namespace) -> Dict[str, object]:
    from benchmarks.provenance import open_bench_journal, provenance_meta

    clear_compile_cache()
    journal = open_bench_journal("bench-equiv")
    if journal is not None:
        journal.event("run_start", mode="full" if args.full else "quick")
    workload = QUICK_PARAMS + (FULL_EXTRA_PARAMS if args.full else ())
    rows: List[Dict[str, object]] = []
    for params in workload:
        print(f"  {params} ...", flush=True)
        row = bench_row(params, args.repeats)
        rows.append(row)
        if row.get("bitset_rejected"):
            print(
                f"    {row['circuit']}: bitset rejected, reach "
                f"{row['reach']['total_s']}s "
                f"({row['visited_states']} of {row['total_states']} states)",
                flush=True,
            )
        else:
            print(
                f"    {row['circuit']}: reference {row['reference']['total_s']}s, "
                f"bitset {row['bitset']['total_s']}s "
                f"({row['speedup_total']}x total, "
                f"{row['speedup_extract']}x extract), "
                f"reach {row['reach']['total_s']}s "
                f"({row['visited_states']} of {row['total_states']} states)",
                flush=True,
            )
    paired = [r for r in rows if "speedup_total" in r]
    totals = [row["speedup_total"] for row in paired]
    reach_totals = [r["speedup_reach_total"] for r in rows if "speedup_reach_total" in r]
    report = {
        "meta": {
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "mode": "full" if args.full else "quick",
            "workload": {
                "repeats": args.repeats,
                "sync_max_length": SYNC_MAX_LENGTH,
                "sync_max_visited": SYNC_MAX_VISITED,
            },
            **provenance_meta(journal),
        },
        "circuits": rows,
        "summary": {
            "min_speedup_total": min(totals),
            "geomean_speedup_total": round(statistics.geometric_mean(totals), 2),
            "max_speedup_total": max(totals),
            "geomean_speedup_extract": round(
                statistics.geometric_mean(r["speedup_extract"] for r in paired), 2
            ),
            # reach vs bitset where both ran; >1 means the frontier BFS beat
            # full 2^r enumeration (expected on sparse-reachability rows).
            "geomean_speedup_reach_total": round(
                statistics.geometric_mean(reach_totals), 2
            )
            if reach_totals
            else None,
            "bitset_rejected_rows": sum(
                1 for r in rows if r.get("bitset_rejected")
            ),
            "all_engines_agree": all(r["parity"] for r in paired)
            and all(row["reach_parity"] for row in rows),
        },
    }
    if journal is not None:
        journal.close(ok=True)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="extended workload incl. 12-register, input-heavy and "
        "16-register ring circuits",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="five-circuit quick set (the default; kept for explicitness)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_equiv.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="bitset timing repeats (best-of)"
    )
    args = parser.parse_args(argv)
    if args.full and args.quick:
        parser.error("--quick and --full are mutually exclusive")

    print(f"equivalence-engine benchmark ({'full' if args.full else 'quick'} mode)")
    report = run(args)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = report["summary"]
    print(
        f"speedup bitset vs reference (total): "
        f"min {summary['min_speedup_total']}x / "
        f"geomean {summary['geomean_speedup_total']}x / "
        f"max {summary['max_speedup_total']}x"
    )
    print(
        f"speedup reach vs bitset (total): "
        f"geomean {summary['geomean_speedup_reach_total']}x "
        f"({summary['bitset_rejected_rows']} row(s) past the bitset wall)"
    )
    print(f"all engines agree: {summary['all_engines_agree']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
