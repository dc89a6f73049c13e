"""ATPG orchestration and kernel performance harness.

Times the deterministic PODEM phase of :func:`repro.atpg.run_atpg` three
ways on the paper's Table II circuit pairs:

* serial engine, **scalar** kernel (the tuple-of-Trit baseline);
* serial engine, **dual** kernel (the bit-packed dual-machine kernel);
* multiprocess engine (``engine="process"``), dual kernel;

cross-checks that every run produces **identical** fault coverage, fault
efficiency, detected/aborted partitions and bit-identical test-set vectors,
and writes the results to ``BENCH_atpg.json``.  ``kernel_speedup`` is the
scalar/dual deterministic-phase ratio; the kernel's effort counters
(simulation calls, frames simulated, lanes evaluated) and the derived
``dual_frames_per_sec`` throughput feed the CI perf guard
(``benchmarks/perf_guard.py``).  Each row also records which engine the
adaptive selector (:func:`repro.atpg.engine.choose_engine`) would pick on
this host, and why.

On top of the unguided runs, each row measures the **guidance layer**
(:mod:`repro.atpg.guidance`): a SCOAP-guided serial run, a SCOAP-guided
process run (asserted bit-identical to the guided serial run -- the
policy is deterministic, so the pool must not change the answer), and a
learned-mode run whose predictor is self-trained from the unguided run's
own per-fault effort rows.  The guided comparison metric is the
**machine-independent deterministic-phase effort** -- backtracks plus
frames simulated, summed over the per-fault effort rows -- and the
summary records its geomean guided/unguided ratio per mode
(``geomean_effort_ratio_scoap`` / ``_learned``), which the perf guard
re-derives and bounds on every CI leg, numpy or not.  Guided runs must
also never detect fewer faults than the unguided run on any row
(``guided_coverage_not_worse``).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf_atpg --quick --workers 2
    PYTHONPATH=src python -m benchmarks.perf_atpg --full --workers 4 -o BENCH_atpg.json

This module is *not* collected by pytest (``testpaths = ["tests"]``); it is
a standalone CLI so CI and local runs can track the orchestration layer's
speedup trajectory.  Because every row asserts serial/process agreement, a
benchmark run is also an end-to-end determinism check of the pool.

The deterministic phase is pure CPU-bound Python search, so the wall-clock
speedup at N workers tracks the machine's usable core count; ``meta.cpus``
records it alongside the numbers (a single-core container cannot show a
parallel speedup no matter the pool size -- the pool's scaling must be read
against the cores actually available).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.atpg import AtpgBudget, policy_from_effort_rows, run_atpg
from repro.atpg.engine import choose_engine
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.faults.collapse import collapse_faults
from repro.simulation import clear_compile_cache

QUICK_NAMES = ("dk16.ji.sd", "s510.jo.sr", "s820.jo.sd")


def det_effort(result) -> int:
    """Deterministic-phase effort: backtracks + frames simulated, summed
    over the run's per-fault effort rows.  Pure search-work counters, so
    the number is identical on any machine/backend for a given seed
    whenever the wall-clock caps do not bind."""
    return sum(
        row.backtracks + row.frames_simulated for row in result.fault_rows
    )


def _specs(full: bool):
    if full:
        return TABLE2_CIRCUITS
    return tuple(s for s in TABLE2_CIRCUITS if s.name in QUICK_NAMES)


def _budget(args: argparse.Namespace) -> AtpgBudget:
    """A bench budget whose *deterministic* limits (backtracks, frames) are
    the binding ones: the wall-clock caps are deliberately generous so the
    serial and process engines abort exactly the same faults and the
    agreement checks can demand bit-for-bit identity.  The exact pair
    search is off: this harness measures PODEM, and BENCH_atpg.json rows
    stay comparable across versions."""
    return AtpgBudget(
        total_seconds=float(args.total_seconds),
        seconds_per_fault=5.0,
        backtracks_per_fault=args.backtracks,
        frames_cap=args.frames_cap,
        random_sequences=args.random_sequences,
        random_length=24,
        exact_lane_steps=0,
    )


def bench_circuit(
    name: str,
    circuit,
    budget: AtpgBudget,
    workers: int,
    max_faults: int,
) -> Dict[str, object]:
    """One benchmark row: scalar vs dual kernel, serial vs process pool."""
    faults = collapse_faults(circuit).representatives
    if max_faults and len(faults) > max_faults:
        faults = faults[:max_faults]
    scalar = run_atpg(
        circuit, faults=faults, budget=budget, engine="serial", kernel="scalar"
    )
    serial = run_atpg(
        circuit, faults=faults, budget=budget, engine="serial", kernel="dual"
    )
    pooled = run_atpg(
        circuit, faults=faults, budget=budget, engine="process", workers=workers
    )
    runs = (scalar, serial, pooled)
    agree = all(
        other.detected == serial.detected
        and other.aborted == serial.aborted
        and other.untestable == serial.untestable
        and other.fault_coverage == serial.fault_coverage
        and other.fault_efficiency == serial.fault_efficiency
        for other in runs
    )
    sequences_identical = all(
        other.test_set.as_lists() == serial.test_set.as_lists()
        for other in runs
    )
    det_scalar = max(scalar.deterministic_seconds, 1e-9)
    det_serial = max(serial.deterministic_seconds, 1e-9)
    det_pooled = max(pooled.deterministic_seconds, 1e-9)
    engine_selected, engine_reason = choose_engine(len(faults), workers)

    # Guided series: SCOAP serial, SCOAP pooled (parity check), learned
    # self-trained from the unguided run's own effort telemetry.
    scoap_serial = run_atpg(
        circuit,
        faults=faults,
        budget=budget,
        engine="serial",
        kernel="dual",
        guidance="scoap",
    )
    scoap_pooled = run_atpg(
        circuit,
        faults=faults,
        budget=budget,
        engine="process",
        workers=workers,
        guidance="scoap",
    )
    learned = run_atpg(
        circuit,
        faults=faults,
        budget=budget,
        engine="serial",
        kernel="dual",
        guidance=policy_from_effort_rows(circuit, serial.fault_rows),
    )
    guided_parity = (
        scoap_serial.detected == scoap_pooled.detected
        and scoap_serial.aborted == scoap_pooled.aborted
        and scoap_serial.test_set.as_lists() == scoap_pooled.test_set.as_lists()
    )
    effort_off = max(det_effort(serial), 1)
    effort_scoap = det_effort(scoap_serial)
    effort_learned = det_effort(learned)
    guided_coverage_ok = (
        len(scoap_serial.detected) >= len(serial.detected)
        and len(learned.detected) >= len(serial.detected)
    )
    return {
        "circuit": name,
        "num_gates": circuit.num_gates(),
        "num_dffs": circuit.num_registers(),
        "num_faults": len(faults),
        "fault_coverage": round(serial.fault_coverage, 2),
        "fault_efficiency": round(serial.fault_efficiency, 2),
        "aborted": len(serial.aborted),
        "backtracks": serial.backtracks,
        "random_s": round(serial.random_seconds, 4),
        "det_scalar_s": round(det_scalar, 4),
        "det_serial_s": round(det_serial, 4),
        "det_process_s": round(det_pooled, 4),
        "kernel_speedup": round(det_scalar / det_serial, 2),
        "det_speedup": round(det_serial / det_pooled, 2),
        "total_serial_s": round(serial.cpu_seconds, 4),
        "total_process_s": round(pooled.cpu_seconds, 4),
        "simulations": serial.simulations,
        "frames_simulated": serial.frames_simulated,
        "lanes_evaluated": serial.lanes_evaluated,
        "dual_frames_per_sec": round(serial.frames_simulated / det_serial, 1),
        "engine_selected": engine_selected,
        "engine_reason": engine_reason,
        "engines_agree": agree and sequences_identical,
        "sequences_identical": sequences_identical,
        "det_effort_off": effort_off,
        "det_effort_scoap": effort_scoap,
        "det_effort_learned": effort_learned,
        "effort_ratio_scoap": round(effort_scoap / effort_off, 3),
        "effort_ratio_learned": round(effort_learned / effort_off, 3),
        "fault_coverage_scoap": round(scoap_serial.fault_coverage, 2),
        "fault_coverage_learned": round(learned.fault_coverage, 2),
        "objective_choices_scoap": scoap_serial.objective_choices,
        "guided_parity": guided_parity,
        "guided_coverage_ok": guided_coverage_ok,
    }


def run(args: argparse.Namespace) -> Dict[str, object]:
    from benchmarks.provenance import open_bench_journal, provenance_meta

    clear_compile_cache()
    journal = open_bench_journal("bench-atpg")
    if journal is not None:
        journal.event("run_start", mode="full" if args.full else "quick")
    budget = _budget(args)
    rows: List[Dict[str, object]] = []
    for spec in _specs(args.full):
        pair = build_pair(spec)
        for suffix, circuit in (("", pair.original), (".re", pair.retimed)):
            name = spec.name + suffix
            print(f"  {name} ...", flush=True)
            row = bench_circuit(name, circuit, budget, args.workers, args.max_faults)
            rows.append(row)
            print(
                f"    det scalar {row['det_scalar_s']}s, "
                f"dual {row['det_serial_s']}s ({row['kernel_speedup']}x), "
                f"process[{args.workers}] {row['det_process_s']}s "
                f"({row['det_speedup']}x), agree={row['engines_agree']}",
                flush=True,
            )
            print(
                f"    guided effort {row['det_effort_off']} -> "
                f"scoap {row['det_effort_scoap']} "
                f"({row['effort_ratio_scoap']}), "
                f"learned {row['det_effort_learned']} "
                f"({row['effort_ratio_learned']}), "
                f"parity={row['guided_parity']}",
                flush=True,
            )
    speedups = [row["det_speedup"] for row in rows]
    kernel_speedups = [row["kernel_speedup"] for row in rows]
    geomean_kernel = statistics.geometric_mean(kernel_speedups)
    geomean_scoap = statistics.geometric_mean(
        [row["effort_ratio_scoap"] for row in rows]
    )
    geomean_learned = statistics.geometric_mean(
        [row["effort_ratio_learned"] for row in rows]
    )
    report = {
        "meta": {
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "mode": "full" if args.full else "quick",
            "workers": args.workers,
            "budget": {
                "backtracks_per_fault": budget.backtracks_per_fault,
                "frames_cap": budget.frames_cap,
                "random_sequences": budget.random_sequences,
                "total_seconds": budget.total_seconds,
                "seed": budget.seed,
            },
            "max_faults_per_circuit": args.max_faults,
            **provenance_meta(journal),
        },
        "circuits": rows,
        "summary": {
            "min_det_speedup": min(speedups),
            "median_det_speedup": round(statistics.median(speedups), 2),
            "max_det_speedup": max(speedups),
            "min_kernel_speedup": min(kernel_speedups),
            "geomean_kernel_speedup": round(geomean_kernel, 2),
            "max_kernel_speedup": max(kernel_speedups),
            "all_engines_agree": all(row["engines_agree"] for row in rows),
            "all_sequences_identical": all(
                row["sequences_identical"] for row in rows
            ),
            "geomean_effort_ratio_scoap": round(geomean_scoap, 3),
            "geomean_effort_ratio_learned": round(geomean_learned, 3),
            "all_guided_parity": all(row["guided_parity"] for row in rows),
            "guided_coverage_not_worse": all(
                row["guided_coverage_ok"] for row in rows
            ),
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
        help="all sixteen Table II pairs (default: three-circuit quick set)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="three-circuit quick set (the default; kept for explicitness)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_atpg.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="process-pool width (default: 4)"
    )
    parser.add_argument(
        "--backtracks",
        type=int,
        default=12,
        help="PODEM backtrack limit per fault per depth level (default: 12)",
    )
    parser.add_argument(
        "--frames-cap",
        type=int,
        default=8,
        help="time-frame unroll cap (default: 8)",
    )
    parser.add_argument(
        "--random-sequences",
        type=int,
        default=8,
        help="random-phase sequence budget (default: 8 -- most faults reach PODEM)",
    )
    parser.add_argument(
        "--max-faults",
        type=int,
        default=220,
        help="cap the collapsed fault list per circuit, 0 = all (default: 220)",
    )
    parser.add_argument(
        "--total-seconds",
        type=float,
        default=1800.0,
        help="wall budget per run; generous so it never binds (default: 1800)",
    )
    args = parser.parse_args(argv)
    if args.full and args.quick:
        parser.error("--quick and --full are mutually exclusive")

    print(
        f"ATPG orchestration benchmark ({'full' if args.full else 'quick'} mode, "
        f"{args.workers} workers, {os.cpu_count()} cpus)"
    )
    report = run(args)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = report["summary"]
    print(
        f"kernel speedup scalar -> dual (serial det phase): "
        f"min {summary['min_kernel_speedup']}x / "
        f"geomean {summary['geomean_kernel_speedup']}x / "
        f"max {summary['max_kernel_speedup']}x"
    )
    print(
        f"deterministic-phase speedup serial -> process[{args.workers}]: "
        f"min {summary['min_det_speedup']}x / "
        f"median {summary['median_det_speedup']}x / "
        f"max {summary['max_det_speedup']}x"
    )
    print(f"engines agree: {summary['all_engines_agree']}")
    print(
        f"guided effort ratio (guided/unguided, lower is better): "
        f"scoap {summary['geomean_effort_ratio_scoap']} / "
        f"learned {summary['geomean_effort_ratio_learned']}"
    )
    print(
        f"guided parity: {summary['all_guided_parity']}, "
        f"coverage not worse: {summary['guided_coverage_not_worse']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
