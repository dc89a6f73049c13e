"""Fault-simulation performance harness.

Times the fault-simulation engines -- scalar serial and the PROOFS-style
(sequence x fault) lane engine on the code-generated bit-parallel kernel
(``VectorFastStepper``) -- on the paper's Table II circuit pairs, sweeps
the fault-group width on the largest circuit of the run, and writes the
results to ``BENCH_faultsim.json``.  The lane engine is timed on **both
word legs** (the bigint reference, run with numpy hidden, and, when
installed, the numpy word-plane; see :mod:`repro.simulation.backends`),
with a bit-for-bit cross-check between them on every row.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf_faultsim --quick
    PYTHONPATH=src python -m benchmarks.perf_faultsim --full -o BENCH_faultsim.json

This module is *not* collected by pytest (``testpaths = ["tests"]``); it
is a standalone CLI so CI and local runs can track the kernel's speedup
trajectory over time.  Every row cross-checks the compiled kernel's
detection records against the serial reference, so a benchmark run is
also an end-to-end equivalence check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import random
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.provenance import numpy_hidden
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.faults.collapse import collapse_faults
from repro.faultsim import DEFAULT_GROUP_SIZE, parallel_fault_simulate
from repro.faultsim.serial import serial_fault_simulate
from repro.simulation import clear_compile_cache
from repro.simulation.backends import numpy_available

QUICK_NAMES = ("dk16.ji.sd", "s510.jo.sr", "s820.jo.sd")
GROUP_SIZES = (64, 256, 1024)


def _specs(full: bool):
    if full:
        return TABLE2_CIRCUITS
    return tuple(s for s in TABLE2_CIRCUITS if s.name in QUICK_NAMES)


def _random_sequences(
    circuit, seed: int, count: int, length: int
) -> List[List[Tuple[int, ...]]]:
    rng = random.Random(seed)
    num_inputs = len(circuit.input_names)
    return [
        [tuple(rng.randint(0, 1) for _ in range(num_inputs)) for _ in range(length)]
        for _ in range(count)
    ]


def _time(fn, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_circuit(
    name: str,
    circuit,
    seed: int,
    count: int,
    length: int,
    repeats: int,
    serial_faults: int,
) -> Dict[str, object]:
    """One benchmark row: all engines on one circuit, same workload."""
    faults = collapse_faults(circuit).representatives
    sequences = _random_sequences(circuit, seed, count, length)

    # The bigint leg is the reference: always available, so its column
    # ("compiled_s") stays comparable across hosts with and without the
    # numpy extra.
    with numpy_hidden():
        compiled_s, compiled = _time(
            lambda: parallel_fault_simulate(circuit, sequences, faults), repeats
        )
    row: Dict[str, object] = {
        "circuit": name,
        "num_gates": circuit.num_gates(),
        "num_dffs": circuit.num_registers(),
        "num_faults": len(faults),
        "num_vectors": count * length,
        "detected": compiled.num_detected,
        "compiled_s": round(compiled_s, 4),
    }
    if numpy_available():
        numpy_s, numpy_result = _time(
            lambda: parallel_fault_simulate(circuit, sequences, faults), repeats
        )
        row["numpy_s"] = round(numpy_s, 4)
        row["speedup_numpy_vs_bigint"] = round(compiled_s / numpy_s, 2)
        row["backends_agree"] = (
            numpy_result.detections == compiled.detections
            and numpy_result.potential == compiled.potential
        )
    if serial_faults:
        # The scalar engine costs O(faults x vectors x circuit); timing the
        # full fault list would dominate the harness by minutes per row, so
        # it runs on a fault subsample and the speedup is per-fault
        # normalized.  The compiled kernel re-runs on the same subsample so
        # the bit-for-bit cross-check stays exact.
        sample = faults[:serial_faults]
        serial_s, serial = _time(
            lambda: serial_fault_simulate(circuit, sequences, sample), 1
        )
        compiled_sample_s, compiled_sample = _time(
            lambda: parallel_fault_simulate(circuit, sequences, sample), 1
        )
        row["serial_fault_sample"] = len(sample)
        row["serial_s"] = round(serial_s, 4)
        row["speedup_compiled_vs_serial"] = round(serial_s / compiled_sample_s, 2)
        row["serial_agrees"] = (
            serial.detections == compiled_sample.detections
            and serial.potential == compiled_sample.potential
        )
    return row


def sweep_group_size(
    circuit, seed: int, count: int, length: int, repeats: int
) -> List[Dict[str, object]]:
    """Compiled-kernel wall time as a function of fault-group width.

    Each width is timed per backend so the default-group-size choice can
    be read off for both word implementations (the numpy word-plane's
    dispatch floor is amortized by width; bigints are not).
    """
    faults = collapse_faults(circuit).representatives
    sequences = _random_sequences(circuit, seed, count, length)
    backends = ("bigint", "numpy") if numpy_available() else ("bigint",)
    rows = []
    for group_size in GROUP_SIZES:
        row: Dict[str, object] = {
            "group_size": group_size,
            "words_per_plane": (group_size + 63) >> 6,
        }
        detections = {}
        for backend in backends:
            hide = numpy_hidden() if backend == "bigint" else contextlib.nullcontext()
            with hide:
                elapsed, result = _time(
                    lambda: parallel_fault_simulate(
                        circuit, sequences, faults, group_size=group_size
                    ),
                    repeats,
                )
            row[f"{backend}_s"] = round(elapsed, 4)
            row["detected"] = result.num_detected
            detections[backend] = result.detections
        # Back-compat: "seconds" stays the reference-backend time.
        row["seconds"] = row["bigint_s"]
        if "numpy" in backends:
            row["speedup_numpy_vs_bigint"] = round(
                row["bigint_s"] / row["numpy_s"], 2
            )
            row["backends_agree"] = detections["numpy"] == detections["bigint"]
        rows.append(row)
    return rows


def run(args: argparse.Namespace) -> Dict[str, object]:
    from benchmarks.provenance import open_bench_journal, provenance_meta

    clear_compile_cache()
    journal = open_bench_journal("bench-faultsim")
    if journal is not None:
        journal.event("run_start", mode="full" if args.full else "quick")
    rows: List[Dict[str, object]] = []
    sweep_target = None
    for spec in _specs(args.full):
        pair = build_pair(spec)
        for suffix, circuit in (("", pair.original), (".re", pair.retimed)):
            name = spec.name + suffix
            print(f"  {name} ...", flush=True)
            row = bench_circuit(
                name,
                circuit,
                seed=args.seed,
                count=args.sequences,
                length=args.length,
                repeats=args.repeats,
                serial_faults=0 if args.no_serial else args.serial_faults,
            )
            rows.append(row)
            numpy_note = (
                f", numpy {row['numpy_s']}s ({row['speedup_numpy_vs_bigint']}x)"
                if "numpy_s" in row
                else ""
            )
            print(f"    bigint {row['compiled_s']}s{numpy_note}", flush=True)
            if sweep_target is None or row["num_faults"] > sweep_target[1]:
                sweep_target = (name, row["num_faults"], circuit)

    sweep = {
        "circuit": sweep_target[0],
        "rows": sweep_group_size(
            sweep_target[2], args.seed, args.sequences, args.length, args.repeats
        ),
    }
    report = {
        "meta": {
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "mode": "full" if args.full else "quick",
            "workload": {
                "sequences": args.sequences,
                "length": args.length,
                "seed": args.seed,
                "repeats": args.repeats,
            },
            "default_group_size": DEFAULT_GROUP_SIZE,
            **provenance_meta(journal, with_backend=True),
        },
        "circuits": rows,
        "group_size_sweep": sweep,
        "summary": {
            "all_engines_agree": all(
                row.get("serial_agrees", True) and row.get("backends_agree", True)
                for row in rows
            ),
        },
    }
    backend_speedups = [
        row["speedup_numpy_vs_bigint"]
        for row in rows
        if "speedup_numpy_vs_bigint" in row
    ]
    if backend_speedups:
        report["summary"]["geomean_speedup_numpy_vs_bigint"] = round(
            statistics.geometric_mean(backend_speedups), 2
        )
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
        default="BENCH_faultsim.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--sequences", type=int, default=8, help="random sequences per circuit"
    )
    parser.add_argument(
        "--length", type=int, default=48, help="vectors per sequence"
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--no-serial",
        action="store_true",
        help="skip the scalar serial engine (slowest by far)",
    )
    parser.add_argument(
        "--serial-faults",
        type=int,
        default=80,
        help="fault subsample for the serial engine (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.full and args.quick:
        parser.error("--quick and --full are mutually exclusive")

    print(f"fault-simulation benchmark ({'full' if args.full else 'quick'} mode)")
    report = run(args)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = report["summary"]
    if "geomean_speedup_numpy_vs_bigint" in summary:
        print(
            f"speedup numpy vs bigint (geomean): "
            f"{summary['geomean_speedup_numpy_vs_bigint']}x"
        )
    print(f"all engines agree: {summary['all_engines_agree']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
