"""CI perf guard: kernel throughput vs the committed baselines.

Re-runs the deterministic PODEM phase (serial engine) on the
quick circuit set under the *baseline's own recorded budget* and compares
the achieved ``dual_frames_per_sec`` against the matching rows of the
committed ``BENCH_atpg.json``.  The run fails when the geometric mean of
the per-circuit ratios falls below ``--min-ratio`` (default 0.7, i.e. a
>30% frames/sec regression).

With ``--equiv-baseline BENCH_equiv.json`` it additionally regenerates
each equivalence-benchmark circuit from the row's recorded parameters,
re-times the extract + classify + sync-search leg **per STG engine**
(bitset, and reach where the baseline has reach rows), and fails when
any engine's geomean of baseline-time / current-time ratios falls below
``--equiv-min-ratio`` (default 0.5) -- the reach series is guarded
separately so a frontier-BFS regression cannot hide behind bitset
headroom.  Rows marked ``bitset_rejected`` (past the 18-register wall)
are guarded on the reach leg only.  Deterministic row facts (class
counts, sync-sequence lengths, visited-state and peak-frontier counts)
are also re-checked, so a semantic regression of either engine fails
the guard even when it got faster.

With ``--faultsim-baseline BENCH_faultsim.json`` it re-times the
compiled fault-simulation kernel **per word backend** (bigint always,
with numpy hidden; numpy when installed) under the baseline's recorded
workload and guards each backend's geomean baseline-time / current-time
ratio separately against ``--faultsim-min-ratio`` (default 0.5) -- a
regression in one backend cannot hide behind the other's headroom.  The
run also cross-checks that both backends still detect the identical
fault set.

With ``--service-baseline BENCH_service.json`` it boots the ATPG job
service in-process, re-measures the cached-request keep-alive-vs-close
series per quick-set circuit through the benchmark's socket-level load
generator, and fails when the geomean of current/baseline speedup ratios
falls below ``--service-min-ratio`` (default 0.4) *or* when keep-alive
is not strictly faster than connection-per-request on any row.

With ``--guidance-baseline BENCH_atpg.json`` it re-runs the quick-set
deterministic phase twice -- unguided and SCOAP-guided -- under the
baseline's recorded budget and fails when the geomean guided/unguided
*effort* ratio (backtracks + frames simulated, lower is better) exceeds
``--guidance-max-ratio`` (default 0.85).  Effort counters are
machine-independent, so unlike the throughput guard this check runs
identically on any runner, including the no-numpy CI leg; pair it with
``--skip-throughput`` there.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.perf_guard --baseline BENCH_atpg.json \
        --equiv-baseline BENCH_equiv.json

The geometric mean -- not the worst row -- is guarded so one noisy row on
a shared runner cannot fail the build by itself; a real kernel regression
moves every row.  Absolute frames/sec is machine-dependent, so cross-
machine comparisons are only indicative: the guard is calibrated for CI
runners comparable to the baseline generator and the threshold is
deliberately loose.  Regenerate the baseline (``python -m
benchmarks.perf_atpg --full``) whenever the kernel legitimately changes
speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
from typing import Dict, Optional, Sequence

from benchmarks.provenance import numpy_hidden
from repro.atpg import AtpgBudget, run_atpg
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.faults.collapse import collapse_faults
from repro.simulation import clear_compile_cache

QUICK_NAMES = ("dk16.ji.sd", "s510.jo.sr", "s820.jo.sd")


def _baseline_budget(meta: Dict[str, object]) -> AtpgBudget:
    """The baseline's budget, PODEM only: the guards measure PODEM, so the
    exact pair search must not decide the small-alphabet circuits."""
    budget = meta["budget"]
    return AtpgBudget(
        total_seconds=float(budget["total_seconds"]),
        seconds_per_fault=5.0,
        backtracks_per_fault=int(budget["backtracks_per_fault"]),
        frames_cap=int(budget["frames_cap"]),
        random_sequences=int(budget["random_sequences"]),
        random_length=24,
        exact_lane_steps=0,
    )


def measure_frames_per_sec(
    circuit, budget: AtpgBudget, max_faults: int
) -> float:
    faults = collapse_faults(circuit).representatives
    if max_faults and len(faults) > max_faults:
        faults = faults[:max_faults]
    result = run_atpg(circuit, faults=faults, budget=budget, engine="serial")
    det = max(result.deterministic_seconds, 1e-9)
    return result.frames_simulated / det


def run_guard(baseline_path: str, min_ratio: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    rows = {
        row["circuit"]: row
        for row in baseline["circuits"]
        if "dual_frames_per_sec" in row
    }
    names = [
        name
        for base in QUICK_NAMES
        for name in (base, base + ".re")
        if name in rows
    ]
    if not names:
        print(
            "baseline has no dual_frames_per_sec rows for the quick set; "
            "regenerate it with benchmarks.perf_atpg",
            file=sys.stderr,
        )
        return 2
    clear_compile_cache()
    budget = _baseline_budget(baseline["meta"])
    max_faults = int(baseline["meta"].get("max_faults_per_circuit", 0))
    ratios = []
    for name in names:
        spec_name = name[:-3] if name.endswith(".re") else name
        spec = next(s for s in TABLE2_CIRCUITS if s.name == spec_name)
        pair = build_pair(spec)
        circuit = pair.retimed if name.endswith(".re") else pair.original
        current = measure_frames_per_sec(circuit, budget, max_faults)
        base = float(rows[name]["dual_frames_per_sec"])
        ratio = current / max(base, 1e-9)
        ratios.append(ratio)
        print(
            f"  {name}: baseline {base:.0f} frames/s, "
            f"current {current:.0f} frames/s (ratio {ratio:.2f})",
            flush=True,
        )
    geomean = statistics.geometric_mean(ratios)
    print(f"geomean throughput ratio: {geomean:.2f} (min allowed {min_ratio})")
    if geomean < min_ratio:
        print(
            f"FAIL: dual-kernel frames/sec regressed more than "
            f"{(1.0 - min_ratio) * 100:.0f}% vs {baseline_path}",
            file=sys.stderr,
        )
        return 1
    print("perf guard passed")
    return 0


def run_guidance_guard(baseline_path: str, max_ratio: float) -> int:
    """Guard the SCOAP guidance layer: guided deterministic effort must
    stay well below unguided effort on the quick set.

    Both runs happen fresh on this machine under the baseline's recorded
    budget, so the ratio is a pure algorithmic comparison -- backtracks
    plus frames simulated, no wall-clock anywhere.  ``max_ratio`` is
    deliberately looser than the geomean recorded in the committed
    baseline: the guard catches "guidance stopped helping", not ordinary
    row-to-row drift from fault-list or budget tweaks.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    clear_compile_cache()
    budget = _baseline_budget(baseline["meta"])
    max_faults = int(baseline["meta"].get("max_faults_per_circuit", 0))
    known = {row["circuit"] for row in baseline["circuits"]}
    names = [
        name
        for base in QUICK_NAMES
        for name in (base, base + ".re")
        if name in known
    ]
    if not names:
        print(
            "baseline has no quick-set rows; regenerate it with "
            "benchmarks.perf_atpg",
            file=sys.stderr,
        )
        return 2
    ratios = []
    for name in names:
        spec_name = name[:-3] if name.endswith(".re") else name
        spec = next(s for s in TABLE2_CIRCUITS if s.name == spec_name)
        pair = build_pair(spec)
        circuit = pair.retimed if name.endswith(".re") else pair.original
        faults = collapse_faults(circuit).representatives
        if max_faults and len(faults) > max_faults:
            faults = faults[:max_faults]
        results = {
            mode: run_atpg(
                circuit, faults=faults, budget=budget, engine="serial", guidance=mode
            )
            for mode in ("off", "scoap")
        }
        effort_off = max(
            sum(
                row.backtracks + row.frames_simulated
                for row in results["off"].fault_rows
            ),
            1,
        )
        effort_scoap = sum(
            row.backtracks + row.frames_simulated
            for row in results["scoap"].fault_rows
        )
        detected_off = len(results["off"].detected)
        detected_scoap = len(results["scoap"].detected)
        if detected_scoap < detected_off:
            print(
                f"FAIL: {name}: scoap guidance lost coverage "
                f"({detected_scoap} vs {detected_off} detected)",
                file=sys.stderr,
            )
            return 1
        ratio = effort_scoap / effort_off
        ratios.append(ratio)
        print(
            f"  {name}: unguided effort {effort_off}, "
            f"scoap {effort_scoap} (ratio {ratio:.2f})",
            flush=True,
        )
    geomean = statistics.geometric_mean(ratios)
    print(
        f"geomean guided/unguided effort ratio: {geomean:.2f} "
        f"(max allowed {max_ratio})"
    )
    if geomean > max_ratio:
        print(
            f"FAIL: SCOAP guidance no longer cuts deterministic effort "
            f"below {max_ratio:.0%} of unguided on the quick set",
            file=sys.stderr,
        )
        return 1
    print("guidance guard passed")
    return 0


def run_equiv_guard(baseline_path: str, min_ratio: float) -> int:
    """Guard the bitset and reach STG engines, one ratio series per
    engine.  Rows marked ``bitset_rejected`` (past the 18-register wall)
    skip the bitset leg; rows from a pre-reach baseline skip the reach
    leg."""
    from benchmarks.perf_equiv import circuit_from_params, time_engine_leg

    with open(baseline_path) as handle:
        baseline = json.load(handle)
    repeats = int(baseline["meta"]["workload"].get("repeats", 2))
    clear_compile_cache()
    ratios: Dict[str, list] = {"bitset": [], "reach": []}
    for row in baseline["circuits"]:
        circuit = circuit_from_params(row["params"])
        if not row.get("bitset_rejected"):
            timings, _, classification, sequence = time_engine_leg(
                circuit, "bitset", repeats
            )
            num_classes = len(set(classification.class_array(0)))
            sync_length = None if sequence is None else len(sequence)
            if (num_classes, sync_length) != (
                row["num_classes"],
                row["sync_length"],
            ):
                print(
                    f"FAIL: {row['circuit']}: bitset engine results diverge "
                    f"from {baseline_path} (classes {num_classes} vs "
                    f"{row['num_classes']}, sync length {sync_length} vs "
                    f"{row['sync_length']})",
                    file=sys.stderr,
                )
                return 1
            base = float(row["bitset"]["total_s"])
            ratio = base / max(timings["total_s"], 1e-9)
            ratios["bitset"].append(ratio)
            print(
                f"  {row['circuit']} [bitset]: baseline {base:.4f}s, "
                f"current {timings['total_s']:.4f}s (ratio {ratio:.2f})",
                flush=True,
            )
        if "reach" in row:
            # The baseline's ``reach`` timings are the bigint leg; hide
            # numpy so the ratio compares like with like.
            with numpy_hidden():
                timings, stg, classification, sequence = time_engine_leg(
                    circuit, "reach", repeats
                )
            sync_length = None if sequence is None else len(sequence)
            current = (
                stg.visited_states,
                stg.peak_frontier,
                len(set(classification.class_array(0))),
                sync_length,
            )
            expected = (
                row["visited_states"],
                row["peak_frontier"],
                row["reach_classes"],
                row["reach_sync_length"],
            )
            if current != expected:
                print(
                    f"FAIL: {row['circuit']}: reach engine results diverge "
                    f"from {baseline_path} "
                    f"((visited, peak, classes, sync) {current} vs "
                    f"{expected})",
                    file=sys.stderr,
                )
                return 1
            base = float(row["reach"]["total_s"])
            ratio = base / max(timings["total_s"], 1e-9)
            ratios["reach"].append(ratio)
            print(
                f"  {row['circuit']} [reach]: baseline {base:.4f}s, "
                f"current {timings['total_s']:.4f}s (ratio {ratio:.2f})",
                flush=True,
            )
    status = 0
    for engine, series in ratios.items():
        if not series:
            continue
        geomean = statistics.geometric_mean(series)
        print(
            f"geomean equiv-engine time ratio [{engine}]: {geomean:.2f} "
            f"(min allowed {min_ratio})"
        )
        if geomean < min_ratio:
            print(
                f"FAIL: {engine} STG engine slowed down more than "
                f"{(1.0 / min_ratio):.1f}x vs {baseline_path}",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("equiv perf guard passed")
    return status


def run_faultsim_guard(baseline_path: str, min_ratio: float) -> int:
    """Guard the compiled fault-sim kernel, one ratio series per backend."""
    from benchmarks.perf_faultsim import _random_sequences, _time
    from repro.faults.collapse import collapse_faults as collapse
    from repro.faultsim import parallel_fault_simulate
    from repro.simulation.backends import numpy_available

    with open(baseline_path) as handle:
        baseline = json.load(handle)
    workload = baseline["meta"]["workload"]
    repeats = int(workload.get("repeats", 2))
    baseline_rows = {row["circuit"]: row for row in baseline["circuits"]}
    names = [
        name
        for base in QUICK_NAMES
        for name in (base, base + ".re")
        if name in baseline_rows
    ]
    if not names:
        print(
            "baseline has no quick-set rows; regenerate it with "
            "benchmarks.perf_faultsim",
            file=sys.stderr,
        )
        return 2
    backends = ["bigint"] + (["numpy"] if numpy_available() else [])
    baseline_field = {"bigint": "compiled_s", "numpy": "numpy_s"}
    clear_compile_cache()
    ratios: Dict[str, list] = {backend: [] for backend in backends}
    for name in names:
        spec_name = name[:-3] if name.endswith(".re") else name
        spec = next(s for s in TABLE2_CIRCUITS if s.name == spec_name)
        pair = build_pair(spec)
        circuit = pair.retimed if name.endswith(".re") else pair.original
        faults = collapse(circuit).representatives
        sequences = _random_sequences(
            circuit,
            int(workload["seed"]),
            int(workload["sequences"]),
            int(workload["length"]),
        )
        detections = {}
        for backend in backends:
            field = baseline_field[backend]
            if field not in baseline_rows[name]:
                continue  # baseline predates this backend's rows
            hide = numpy_hidden() if backend == "bigint" else contextlib.nullcontext()
            with hide:
                elapsed, result = _time(
                    lambda: parallel_fault_simulate(circuit, sequences, faults),
                    repeats,
                )
            detections[backend] = result.detections
            base = float(baseline_rows[name][field])
            ratio = base / max(elapsed, 1e-9)
            ratios[backend].append(ratio)
            print(
                f"  {name} [{backend}]: baseline {base:.4f}s, "
                f"current {elapsed:.4f}s (ratio {ratio:.2f})",
                flush=True,
            )
        if len(detections) == 2 and detections["bigint"] != detections["numpy"]:
            print(
                f"FAIL: {name}: numpy and bigint backends disagree on "
                "detections",
                file=sys.stderr,
            )
            return 1
    status = 0
    for backend, series in ratios.items():
        if not series:
            continue
        geomean = statistics.geometric_mean(series)
        print(
            f"geomean fault-sim time ratio [{backend}]: {geomean:.2f} "
            f"(min allowed {min_ratio})"
        )
        if geomean < min_ratio:
            print(
                f"FAIL: {backend} fault-sim backend slowed down more than "
                f"{(1.0 / min_ratio):.1f}x vs {baseline_path}",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("fault-sim perf guard passed")
    return status


def run_service_guard(baseline_path: str, min_ratio: float) -> int:
    """Guard the service's keep-alive advantage: re-measure the cached
    keep-alive-vs-close series per quick-set circuit and compare each
    speedup against the committed baseline row.

    Two failure modes: the geomean of current/baseline speedup ratios
    dropping below ``min_ratio`` (the persistent-connection machinery
    regressed relative to the recorded run), and any absolute speedup at
    or below 1.0 (keep-alive slower than connection-per-request -- wrong
    on any machine, however noisy).
    """
    import statistics as stats
    import shutil
    import tempfile

    from benchmarks.perf_service import _raw_cached_series, _request
    from repro.service import BackgroundServer, ServiceClient
    from repro.store.core import ArtifactStore

    with open(baseline_path) as handle:
        baseline = json.load(handle)
    meta = baseline["meta"]
    series = int(meta.get("series", 60))
    total_seconds = float(meta.get("total_seconds", 2.0))
    rows = {
        row["circuit"]: row
        for row in baseline["circuits"]
        if "keepalive_speedup" in row
    }
    names = [name for name in QUICK_NAMES if name in rows]
    if not names:
        print(
            "baseline has no keepalive_speedup rows for the quick set; "
            "regenerate it with benchmarks.perf_service",
            file=sys.stderr,
        )
        return 2
    root = tempfile.mkdtemp(prefix="repro-service-guard-")
    ratios = []
    status = 0
    try:
        store = ArtifactStore(root=root)
        with BackgroundServer(store=store, pool=2) as server:
            client = ServiceClient(port=server.port)
            for name in names:
                spec = next(s for s in TABLE2_CIRCUITS if s.name == name)
                request = _request(spec, total_seconds)
                job = client.submit(request)
                client.wait(job["id"], timeout=300)
                # Same measurement rule as the benchmark: warm both modes,
                # interleave blocks, take the min of per-block medians so a
                # block polluted by unrelated machine activity is discarded.
                _raw_cached_series(server.port, request, max(2, series // 10), False)
                _raw_cached_series(server.port, request, max(2, series // 10), True)
                block = max(1, series // 2)
                keepalive_medians = []
                close_medians = []
                for _ in range(2):
                    keepalive_medians.append(stats.median(
                        _raw_cached_series(server.port, request, block, False)
                    ))
                    close_medians.append(stats.median(
                        _raw_cached_series(server.port, request, block, True)
                    ))
                keepalive = min(keepalive_medians)
                close = min(close_medians)
                speedup = close / max(keepalive, 1e-9)
                base = float(rows[name]["keepalive_speedup"])
                ratio = speedup / max(base, 1e-9)
                ratios.append(ratio)
                print(
                    f"  {name}: baseline keep-alive speedup {base:.2f}x, "
                    f"current {speedup:.2f}x (ratio {ratio:.2f})",
                    flush=True,
                )
                if speedup <= 1.0:
                    print(
                        f"FAIL: {name}: keep-alive is not faster than "
                        f"connection-per-request ({speedup:.2f}x)",
                        file=sys.stderr,
                    )
                    status = 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    geomean = statistics.geometric_mean(ratios)
    print(
        f"geomean keep-alive speedup ratio: {geomean:.2f} "
        f"(min allowed {min_ratio})"
    )
    if geomean < min_ratio:
        print(
            f"FAIL: keep-alive-vs-close speedup regressed below "
            f"{min_ratio:.0%} of {baseline_path}",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print("service perf guard passed")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="BENCH_atpg.json",
        help="committed benchmark report to guard against (default: %(default)s)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.7,
        help="minimum allowed current/baseline frames-per-sec geomean "
        "(default: %(default)s, i.e. fail on a >30%% regression)",
    )
    parser.add_argument(
        "--skip-throughput",
        action="store_true",
        help="skip the machine-dependent frames/sec guard (use on runners "
        "that are not comparable to the baseline generator, e.g. the "
        "no-numpy CI leg running only the guidance guard)",
    )
    parser.add_argument(
        "--guidance-baseline",
        default=None,
        help="ATPG baseline (BENCH_atpg.json) whose budget parameterises "
        "the machine-independent guided-vs-unguided effort guard",
    )
    parser.add_argument(
        "--guidance-max-ratio",
        type=float,
        default=0.85,
        help="maximum allowed guided/unguided deterministic-effort geomean "
        "(default: %(default)s; the committed baseline records ~0.73)",
    )
    parser.add_argument(
        "--equiv-baseline",
        default=None,
        help="equivalence-engine baseline (BENCH_equiv.json) to also guard",
    )
    parser.add_argument(
        "--equiv-min-ratio",
        type=float,
        default=0.5,
        help="minimum allowed baseline/current equiv-time geomean "
        "(default: %(default)s, i.e. fail on a >2x slowdown)",
    )
    parser.add_argument(
        "--faultsim-baseline",
        default=None,
        help="fault-sim baseline (BENCH_faultsim.json) to also guard, "
        "per word backend",
    )
    parser.add_argument(
        "--faultsim-min-ratio",
        type=float,
        default=0.5,
        help="minimum allowed baseline/current fault-sim time geomean per "
        "backend (default: %(default)s, i.e. fail on a >2x slowdown)",
    )
    parser.add_argument(
        "--service-baseline",
        default=None,
        help="service baseline (BENCH_service.json) whose keep-alive-vs-"
        "close speedup rows to also guard",
    )
    parser.add_argument(
        "--service-min-ratio",
        type=float,
        default=0.4,
        help="minimum allowed current/baseline keep-alive speedup geomean "
        "(default: %(default)s; sub-millisecond loopback series are noisy, "
        "and keep-alive slower than close fails regardless)",
    )
    args = parser.parse_args(argv)
    status = 0
    if not args.skip_throughput:
        status = run_guard(args.baseline, args.min_ratio)
    if args.guidance_baseline is not None:
        guidance_status = run_guidance_guard(
            args.guidance_baseline, args.guidance_max_ratio
        )
        status = status or guidance_status
    if args.equiv_baseline is not None:
        equiv_status = run_equiv_guard(args.equiv_baseline, args.equiv_min_ratio)
        status = status or equiv_status
    if args.faultsim_baseline is not None:
        faultsim_status = run_faultsim_guard(
            args.faultsim_baseline, args.faultsim_min_ratio
        )
        status = status or faultsim_status
    if args.service_baseline is not None:
        service_status = run_service_guard(
            args.service_baseline, args.service_min_ratio
        )
        status = status or service_status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
