"""Metric definitions, order statistics and the per-run outcome record.

Every workload prints the same metric names (``BENCHMARK.json`` lists
them), so each metric below has one meaning per workload; README.md
spells out which operation ``latency_ms`` times on each.  Per-layer busy
time is reported as a share of the traced operations' wall time, so a
layer a workload never enters reads 0 % rather than a constant time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "latency_ms": ("ms", "lower"),
    "fault_coverage_pct": ("%", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Span name -> per-layer share metric.  ``bench.round`` is the
#: benchmark's own glue inside a timed operation.
SHARE_OF_SPAN: Dict[str, str] = {
    "pipeline.run_spec": "pipeline.self_pct",
    "pipeline.synth": "pipeline.synth_pct",
    "pipeline.retime": "pipeline.retime_pct",
    "pipeline.verify": "pipeline.verify_pct",
    "pipeline.collapse": "pipeline.collapse_pct",
    "pipeline.atpg": "pipeline.atpg_pct",
    "pipeline.derive": "pipeline.derive_pct",
    "pipeline.faultsim": "pipeline.faultsim_pct",
    "faultsim": "faultsim.self_pct",
    "simulation.stepper_build": "simulation.stepper_build_pct",
    "equivalence.extract": "equivalence.extract_pct",
    "equivalence.bound": "equivalence.bound_pct",
    "store.get": "store.get_pct",
    "store.put": "store.put_pct",
    "faults.collapse": "faults.collapse_pct",
    "faults.correspondence": "faults.correspondence_pct",
    "testset.derive": "testset.derive_pct",
    "core.validate": "core.validate_self_pct",
    "bench.round": "bench.self_pct",
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{name: ("%", "lower") for name in SHARE_OF_SPAN.values()},
    "faultsim.in_atpg_pct": ("%", "lower"),
    "atpg.random_pct": ("%", "lower"),
    "atpg.det_pct": ("%", "lower"),
    "pipeline.hits": ("count", "higher"),
    "pipeline.misses": ("count", "lower"),
    "atpg.det_effort": ("count", "lower"),
    "atpg.backtracks": ("count", "lower"),
    "atpg.frames_simulated": ("count", "lower"),
    "atpg.targeted": ("count", "lower"),
    "atpg.aborted": ("count", "lower"),
    "atpg.sequences": ("count", "lower"),
    "atpg.det_yield": ("fraction", "higher"),
    "atpg.frames_per_s": ("1/s", "higher"),
    "faultsim.calls": ("count", "lower"),
    "faultsim.fault_vectors": ("count", "lower"),
    "faultsim.detections": ("count", "higher"),
    "faultsim.fault_vectors_per_s": ("1/s", "higher"),
    "simulation.compile_hits": ("count", "higher"),
    "simulation.compile_misses": ("count", "lower"),
    "equivalence.checked": ("count", "higher"),
    "equivalence.unverified": ("count", "lower"),
    "equivalence.visited_states": ("count", "lower"),
    "store.get_calls": ("count", "lower"),
    "store.put_calls": ("count", "lower"),
    "store.hit_ratio": ("fraction", "higher"),
    "service.requests": ("count", "higher"),
    "service.fresh_jobs": ("count", "higher"),
    "service.queue_peak": ("count", "lower"),
    "service.keepalive_requests": ("count", "higher"),
    "service.reconnects": ("count", "lower"),
    "service.backlog_max": ("count", "lower"),
    "service.mixed_miss_pct": ("%", "lower"),
    "service.mixed_slowdown_x": ("x", "lower"),
    "service.tail_x": ("x", "lower"),
    "service.gen_late_x": ("x", "lower"),
    "service.fresh_overhead_pct": ("%", "lower"),
    "trace.traced_ms": ("ms", "lower"),
    "trace.untraced_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.missing": ("count", "lower"),
}


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)):
        if len(values) * (1.0 - q) >= 10:
            return label, quantile(values, q)
    return "p50", quantile(values, 0.5)


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, tail and sample count of one timing."""
    if not values:
        return {"count": 0}
    label, value = tail(values)
    return {"count": len(values), "p50": quantile(values, 0.5), label: value}


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a process (this one by default), in MiB; Linux only."""
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc status")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples_ms: List[float] = field(default_factory=list)  # untraced operations
    traced_ms: List[float] = field(default_factory=list)
    coverage_pct: float = 0.0
    rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def layer_metrics(outcome: Outcome, profile: Optional[Dict[str, object]], missing: int) -> Dict[str, float]:
    """Every per-layer metric: shares from the span profile, counters and
    service ratios from the outcome, tracing cost from both sample sets."""
    values = {name: 0.0 for name in PER_LAYER}
    if profile and profile["roots_s"] > 0:
        roots = profile["roots_s"]
        for span_name, seconds in profile["self_s"].items():
            metric = SHARE_OF_SPAN.get(span_name)
            if metric is not None:
                values[metric] += 100.0 * seconds / roots
        values["faultsim.in_atpg_pct"] = 100.0 * profile["faultsim_in_atpg_s"] / roots
        # Counts are per traced round, so they repeat whatever the number
        # of rounds that fit the window.
        rounds = profile["calls"].get("bench.round", 1)
        values["faultsim.calls"] = profile["calls"].get("faultsim", 0) / rounds
        vectors = profile["totals"].get("faultsim.fault_vectors", 0)
        values["faultsim.fault_vectors"] = vectors / rounds
        values["faultsim.detections"] = profile["totals"].get("faultsim.detections", 0) / rounds
        busy = profile["self_s"].get("faultsim", 0.0)
        values["faultsim.fault_vectors_per_s"] = vectors / busy if busy else 0.0
        values["trace.coverage_pct"] = 100.0 * (1.0 - profile["roots_self_s"] / roots)
        for phase in ("random", "det"):
            seconds = outcome.details.get(f"atpg_{phase}_traced_s", 0.0)
            values[f"atpg.{phase}_pct"] = 100.0 * seconds / roots
    for name, value in outcome.layers.items():
        if name in values:
            values[name] = float(value)
    traced = quantile(outcome.traced_ms, 0.5) if outcome.traced_ms else 0.0
    untraced = quantile(outcome.samples_ms, 0.5) if outcome.samples_ms else 0.0
    values["trace.traced_ms"] = traced
    values["trace.untraced_ms"] = untraced
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    values["trace.missing"] = float(missing)
    return values


def environment() -> Dict[str, object]:
    """Facts that qualify every number: CPUs, interpreter, numpy."""
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


__all__ = [
    "END_TO_END",
    "Outcome",
    "PER_LAYER",
    "SHARE_OF_SPAN",
    "environment",
    "layer_metrics",
    "peak_rss_mb",
    "quantile",
    "summary",
    "tail",
]
