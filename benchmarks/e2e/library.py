"""The three in-process workloads: ``flow-cold``, ``flow-warm``, ``validate``.

Each drives only public entry points -- ``FlowPipeline.run_spec``,
``build_pair`` and ``verify_preservation`` -- with no speed knob, so it
measures the defaults a user gets.  The ATPG budget binds on effort
(backtracks and frames), never on the clock, so every test set is a
deterministic function of the circuit and the budget.

The seed decides the order in which each flow round visits its circuits,
and the random test sets ``validate`` grades (whose pairs keep Table II
order, so peak memory does not depend on the seed).  It does not set
``AtpgBudget.seed``: that stays at its default, so ATPG effort, coverage
and test-set digests repeat exactly from run to run and seed to seed,
and a flow timing differs between seeds only by noise.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.atpg.budget import AtpgBudget
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.core.preservation import verify_preservation
from repro.pipeline.flow import FlowPipeline
from repro.simulation.cache import clear_compile_cache, compile_cache_stats
from repro.store.core import ArtifactStore, set_default_store
from repro.testset.model import TestSet

from benchmarks.e2e.report import Outcome, peak_rss_mb
from benchmarks.e2e.trace import Tracer

#: The flow circuits.  pma.jo.sd has a forward retiming move, so its
#: derived test set carries a non-empty prefix P; dk16.ji.sd and
#: pma.jo.sd fit the Lemma 2 check, s510.jo.sr and s832.jo.sr exceed
#: every equivalence tier (so ``verify`` reports them unverified);
#: s510.jo.sr is the paper's own case study.
FLOW_SPECS = ("dk16.ji.sd", "pma.jo.sd", "s510.jo.sr", "s832.jo.sr")

#: Effort limits of every flow.  The clock limits are set out of reach
#: so the effort limits bind; a field the library no longer has is
#: dropped rather than passed (see :func:`budget_fields`).
FLOW_BUDGET = {
    "backtracks_per_fault": 4,
    "frames_cap": 6,
    "total_seconds": 1e6,
    "seconds_per_fault": 1e6,
}

#: Random test set graded per Table II pair by ``validate``.
VALIDATE_SEQUENCES = 8
VALIDATE_LENGTH = 64

#: Stage names whose result a warm store must serve.
MEMOIZED_STAGES = ("synth", "retime", "collapse", "atpg", "faultsim")


def budget_fields(limits: Dict[str, float]) -> Dict[str, float]:
    """``limits`` without the keys :class:`AtpgBudget` does not define."""
    known = {f.name for f in dataclasses.fields(AtpgBudget)}
    return {key: value for key, value in limits.items() if key in known}


def table2_specs(names: Sequence[str]):
    by_name = {spec.name: spec for spec in TABLE2_CIRCUITS}
    return [by_name[name] for name in names]


def digest(*test_sets: TestSet) -> str:
    text = "".join(test_set.to_text() for test_set in test_sets)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Env:
    """One run's settings, scratch directory and tracer."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer()
        self.rng = random.Random(seed)
        #: Called once between rounds, at half the window; its time does
        #: not count against the window.
        self.midway: Optional[Callable[[], None]] = None

    def rounds(self) -> Iterator[Tuple[int, str]]:
        """``(index, mode)`` until the measuring window closes.

        ``mode`` is ``"untraced"`` in a plain run.  A trace run starts with
        one unrecorded ``"warmup"`` round, so first-use costs stay out of
        both sides, then alternates ``"untraced"`` and ``"traced"`` rounds
        so the tracing overhead is measured in the same process; it runs
        at least one of each.  Garbage is collected between rounds, outside
        the timing, so every round starts from the same heap instead of
        paying for the previous round's garbage.
        """
        minimum = 3 if self.trace else 1
        started = time.perf_counter()
        index = 0
        midway = self.midway
        while index < minimum or time.perf_counter() - started < self.seconds:
            if midway is not None and time.perf_counter() - started >= self.seconds / 2:
                paused = time.perf_counter()
                midway()
                started += time.perf_counter() - paused
                midway = None
            gc.collect()
            if not self.trace:
                yield index, "untraced"
            elif index == 0:
                yield index, "warmup"
            else:
                yield index, "traced" if index % 2 == 0 else "untraced"
            index += 1

    def tracing(self, mode: str, trace_id: str):
        return self.tracer.tracing(trace_id) if mode == "traced" else nullcontext()

    def record(self, outcome: Outcome, mode: str, milliseconds: float) -> bool:
        """File one round's time under its mode; False for a warm-up."""
        if mode == "warmup":
            return False
        (outcome.traced_ms if mode == "traced" else outcome.samples_ms).append(milliseconds)
        return True

    def fresh_store(self, name: str) -> ArtifactStore:
        """An empty store, made the process default (the compile cache's
        persistent level reads the default store)."""
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        store = ArtifactStore(root=path)
        set_default_store(store)
        return store


# -- set-up ------------------------------------------------------------------


def prepare_flows(env: Env):
    return table2_specs(FLOW_SPECS), AtpgBudget(**budget_fields(FLOW_BUDGET))


def prepare_validate(env: Env):
    """Every Table II pair, built without a store, and one seeded random
    test set per pair on the original circuit's inputs."""
    rng = random.Random(env.seed)
    cases = []
    for spec in TABLE2_CIRCUITS:
        pair = build_pair(spec, use_cache=False, store=None)
        width = len(pair.original.input_names)
        sequences = [
            [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(VALIDATE_LENGTH)]
            for _ in range(VALIDATE_SEQUENCES)
        ]
        cases.append((pair, TestSet.from_lists(pair.original.name, width, sequences)))
    return cases


PREPARE = {
    "flow-cold": prepare_flows,
    "flow-warm": prepare_flows,
    "validate": prepare_validate,
}


# -- shared per-round accounting ---------------------------------------------


def _flow_counters(results) -> Dict[str, float]:
    """Per-layer counts of one round of ``run_spec`` results."""
    counts = {
        "pipeline.hits": 0,
        "pipeline.misses": 0,
        "atpg.det_effort": 0,
        "atpg.backtracks": 0,
        "atpg.frames_simulated": 0,
        "atpg.targeted": 0,
        "atpg.aborted": 0,
        "atpg.sequences": 0,
        "equivalence.checked": 0,
        "equivalence.unverified": 0,
        "equivalence.visited_states": 0,
    }
    detected = det_seconds = 0.0
    for result in results:
        for stage in result.stages:
            if stage.cache in ("hit", "miss"):
                counts["pipeline.hits" if stage.cache == "hit" else "pipeline.misses"] += 1
            if stage.name == "verify":
                checked = bool(stage.detail.get("checked"))
                counts["equivalence.checked" if checked else "equivalence.unverified"] += 1
                for side in ("visited_hard", "visited_easy"):
                    counts["equivalence.visited_states"] += int(stage.detail.get(side, 0))
        atpg = result.flow.atpg_result
        rows = atpg.fault_rows
        if rows:  # computed here, not read from the store
            counts["atpg.det_effort"] += sum(r.backtracks + r.frames_simulated for r in rows)
            counts["atpg.targeted"] += len(rows)
            counts["atpg.backtracks"] += atpg.backtracks
            counts["atpg.frames_simulated"] += atpg.frames_simulated
            counts["atpg.aborted"] += len(atpg.aborted)
            detected += atpg.deterministic_detected
            det_seconds += atpg.deterministic_seconds
        counts["atpg.sequences"] += atpg.test_set.num_sequences
    if counts["atpg.targeted"]:
        counts["atpg.det_yield"] = detected / counts["atpg.targeted"]
    if det_seconds:
        counts["atpg.frames_per_s"] = counts["atpg.frames_simulated"] / det_seconds
    return counts


def _cache_counts(store: ArtifactStore) -> Dict[str, int]:
    compile_stats = compile_cache_stats()
    return {
        "compile_hits": compile_stats["hits"],
        "compile_misses": compile_stats["misses"],
        "store_hits": store.stats.hits,
        "store_misses": store.stats.misses,
        "store_writes": store.stats.writes,
    }


def _cache_usage(before: Dict[str, int], store: ArtifactStore) -> Dict[str, float]:
    """Compile-cache and store traffic since ``before`` (one round's)."""
    now = _cache_counts(store)
    delta = {key: now[key] - before[key] for key in now}
    lookups = delta["store_hits"] + delta["store_misses"]
    return {
        "simulation.compile_hits": delta["compile_hits"],
        "simulation.compile_misses": delta["compile_misses"],
        "store.get_calls": lookups,
        "store.put_calls": delta["store_writes"],
        "store.hit_ratio": delta["store_hits"] / lookups if lookups else 0.0,
    }


def _median_counters(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({key for counts in rounds for key in counts})
    return {key: statistics.median(c.get(key, 0) for c in rounds) for key in keys}


def _atpg_phase_seconds(results) -> Tuple[float, float]:
    random_s = sum(r.flow.atpg_result.random_seconds for r in results if r.flow.atpg_result.fault_rows)
    det_s = sum(r.flow.atpg_result.deterministic_seconds for r in results if r.flow.atpg_result.fault_rows)
    return random_s, det_s


def _run_pass(env: Env, outcome: Outcome, pipeline_factory, specs, budget, label: str):
    """``run_spec`` over ``specs``; returns the results and the wall
    seconds of each call, by circuit name."""
    results = []
    seconds: Dict[str, float] = {}
    with env.tracer.span("bench.round"):
        for spec in specs:
            env.tracer.trace_id = f"{label}/{spec.name}"
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                result = pipeline_factory().run_spec(spec, budget)
            except Exception as error:  # the run goes on; the op is failed
                outcome.fail(f"{label}/{spec.name}: {type(error).__name__}: {error}")
                result = None
            seconds[spec.name] = time.perf_counter() - started
            if result is not None:
                results.append((spec, result))
    return results, seconds


def _record_pass(env: Env, outcome: Outcome, mode: str, seconds: Dict[str, float]) -> None:
    """One timed pass: its summed wall time and, untraced, each circuit's."""
    if env.record(outcome, mode, 1000.0 * sum(seconds.values())) and mode == "untraced":
        per_spec = outcome.details.setdefault("spec_ms", {})
        for name, value in seconds.items():
            per_spec.setdefault(name, []).append(1000.0 * value)


def _check_flow(outcome: Outcome, label: str, spec, result, expected: Dict[str, str]) -> None:
    """Effort-bound ATPG and a test set identical to the first one seen."""
    if any(row.status == "budget" for row in result.flow.atpg_result.fault_rows):
        outcome.fail(f"{label}/{spec.name}: the ATPG clock bound, not the effort budget")
    seen = digest(result.flow.atpg_result.test_set, result.flow.derived_test_set)
    if expected.setdefault(spec.name, seen) != seen:
        outcome.fail(f"{label}/{spec.name}: test set {seen} differs from {expected[spec.name]}")


def _finish(outcome: Outcome, counters: List[Dict[str, float]],
            traced_phase: Tuple[float, float] = (0.0, 0.0)) -> Outcome:
    outcome.layers.update(_median_counters(counters))
    outcome.details["atpg_random_traced_s"], outcome.details["atpg_det_traced_s"] = traced_phase
    outcome.rss_mb = peak_rss_mb()
    return outcome


# -- workloads ---------------------------------------------------------------


def run_flow_cold(env: Env, prepared) -> Outcome:
    """Rounds of the Fig. 6 flow on an empty store and compile cache."""
    specs, budget = prepared
    outcome = Outcome()
    digests: Dict[str, str] = {}
    counters: List[Dict[str, float]] = []
    coverage: List[float] = []
    traced_phase = [0.0, 0.0]
    for index, mode in env.rounds():
        order = env.rng.sample(specs, len(specs))
        store = env.fresh_store("cold-store")
        clear_compile_cache()
        before = _cache_counts(store)
        label = f"flow-cold/{index}"
        with env.tracing(mode, label):
            results, seconds = _run_pass(env, outcome, lambda: FlowPipeline(store), order, budget, label)
        _record_pass(env, outcome, mode, seconds)
        for spec, result in results:
            _check_flow(outcome, label, spec, result, digests)
        coverage.append(statistics.mean(r.flow.hard_coverage for _, r in results) if results else 0.0)
        counters.append({**_flow_counters([r for _, r in results]), **_cache_usage(before, store)})
        if mode == "traced":
            random_s, det_s = _atpg_phase_seconds([r for _, r in results])
            traced_phase[0] += random_s
            traced_phase[1] += det_s
    outcome.coverage_pct = statistics.median(coverage)
    outcome.details["test_set_digests"] = digests
    return _finish(outcome, counters, tuple(traced_phase))


def run_flow_warm(env: Env, prepared) -> Outcome:
    """Passes of the flow, with the Lemma 2 ``verify`` stage, over a store
    that one cold pass filled: every memoized stage must hit."""
    specs, budget = prepared
    outcome = Outcome()
    store = env.fresh_store("warm-store")
    clear_compile_cache()
    digests: Dict[str, str] = {}
    started = time.perf_counter()
    fill, _ = _run_pass(env, outcome, lambda: FlowPipeline(store), specs, budget, "flow-warm/fill")
    outcome.details["fill_s"] = time.perf_counter() - started
    for spec, result in fill:
        _check_flow(outcome, "flow-warm/fill", spec, result, digests)
    counters: List[Dict[str, float]] = []
    for index, mode in env.rounds():
        order = env.rng.sample(specs, len(specs))
        label = f"flow-warm/{index}"
        before = _cache_counts(store)
        with env.tracing(mode, label):
            results, seconds = _run_pass(
                env, outcome, lambda: FlowPipeline(store, verify=True), order, budget, label
            )
        _record_pass(env, outcome, mode, seconds)
        for spec, result in results:
            _check_flow(outcome, label, spec, result, digests)
            cold = [s.name for s in result.stages if s.name in MEMOIZED_STAGES and s.cache != "hit"]
            if cold:
                outcome.fail(f"{label}/{spec.name}: warm store missed {cold}")
        counters.append({**_flow_counters([r for _, r in results]), **_cache_usage(before, store)})
    outcome.coverage_pct = statistics.mean(r.flow.hard_coverage for _, r in fill) if fill else 0.0
    outcome.details["test_set_digests"] = digests
    return _finish(outcome, counters)


def run_validate(env: Env, prepared) -> Outcome:
    """Rounds of Theorem 4 grading (Table III): ``verify_preservation``
    on every Table II pair with that pair's random test set."""
    cases = prepared
    outcome = Outcome()
    store = env.fresh_store("validate-store")
    detections: Optional[int] = None
    coverage: List[float] = []
    counters: List[Dict[str, float]] = []
    for index, mode in env.rounds():
        label = f"validate/{index}"
        reports = []
        before = _cache_counts(store)
        with env.tracing(mode, label):
            started = time.perf_counter()
            with env.tracer.span("bench.round"):
                for pair, test_set in cases:
                    env.tracer.trace_id = f"{label}/{pair.spec.name}"
                    outcome.attempted += 1
                    try:
                        with env.tracer.span("core.validate"):
                            report = verify_preservation(
                                pair.original, pair.retiming, test_set, retimed=pair.retimed
                            )
                    except Exception as error:  # the run goes on; the op is failed
                        outcome.fail(f"{label}/{pair.spec.name}: {type(error).__name__}: {error}")
                        continue
                    reports.append((pair, report))
            elapsed = time.perf_counter() - started
        env.record(outcome, mode, 1000.0 * elapsed)
        counters.append(_cache_usage(before, store))
        for pair, report in reports:
            if not report.holds:
                outcome.fail(f"{label}/{pair.spec.name}: Theorem 4 missed {len(report.missed)} faults")
        total = sum(r.original_detected + r.retimed_detected for _, r in reports)
        if detections is None:
            detections = total
        elif total != detections:
            outcome.fail(f"{label}: {total} detections, first round had {detections}")
        if reports:
            coverage.append(
                statistics.mean(100.0 * r.retimed_detected / r.retimed_faults for _, r in reports)
            )
    outcome.coverage_pct = statistics.median(coverage) if coverage else 0.0
    outcome.details["detections"] = detections
    return _finish(outcome, counters)


RUN = {
    "flow-cold": run_flow_cold,
    "flow-warm": run_flow_warm,
    "validate": run_validate,
}


__all__ = [
    "Env",
    "FLOW_BUDGET",
    "FLOW_SPECS",
    "PREPARE",
    "RUN",
    "budget_fields",
]
