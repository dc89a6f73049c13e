"""Outside-in spans for the ``--trace 1`` runs.

The library knows nothing of tracing.  A traced round replaces, for its
duration only, the module attributes through which one layer calls the
next (``repro.atpg.engine.parallel_fault_simulate``, the stage methods of
``FlowPipeline``, ``ArtifactStore.get`` ...) with wrappers that record a
span, and puts the originals back when the round ends.  Untraced rounds,
and every run with ``--trace 0``, execute the library unwrapped.

A span records its name, start, end, parent and trace id (the
workload/round/spec, or the request id).  Spans stay in memory and are
written to a JSON file when the run ends.  A hook whose target no longer
exists is listed as missing instead of failing the run, so a later
change may rename or delete internals without editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Describe = Optional[Callable[[tuple, dict, object], Dict[str, object]]]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _faultsim_counts(args: tuple, kwargs: dict, result) -> Dict[str, object]:
    sequences = _arg(args, kwargs, 1, "sequences") or ()
    faults = _arg(args, kwargs, 2, "faults")
    vectors = sum(len(sequence) for sequence in sequences)
    return {
        "fault_vectors": vectors * (len(faults) if faults is not None else 0),
        "detections": getattr(result, "num_detected", 0),
    }


#: (module, attribute path, span name, counter extractor).  Each entry is
#: the name one layer uses to call the next, so wrapping it times exactly
#: the calls that cross that boundary.
HOOKS: Tuple[Tuple[str, str, str, Describe], ...] = (
    ("repro.pipeline.flow", "FlowPipeline.run_spec", "pipeline.run_spec", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_synth", "pipeline.synth", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_pair_retime", "pipeline.retime", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_easy_retiming", "pipeline.retime", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_verify", "pipeline.verify", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_collapse", "pipeline.collapse", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_atpg", "pipeline.atpg", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_derive", "pipeline.derive", None),
    ("repro.pipeline.flow", "FlowPipeline.stage_faultsim", "pipeline.faultsim", None),
    ("repro.pipeline.flow", "fault_simulate", "faultsim", _faultsim_counts),
    ("repro.core.preservation", "fault_simulate", "faultsim", _faultsim_counts),
    ("repro.atpg.engine", "parallel_fault_simulate", "faultsim", _faultsim_counts),
    ("repro.pipeline.flow", "collapse_faults", "faults.collapse", None),
    ("repro.core.preservation", "collapse_faults", "faults.collapse", None),
    ("repro.core.preservation", "FaultCorrespondence", "faults.correspondence", None),
    ("repro.pipeline.flow", "derive_retimed_test_set", "testset.derive", None),
    ("repro.core.preservation", "derive_retimed_test_set", "testset.derive", None),
    ("repro.equivalence", "extract_stg", "equivalence.extract", None),
    ("repro.equivalence", "time_equivalence_bound", "equivalence.bound", None),
    ("repro.simulation.cache", "CompiledCircuit", "simulation.stepper_build", None),
    ("repro.simulation.cache", "FastStepper", "simulation.stepper_build", None),
    ("repro.simulation.cache", "VectorFastStepper", "simulation.stepper_build", None),
    ("repro.simulation.cache", "DualFastStepper", "simulation.stepper_build", None),
    ("repro.store.core", "ArtifactStore.get", "store.get", None),
    ("repro.store.core", "ArtifactStore.put", "store.put", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "trace", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, trace, start, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.trace = trace
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "trace": self.trace,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder; records only inside :meth:`tracing`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.trace_id = ""
        self._stack: List[Span] = []
        self._active = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        """Record one span; the yielded dict collects its attributes."""
        if not self._active:
            yield attrs
            return
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.trace_id, time.perf_counter(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield attrs
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, parent: Optional[int], trace: str, start: float, end: float) -> int:
        """Record a finished span from timestamps taken elsewhere."""
        span = Span(len(self.spans), parent, name, trace, start, {})
        span.end = end
        self.spans.append(span)
        return span.id

    def _wrap(self, original, name: str, describe: Describe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def tracing(self, trace_id: str) -> Iterator[None]:
        """Install every hook and record spans until the block ends."""
        undo = []
        try:
            for module_name, path, name, describe in HOOKS:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for parent in parents:
                        owner = getattr(owner, parent)
                    # A class attribute is read from __dict__ so the
                    # restored value is the plain function, not a bound one.
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    target = f"{module_name}:{path}"
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                setattr(owner, attr, self._wrap(original, name, describe))
                undo.append((owner, attr, original))
            self.trace_id = trace_id
            self._active = True
            yield
        finally:
            self._active = False
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"missing": self.missing, "spans": [s.as_dict() for s in self.spans]},
                handle,
            )


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - children.get(span.id, 0.0) for span in spans}


def layer_profile(spans: List[Span]) -> Dict[str, object]:
    """Self time per span name over the root spans, plus counters.

    ``roots_s`` is the summed duration of the root spans (the timed
    operations); every second of it lands in exactly one name's self
    time, the roots' own names included.  ``roots_self_s`` is the part
    no layer span covers: the benchmark's own glue.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_s: Dict[str, float] = {}
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    in_atpg = 0.0
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        if span.name == "faultsim":
            parent = span.parent
            while parent is not None and by_id[parent].name != "pipeline.atpg":
                parent = by_id[parent].parent
            if parent is not None:
                in_atpg += own[span.id]
    roots = [span for span in spans if span.parent is None]
    return {
        "roots_s": sum(span.seconds for span in roots),
        "roots_self_s": sum(own[span.id] for span in roots),
        "self_s": self_s,
        "calls": calls,
        "totals": totals,
        "faultsim_in_atpg_s": in_atpg,
    }


__all__ = ["HOOKS", "Span", "Tracer", "layer_profile", "self_times"]
