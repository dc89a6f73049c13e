"""The Fig. 6 flow as an explicit, store-backed, journaled stage pipeline.

:class:`FlowPipeline` decomposes the retime-for-testability flow into the
stages a reader of the paper would draw on a whiteboard::

    synth -> retime -> collapse -> atpg -> derive -> faultsim

Each stage is **memoized against the artifact store** (when one is
attached): its inputs are folded into a content key, a valid record under
that key short-circuits the stage, and a recomputed result is written back.
A warm store therefore turns the expensive front of the flow -- synthesis,
min-register retiming, ATPG -- into reads, while the always-cheap stages
(test-set derivation) simply recompute.  Every stage emits ``stage_start``
/ ``stage_end`` events into the run journal with wall seconds, CPU
seconds, its cache disposition and store key, and every record the stage
reads or writes is pinned via ``artifact_ref`` so the GC cannot evict
evidence out from under a journal.

With no store attached the pipeline degrades to exactly the plain flow:
every stage computes, every cache disposition reads ``off``.

Two properties matter to the job service (:mod:`repro.service`), which
runs many pipelines against one shared store:

* **atomic read-and-pin** -- stage loads pass the journal's
  ``artifact_ref`` into :meth:`ArtifactStore.get`/``put`` as the ``pin``
  callback, so the journal pin is recorded inside the store's shard lock
  and a concurrent GC can never evict a record between the read and the
  pin landing;
* **cancellation** -- a ``cancel_event`` (any object with ``is_set()``)
  is checked at every stage boundary; a set event raises
  :class:`FlowCancelled` before the next stage starts, which is how the
  server aborts a queued-then-unwanted job without killing the process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class FlowCancelled(RuntimeError):
    """Raised at a stage boundary when the pipeline's cancel event is set."""

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import AtpgResult, run_atpg
from repro.circuit.digest import circuit_digest, structural_identity
from repro.circuit.netlist import Circuit
from repro.core.flow import FlowResult
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.faultsim import FaultSimResult, fault_simulate
from repro.retiming.core import Retiming
from repro.retiming.minregister import min_register_retiming
from repro.store.artifacts import (
    atpg_result_from_payload,
    atpg_result_payload,
    budget_fingerprint,
    faults_fingerprint,
    faults_from_payload,
    faults_payload,
    faultsim_from_payload,
    faultsim_payload,
    retiming_from_payload,
    retiming_payload,
)
from repro.store.core import ArtifactStore
from repro.store.journal import RunJournal
from repro.testset.model import TestSet
from repro.testset.transform import derive_retimed_test_set


@dataclass
class StageRecord:
    """One executed pipeline stage, as the journal reports it."""

    name: str
    seconds: float
    cpu_seconds: float
    cache: str  # "hit" | "miss" | "off"
    store_key: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """A flow outcome plus the stage-by-stage account of producing it."""

    flow: FlowResult
    stages: List[StageRecord]
    journal_path: Optional[str] = None

    def stage(self, name: str) -> Optional[StageRecord]:
        for record in self.stages:
            if record.name == name:
                return record
        return None


class FlowPipeline:
    """Stage-structured executor for the Fig. 6 flow.

    Args:
        store: artifact store backing stage memoization (``None`` = compute
            everything, the behaviour of the plain flow functions).
        journal: run journal receiving stage events and artifact pins.
        verify: run a ``verify`` stage after retiming -- the Lemma 2
            behavioural check (``K ==Nt K'`` on the explicit state space,
            :func:`~repro.equivalence.check_time_equivalence`) between the
            hard circuit and its easy retiming.
        cancel_event: an object with ``is_set()`` (e.g. a
            ``threading.Event``) polled at every stage boundary; once set,
            the next stage raises :class:`FlowCancelled` instead of
            starting.  One pipeline instance runs one flow at a time; for
            concurrent flows, create one pipeline per run.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        journal: Optional[RunJournal] = None,
        *,
        verify: bool = False,
        cancel_event=None,
    ):
        self.store = store
        self.journal = journal
        self.verify = verify
        self.cancel_event = cancel_event
        self.stages: List[StageRecord] = []

    # -- stage bookkeeping ---------------------------------------------------

    def _pin(self) -> Optional[Callable[[str], None]]:
        """The journal's pin callback, for in-lock pinning by the store."""
        if self.journal is None:
            return None
        return self.journal.artifact_ref

    def _stage_start(self, name: str) -> Tuple[float, float]:
        if self.cancel_event is not None and self.cancel_event.is_set():
            if self.journal is not None:
                self.journal.event("cancelled", stage=name)
            raise FlowCancelled(f"flow cancelled before stage {name!r}")
        if self.journal is not None:
            self.journal.event("stage_start", stage=name)
        return (time.perf_counter(), time.process_time())

    def _stage_end(
        self,
        name: str,
        started: Tuple[float, float],
        cache: str,
        key: Optional[str],
        **detail: object,
    ) -> StageRecord:
        seconds = time.perf_counter() - started[0]
        cpu_seconds = time.process_time() - started[1]
        record = StageRecord(name, seconds, cpu_seconds, cache, key, dict(detail))
        self.stages.append(record)
        if self.journal is not None:
            self.journal.event(
                "stage_end",
                stage=name,
                seconds=round(seconds, 6),
                cpu_seconds=round(cpu_seconds, 6),
                cache=cache,
                store_key=key,
                **detail,
            )
        return record

    def _load(self, kind: str, key: Optional[str], decode: Callable):
        """``(value, cache)`` from the store; pins the record when hit.

        The pin is recorded by the store *inside its shard lock*, so a
        concurrent GC re-reading pins under the same lock either sees the
        reference or has already evicted the record (a plain miss here) --
        never the old in-between where a freshly read artifact vanished
        before its journal reference landed.
        """
        if self.store is None or key is None:
            return None, "off"
        payload = self.store.get(kind, key, pin=self._pin())
        value = decode(payload) if payload is not None else None
        if value is None:
            return None, "miss"
        return value, "hit"

    def _save(self, kind: str, key: Optional[str], payload: Dict[str, object]) -> None:
        if self.store is None or key is None:
            return
        try:
            self.store.put(kind, key, payload, pin=self._pin())
        except OSError:
            return  # an unwritable store only loses memoization

    # -- stages --------------------------------------------------------------

    def stage_synth(self, spec) -> Circuit:
        """Synthesize one Table II variant (store-backed)."""
        from repro.core.experiments import synthesize_original

        started = self._stage_start("synth")
        circuit, cache, key = synthesize_original(
            spec, store=self.store, pin=self._pin()
        )
        self._stage_end(
            "synth",
            started,
            cache,
            key,
            circuit=circuit.name,
            gates=circuit.num_gates(),
            dffs=circuit.num_registers(),
        )
        return circuit

    def stage_pair_retime(self, spec, original: Circuit):
        """Performance-retime a synthesized variant (store-backed)."""
        from repro.core.experiments import CircuitPair, retime_pair

        started = self._stage_start("retime")
        retimed, retiming, cache, key = retime_pair(
            spec, original, store=self.store, pin=self._pin()
        )
        self._stage_end(
            "retime",
            started,
            cache,
            key,
            circuit=retimed.name,
            dffs=retimed.num_registers(),
        )
        return CircuitPair(
            spec=spec, original=original, retimed=retimed, retiming=retiming
        )

    def stage_easy_retiming(self, hard_circuit: Circuit) -> Retiming:
        started = self._stage_start("retime")
        key = None
        if self.store is not None:
            key = self.store.key(
                "easy-retime",
                circuit_digest(hard_circuit),
                structural_identity(hard_circuit),
            )
        retiming, cache = self._load(
            "retiming", key, lambda p: retiming_from_payload(p, hard_circuit)
        )
        if retiming is None:
            retiming = min_register_retiming(hard_circuit).retiming
            self._save("retiming", key, retiming_payload(retiming))
        self._stage_end(
            "retime",
            started,
            cache,
            key,
            circuit=hard_circuit.name,
            registers_saved=-retiming.register_delta(),
        )
        return retiming

    def stage_verify(
        self,
        hard_circuit: Circuit,
        easy_retiming: Retiming,
        easy_circuit: Circuit,
    ) -> StageRecord:
        """Lemma 2 behavioural check between the hard/easy pair.

        Runs :func:`~repro.equivalence.check_time_equivalence` with the
        retiming's bound.  A pair past both extraction caps records
        ``skipped`` detail instead of failing; a bound violation raises
        :class:`ValueError`.  Never store-memoized: the check *is* the
        evidence, recomputing it is the point.
        """
        from repro.equivalence import check_time_equivalence

        started = self._stage_start("verify")
        check = check_time_equivalence(
            hard_circuit, easy_circuit, easy_retiming.time_equivalence_bound()
        )
        detail: Dict[str, object] = {
            "circuit": hard_circuit.name,
            "bound": check.bound,
            "checked": check.checked,
        }
        if not check.checked:
            detail["skipped"] = check.skipped
        else:
            detail["found"] = check.found
            detail["engine"] = check.engine
            for side, visited in zip(("visited_hard", "visited_easy"), check.visited):
                if visited is not None:
                    detail[side] = visited
        return self._stage_end("verify", started, "off", None, **detail)

    def stage_collapse(self, circuit: Circuit) -> List[StuckAtFault]:
        started = self._stage_start("collapse")
        key = None
        if self.store is not None:
            key = self.store.key(
                "faults", circuit_digest(circuit), structural_identity(circuit)
            )
        faults, cache = self._load(
            "faults", key, lambda p: faults_from_payload(p, circuit)
        )
        if faults is None:
            faults = collapse_faults(circuit).representatives
            self._save("faults", key, faults_payload(circuit, faults))
        self._stage_end(
            "collapse", started, cache, key, circuit=circuit.name, faults=len(faults)
        )
        return faults

    def stage_atpg(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault],
        budget: AtpgBudget,
    ) -> AtpgResult:
        started = self._stage_start("atpg")
        key = None
        if self.store is not None:
            key = self.store.key(
                "atpg",
                circuit_digest(circuit),
                structural_identity(circuit),
                faults_fingerprint(faults),
                budget_fingerprint(budget),
            )
        result, cache = self._load("atpg", key, atpg_result_from_payload)
        if result is None:
            result = run_atpg(circuit, faults, budget)
            self._save("atpg", key, atpg_result_payload(result))
        self._stage_end(
            "atpg",
            started,
            cache,
            key,
            circuit=circuit.name,
            fault_coverage=round(result.fault_coverage, 3),
            fault_efficiency=round(result.fault_efficiency, 3),
            sequences=result.test_set.num_sequences,
        )
        return result

    def stage_derive(
        self, test_set: TestSet, easy_retiming: Retiming, easy_circuit: Circuit
    ) -> Tuple[TestSet, int]:
        """Prefix the easy test set for the hard circuit (Theorem 4).

        Always computed: derivation is linear in the test set and cheaper
        than a store round trip.
        """
        started = self._stage_start("derive")
        inverse = easy_retiming.inverse(easy_circuit)
        derived = derive_retimed_test_set(test_set, inverse)
        prefix_length = inverse.max_forward_moves()
        self._stage_end(
            "derive",
            started,
            "off",
            None,
            prefix=prefix_length,
            sequences=derived.num_sequences,
        )
        return derived, prefix_length

    def stage_faultsim(
        self,
        circuit: Circuit,
        test_set: TestSet,
        faults: Sequence[StuckAtFault],
    ) -> FaultSimResult:
        started = self._stage_start("faultsim")
        key = None
        if self.store is not None:
            key = self.store.key(
                "faultsim",
                circuit_digest(circuit),
                structural_identity(circuit),
                self.store.key("testset", test_set.to_text()),
                faults_fingerprint(faults),
            )
        result, cache = self._load(
            "faultsim", key, lambda p: faultsim_from_payload(p, circuit)
        )
        if result is None:
            result = fault_simulate(circuit, test_set.as_lists(), faults)
            self._save("faultsim", key, faultsim_payload(circuit, result))
        self._stage_end(
            "faultsim",
            started,
            cache,
            key,
            circuit=circuit.name,
            fault_coverage=round(result.fault_coverage, 3),
        )
        return result

    # -- whole flows ---------------------------------------------------------

    def run(
        self,
        hard_circuit: Circuit,
        budget: Optional[AtpgBudget] = None,
        easy_retiming: Optional[Retiming] = None,
    ) -> FlowResult:
        """The Fig. 6 flow on a hard circuit (same contract as
        :func:`repro.core.flow.retime_for_testability_flow`)."""
        if budget is None:
            budget = AtpgBudget()
        if easy_retiming is None:
            easy_retiming = self.stage_easy_retiming(hard_circuit)
        easy_circuit = easy_retiming.apply(f"{hard_circuit.name}.easy")
        if self.verify:
            self.stage_verify(hard_circuit, easy_retiming, easy_circuit)

        easy_faults = self.stage_collapse(easy_circuit)
        atpg_result = self.stage_atpg(easy_circuit, easy_faults, budget)
        derived, prefix_length = self.stage_derive(
            atpg_result.test_set, easy_retiming, easy_circuit
        )
        hard_faults = self.stage_collapse(hard_circuit)
        hard_fault_sim = self.stage_faultsim(hard_circuit, derived, hard_faults)

        return FlowResult(
            hard_circuit=hard_circuit,
            easy_circuit=easy_circuit,
            easy_retiming=easy_retiming,
            prefix_length=prefix_length,
            atpg_result=atpg_result,
            derived_test_set=derived,
            hard_fault_sim=hard_fault_sim,
        )

    def run_spec(self, spec, budget: Optional[AtpgBudget] = None) -> PipelineResult:
        """Synthesize a Table II variant, retime it, and run the flow on
        the retimed (hard) circuit -- the ``python -m repro flow`` path."""
        original = self.stage_synth(spec)
        pair = self.stage_pair_retime(spec, original)
        flow = self.run(pair.retimed, budget=budget)
        journal_path = self.journal.path if self.journal is not None else None
        return PipelineResult(flow=flow, stages=list(self.stages), journal_path=journal_path)


__all__ = ["FlowCancelled", "FlowPipeline", "PipelineResult", "StageRecord"]
