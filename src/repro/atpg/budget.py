"""Effort budgets and statistics for the ATPG engine.

The paper measures ATPG cost in DECstation 3100 CPU seconds with HITEC's
abort limits.  Here cost is wall-clock seconds plus backtrack counts; the
budget caps both, and Table II's *CPU ratio* column is reproduced as the
ratio of effort spent under identical budgets.

For the multiprocess deterministic phase (``repro.atpg.parallel``) the
wall-clock budget is *shared* across the pool: the parent snapshots its
remaining seconds when a chunk is dispatched and each worker meters its
own chunk against that allowance via :attr:`EffortMeter.cap_seconds`, so
the pool as a whole never outspends the budget a serial run would get.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class AtpgBudget:
    """Caps for one ATPG run."""

    total_seconds: float = 30.0
    seconds_per_fault: float = 0.25
    backtracks_per_fault: int = 400
    max_frames: int = 12
    frames_cap: int = 64
    random_sequences: int = 64
    random_length: int = 24
    random_stale_limit: int = 12
    random_batch: int = 8
    sync_samples: int = 8
    seed: int = 1995
    #: Per-fault cap of the exact product-machine search
    #: (:mod:`repro.atpg.exact`), in lane-steps: the input-cube lanes the
    #: search simulates for one fault.  ``0`` leaves every fault to PODEM.
    exact_lane_steps: int = 1 << 20

    def scaled(self, factor: float) -> "AtpgBudget":
        """A proportionally larger/smaller budget.

        Clocks, per-fault effort caps and the random sequence count scale;
        every other field carries over unchanged.  A zero lane-step cap
        (exact search off) stays zero.
        """
        return replace(
            self,
            total_seconds=self.total_seconds * factor,
            seconds_per_fault=self.seconds_per_fault * factor,
            backtracks_per_fault=max(1, int(self.backtracks_per_fault * factor)),
            random_sequences=max(1, int(self.random_sequences * factor)),
            exact_lane_steps=(
                max(1, int(self.exact_lane_steps * factor))
                if self.exact_lane_steps
                else 0
            ),
        )


@dataclass
class FaultEffort:
    """Per-fault effort record: one row of a run's telemetry.

    ``fault_key`` is ``(edge_index, segment, stuck_value)`` -- the stable
    identity every ranking sort ties on.  ``status`` is ``"det"``
    (detected), ``"abort"`` (budget-aborted mid-search), ``"exhausted"``
    (search space exhausted, untestable at this depth) or ``"budget"``
    (never targeted: the shared wall clock expired first).  Counters are
    the deltas of the owning :class:`EffortMeter` over the attempt, so a
    budget-aborted fault still flushes its *partial* effort instead of
    being dropped.

    A fault the exact search (:mod:`repro.atpg.exact`) decided has status
    ``"det"`` or ``"proved"`` and its effort in ``lane_steps`` alone; it
    never ran PODEM.
    """

    fault_key: Tuple[int, int, int]
    status: str
    seconds: float = 0.0
    backtracks: int = 0
    simulations: int = 0
    frames_simulated: int = 0
    lanes_evaluated: int = 0
    objective_choices: int = 0
    lane_steps: int = 0


@dataclass
class EffortMeter:
    """Tracks spent effort against a budget.

    ``cap_seconds`` optionally tightens the wall-clock allowance below
    ``budget.total_seconds`` -- a pool worker is handed the parent's
    *remaining* seconds as its cap, so a late-dispatched chunk cannot run
    the full budget again on its own clock.

    Besides the run-wide counters the meter keeps per-fault
    :class:`FaultEffort` rows: :meth:`begin_fault` snapshots the counters,
    :meth:`end_fault` flushes the deltas.  The PODEM engine brackets every
    attempt in ``try/finally``, so rows survive budget aborts.
    """

    budget: AtpgBudget
    cap_seconds: Optional[float] = None
    started: float = field(default_factory=time.perf_counter)
    backtracks: int = 0
    simulations: int = 0
    frames_simulated: int = 0
    lanes_evaluated: int = 0
    objective_choices: int = 0
    fault_rows: List[FaultEffort] = field(default_factory=list)
    _fault_mark: Optional[Tuple[Tuple[int, int, int], float, int, int, int, int, int]] = None

    def _limit(self) -> float:
        if self.cap_seconds is None:
            return self.budget.total_seconds
        return min(self.budget.total_seconds, self.cap_seconds)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        """Wall-clock seconds left before the meter runs out (never < 0)."""
        return max(0.0, self._limit() - self.elapsed())

    def out_of_time(self) -> bool:
        return self.elapsed() >= self._limit()

    def note_backtrack(self) -> None:
        self.backtracks += 1

    def note_simulation(self, frames: int = 1, lanes: Optional[int] = None) -> None:
        """Record one simulation call covering ``frames`` machine-frames.

        ``frames`` counts time frames multiplied by machines stepped (the
        fault-free and the faulty machine each count), so the telemetry
        reflects real work rather than call counts -- a single PODEM
        resimulation call may recompute the whole unrolled window.
        ``lanes`` counts lane-frames: with a bit-packed kernel one call
        evaluates several packed branch lanes per machine-frame; it
        defaults to ``frames`` (one lane per machine-frame, the scalar
        case).
        """
        self.simulations += 1
        self.frames_simulated += frames
        self.lanes_evaluated += frames if lanes is None else lanes

    def note_objective(self) -> None:
        """Record one accepted backtrace objective (a PI assignment)."""
        self.objective_choices += 1

    @staticmethod
    def fault_key(fault) -> Tuple[int, int, int]:
        return (fault.line.edge_index, fault.line.segment, fault.value)

    def begin_fault(self, fault) -> None:
        """Snapshot the counters before one PODEM attempt."""
        self._fault_mark = (
            self.fault_key(fault),
            time.perf_counter(),
            self.backtracks,
            self.simulations,
            self.frames_simulated,
            self.lanes_evaluated,
            self.objective_choices,
        )

    def end_fault(self, status: str) -> None:
        """Flush the attempt's counter deltas as a :class:`FaultEffort`.

        Idempotent against a missing :meth:`begin_fault` (no mark, no
        row), so callers can keep it in a ``finally`` block.
        """
        if self._fault_mark is None:
            return
        key, t0, bt, sim, frames, lanes, obj = self._fault_mark
        self._fault_mark = None
        self.fault_rows.append(
            FaultEffort(
                fault_key=key,
                status=status,
                seconds=time.perf_counter() - t0,
                backtracks=self.backtracks - bt,
                simulations=self.simulations - sim,
                frames_simulated=self.frames_simulated - frames,
                lanes_evaluated=self.lanes_evaluated - lanes,
                objective_choices=self.objective_choices - obj,
            )
        )

    def skip_fault(self, fault) -> None:
        """Record a fault the wall clock expired before targeting."""
        self.fault_rows.append(
            FaultEffort(fault_key=self.fault_key(fault), status="budget")
        )


__all__ = ["AtpgBudget", "EffortMeter", "FaultEffort"]
