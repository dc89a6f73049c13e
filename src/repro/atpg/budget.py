"""Effort budgets and statistics for the ATPG engine.

The paper measures ATPG cost in DECstation 3100 CPU seconds with HITEC's
abort limits.  Here cost is wall-clock seconds plus the exact search's
lane-steps; the budget caps both, and Table II's *CPU ratio* column is
reproduced as the ratio of effort spent under identical budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Tuple

#: Counts that must be at least 1: a zero random batch never finishes the
#: random phase, a walk needs at least one candidate vector per cycle, and
#: a zero lane-step cap would abort every fault the random phase leaves.
_AT_LEAST_ONE = ("random_batch", "sync_samples", "exact_lane_steps")


@dataclass(frozen=True)
class AtpgBudget:
    """Caps for one ATPG run.

    Construction rejects (``ValueError``) a ``total_seconds`` that is not
    a number ``>= 0`` (NaN included) and a count that is not an
    ``int >= 0`` (``>= 1`` for ``random_batch``, ``sync_samples`` and
    ``exact_lane_steps``).
    """

    total_seconds: float = 30.0
    random_sequences: int = 64
    random_length: int = 24
    random_stale_limit: int = 12
    random_batch: int = 8
    sync_samples: int = 8
    seed: int = 1995
    #: Per-fault cap of the exact product-machine search
    #: (:mod:`repro.atpg.exact`), in lane-steps: the input-cube lanes the
    #: search simulates for one fault.
    exact_lane_steps: int = 1 << 20

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            clock = spec.name == "total_seconds"
            least = 1 if spec.name in _AT_LEAST_ONE else 0
            # ``not value >= least`` also holds for NaN.
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float) if clock else int)
                or not value >= least
            ):
                kind = "a number of seconds" if clock else "an integer"
                raise ValueError(
                    f"{spec.name} must be {kind} >= {least}, got {value!r}"
                )


@dataclass
class FaultEffort:
    """Per-fault effort record: one row of a run's telemetry.

    ``fault_key`` is ``(edge_index, segment, stuck_value)``.  ``status``
    is the exact search's verdict: ``"det"`` (a test), ``"proved"`` (no
    test exists), ``"cap"`` (undecided within ``exact_lane_steps``) or
    ``"budget"`` (undecided when the wall clock ran out).  ``lane_steps``
    is the search's effort on the fault; ``backtracks`` and
    ``frames_simulated`` count time-frame search effort, which the exact
    search never spends, so they stay 0.
    """

    fault_key: Tuple[int, int, int]
    status: str
    backtracks: int = 0
    frames_simulated: int = 0
    lane_steps: int = 0


@dataclass
class EffortMeter:
    """The wall clock of one run, against its budget."""

    budget: AtpgBudget
    started: float = field(default_factory=time.perf_counter)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def out_of_time(self) -> bool:
        return self.elapsed() >= self.budget.total_seconds

    @staticmethod
    def fault_key(fault) -> Tuple[int, int, int]:
        return (fault.line.edge_index, fault.line.segment, fault.value)


__all__ = ["AtpgBudget", "EffortMeter", "FaultEffort"]
