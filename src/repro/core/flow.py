"""The Fig. 6 flow: retime for testability, generate, map the test set back.

The paper's practical payoff: instead of running sequential ATPG on a hard,
performance-retimed circuit, (1) retime it to an easily testable version
(minimum flip-flops), (2) run ATPG there, (3) prefix the resulting test set
with the pre-determined number of arbitrary vectors (Theorem 4) and apply
it to the circuit that will actually be implemented.  The s510.jo.sr case
study in Section V.C shows two orders of magnitude less CPU for the same
fault coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import AtpgResult
from repro.circuit.netlist import Circuit
from repro.faultsim import FaultSimResult
from repro.retiming.core import Retiming
from repro.testset.model import TestSet


@dataclass
class FlowResult:
    """Outcome of the retime-for-testability ATPG flow."""

    hard_circuit: Circuit
    easy_circuit: Circuit
    easy_retiming: Retiming  # hard -> easy
    prefix_length: int
    atpg_result: AtpgResult  # run on the easy circuit
    derived_test_set: TestSet  # for the hard circuit
    hard_fault_sim: FaultSimResult  # derived set applied to the hard circuit

    @property
    def easy_coverage(self) -> float:
        return self.atpg_result.fault_coverage

    @property
    def hard_coverage(self) -> float:
        return self.hard_fault_sim.fault_coverage

    def summary(self) -> str:
        return (
            f"flow {self.hard_circuit.name}: ATPG on {self.easy_circuit.name} "
            f"achieved {self.easy_coverage:.1f}% FC in "
            f"{self.atpg_result.cpu_seconds:.2f}s; derived test set "
            f"(prefix {self.prefix_length}) achieves {self.hard_coverage:.1f}% "
            f"FC on {self.hard_circuit.name}"
        )


def retime_for_testability_flow(
    hard_circuit: Circuit,
    budget: Optional[AtpgBudget] = None,
    easy_retiming: Optional[Retiming] = None,
    *,
    store=None,
    journal=None,
) -> FlowResult:
    """Run the Fig. 6 flow on a hard (performance-retimed) circuit.

    Args:
        hard_circuit: the circuit that will be implemented and tested.
        budget: ATPG budget for the easy circuit.
        easy_retiming: the retiming mapping ``hard_circuit`` to its easy
            version (default: minimum-register retiming, the paper's
            choice for the s510.jo.sr study).
        store / journal: forwarded to the stage pipeline (see
            :class:`repro.pipeline.FlowPipeline`).  With no store the flow
            computes everything, as it always did.

    The prefix length comes from the *inverse* retiming (easy -> hard):
    Theorem 4 needs the forward-move count of the transformation from the
    circuit the tests were generated for (easy) to the circuit they will
    be applied to (hard).

    The flow body lives in :class:`repro.pipeline.FlowPipeline`; this
    function is the stable library entry point and simply runs the
    pipeline without persistence by default.
    """
    from repro.pipeline import FlowPipeline

    pipeline = FlowPipeline(store=store, journal=journal)
    return pipeline.run(hard_circuit, budget=budget, easy_retiming=easy_retiming)


__all__ = ["retime_for_testability_flow", "FlowResult"]
