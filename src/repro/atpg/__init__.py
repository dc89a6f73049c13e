"""Structural sequential ATPG (the HITEC stand-in).

Random-phase test generation with fault-simulation feedback, followed by
an exact (good, faulty) state-pair search over input cubes
(:mod:`repro.atpg.exact`) that finds a test or proves none exists for
every fault still open.  A fault past the search's lane-step cap, or
undecided when the wall-clock budget runs out, is aborted.
"""

from repro.atpg.budget import AtpgBudget, EffortMeter, FaultEffort
from repro.atpg.engine import AtpgResult, run_atpg, structurally_untestable

__all__ = [
    "AtpgBudget",
    "EffortMeter",
    "FaultEffort",
    "run_atpg",
    "AtpgResult",
    "structurally_untestable",
]
