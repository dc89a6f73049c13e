"""Structural sequential ATPG (the HITEC stand-in).

Random-phase test generation with fault-simulation feedback, followed by
the deterministic phase: an exact (good, faulty) state-pair search over
input cubes (:mod:`repro.atpg.exact`) that finds a test or proves none
exists, then PODEM over time-frame expansion with backtrack/time budgets
for every fault still open.  PODEM runs in-process
(``engine="serial"``) or across a pool of worker processes
(``engine="process"``), with identical results for a given seed whenever
the wall-clock budget is not binding.

The ``guidance`` knob (``"off"``/``"scoap"``, see
:mod:`repro.atpg.guidance`) layers SCOAP testability ranking over the
deterministic phase: fault ordering, pool partitioning and backtrace
objective selection become cost-aware while ``"off"`` stays bit-identical
to the unguided engine.
"""

from repro.atpg.budget import AtpgBudget, EffortMeter, FaultEffort
from repro.atpg.engine import (
    ATPG_ENGINES,
    AtpgResult,
    run_atpg,
    structurally_untestable,
)
from repro.atpg.guidance import (
    GUIDANCE_MODES,
    GuidancePolicy,
    ScoapMeasures,
    compute_scoap,
    make_policy,
    scoap_measures,
)
from repro.atpg.parallel import FaultOutcome, default_workers, iter_podem_partitioned
from repro.atpg.podem import PodemEngine, PodemResult

__all__ = [
    "AtpgBudget",
    "EffortMeter",
    "FaultEffort",
    "run_atpg",
    "AtpgResult",
    "ATPG_ENGINES",
    "GUIDANCE_MODES",
    "GuidancePolicy",
    "ScoapMeasures",
    "compute_scoap",
    "make_policy",
    "scoap_measures",
    "structurally_untestable",
    "PodemEngine",
    "PodemResult",
    "FaultOutcome",
    "iter_podem_partitioned",
    "default_workers",
]
