"""Shared configuration for the benchmark harness.

Every module regenerates one of the paper's tables or figures.  Budgets
are sized so the default run finishes in minutes; set ``REPRO_FULL=1`` to
run the complete Table II/III circuit list with larger budgets (closer to
the paper's exhaustive runs, tens of minutes).
"""

import os

import pytest

from repro.atpg import AtpgBudget
from repro.core.experiments import TABLE2_CIRCUITS

FULL = bool(int(os.environ.get("REPRO_FULL", "0")))

# A paper-representative subset for the default run: both scripts, both
# reset styles, all three encodings, including the three forward-move
# circuits' family.
QUICK_SUBSET = tuple(
    spec
    for spec in TABLE2_CIRCUITS
    if spec.name
    in {
        "dk16.ji.sd",
        "pma.jo.sd",
        "s820.jc.sr",
        "s820.jo.sd",
        "s832.jc.sr",
        "s510.jo.sr",
    }
)


def table2_specs():
    return TABLE2_CIRCUITS if FULL else QUICK_SUBSET


def atpg_budget() -> AtpgBudget:
    if FULL:
        return AtpgBudget(
            total_seconds=240.0,
            random_sequences=64,
            random_length=96,
            random_stale_limit=15,
        )
    return AtpgBudget(
        total_seconds=45.0,
        random_sequences=48,
        random_length=96,
        random_stale_limit=12,
    )


@pytest.fixture(scope="session")
def budget():
    return atpg_budget()
