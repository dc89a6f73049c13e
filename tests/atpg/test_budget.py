"""Tests for ATPG budgets and effort accounting."""

import dataclasses
import math
import time

import pytest

from repro.atpg import AtpgBudget, EffortMeter

#: An effort-bound budget whose clock is out of reach.
FLOW_BUDGET = AtpgBudget(total_seconds=1e6)

#: Fields of the time-frame search the exact search replaced.
REMOVED_FIELDS = ("backtracks_per_fault", "max_frames", "frames_cap", "seconds_per_fault")


class TestBudget:
    def test_defaults_sane(self):
        budget = AtpgBudget()
        assert budget.total_seconds > 0
        assert budget.exact_lane_steps >= 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("random_batch", 0),  # the random phase never ends
            ("sync_samples", 0),  # the walk indexes an empty sample
            ("random_length", 2.5),  # range() of a float
            ("total_seconds", math.nan),  # out_of_time() never fires
            ("total_seconds", -1.0),
            ("total_seconds", "30"),
            ("total_seconds", True),
            ("random_sequences", -1),
            ("random_stale_limit", 8.0),
            ("seed", False),
            ("exact_lane_steps", None),
            ("exact_lane_steps", 0),  # every fault the random phase leaves aborts
        ],
    )
    def test_rejects_a_budget_that_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AtpgBudget(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be"):
            dataclasses.replace(AtpgBudget(), **{field: value})

    def test_accepts_zero_clocks_and_counts(self):
        for budget in (
            AtpgBudget(),
            FLOW_BUDGET,
            AtpgBudget(total_seconds=0.0),
            AtpgBudget(total_seconds=0),
            AtpgBudget(random_sequences=0, random_length=0, random_stale_limit=0),
            AtpgBudget(random_batch=1, sync_samples=1, exact_lane_steps=1),
        ):
            assert dataclasses.replace(budget) == budget

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_removed_field_is_no_argument(self, field):
        with pytest.raises(TypeError, match=field):
            AtpgBudget(**{field: 1})

    def test_e2e_budgets_still_accepted(self):
        """The benchmark's budget dicts still name the removed fields; its
        ``budget_fields`` filter keeps them runnable, in-process and
        served."""
        from repro.service.schema import parse_request

        from benchmarks.e2e.library import FLOW_BUDGET as FLOW_LIMITS, budget_fields
        from benchmarks.e2e.serve import SERVE_BUDGET

        for limits in (FLOW_LIMITS, SERVE_BUDGET):
            kept = budget_fields(limits)
            assert set(limits) - set(kept) <= set(REMOVED_FIELDS)
            assert AtpgBudget(**kept).total_seconds == 1e6
            request = parse_request(
                {
                    "circuit": {"format": "table2", "fsm": "s820", "style": "ji", "script": "sr"},
                    "budget": kept,
                }
            )
            assert request.budget == AtpgBudget(**kept)

    def test_frozen(self):
        budget = AtpgBudget()
        try:
            budget.total_seconds = 1  # type: ignore[misc]
        except Exception:
            pass
        else:  # pragma: no cover
            raise AssertionError("budget must be immutable")


class TestMeter:
    def test_elapsed_and_timeout(self):
        meter = EffortMeter(AtpgBudget(total_seconds=0.05))
        assert not meter.out_of_time() or meter.elapsed() >= 0.05
        time.sleep(0.06)
        assert meter.out_of_time()

    def test_fault_key(self):
        from repro.circuit import LineRef
        from repro.faults import StuckAtFault

        assert EffortMeter.fault_key(StuckAtFault(LineRef(7, 2), 1)) == (7, 2, 1)
