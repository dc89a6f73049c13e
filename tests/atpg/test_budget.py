"""Tests for ATPG budgets and effort accounting."""

import dataclasses
import math
import time

import pytest

from repro.atpg import AtpgBudget, EffortMeter

#: An effort-bound budget whose clocks are out of reach.
FLOW_BUDGET = AtpgBudget(
    backtracks_per_fault=4, frames_cap=6, total_seconds=1e6, seconds_per_fault=1e6
)


class TestBudget:
    def test_defaults_sane(self):
        budget = AtpgBudget()
        assert budget.total_seconds > 0
        assert budget.backtracks_per_fault > 0
        assert budget.max_frames >= 1

    def test_scaled_fields(self):
        budget = AtpgBudget(total_seconds=10, backtracks_per_fault=100)
        doubled = budget.scaled(2.0)
        assert doubled.total_seconds == 20
        assert doubled.backtracks_per_fault == 200
        halved = budget.scaled(0.001)
        assert halved.backtracks_per_fault >= 1  # never zero

    @pytest.mark.parametrize(
        "field, value",
        [
            ("random_batch", 0),  # the random phase never ends
            ("sync_samples", 0),  # the walk indexes an empty sample
            ("random_length", 2.5),  # range() of a float
            ("total_seconds", math.nan),  # out_of_time() never fires
            ("seconds_per_fault", math.nan),
            ("total_seconds", -1.0),
            ("total_seconds", "30"),
            ("total_seconds", True),
            ("backtracks_per_fault", -1),
            ("max_frames", 8.0),
            ("seed", False),
            ("exact_lane_steps", None),
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
            AtpgBudget(total_seconds=0, seconds_per_fault=0),
            AtpgBudget(random_sequences=0, random_length=0, exact_lane_steps=0),
            AtpgBudget(random_batch=1, sync_samples=1),
        ):
            assert dataclasses.replace(budget) == budget

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

    def test_counters(self):
        meter = EffortMeter(AtpgBudget())
        meter.note_backtrack()
        meter.note_backtrack()
        meter.note_simulation()
        assert meter.backtracks == 2
        assert meter.simulations == 1

    def test_cap_seconds_tightens_allowance(self):
        """A pool worker's cap must bind below the budget's own total."""
        meter = EffortMeter(AtpgBudget(total_seconds=100.0), cap_seconds=0.0)
        assert meter.out_of_time()
        assert meter.remaining() == 0.0

    def test_cap_seconds_never_loosens(self):
        meter = EffortMeter(AtpgBudget(total_seconds=0.0), cap_seconds=100.0)
        assert meter.out_of_time()

    def test_remaining_counts_down(self):
        meter = EffortMeter(AtpgBudget(total_seconds=100.0))
        first = meter.remaining()
        time.sleep(0.01)
        assert 0 < meter.remaining() < first <= 100.0

    def test_scaled_preserves_new_fields(self):
        """Every field either scales or carries over: none silently falls
        back to its default."""
        scaling = {
            "total_seconds",
            "seconds_per_fault",
            "backtracks_per_fault",
            "random_sequences",
            "exact_lane_steps",
        }
        # A non-default value for every field.
        budget = AtpgBudget(
            **{
                f.name: type(f.default)(f.default * 3 + 7)
                for f in dataclasses.fields(AtpgBudget)
            }
        )
        scaled = budget.scaled(2.0)
        for f in dataclasses.fields(AtpgBudget):
            value, original = getattr(scaled, f.name), getattr(budget, f.name)
            if f.name in scaling:
                assert value == type(original)(original * 2), f.name
            else:
                assert value == original, f.name

    def test_scaled_keeps_exact_search_off(self):
        assert AtpgBudget(exact_lane_steps=0).scaled(4.0).exact_lane_steps == 0
        assert AtpgBudget(exact_lane_steps=10).scaled(0.01).exact_lane_steps == 1
