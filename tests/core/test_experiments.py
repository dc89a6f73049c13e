"""Tests for the experiment drivers (Tables II/III plumbing) and the flow."""

import pytest

from repro.atpg import AtpgBudget
from repro.core import (
    TABLE2_CIRCUITS,
    build_pair,
    format_table,
    retime_for_testability_flow,
    table2_row,
    table3_row,
)
from repro.core.experiments import CircuitSpec

TINY = AtpgBudget(
    total_seconds=20.0,
    random_sequences=24,
    random_length=48,
    random_stale_limit=8,
)


class TestCircuitSpecs:
    def test_sixteen_paper_variants(self):
        assert len(TABLE2_CIRCUITS) == 16
        names = {spec.name for spec in TABLE2_CIRCUITS}
        # The three forward-move circuits the paper names in Section V.C.
        forward = {s.name for s in TABLE2_CIRCUITS if s.forward_stem_moves}
        assert forward == {"pma.jo.sd", "s510.jc.sd", "scf.jo.sd"}
        assert "s510.jo.sr" in names

    def test_build_pair_shapes(self):
        spec = CircuitSpec("s820", "jc", "rugged", 0)
        pair = build_pair(spec)
        assert pair.original.num_registers() == 5
        assert pair.retimed.num_registers() >= 10
        assert pair.prefix_length == 0
        assert pair.retiming.is_legal()

    def test_build_pair_forward_move(self):
        spec = CircuitSpec("pma", "jo", "delay", 1)
        pair = build_pair(spec)
        assert pair.prefix_length == 1
        assert pair.retiming.max_forward_moves_across_stems() == 1

    def test_pair_cache(self):
        spec = CircuitSpec("s820", "jc", "rugged", 0)
        assert build_pair(spec) is build_pair(spec)


class TestRows:
    @pytest.fixture(scope="class")
    def pair(self):
        return build_pair(CircuitSpec("s820", "jc", "rugged", 0))

    def test_table2_row_structure(self, pair):
        row, original_result, retimed_result = table2_row(pair, TINY)
        assert row["Circuit"] == "s820.jc.sr"
        assert row["#DFF"] == 5
        assert row["#DFF.re"] == pair.retimed.num_registers()
        assert 0 <= row["%FC"] <= row["%FE"] <= 100
        assert row["CPU"] > 0 and row["CPU.re"] > 0
        assert original_result.test_set.num_sequences >= 1

    def test_table3_row_structure(self, pair):
        from repro.atpg import run_atpg

        atpg = run_atpg(pair.original, budget=TINY)
        row = table3_row(pair, atpg.test_set)
        assert row["#Faults.re"] > row["#Faults"]
        assert row["#UnDet"] >= 0
        assert row["prefix"] == 0


class TestFlow:
    def test_flow_on_small_retimed_circuit(self):
        from repro.retiming import performance_retiming
        from tests.helpers import resettable_counter

        hard = performance_retiming(
            resettable_counter(), backward_passes=1
        ).retimed_circuit
        flow = retime_for_testability_flow(hard, budget=TINY)
        assert flow.easy_circuit.num_registers() <= hard.num_registers()
        # Coverage transfers (both sides may leave the 3 undetectable
        # reset-path faults).
        assert flow.hard_coverage >= flow.easy_coverage - 15.0
        assert "flow" in flow.summary()


class TestFormatting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.5" in text and "0.2" in text

    def test_missing_cells_blank(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert text
