"""Tests for the ATPG engine (random phase + exact search)."""

import inspect

import pytest

from repro.atpg import AtpgBudget, run_atpg, structurally_untestable
from repro.circuit import CircuitBuilder, LineRef
from repro.faults import StuckAtFault
from repro.faultsim import fault_simulate

from tests.helpers import (
    feedback_and,
    pipelined_logic,
    random_circuit,
    resettable_counter,
)

FAST = AtpgBudget(total_seconds=10.0, random_sequences=16, random_length=16)


class TestEngine:
    def test_full_coverage_on_combinational_pipeline(self):
        result = run_atpg(pipelined_logic(), budget=FAST)
        assert result.fault_coverage == 100.0
        assert result.fault_efficiency == 100.0

    def test_counter_high_coverage(self):
        result = run_atpg(resettable_counter(), budget=FAST)
        # Three reset-path faults are undetectable under hard 3-valued
        # detection; everything else must be found.
        assert result.num_faults - len(result.detected) <= 3

    def test_test_set_actually_detects(self):
        """Every claimed detection must replay under fault simulation."""
        circuit = resettable_counter()
        result = run_atpg(circuit, budget=FAST)
        replay = fault_simulate(
            circuit, result.test_set.as_lists(), list(result.detected)
        )
        assert set(replay.detections) == result.detected

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_consistency(self, seed):
        circuit = random_circuit(seed + 600, num_inputs=3, num_gates=10, num_dffs=3)
        result = run_atpg(circuit, budget=FAST)
        assert result.detected.isdisjoint(result.aborted)
        assert result.detected.isdisjoint(result.untestable)
        assert (
            len(result.detected) + len(result.untestable) + len(result.aborted)
            == result.num_faults
        )
        assert 0 <= result.fault_coverage <= result.fault_efficiency <= 100.0

    def test_deterministic_phase_contributes(self):
        """With the random phase disabled the search finds every test."""
        circuit = pipelined_logic()
        result = run_atpg(circuit, budget=AtpgBudget(random_sequences=0))
        assert result.random_detected == 0
        assert result.deterministic_detected == len(result.detected) > 0
        assert result.fault_coverage == 100.0
        assert {row.status for row in result.fault_rows} <= {"det", "proved"}

    def test_summary(self):
        result = run_atpg(pipelined_logic(), budget=FAST)
        assert "FC" in result.summary()


#: Execution options an ATPG entry point must not take: ATPG has one
#: configuration, the random phase and then the exact search.
RETIRED_OPTIONS = {"workers", "engine", "guidance", "checkpoint", "resume", "checkpoint_path"}


def test_no_atpg_entry_point_takes_a_retired_option():
    """ATPG has one configuration at every layer.  ``fault_simulate``'s
    own ``engine``/``workers`` pick fault-simulation engines and are out
    of scope."""
    from repro.core.experiments import table2_row
    from repro.core.flow import retime_for_testability_flow
    from repro.pipeline import FlowPipeline

    for function in (run_atpg, FlowPipeline.__init__, retime_for_testability_flow, table2_row):
        taken = set(inspect.signature(function).parameters) & RETIRED_OPTIONS
        assert not taken, (function.__qualname__, taken)


class TestStructuralUntestability:
    def test_dangling_cone_flagged(self):
        builder = CircuitBuilder("dead")
        builder.input("a")
        builder.buf("g", "a")
        builder.const0("k")
        builder.and_("dead1", "a", "k")
        builder.buf("dead2", "dead1")
        builder.output("z", "g")
        # dead2 drives nothing observable; route it to nothing -> must be
        # kept via allow_dangling.
        circuit = builder.build(allow_dangling=True)
        flagged = structurally_untestable(circuit)
        dead_edges = [
            e.index for e in circuit.edges if e.sink in ("dead1", "dead2")
        ]
        assert dead_edges
        for index in dead_edges:
            assert StuckAtFault(LineRef(index, 1), 0) in flagged

    def test_clean_circuit_nothing_flagged(self):
        assert structurally_untestable(resettable_counter()) == set()

    def test_feedback_loops_handled(self):
        assert structurally_untestable(feedback_and()) == set()
