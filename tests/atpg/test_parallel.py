"""Tests for the multiprocess deterministic-phase orchestration.

The contract under test: for a fixed seed, the process-pool engine yields
the **same** detected/untestable/aborted partition, the same test-set
vectors and the same backtrack count as the serial engine whenever the
wall-clock budget is not the binding limit -- and when the budget *is*
exhausted mid-pool, every unprocessed fault lands in ``aborted`` rather
than being silently dropped.
"""

import pytest

from repro.atpg import AtpgBudget, run_atpg
from repro.atpg.parallel import FaultOutcome, default_workers, podem_partitioned
from repro.faults import collapse_faults

from tests.helpers import pipelined_logic, random_circuit, resettable_counter

# Deterministic limits (backtracks, frames) bind; wall clocks are generous.
# The exact pair search is off: these tests exercise the PODEM pool.
PARITY = AtpgBudget(
    total_seconds=60.0,
    seconds_per_fault=5.0,
    backtracks_per_fault=60,
    max_frames=6,
    frames_cap=8,
    random_sequences=8,
    random_length=16,
    exact_lane_steps=0,
)


def _assert_same_run(serial, pooled):
    assert pooled.detected == serial.detected
    assert pooled.untestable == serial.untestable
    assert pooled.aborted == serial.aborted
    assert pooled.test_set.as_lists() == serial.test_set.as_lists()
    assert pooled.fault_coverage == serial.fault_coverage
    assert pooled.fault_efficiency == serial.fault_efficiency
    assert pooled.backtracks == serial.backtracks
    assert pooled.random_detected == serial.random_detected
    assert pooled.deterministic_detected == serial.deterministic_detected
    assert pooled.search_exhausted == serial.search_exhausted
    assert pooled.budget_aborted == serial.budget_aborted


class TestSerialProcessParity:
    @pytest.mark.parametrize("make", [resettable_counter, pipelined_logic])
    def test_helper_circuits(self, make):
        serial = run_atpg(make(), budget=PARITY, engine="serial")
        pooled = run_atpg(make(), budget=PARITY, engine="process", workers=2)
        _assert_same_run(serial, pooled)
        assert pooled.engine == "process"
        assert pooled.workers == 2
        assert serial.engine == "serial"
        assert serial.workers == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_netlists(self, seed):
        serial = run_atpg(
            random_circuit(seed + 700, num_inputs=3, num_gates=12, num_dffs=3),
            budget=PARITY,
        )
        pooled = run_atpg(
            random_circuit(seed + 700, num_inputs=3, num_gates=12, num_dffs=3),
            budget=PARITY,
            workers=2,
            engine="process",
        )
        _assert_same_run(serial, pooled)

    def test_paper_circuit(self):
        """One synthesized Table II benchmark, on a fault subsample."""
        from repro.fsm.mcnc import synthesize_benchmark

        circuit = synthesize_benchmark("dk16", "ji", "delay").circuit
        faults = collapse_faults(circuit).representatives[:60]
        budget = AtpgBudget(
            total_seconds=60.0,
            seconds_per_fault=5.0,
            backtracks_per_fault=8,
            frames_cap=6,
            random_sequences=4,
            random_length=16,
            exact_lane_steps=0,
        )
        serial = run_atpg(circuit, faults=faults, budget=budget, engine="serial")
        pooled = run_atpg(
            circuit, faults=faults, budget=budget, engine="process", workers=2
        )
        _assert_same_run(serial, pooled)

    def test_worker_count_does_not_change_results(self):
        circuit = random_circuit(777, num_inputs=3, num_gates=12, num_dffs=3)
        runs = [
            run_atpg(
                random_circuit(777, num_inputs=3, num_gates=12, num_dffs=3),
                budget=PARITY,
                engine="process",
                workers=workers,
            )
            for workers in (1, 2, 3)
        ]
        for other in runs[1:]:
            _assert_same_run(runs[0], other)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_atpg(resettable_counter(), budget=PARITY, engine="threads")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_atpg(
                resettable_counter(), budget=PARITY, engine="process", workers=0
            )

    def test_workers_imply_process_engine(self):
        result = run_atpg(resettable_counter(), budget=PARITY, workers=2)
        assert result.engine == "process"

    def test_default_is_serial(self):
        result = run_atpg(resettable_counter(), budget=PARITY)
        assert result.engine == "serial"

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestAbortAccounting:
    def test_abort_counts_partition_the_aborted_set(self):
        result = run_atpg(
            random_circuit(701, num_inputs=3, num_gates=12, num_dffs=3),
            budget=PARITY,
        )
        assert result.search_exhausted + result.budget_aborted == len(result.aborted)
        assert (
            len(result.detected) + len(result.untestable) + len(result.aborted)
            == result.num_faults
        )

    def test_backtrack_limit_aborts_count_as_budget(self):
        """A one-backtrack budget forces abort-bound searches."""
        budget = AtpgBudget(
            total_seconds=30.0,
            seconds_per_fault=5.0,
            backtracks_per_fault=1,
            frames_cap=4,
            random_sequences=0,
            exact_lane_steps=0,
        )
        result = run_atpg(
            random_circuit(702, num_inputs=3, num_gates=14, num_dffs=4),
            budget=budget,
        )
        assert result.search_exhausted + result.budget_aborted == len(result.aborted)


class TestBudgetExhaustionMidPool:
    def test_no_fault_silently_dropped(self):
        """With a sub-millisecond wall budget the pool must still account
        for every fault: whatever was not processed lands in ``aborted``."""
        circuit = random_circuit(703, num_inputs=3, num_gates=16, num_dffs=4)
        budget = AtpgBudget(
            total_seconds=0.001,
            seconds_per_fault=5.0,
            backtracks_per_fault=400,
            random_sequences=0,
            exact_lane_steps=0,
        )
        result = run_atpg(circuit, budget=budget, engine="process", workers=2)
        assert (
            len(result.detected) + len(result.untestable) + len(result.aborted)
            == result.num_faults
        )
        assert result.aborted  # nothing was targeted in time
        assert result.budget_aborted == len(result.aborted)

    def test_workers_stop_promptly(self):
        """Exhausted budget must not leave the pool grinding: the whole run
        (including pool teardown) finishes in a small multiple of the
        per-fault deadline, not the full fault-list cost."""
        import time

        circuit = random_circuit(704, num_inputs=4, num_gates=24, num_dffs=5)
        budget = AtpgBudget(
            total_seconds=0.2,
            seconds_per_fault=5.0,
            backtracks_per_fault=400,
            frames_cap=16,
            random_sequences=0,
            exact_lane_steps=0,
        )
        start = time.perf_counter()
        result = run_atpg(circuit, budget=budget, engine="process", workers=2)
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"pool did not stop promptly: {elapsed:.1f}s"
        assert (
            len(result.detected) + len(result.untestable) + len(result.aborted)
            == result.num_faults
        )


class TestPodemPartitioned:
    def test_outcomes_align_with_input_order(self):
        circuit = random_circuit(705, num_inputs=3, num_gates=12, num_dffs=3)
        faults = collapse_faults(circuit).representatives
        outcomes = podem_partitioned(
            circuit, faults, PARITY, max_frames=6, workers=2, pool_seconds=30.0
        )
        assert len(outcomes) == len(faults)
        assert all(isinstance(outcome, FaultOutcome) for outcome in outcomes)

    def test_empty_fault_list(self):
        circuit = resettable_counter()
        assert (
            podem_partitioned(
                circuit, [], PARITY, max_frames=4, workers=2, pool_seconds=1.0
            )
            == []
        )

    def test_expired_pool_budget_marks_unattempted(self):
        circuit = random_circuit(706, num_inputs=3, num_gates=12, num_dffs=3)
        faults = collapse_faults(circuit).representatives
        outcomes = podem_partitioned(
            circuit, faults, PARITY, max_frames=6, workers=2, pool_seconds=0.0
        )
        assert len(outcomes) == len(faults)
        assert all(not outcome.attempted for outcome in outcomes)
        assert all(outcome.aborted for outcome in outcomes)
