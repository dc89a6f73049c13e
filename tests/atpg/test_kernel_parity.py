"""Dual-vs-scalar PODEM kernel equivalence and engine-selection tests.

The dual kernel is a pure performance substitution: for every circuit,
fault and budget it must return the *same* ``PodemResult`` -- sequence,
backtrack count, abort flag, frames -- as the scalar baseline, and the
incremental resimulation (suffix adoption, lane flips) must leave the
machine in the same state a from-scratch resimulation would produce.
"""

import random

import pytest

from repro.atpg.budget import AtpgBudget, EffortMeter
from repro.atpg.engine import MIN_POOL_FAULTS, choose_engine, run_atpg
from repro.atpg.podem import PodemEngine, _DualMachine
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.faults import collapse_faults
from repro.logic.three_valued import ONE, X, ZERO, t_not
from tests.helpers import random_circuit, resettable_counter, toggle_counter


def _mcnc_circuit():
    spec = next(s for s in TABLE2_CIRCUITS if s.name == "dk16.ji.sd")
    return build_pair(spec).original


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits_bit_identical(self, seed):
        circuit = random_circuit(
            seed + 200, num_inputs=3, num_gates=18, num_dffs=3
        )
        faults = collapse_faults(circuit).representatives[:15]
        budget = AtpgBudget(backtracks_per_fault=8, max_frames=4)
        scalar = PodemEngine(circuit, kernel="scalar")
        dual = PodemEngine(circuit, kernel="dual")
        for fault in faults:
            expected = scalar.generate(fault, EffortMeter(budget))
            actual = dual.generate(fault, EffortMeter(budget))
            assert actual == expected, fault

    def test_mcnc_circuit_bit_identical(self):
        circuit = _mcnc_circuit()
        faults = collapse_faults(circuit).representatives[:25]
        budget = AtpgBudget(backtracks_per_fault=6, max_frames=4)
        scalar = PodemEngine(circuit, kernel="scalar")
        dual = PodemEngine(circuit, kernel="dual")
        for fault in faults:
            expected = scalar.generate(fault, EffortMeter(budget))
            actual = dual.generate(fault, EffortMeter(budget))
            assert actual == expected, fault

    def test_run_atpg_kernel_parity(self):
        circuit = _mcnc_circuit()
        faults = collapse_faults(circuit).representatives[:40]
        budget = AtpgBudget(
            backtracks_per_fault=6,
            max_frames=4,
            frames_cap=4,
            random_sequences=2,
            exact_lane_steps=0,
        )
        results = {
            kernel: run_atpg(
                circuit, faults, budget, engine="serial", kernel=kernel
            )
            for kernel in ("scalar", "dual")
        }
        scalar, dual = results["scalar"], results["dual"]
        assert dual.detected == scalar.detected
        assert dual.aborted == scalar.aborted
        assert dual.untestable == scalar.untestable
        assert dual.backtracks == scalar.backtracks
        assert dual.test_set.to_text() == scalar.test_set.to_text()
        assert dual.kernel == "dual" and scalar.kernel == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            PodemEngine(toggle_counter(), kernel="vector")
        with pytest.raises(ValueError):
            run_atpg(toggle_counter(), kernel="vector")


class TestIncrementalResim:
    """Randomized decision/backtrack traces: incremental == full resim."""

    def _compare(self, machine, fresh, frames):
        assert machine.detected() == fresh.detected()
        common = min(len(machine.records), len(fresh.records))
        for frame in range(common):
            assert machine.good_values(frame) == fresh.good_values(frame)
            assert machine.bad_values(frame) == fresh.bad_values(frame)
        if not machine.detected():
            assert len(machine.records) == len(fresh.records) == frames
            assert machine.effect_exists() == fresh.effect_exists()
            assert machine.prune() == fresh.prune()

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_equivalence(self, seed):
        circuit = random_circuit(
            seed + 400, num_inputs=3, num_gates=16, num_dffs=3
        )
        fault = collapse_faults(circuit).representatives[
            seed % len(collapse_faults(circuit).representatives)
        ]
        engine = PodemEngine(circuit, kernel="dual")
        budget = AtpgBudget()
        frames = 4
        rng = random.Random(seed)
        inputs = [[X] * engine.num_inputs for _ in range(frames)]
        machine = _DualMachine(engine, fault, inputs, EffortMeter(budget))
        machine.resim_initial()
        decisions = []
        for _ in range(30):
            if rng.random() < 0.65 or not decisions:
                frame = rng.randrange(frames)
                pi = rng.randrange(engine.num_inputs)
                if inputs[frame][pi] != X:
                    continue
                value = ONE if rng.random() < 0.5 else ZERO
                inputs[frame][pi] = value
                decisions.append((frame, pi, value, False))
                machine.resim_decision(frame, pi, value)
            else:
                # Chronological backtrack, exactly as _search performs it.
                earliest, changed_max = frames, 0
                flipped_any = False
                while decisions:
                    frame, pi, value, flipped = decisions.pop()
                    inputs[frame][pi] = X
                    earliest = min(earliest, frame)
                    changed_max = max(changed_max, frame)
                    if not flipped:
                        inputs[frame][pi] = t_not(value)
                        decisions.append((frame, pi, t_not(value), True))
                        machine.resim_flip(
                            earliest, changed_max, frame, pi, value
                        )
                        flipped_any = True
                        break
                if not flipped_any:
                    break  # exhausted; the engine stops resimulating too
            fresh = _DualMachine(
                engine,
                fault,
                [list(frame) for frame in inputs],
                EffortMeter(budget),
            )
            fresh.resim_initial()
            self._compare(machine, fresh, frames)


class TestEngineSelection:
    def test_single_cpu_forces_serial(self):
        engine, reason = choose_engine(1000, workers=4, cpus=1)
        assert engine == "serial"
        assert "single cpu" in reason

    def test_small_partition_forces_serial(self):
        engine, reason = choose_engine(
            MIN_POOL_FAULTS - 1, workers=4, cpus=8
        )
        assert engine == "serial"
        assert "below threshold" in reason

    def test_large_partition_uses_pool(self):
        engine, reason = choose_engine(MIN_POOL_FAULTS, workers=3, cpus=8)
        assert engine == "process"
        assert "3 workers" in reason

    def test_run_atpg_auto_small_circuit_is_serial(self):
        circuit = resettable_counter()
        budget = AtpgBudget(
            backtracks_per_fault=4,
            max_frames=4,
            frames_cap=4,
            random_sequences=0,
            exact_lane_steps=0,
        )
        faults = collapse_faults(circuit).representatives[: MIN_POOL_FAULTS - 2]
        result = run_atpg(circuit, faults, budget, engine="auto")
        assert result.engine == "serial"
        assert result.engine_reason.startswith("auto:")
        assert result.workers == 1

    def test_explicit_engine_reason_recorded(self):
        circuit = resettable_counter()
        budget = AtpgBudget(
            backtracks_per_fault=4,
            max_frames=4,
            frames_cap=4,
            random_sequences=0,
            exact_lane_steps=0,
        )
        result = run_atpg(circuit, budget=budget, engine="serial")
        assert result.engine == "serial"
        assert result.engine_reason == "requested"


class TestMeterAccounting:
    def test_dual_resim_counts_frames_and_lanes(self):
        circuit = toggle_counter()
        fault = collapse_faults(circuit).representatives[0]
        engine = PodemEngine(circuit, kernel="dual")
        meter = EffortMeter(AtpgBudget())
        frames = 3
        inputs = [[X] * engine.num_inputs for _ in range(frames)]
        machine = _DualMachine(engine, fault, inputs, meter)
        machine.resim_initial()
        assert len(machine.records) == frames
        # Only unique kernel evaluations count: frames answered from the
        # per-fault step memo (e.g. an all-X trajectory reconverging on
        # itself) cost a dictionary probe, not a simulation.
        stepped = len(engine._step_memo)
        assert 1 <= stepped <= frames
        assert meter.simulations == 1
        # Two machines (good + faulty) per evaluated frame, both lanes wide.
        assert meter.frames_simulated == 2 * stepped
        assert meter.lanes_evaluated == 2 * _DualMachine.WIDTH * stepped

    def test_counters_reach_atpg_result(self):
        circuit = resettable_counter()
        budget = AtpgBudget(
            backtracks_per_fault=4,
            max_frames=4,
            frames_cap=4,
            random_sequences=0,
            exact_lane_steps=0,
        )
        result = run_atpg(circuit, budget=budget, engine="serial")
        assert result.simulations > 0
        assert result.frames_simulated >= 2 * result.simulations // 2
        assert result.lanes_evaluated >= result.frames_simulated
