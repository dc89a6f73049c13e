"""PODEM result pins, oracle checks and engine-selection tests.

PODEM resimulates on one kernel, the packed dual-machine stepper.  Its
results -- sequence, backtrack count, abort flag, frames -- are pinned as
digests, for guidance ``off`` and ``scoap``; the pins were recorded while
a scalar baseline kernel still existed and matched them bit for bit.
Every detection is also confirmed by two independent oracles, and the
incremental resimulation (suffix adoption, lane flips) must leave the
machine in the same state a from-scratch resimulation would produce.
"""

import hashlib
import random

import pytest

from repro.atpg.budget import AtpgBudget, EffortMeter
from repro.atpg.engine import MIN_POOL_FAULTS, choose_engine, run_atpg
from repro.atpg.exact import iter_exact
from repro.atpg.guidance import make_policy
from repro.atpg.podem import PodemEngine, _DualMachine
from repro.core.experiments import TABLE2_CIRCUITS, build_pair
from repro.faults import collapse_faults
from repro.faultsim.serial import serial_fault_simulate
from repro.logic.three_valued import ONE, X, ZERO, t_not
from tests.helpers import random_circuit, resettable_counter, toggle_counter

MODES = ("off", "scoap")

#: Per guidance mode: the digest of every fault's ``(detected, sequence,
#: backtracks, aborted, frames_used)`` on ``random_circuit(seed + 200)``.
RANDOM_PINS = {
    0: {"off": "a62e8383762d43fa", "scoap": "a7fb2a644a6b13d1"},
    1: {"off": "b440558a46fc9854", "scoap": "9bbc2d3ce2c44a3e"},
    2: {"off": "e546f2d164d51499", "scoap": "34fe8d6ee5d2ba98"},
    3: {"off": "1819bf05f8c8cbba", "scoap": "4203d5e083ee3597"},
    4: {"off": "4960ff7cce7e5167", "scoap": "2da0c806cc840e4f"},
}

#: The same digest on 25 dk16.ji.sd faults.
MCNC_PINS = {"off": "4545f53a4e5035b8", "scoap": "2d6cc14fcf546d04"}

#: ``(test-set text digest, detected, aborted, backtracks)`` of a 40-fault
#: ``run_atpg`` on dk16.ji.sd with the exact search off.
RUN_PINS = {
    "off": ("f5e152f40a99144e", 9, 31, 379),
    "scoap": ("f5e152f40a99144e", 9, 31, 186),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _results_digest(results):
    rows = [
        (
            result.detected,
            None if result.sequence is None else [list(v) for v in result.sequence],
            result.backtracks,
            result.aborted,
            result.frames_used,
        )
        for result in results
    ]
    return _digest(repr(rows))


def _generate_all(circuit, faults, budget, mode):
    engine = PodemEngine(circuit, guidance=make_policy(circuit, mode))
    return [engine.generate(fault, EffortMeter(budget)) for fault in faults]


def _random_case(seed):
    circuit = random_circuit(seed + 200, num_inputs=3, num_gates=18, num_dffs=3)
    faults = collapse_faults(circuit).representatives[:15]
    return circuit, faults, AtpgBudget(backtracks_per_fault=8, max_frames=4)


def _mcnc_circuit():
    spec = next(s for s in TABLE2_CIRCUITS if s.name == "dk16.ji.sd")
    return build_pair(spec).original


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits_bit_identical(self, seed):
        circuit, faults, budget = _random_case(seed)
        for mode in MODES:
            results = _generate_all(circuit, faults, budget, mode)
            assert _results_digest(results) == RANDOM_PINS[seed][mode], mode

    def test_mcnc_circuit_bit_identical(self):
        circuit = _mcnc_circuit()
        faults = collapse_faults(circuit).representatives[:25]
        budget = AtpgBudget(backtracks_per_fault=6, max_frames=4)
        for mode in MODES:
            results = _generate_all(circuit, faults, budget, mode)
            assert _results_digest(results) == MCNC_PINS[mode], mode

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
        for mode in MODES:
            result = run_atpg(circuit, faults, budget, engine="serial", guidance=mode)
            assert (
                _digest(result.test_set.to_text()),
                len(result.detected),
                len(result.aborted),
                result.backtracks,
            ) == RUN_PINS[mode], mode
            assert result.guidance == mode

    @pytest.mark.parametrize("seed", range(5))
    def test_detections_confirmed_by_oracles(self, seed):
        """Each PODEM test detects its fault under the serial reference
        fault simulator, and the exact pair search proves none of the
        detected faults untestable."""
        circuit, faults, budget = _random_case(seed)
        for mode in MODES:
            results = _generate_all(circuit, faults, budget, mode)
            detected = [f for f, r in zip(faults, results) if r.detected]
            assert detected
            for fault, result in zip(faults, results):
                if result.detected:
                    replay = serial_fault_simulate(
                        circuit, [result.sequence], [fault]
                    )
                    assert fault in replay.detections, (mode, fault)
            for fault, outcome in iter_exact(circuit, detected, 1 << 20):
                assert outcome.status != "proved", (mode, fault)

    def test_unknown_kernel_rejected(self):
        """The dual kernel is the only one: no entry point takes a
        ``kernel`` argument."""
        with pytest.raises(TypeError):
            PodemEngine(toggle_counter(), kernel="vector")
        with pytest.raises(TypeError):
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
        engine = PodemEngine(circuit)
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
        engine = PodemEngine(circuit)
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
