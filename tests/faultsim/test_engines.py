"""Cross-checks and behaviour tests for the fault-simulation engines."""

import random

import pytest

from repro.circuit import CircuitBuilder, LineRef
from repro.faults import StuckAtFault, full_fault_universe
from repro.faultsim import (
    fault_simulate,
    parallel_fault_simulate,
    serial_fault_simulate,
)
from repro.logic.three_valued import ONE, ZERO

from tests.helpers import (
    HAVE_NUMPY,
    on_leg,
    random_circuit,
    resettable_counter,
    toggle_counter,
)


def _random_sequences(circuit, seed, count=3, length=8):
    rng = random.Random(seed)
    return [
        [tuple(rng.randint(0, 1) for _ in circuit.input_names) for _ in range(length)]
        for _ in range(count)
    ]


class TestEnginesAgree:
    @pytest.mark.parametrize("seed", range(5))
    def test_detected_sets_match(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=12, num_dffs=3)
        sequences = _random_sequences(circuit, seed)
        faults = full_fault_universe(circuit)
        serial = serial_fault_simulate(circuit, sequences, faults)
        parallel = parallel_fault_simulate(circuit, sequences, faults)
        assert set(serial.detections) == set(parallel.detections)

    @pytest.mark.parametrize("seed", range(3))
    def test_detection_records_match(self, seed):
        circuit = random_circuit(seed + 50, num_inputs=2, num_gates=9, num_dffs=2)
        sequences = _random_sequences(circuit, seed)
        faults = full_fault_universe(circuit)
        serial = serial_fault_simulate(circuit, sequences, faults, drop=True)
        parallel = parallel_fault_simulate(circuit, sequences, faults, drop=True)
        for fault, record in serial.detections.items():
            assert parallel.detections[fault] == record

    def test_small_group_size_equivalent(self):
        circuit = random_circuit(3, num_gates=10, num_dffs=2)
        sequences = _random_sequences(circuit, 3)
        faults = full_fault_universe(circuit)
        wide = parallel_fault_simulate(circuit, sequences, faults, group_size=64)
        narrow = parallel_fault_simulate(circuit, sequences, faults, group_size=3)
        assert set(wide.detections) == set(narrow.detections)

    def test_drop_does_not_change_detected_set(self):
        circuit = random_circuit(11, num_gates=10, num_dffs=2)
        sequences = _random_sequences(circuit, 11)
        faults = full_fault_universe(circuit)
        dropped = parallel_fault_simulate(circuit, sequences, faults, drop=True)
        kept = parallel_fault_simulate(circuit, sequences, faults, drop=False)
        assert set(dropped.detections) == set(kept.detections)


def _engine_runs(circuit, sequences, faults, drop, group_size=None):
    """``(name, result)`` for the serial oracle and the parallel engine on
    each word leg (bigint with numpy hidden, numpy when installed)."""
    sized = {} if group_size is None else {"group_size": group_size}
    runs = [("serial", serial_fault_simulate(circuit, sequences, faults, drop=drop))]
    for leg in ["bigint"] + (["numpy"] if HAVE_NUMPY else []):
        with on_leg(leg, "faultsim"):
            result = parallel_fault_simulate(
                circuit, sequences, faults, drop=drop, **sized
            )
        runs.append((leg, result))
    return runs


class TestCrossEngineMatrix:
    """Property-style cross-check of the engines.

    The serial scalar oracle and the (sequence x fault) lane engine on
    both word legs must produce identical detection records and
    potential sets on randomized circuits and sequences.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("drop", [True, False])
    def test_identical_detection_records(self, seed, drop):
        circuit = random_circuit(
            seed + 200, num_inputs=3, num_gates=14, num_dffs=3
        )
        sequences = _random_sequences(circuit, seed, count=3, length=10)
        faults = full_fault_universe(circuit)
        runs = _engine_runs(circuit, sequences, faults, drop)
        reference = runs[0][1]
        for engine, result in runs[1:]:
            assert result.detections == reference.detections, (engine, seed)
            assert result.potential == reference.potential, (engine, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_potential_sets(self, seed):
        """Potential sets agree with and without dropping, sharded too."""
        from repro.faultsim.shard import sharded_fault_simulate

        circuit = random_circuit(
            seed + 300, num_inputs=2, num_gates=10, num_dffs=3
        )
        sequences = _random_sequences(circuit, seed, count=2, length=8)
        faults = full_fault_universe(circuit)
        for drop in (True, False):
            runs = _engine_runs(circuit, sequences, faults, drop)
            runs.append(
                (
                    "sharded",
                    sharded_fault_simulate(
                        circuit, sequences, faults, workers=2, drop=drop, group_size=8
                    ),
                )
            )
            reference = runs[0][1]
            for engine, result in runs[1:]:
                assert result.potential == reference.potential, (engine, seed, drop)
                assert result.detections == reference.detections, (engine, seed, drop)

    @pytest.mark.parametrize("group_size", [2, 5, 64, 256])
    def test_kernels_agree_across_group_sizes(self, group_size):
        """Every group size gives the serial oracle's results."""
        circuit = random_circuit(7, num_gates=12, num_dffs=3)
        sequences = _random_sequences(circuit, 7)
        faults = full_fault_universe(circuit)
        runs = _engine_runs(circuit, sequences, faults, True, group_size=group_size)
        reference = runs[0][1]
        for engine, result in runs[1:]:
            assert result.detections == reference.detections, engine
            assert result.potential == reference.potential, engine

    def test_duplicate_faults_simulated_once(self):
        """A fault listed twice must not disturb detection accounting."""
        circuit = resettable_counter()
        faults = list(full_fault_universe(circuit))
        doubled = faults + faults
        sequences = [[(1, 0)] + [(0, 1)] * 6]
        once = parallel_fault_simulate(circuit, sequences, faults)
        twice = parallel_fault_simulate(circuit, sequences, doubled)
        assert once.detections == twice.detections

    def test_unknown_line_rejected(self):
        from repro.circuit import LineRef as _LineRef

        circuit = toggle_counter()
        ghost = StuckAtFault(_LineRef(0, 99), ONE)
        with pytest.raises(ValueError, match="does not exist"):
            parallel_fault_simulate(circuit, [[(1,)]], [ghost])


class TestDetectionSemantics:
    def test_known_good_x_faulty_not_detected(self):
        # Faulty machine output stays X while good is binary: no detection.
        builder = CircuitBuilder("xcase")
        builder.input("a")
        builder.and_("g", "a", "q")
        builder.dff("q", "g")
        builder.output("z", "g")
        circuit = builder.build()
        # Fault: feedback branch stuck-at-1 keeps q at X|1 -> with a=1 the
        # good machine output is X too; with a=0 both are 0.
        stem = circuit.fanout_stems()[0]
        feedback = next(e for e in circuit.out_edges(stem.name) if e.weight == 1)
        fault = StuckAtFault(LineRef(feedback.index, 1), ONE)
        result = serial_fault_simulate(circuit, [[(1,)]], [fault])
        assert result.num_detected == 0

    def test_unsynchronizable_circuit_detects_nothing(self):
        # XOR-only feedback never leaves the all-X state, so the good
        # machine's outputs stay unknown and nothing can be detected.
        circuit = toggle_counter()
        result = fault_simulate(circuit, [[(1,)] * 6])
        assert result.num_detected == 0

    def test_simple_detection(self):
        circuit = resettable_counter()
        faults = full_fault_universe(circuit)
        # Reset, then count: q0/q1 activity is visible at the outputs.
        sequences = [[(1, 0)] + [(0, 1)] * 6, [(1, 1)] * 4]
        result = fault_simulate(circuit, sequences, faults)
        assert result.num_detected > 0
        assert 0 < result.fault_coverage <= 100.0

    def test_detection_metadata(self):
        circuit = resettable_counter()
        result = fault_simulate(circuit, [[(1, 0)] + [(0, 1)] * 5])
        assert result.num_detected > 0
        for fault, record in result.detections.items():
            assert record.sequence_index == 0
            assert 0 <= record.cycle < 6
            assert record.output_name in circuit.output_names

    def test_empty_test_set(self):
        circuit = toggle_counter()
        result = fault_simulate(circuit, [])
        assert result.num_detected == 0
        assert result.fault_coverage == 0.0

    def test_empty_fault_list(self):
        circuit = toggle_counter()
        result = fault_simulate(circuit, [[(1,)]], faults=[])
        assert result.fault_coverage == 100.0

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            fault_simulate(toggle_counter(), [], engine="quantum")

    def test_bad_group_size(self):
        with pytest.raises(ValueError):
            parallel_fault_simulate(toggle_counter(), [], group_size=1)

    def test_summary_text(self):
        circuit = toggle_counter()
        result = fault_simulate(circuit, [[(1,)] * 4])
        assert "FC" in result.summary()


class TestPotentialDetection:
    def test_reset_fault_is_potentially_detected(self):
        """The undetectable reset-path faults drive outputs to X while the
        good machine is binary: PROOFS' 'potentially detected' class."""
        from tests.helpers import resettable_counter

        circuit = resettable_counter()
        sequences = [[(1, 0)] + [(0, 1)] * 5, [(1, 1)] * 4]
        result = fault_simulate(circuit, sequences)
        hard_undetected = set(result.undetected)
        assert hard_undetected  # the 3 reset-path faults
        assert result.potential & hard_undetected
        assert result.num_potentially_detected > 0

    def test_engines_agree_on_potential(self):
        from tests.helpers import resettable_counter
        from repro.faults import collapse_faults

        circuit = resettable_counter()
        faults = collapse_faults(circuit).representatives
        sequences = [[(1, 0)] + [(0, 1)] * 5]
        for drop in (True, False):
            serial = serial_fault_simulate(circuit, sequences, faults, drop=drop)
            parallel = parallel_fault_simulate(circuit, sequences, faults, drop=drop)
            assert serial.potential == parallel.potential, drop

    def test_summary_mentions_potential(self):
        from tests.helpers import resettable_counter

        circuit = resettable_counter()
        result = fault_simulate(circuit, [[(1, 0)] + [(0, 1)] * 5])
        assert "potential" in result.summary()


class TestPotentialAtTheDetectingCycle:
    """With dropping, a fault stops at its first detecting output: an X at
    an earlier output of that cycle is a potential detection, an X at a
    later one is not.  Without dropping, both count.

    ``a`` stuck-at-0 (on its stem) detects at the buffer output, while
    ``OR(a, q)`` with ``q`` still X goes X under the good machine's 1.
    """

    @staticmethod
    def _case(detect_first: bool):
        builder = CircuitBuilder("detect_first" if detect_first else "x_first")
        builder.input("a")
        builder.buf("b", "a")
        builder.or_("g", "a", "q")
        builder.dff("q", "a")
        builder.output("o1", "b" if detect_first else "g")
        builder.output("o2", "g" if detect_first else "b")
        circuit = builder.build()
        fault = StuckAtFault(LineRef(circuit.out_edges("a")[0].index, 1), ZERO)
        return circuit, fault

    @pytest.mark.parametrize("detect_first", [True, False])
    @pytest.mark.parametrize("drop", [True, False])
    def test_rule(self, detect_first, drop):
        circuit, fault = self._case(detect_first)
        expected_output = "o1" if detect_first else "o2"
        potential = not (drop and detect_first)
        for engine, result in _engine_runs(circuit, [[(1,)]], [fault], drop):
            assert result.detections[fault].output_name == expected_output, engine
            assert (fault in result.potential) == potential, engine
