"""The exact product-machine search against independent oracles.

Every test it finds must replay under the scalar serial fault simulator;
no fault that PODEM or a random test set detects may ever be proved
untestable; outcomes must not depend on how faults share steps; and with
the search off, ``run_atpg`` must be the PODEM engine byte for byte.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro.atpg import AtpgBudget, run_atpg, structurally_untestable
from repro.atpg import exact
from repro.atpg.exact import StepKeys, iter_exact, key_planes, lane_keys
from repro.faults import collapse_faults
from repro.faultsim import fault_simulate
from repro.faultsim.serial import serial_fault_simulate
from repro.papercircuits import fig5_pair
from repro.store import AtpgCheckpoint

from tests.helpers import random_circuit, resettable_random_circuit

#: PODEM limits that bind before any clock does.
PODEM = AtpgBudget(
    total_seconds=120.0,
    seconds_per_fault=5.0,
    backtracks_per_fault=200,
    max_frames=8,
    random_sequences=8,
    random_length=16,
)


def _circuits():
    """Seeded random circuits (at most 6 registers and 4 inputs) and the
    Fig. 5 pair."""
    n1, n2, _retiming = fig5_pair()
    return [
        random_circuit(810, num_inputs=3, num_gates=14, num_dffs=3),
        random_circuit(811, num_inputs=4, num_gates=18, num_dffs=5),
        random_circuit(812, num_inputs=2, num_gates=16, num_dffs=6),
        resettable_random_circuit(813, num_inputs=3, num_gates=12, num_dffs=4),
        n1,
        n2,
    ]


CIRCUITS = _circuits()
IDS = [circuit.name for circuit in CIRCUITS]


def _searched(circuit, lane_cap=1 << 20):
    faults = collapse_faults(circuit).representatives
    untestable = structurally_untestable(circuit)
    return list(iter_exact(circuit, [f for f in faults if f not in untestable], lane_cap))


def _digest(test_set) -> str:
    return hashlib.sha256(test_set.to_text().encode("utf-8")).hexdigest()[:16]


class TestLaneKeys:
    @pytest.mark.parametrize("num_planes", [0, 1, 7, 8, 20, 33, 64, 65, 104])
    def test_round_trip(self, num_planes):
        rng = random.Random(num_planes)
        keys = [rng.getrandbits(num_planes) for _ in range(37)]
        planes = key_planes(keys, num_planes)
        decoded = lane_keys(planes, len(keys))
        wide = num_planes > 64
        as_ints = [
            sum(word << (64 * n) for n, word in enumerate(key)) if wide else key
            for key in decoded
        ]
        assert as_ints == keys

    def test_step_keys_expand_to_full_keys(self):
        """Constant and repeated planes are decoded once; every lane still
        expands to the key of all its planes."""
        lanes = 50
        rng = random.Random(3)
        varied = [rng.getrandbits(lanes) for _ in range(5)]
        planes = [0, (1 << lanes) - 1] + varied + varied[:3] + [0]
        step = StepKeys(planes, lanes)
        assert len(step.masks) == 5
        expected = lane_keys(planes, lanes)
        assert [step.full(key) for key in step.lanes] == expected


class TestOracles:
    @pytest.mark.parametrize("circuit", CIRCUITS, ids=IDS)
    def test_every_test_detects_its_target_serially(self, circuit):
        found = [(f, o) for f, o in _searched(circuit) if o.status == "det"]
        assert found
        for fault, outcome in found:
            replay = serial_fault_simulate(circuit, [outcome.sequence], [fault])
            assert fault in replay.detections, fault
            # The test is shortest: it detects only at its last vector.
            assert replay.detections[fault].cycle == len(outcome.sequence) - 1

    @pytest.mark.parametrize("circuit", CIRCUITS, ids=IDS)
    def test_nothing_detectable_is_proved_untestable(self, circuit):
        outcomes = dict(_searched(circuit))
        assert all(o.status != "cap" for o in outcomes.values())
        proved = {f for f, o in outcomes.items() if o.status == "proved"}
        podem = run_atpg(circuit, budget=replace(PODEM, exact_lane_steps=0))
        rng = random.Random(circuit.name)
        width = len(circuit.input_names)
        sequences = [
            [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(24)]
            for _ in range(64)
        ]
        randomly = set(fault_simulate(circuit, sequences, list(outcomes)).detections)
        assert not proved & podem.detected
        assert not proved & randomly

    @pytest.mark.parametrize("circuit", CIRCUITS, ids=IDS)
    def test_run_atpg_reaches_full_efficiency(self, circuit):
        result = run_atpg(circuit, budget=PODEM)
        assert result.fault_efficiency == 100.0
        assert not result.aborted
        assert result.search_proved <= result.untestable
        replay = fault_simulate(circuit, result.test_set.as_lists(), list(result.detected))
        assert set(replay.detections) == result.detected
        searched = [row for row in result.fault_rows if row.lane_steps]
        assert all(row.status in ("det", "proved") for row in searched)
        assert all(row.backtracks == 0 for row in searched)
        proved = {row.fault_key for row in searched if row.status == "proved"}
        assert proved == {
            (f.line.edge_index, f.line.segment, f.value) for f in result.search_proved
        }


class TestBatching:
    @pytest.mark.parametrize(
        "knob, value",
        [("EXACT_FAULT_BATCH", 1), ("EXACT_FAULT_BATCH", 3), ("EXACT_BATCH_PAIRS", 1)],
    )
    def test_batches_give_the_same_outcomes(self, monkeypatch, knob, value):
        circuit = CIRCUITS[1]
        reference = _searched(circuit)
        reference_run = run_atpg(circuit, budget=PODEM)
        monkeypatch.setattr(exact, knob, value)
        assert _searched(circuit) == reference
        run = run_atpg(circuit, budget=PODEM)
        assert run.test_set.to_text() == reference_run.test_set.to_text()
        assert run.untestable == reference_run.untestable


class TestCap:
    def test_tiny_cap_sends_every_fault_to_podem(self):
        circuit = CIRCUITS[0]
        podem = run_atpg(circuit, budget=replace(PODEM, exact_lane_steps=0))
        # Below one alphabet's worth of lane-steps not even the root pair fits.
        tiny = run_atpg(circuit, budget=replace(PODEM, exact_lane_steps=1))
        assert tiny.test_set.to_text() == podem.test_set.to_text()
        assert tiny.detected == podem.detected
        assert tiny.aborted == podem.aborted
        assert not tiny.search_proved
        assert not any(row.lane_steps for row in tiny.fault_rows)
        assert tiny.backtracks == podem.backtracks

    def test_over_cap_faults_go_on_to_podem(self):
        circuit = CIRCUITS[1]
        alphabet = 2 ** len(circuit.input_names)
        outcomes = _searched(circuit, lane_cap=2 * alphabet)
        over = [f for f, o in outcomes if o.status == "cap"]
        assert over and len(over) < len(outcomes)
        assert all(o.lane_steps <= 2 * alphabet for _f, o in outcomes)
        budget = replace(PODEM, backtracks_per_fault=20, exact_lane_steps=2 * alphabet)
        result = run_atpg(circuit, budget=budget)
        podem_rows = [row for row in result.fault_rows if not row.lane_steps]
        assert podem_rows
        assert {row.status for row in podem_rows} <= {"det", "abort", "exhausted"}
        # Every fault the search left open was either targeted by PODEM
        # or detected by an earlier test on the way.
        keys = {row.fault_key for row in podem_rows}
        for fault in over:
            key = (fault.line.edge_index, fault.line.segment, fault.value)
            assert key in keys or fault in result.detected


    def test_pool_gets_the_same_over_cap_faults(self):
        circuit = CIRCUITS[1]
        alphabet = 2 ** len(circuit.input_names)
        budget = replace(PODEM, backtracks_per_fault=20, exact_lane_steps=2 * alphabet)
        serial = run_atpg(circuit, budget=budget, engine="serial")
        pooled = run_atpg(circuit, budget=budget, engine="process", workers=2)
        assert pooled.test_set.to_text() == serial.test_set.to_text()
        assert pooled.untestable == serial.untestable
        assert pooled.aborted == serial.aborted


class TestPodemOnly:
    def test_search_off_reproduces_podem_test_set(self):
        """With ``exact_lane_steps=0`` the flow's dk16.ji.sd easy circuit
        gets the PODEM test set byte for byte (digest pinned from the
        engine before the search existed)."""
        from repro.core.experiments import TABLE2_CIRCUITS, build_pair
        from repro.pipeline import FlowPipeline

        spec = next(s for s in TABLE2_CIRCUITS if s.name == "dk16.ji.sd")
        hard = build_pair(spec, store=None).retimed
        retiming = FlowPipeline(store=None).stage_easy_retiming(hard)
        easy = retiming.apply(f"{hard.name}.easy")
        budget = AtpgBudget(
            backtracks_per_fault=4,
            frames_cap=6,
            total_seconds=1e6,
            seconds_per_fault=1e6,
            exact_lane_steps=0,
        )
        result = run_atpg(easy, budget=budget)
        assert _digest(result.test_set) == "ddc84ff2b5222ad3"
        assert not result.search_proved


class TestResume:
    def test_killed_run_resumes_bit_identical_with_search(self, tmp_path):
        """A capped search leaves faults to PODEM, whose outcomes are
        journaled; the search itself reruns on resume."""
        circuit = CIRCUITS[1]
        faults = collapse_faults(circuit).representatives
        alphabet = 2 ** len(circuit.input_names)
        budget = replace(PODEM, backtracks_per_fault=20, exact_lane_steps=2 * alphabet)
        reference = run_atpg(circuit, faults, budget)

        checkpoint = AtpgCheckpoint(str(tmp_path / "run.ckpt"))
        run_atpg(circuit, faults, budget, checkpoint=checkpoint)
        lines = open(checkpoint.path).read().splitlines()
        fault_lines = [i for i, line in enumerate(lines) if json.loads(line)["e"] == "fault"]
        assert len(fault_lines) > 2, "too few PODEM targets to simulate a kill"
        with open(checkpoint.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: fault_lines[2]]) + "\n" + '{"e": "fault", "f": [1')

        resumed = run_atpg(circuit, faults, budget, checkpoint=checkpoint, resume=True)
        assert resumed.test_set.to_text() == reference.test_set.to_text()
        assert resumed.detected == reference.detected
        assert resumed.untestable == reference.untestable
        assert resumed.aborted == reference.aborted
