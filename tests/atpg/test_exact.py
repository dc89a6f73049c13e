"""The exact product-machine search against independent oracles.

Every leaf of a cube row must stand for exactly its minterms under the
scalar simulators; outcomes must equal a brute-force search that
enumerates every vector; every test it finds must replay under the scalar
serial fault simulator; no fault that PODEM or a random test set detects
may ever be proved untestable; outcomes must not depend on how faults
share steps or on the bookkeeping leg; and with the search off,
``run_atpg`` must be the PODEM engine byte for byte.
"""

import hashlib
import json
import random
import time
from dataclasses import asdict, replace

import pytest

from repro.atpg import AtpgBudget, run_atpg, structurally_untestable
from repro.atpg import exact
from repro.atpg.exact import ProductSearch, StepKeys, iter_exact, key_planes, lane_keys
from repro.equivalence.explicit import all_vectors
from repro.faults import collapse_faults
from repro.faultsim import fault_simulate
from repro.faultsim.serial import serial_fault_simulate
from repro.logic.three_valued import ONE, X, ZERO
from repro.papercircuits import fig5_pair
from repro.simulation.backends import numpy_available
from repro.simulation.codegen import FastStepper
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

#: The e2e benchmark's flow budget: effort-bound, the clock out of reach.
FLOW = AtpgBudget(
    backtracks_per_fault=4,
    frames_cap=6,
    total_seconds=1e6,
    seconds_per_fault=1e6,
)

LEGS = ["bigint"] + (["numpy"] if numpy_available() else [])


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

#: Past the explicit engines' 12-input wall; the last one past 64
#: inputs, read on both sides of bit 64 of a cube.
WIDE = [
    random_circuit(830, num_inputs=13, num_gates=16, num_dffs=3),
    random_circuit(832, num_inputs=16, num_gates=18, num_dffs=3),
    random_circuit(833, num_inputs=15, num_gates=20, num_dffs=4),
    random_circuit(840, num_inputs=8, num_gates=18, num_dffs=3, idle_inputs=62),
]
WIDE_IDS = [circuit.name for circuit in WIDE]


def _targets(circuit):
    faults = collapse_faults(circuit).representatives
    untestable = structurally_untestable(circuit)
    return [f for f in faults if f not in untestable]


def _searched(circuit, lane_cap=1 << 20, backend="auto"):
    return list(iter_exact(circuit, _targets(circuit), lane_cap, backend=backend))


def _digest(*test_sets) -> str:
    text = "".join(test_set.to_text() for test_set in test_sets)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _enumerated(circuit, fault):
    """The search every vector of every row: BFS over (good, faulty)
    state pairs on the scalar steppers, rows in pair order, vectors in
    :func:`all_vectors` order, first detecting (pair, vector) wins.
    Returns ``("det", sequence)`` or ``("proved", None)``."""
    good = FastStepper(circuit).step
    faulty = FastStepper(circuit, fault=fault).step
    alphabet = all_vectors(len(circuit.input_names))
    root = ((X,) * circuit.num_registers(),) * 2
    index = {root: 0}
    pairs = [root]
    parents = [None]
    position = 0
    while position < len(pairs):
        good_state, faulty_state = pairs[position]
        for vector in alphabet:
            good_out, good_next, _ = good(good_state, vector)
            faulty_out, faulty_next, _ = faulty(faulty_state, vector)
            if any(a != X and b != X and a != b for a, b in zip(good_out, faulty_out)):
                sequence = [vector]
                back = parents[position]
                while back is not None:
                    position, vector = back
                    sequence.append(vector)
                    back = parents[position]
                return "det", sequence[::-1]
            successor = (good_next, faulty_next)
            if successor not in index:
                index[successor] = len(pairs)
                pairs.append(successor)
                parents.append((position, vector))
        position += 1
    return "proved", None


def _pair_key(good, faulty) -> int:
    """The search's key of a (good, faulty) ternary state pair."""
    r = len(good)
    key = 0
    for half, state in enumerate((good, faulty)):
        for j, value in enumerate(state):
            if value == ONE:
                key |= 1 << (2 * half * r + j)
            elif value == ZERO:
                key |= 1 << ((2 * half + 1) * r + j)
    return key


def _leaves(search, fault, key):
    """Every leaf of one row, expanded with :meth:`ProductSearch.evaluate`:
    ``(assigned, value, successor key, detect)``."""
    r, n = search.num_registers, search.num_inputs
    leaves = []
    cubes = [(0, 0)]
    while cubes:
        lanes = len(cubes)
        injections = [(fault, (1 << lanes) - 1)] if fault is not None else []
        next_planes, leaf, detect, picks = search.evaluate(
            key_planes([key] * lanes, 4 * r),
            key_planes([assigned for assigned, _ in cubes], n),
            key_planes([value for _, value in cubes], n),
            injections,
            lanes,
        )
        keys = [exact._as_int(k) for k in lane_keys(next_planes, lanes)]
        split = []
        for lane, (assigned, value) in enumerate(cubes):
            chosen = [bit for bit in range(n) if picks[bit] >> lane & 1]
            if leaf >> lane & 1:
                assert not chosen
                leaves.append((assigned, value, keys[lane], detect >> lane & 1))
            else:
                (bit,) = chosen
                assert not assigned >> bit & 1
                split += [(assigned | 1 << bit, value), (assigned | 1 << bit, value | 1 << bit)]
        cubes = split
    return leaves


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


class TestLeaves:
    """A leaf stands for every one of its minterms: the leaves of a row
    partition the alphabet, and each minterm's own scalar step gives its
    leaf's successor and detect bit."""

    @pytest.mark.parametrize("seed", [860, 861, 862, 863])
    def test_leaves_are_exact(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(
            seed, num_inputs=rng.randint(4, 8), num_gates=22, num_dffs=rng.randint(3, 5)
        )
        r, n = circuit.num_registers(), len(circuit.input_names)
        search = ProductSearch(circuit, 1)
        faults = _targets(circuit)
        alphabet = all_vectors(n)
        good = FastStepper(circuit).step
        for trial in range(8):
            fault = None if trial % 2 else rng.choice(faults)
            # X-heavy states on some rows, binary ones on others.
            x_share = (0.8, 0.0, 0.4, 1.0)[trial % 4]
            states = [
                tuple(X if rng.random() < x_share else rng.randint(0, 1) for _ in range(r))
                for _ in range(2)
            ]
            if fault is None:
                states[1] = states[0]
            faulty = (FastStepper(circuit, fault=fault) if fault else FastStepper(circuit)).step
            leaves = _leaves(search, fault, _pair_key(*states))
            cover = [0] * len(alphabet)
            for assigned, value, key, detect in leaves:
                for index, vector in enumerate(alphabet):
                    if index & assigned != value:
                        continue
                    cover[index] += 1
                    good_out, good_next, _ = good(states[0], vector)
                    faulty_out, faulty_next, _ = faulty(states[1], vector)
                    detects = any(
                        a != X and b != X and a != b for a, b in zip(good_out, faulty_out)
                    )
                    assert detects == bool(detect), (trial, index)
                    if not detect:
                        assert _pair_key(good_next, faulty_next) == key, (trial, index)
            assert cover == [1] * len(alphabet)


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
    def test_same_outcomes_as_enumerating_every_vector(self, circuit):
        for fault, outcome in _searched(circuit):
            assert (outcome.status, outcome.sequence) == _enumerated(circuit, fault), fault

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


class TestPastTheWall:
    """13 to 70 inputs: past the explicit engines' input limit, and past
    the 64 bits of one machine word per cube."""

    @pytest.mark.parametrize("circuit", WIDE, ids=WIDE_IDS)
    def test_tests_replay_and_nothing_detectable_is_proved(self, circuit):
        outcomes = _searched(circuit)
        assert all(o.status != "cap" for _f, o in outcomes)
        found = [(f, o) for f, o in outcomes if o.status == "det"]
        proved = {f for f, o in outcomes if o.status == "proved"}
        assert found and proved
        for fault, outcome in found:
            replay = serial_fault_simulate(circuit, [outcome.sequence], [fault])
            assert fault in replay.detections, fault
        budget = replace(PODEM, backtracks_per_fault=40, exact_lane_steps=0)
        podem = run_atpg(circuit, budget=budget)
        rng = random.Random(circuit.name)
        width = len(circuit.input_names)
        sequences = [
            [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(24)]
            for _ in range(64)
        ]
        randomly = set(fault_simulate(circuit, sequences, [f for f, _o in outcomes]).detections)
        assert podem.detected and randomly
        assert not proved & podem.detected
        assert not proved & randomly

    def test_run_atpg_reaches_full_efficiency(self):
        result = run_atpg(WIDE[0], budget=PODEM)
        assert result.fault_efficiency == 100.0
        assert not result.aborted and result.search_proved


class TestLegs:
    @pytest.mark.skipif(not numpy_available(), reason="needs the numpy extra")
    @pytest.mark.parametrize(
        "circuit, lane_cap",
        [
            (CIRCUITS[1], 1 << 20),
            (WIDE[1], 1 << 20),
            # 70 inputs: cubes and split codes of more than 64 bits.
            (WIDE[3], 1 << 20),
            # 17 registers: 68-bit pair keys, and a cap some faults pass.
            (resettable_random_circuit(852, num_inputs=2, num_gates=36, num_dffs=17), 600),
        ],
        ids=["rand811", "rand832", "rand840-wide-cubes", "rrand852-wide-keys"],
    )
    def test_bigint_and_numpy_agree(self, circuit, lane_cap):
        bigint = _searched(circuit, lane_cap, backend="bigint")
        numpy = _searched(circuit, lane_cap, backend="numpy")
        assert bigint == numpy
        if circuit.num_registers() > 16:
            assert {o.status for _f, o in bigint} == {"det", "proved", "cap"}


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

    @pytest.mark.parametrize("backend", LEGS)
    def test_capped_outcomes_do_not_depend_on_batching(self, monkeypatch, backend):
        """The cap is checked row by row in pair order, so where a fault
        stops is the same whichever faults share its steps."""
        circuit = WIDE[0]
        reference = _searched(circuit, lane_cap=3000, backend=backend)
        assert {o.status for _f, o in reference} == {"det", "proved", "cap"}
        monkeypatch.setattr(exact, "EXACT_FAULT_BATCH", 1)
        assert _searched(circuit, lane_cap=3000, backend=backend) == reference


class TestCap:
    def test_tiny_cap_sends_every_fault_to_podem(self):
        circuit = CIRCUITS[0]
        podem = run_atpg(circuit, budget=replace(PODEM, exact_lane_steps=0))
        # One lane-step never finishes the root row: its all-X cube splits.
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


class TestClock:
    """The search reads the caller's clock between steps only."""

    def test_out_of_time_leaves_the_rest_undecided(self):
        circuit = WIDE[0]
        reference = _searched(circuit)
        checks = []

        def out_of_time():
            checks.append(None)
            return len(checks) > 60  # about half of the search's steps

        stopped = list(iter_exact(circuit, _targets(circuit), 1 << 20, out_of_time=out_of_time))
        assert [f for f, _o in stopped] == [f for f, _o in reference]
        assert {o.status for _f, o in stopped} == {"det", "proved", "time"}
        for (_f, outcome), (_f, expected) in zip(stopped, reference):
            assert outcome.status == "time" or outcome == expected

    def test_tiny_budget_bounds_a_long_search(self):
        """This circuit's search runs for minutes; at a half-second
        budget ATPG returns with the undecided faults budget-aborted,
        as PODEM's would be."""
        circuit = random_circuit(881, num_inputs=24, num_gates=48, num_dffs=6)
        budget = replace(PODEM, total_seconds=0.5)
        start = time.perf_counter()
        result = run_atpg(circuit, budget=budget)
        assert time.perf_counter() - start < budget.total_seconds + 2.0
        assert result.aborted and not result.backtracks
        rows = {row.fault_key: row.status for row in result.fault_rows}
        for fault in result.aborted:
            assert rows[(fault.line.edge_index, fault.line.segment, fault.value)] == "budget"


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


class TestPins:
    @pytest.mark.parametrize(
        "name, digest",
        [
            # The enumerating search's test sets, which cube lanes keep.
            ("dk16.ji.sd", "87de853247dc4f8e"),
            ("pma.jo.sd", "90bd9d89d7d3b1b3"),
        ],
    )
    def test_flow_test_sets_unchanged(self, name, digest):
        from repro.core.experiments import TABLE2_CIRCUITS
        from repro.pipeline import FlowPipeline

        spec = next(s for s in TABLE2_CIRCUITS if s.name == name)
        flow = FlowPipeline(store=None).run_spec(spec, FLOW).flow
        assert _digest(flow.atpg_result.test_set, flow.derived_test_set) == digest
        assert flow.atpg_result.fault_efficiency == 100.0

    def test_eighteen_inputs_reach_full_efficiency(self):
        """s820.ji.sr (18 inputs) at the served-job budget: every fault
        of its easy circuit is decided."""
        from repro.core.experiments import TABLE2_CIRCUITS
        from repro.pipeline import FlowPipeline

        spec = next(s for s in TABLE2_CIRCUITS if s.name == "s820.ji.sr")
        flow = FlowPipeline(store=None).run_spec(spec, replace(FLOW, random_sequences=16)).flow
        result = flow.atpg_result
        assert result.fault_efficiency == 100.0
        assert result.search_proved and not result.aborted and not result.backtracks

    def test_default_fingerprint_changed(self):
        """Results of the enumerating search, whose fingerprint was the
        bare budget, are never served under the cube search."""
        from repro.store.artifacts import budget_fingerprint

        assert budget_fingerprint(AtpgBudget()) != asdict(AtpgBudget())


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


class TestCompileOnUse:
    def test_searched_run_never_compiles_podem_steppers(self):
        """A run the search decides alone writes the stepper record with
        all four sources but execs neither the scalar nor the dual one;
        PODEM, when it runs, still gets its usual results."""
        from repro.simulation.cache import (
            clear_compile_cache,
            compile_cache_stats,
            dual_fast_stepper,
            fast_stepper,
        )

        circuit = random_circuit(870, num_inputs=4, num_gates=18, num_dffs=4)
        clear_compile_cache()
        result = run_atpg(circuit, budget=PODEM)
        assert result.fault_efficiency == 100.0 and not result.backtracks
        assert compile_cache_stats()["persistent_writes"] == 1
        assert "step" not in vars(fast_stepper(circuit))
        assert "step_dual" not in vars(dual_fast_stepper(circuit))
        podem = run_atpg(circuit, budget=replace(PODEM, exact_lane_steps=0))
        clear_compile_cache()
        fresh = run_atpg(circuit, budget=replace(PODEM, exact_lane_steps=0))
        assert podem.test_set.to_text() == fresh.test_set.to_text()
        assert podem.backtracks == fresh.backtracks
        assert "step_dual" in vars(dual_fast_stepper(circuit))
