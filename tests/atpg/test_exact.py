"""The exact product-machine search against independent oracles.

Every leaf of a cube row must stand for exactly its minterms under the
scalar simulators; outcomes must equal a brute-force search that
enumerates every vector; every test it finds must replay under the scalar
serial fault simulator; no fault that PODEM or a random test set detects
may ever be proved untestable; outcomes must not depend on how faults
share steps or on the bookkeeping leg; and with the search off,
``run_atpg`` must be the PODEM engine byte for byte.
"""

import functools
import hashlib
import json
import random
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.atpg import AtpgBudget, run_atpg, structurally_untestable
from repro.atpg import exact
from repro.atpg.exact import ProductSearch, StepKeys, iter_exact, key_planes, lane_keys
from repro.circuit import CircuitBuilder, GateType
from repro.equivalence.explicit import all_vectors
from repro.faults import collapse_faults
from repro.faultsim import fault_simulate
from repro.faultsim.serial import serial_fault_simulate
from repro.logic.three_valued import ONE, X, ZERO
from repro.papercircuits import fig5_pair
from repro.simulation.codegen import FastStepper
from repro.store import AtpgCheckpoint

from tests.helpers import (
    HAVE_NUMPY,
    on_leg,
    random_circuit,
    requires_numpy,
    resettable_random_circuit,
)

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

LEGS = ["bigint"] + (["numpy"] if HAVE_NUMPY else [])


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


def _searched(circuit, lane_cap=1 << 20):
    return list(iter_exact(circuit, _targets(circuit), lane_cap))


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


#: TestLeaves' circuits: seed -> registers that never leave X.
LEAF_SEEDS = {860: 0, 861: 0, 862: 0, 863: 0, 865: 1, 866: 2, 867: 1}


def _x_xor(k):
    """``z = XOR(u, i0, ..., i(k-1))`` with ``u = DFF(XOR(u, i0))``: from
    the all-X state ``u`` never leaves X, so neither does ``z``."""
    builder = CircuitBuilder(f"xxor{k}")
    inputs = [builder.input(f"i{j}") for j in range(k)]
    builder.dff("u", builder.xor("u_d", "u", "i0"))
    builder.gate("z_g", GateType.XOR, ["u"] + inputs)
    builder.output("z", "z_g")
    return builder.build()


class TestLeaves:
    """A leaf stands for every one of its minterms: the leaves of a row
    partition the alphabet, and each minterm's own scalar step gives its
    leaf's successor and detect bit."""

    @pytest.mark.parametrize("seed", list(LEAF_SEEDS))
    def test_leaves_are_exact(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(
            seed,
            num_inputs=rng.randint(4, 8),
            num_gates=22,
            num_dffs=rng.randint(3, 5),
            x_registers=LEAF_SEEDS[seed],
        )
        r, n = circuit.num_registers(), len(circuit.input_names)
        search = ProductSearch(circuit, 1)
        faults = _targets(circuit)
        alphabet = all_vectors(n)
        good = FastStepper(circuit).step
        supports = sum(exact._supports(search.stepper.compiled, circuit.output_names), [])
        # Leaves with an observed line X on the cube and its support not
        # all assigned: only the top extension settles those.
        settled_by_top = 0
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
                cube = tuple(
                    value >> (n - 1 - i) & 1 if assigned >> (n - 1 - i) & 1 else X
                    for i in range(n)
                )
                lines = [
                    (*out, *nxt)
                    for out, nxt, _ in (good(states[0], cube), faulty(states[1], cube))
                ]
                settled_by_top += not detect and any(
                    line[k] == X and supports[k] & ~assigned
                    for line in lines
                    for k in range(len(supports))
                )
            assert cover == [1] * len(alphabet)
        if LEAF_SEEDS[seed]:
            assert settled_by_top

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_line_x_under_every_minterm_is_one_leaf(self, k):
        """From the X state the row of :func:`_x_xor` is one leaf, where
        splitting on the support of ``z`` would give ``2^k``; from a
        binary state ``z`` resolves on minterms only."""
        circuit = _x_xor(k)
        search = ProductSearch(circuit, 1 << 20)
        assert _leaves(search, None, 0) == [(0, 0, 0, 0)]
        assert search._seed([0], _never) and search.seeds[0] == [0]
        assert len(_leaves(search, None, _pair_key((ZERO,), (ZERO,)))) == 2**k
        outcomes = search.run(_targets(circuit))
        assert {o.status for o in outcomes} == {"proved"}
        assert min(o.lane_steps for o in outcomes) == 1


def _never():
    return False


class TestSeeds:
    """A row starts from its good state's seeds: the leaves of the
    fault-free row, expanded once per good state."""

    @pytest.mark.parametrize("seed", [860, 861, 862, 863])
    def test_seeds_partition_the_alphabet_into_fault_free_leaves(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(
            seed, num_inputs=rng.randint(4, 8), num_gates=22, num_dffs=rng.randint(3, 5)
        )
        r, n = circuit.num_registers(), len(circuit.input_names)
        search = ProductSearch(circuit, 1 << 20)
        for trial in range(8):
            # X-heavy good states on some trials, binary ones on others.
            x_share = (0.8, 0.0, 0.4, 1.0)[trial % 4]
            state = tuple(X if rng.random() < x_share else rng.randint(0, 1) for _ in range(r))
            key = _pair_key(state, state)
            good = key & search.good_mask
            assert search._seed([good], _never)
            cubes = [(cube >> n, cube & ((1 << n) - 1)) for cube in search.seeds[good]]
            cover = [0] * (1 << n)
            for assigned, value in cubes:
                for index in range(1 << n):
                    cover[index] += index & assigned == value
            assert cover == [1] * (1 << n), trial  # disjoint, and all of the alphabet
            leaves = [(assigned, value) for assigned, value, _key, _det in _leaves(search, None, key)]
            assert sorted(cubes) == sorted(leaves), trial

    def test_state_past_the_cap_is_seeded_with_the_all_x_cube(self):
        """Good states whose fault-free row passes the cap start their rows
        from the all-X cube; every leg gives the same outcomes and lane
        counts, and every decided fault decides as without the cap."""
        circuit = random_circuit(900, num_inputs=8, num_gates=22, num_dffs=4)
        faults = _targets(circuit)
        cap = 200
        full = ProductSearch(circuit, 1 << 20)
        reference = full.run(faults)
        runs = {}
        for leg in LEGS:
            search = ProductSearch(circuit, cap)
            with on_leg(leg, "exact"):
                runs[leg] = search.run(faults)
            assert full._seed(list(search.seeds), _never)
            over = set()
            for good, cubes in search.seeds.items():
                if 2 * len(full.seeds[good]) - 1 > cap:  # lanes of the fault-free row
                    assert cubes == [0]
                    over.add(good)
                else:
                    assert cubes == full.seeds[good]
            assert over and 0 not in over  # the all-X root itself fits
        outcomes = runs["bigint"]
        assert all(run == outcomes for run in runs.values())
        assert {o.status for o in outcomes} == {"det", "cap"}
        for outcome, expected in zip(outcomes, reference):
            assert outcome.status == "cap" or (outcome.status, outcome.sequence) == (
                expected.status,
                expected.sequence,
            )


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
    @requires_numpy
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
        with on_leg("bigint", "exact"):
            bigint = _searched(circuit, lane_cap)
        with on_leg("numpy", "exact"):
            numpy = _searched(circuit, lane_cap)
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

    @pytest.mark.parametrize("leg", LEGS)
    def test_capped_outcomes_do_not_depend_on_batching(self, monkeypatch, leg):
        """The cap is checked row by row in pair order, so where a fault
        stops is the same whichever faults share its steps."""
        circuit = WIDE[0]
        with on_leg(leg, "exact"):
            reference = _searched(circuit, lane_cap=3000)
            assert {o.status for _f, o in reference} == {"det", "proved", "cap"}
            monkeypatch.setattr(exact, "EXACT_FAULT_BATCH", 1)
            assert _searched(circuit, lane_cap=3000) == reference


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
        checks = []

        def never():
            checks.append(None)
            return False

        reference = list(iter_exact(circuit, _targets(circuit), 1 << 20, out_of_time=never))
        assert reference == _searched(circuit)
        # Two-thirds of the way: seed expansion reads the clock in the
        # first steps, so half of the reads falls before the first proof.
        stop = 2 * len(checks) // 3
        checks.clear()

        def out_of_time():
            checks.append(None)
            return len(checks) > stop

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


#: Each flow's hard-circuit grade of ``P ∪ T``: (detected, faults).
HARD_DETECTED = {
    "dk16.ji.sd": (727, 828),
    "pma.jo.sd": (819, 1004),
    "s510.jo.sr": (781, 814),
    "s832.jo.sr": (704, 731),
}

#: Per flow circuit, the lane-steps of every fault the search decided
#: under generation 3 (the support leaf rule), keyed ``edge,segment,value``.
GEN3_LANE_STEPS = json.loads(
    Path(__file__).with_name("flow_lane_steps_gen3.json").read_text(encoding="utf-8")
)


@functools.lru_cache(maxsize=None)
def _flow(name):
    """The Fig. 6 flow on one Table II circuit at the e2e budget, and every
    ``(fault, outcome)`` its search gave, skipped ones included."""
    from repro.atpg import engine
    from repro.core.experiments import TABLE2_CIRCUITS
    from repro.pipeline import FlowPipeline

    spec = next(s for s in TABLE2_CIRCUITS if s.name == name)
    searched = []
    real = engine.iter_exact

    def recording(*args, **kwargs):
        for fault, outcome in real(*args, **kwargs):
            searched.append((fault, outcome))
            yield fault, outcome

    engine.iter_exact = recording
    try:
        flow = FlowPipeline(store=None).run_spec(spec, FLOW).flow
    finally:
        engine.iter_exact = real
    return flow, searched


class TestPins:
    @pytest.mark.parametrize(
        "name, digest",
        [
            # The enumerating search's test sets, which cube lanes keep.
            ("dk16.ji.sd", "87de853247dc4f8e"),
            ("pma.jo.sd", "90bd9d89d7d3b1b3"),
            # The cube search's, on the wide-input flow circuits.
            ("s510.jo.sr", "3a69cb0e85447499"),
            ("s832.jo.sr", "d8d6e15c49443f1b"),
        ],
    )
    def test_flow_test_sets_unchanged(self, name, digest):
        flow, _searched = _flow(name)
        assert _digest(flow.atpg_result.test_set, flow.derived_test_set) == digest
        assert flow.atpg_result.fault_efficiency == 100.0
        graded = flow.hard_fault_sim
        assert (graded.num_detected, graded.num_faults) == HARD_DETECTED[name]

    @pytest.mark.parametrize("name", sorted(GEN3_LANE_STEPS))
    def test_no_searched_fault_takes_more_lanes(self, name):
        """Settling lines that are X under every minterm only prunes the
        generation-3 trees: no fault the flow searches takes more lanes."""
        _flow_result, searched = _flow(name)
        before = GEN3_LANE_STEPS[name]
        after = {
            f"{f.line.edge_index},{f.line.segment},{f.value}": o.lane_steps for f, o in searched
        }
        assert after.keys() == before.keys()
        assert all(after[key] <= before[key] for key in before)
        assert sum(after.values()) < sum(before.values())

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


class TestInjectKernel:
    """The faulty half steps on one kernel per search, injecting at the
    searched faults' lines only."""

    def test_one_search_compiles_one_inject_kernel(self, monkeypatch):
        from repro.simulation.cache import clear_compile_cache, vector_fast_stepper
        from repro.simulation.vector_codegen import VectorFastStepper

        circuit = WIDE[0]
        faults = _targets(circuit)
        reference = _searched(circuit)
        clear_compile_cache()
        compiled = []
        real = VectorFastStepper._exec

        def counting(self, source, name, tag):
            compiled.append(tag)
            return real(self, source, name, tag)

        monkeypatch.setattr(VectorFastStepper, "_exec", counting)
        monkeypatch.setattr(exact, "EXACT_FAULT_BATCH", 5)  # many batches, one kernel
        assert list(iter_exact(circuit, faults, 1 << 20)) == reference
        stepper = vector_fast_stepper(circuit)
        slots = {stepper.line_slot[fault.line] for fault in faults}
        assert compiled.count(f"vectorstep+inject[{len(slots)}]") == 1
        assert len(slots) < stepper.num_injection_slots
        assert "vectorstep+inject" not in compiled

    @requires_numpy
    def test_numpy_run_never_execs_the_dense_inject_kernel(self):
        from repro.simulation.cache import clear_compile_cache, vector_fast_stepper

        circuit = random_circuit(871, num_inputs=4, num_gates=18, num_dffs=4)
        clear_compile_cache()
        with on_leg("numpy", "exact"):
            result = run_atpg(circuit, budget=PODEM)
        assert result.fault_efficiency == 100.0 and not result.backtracks
        assert "step_inject" not in vars(vector_fast_stepper(circuit))


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
