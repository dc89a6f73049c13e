"""Cross-leg parity: the numpy word-plane vs the bigint reference.

Every compiled kernel with a numpy lowering (the fault-simulation vector
stepper, the bitset STG extractor) must produce **bit-identical** packed
words on both legs, and every engine built on them identical results.
The platform picks the leg -- numpy when importable -- so the bigint side
of each comparison runs with numpy hidden (:func:`tests.helpers.numpy_hidden`)
and each side asserts which leg ran.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.simulation import backends
from repro.simulation.cache import vector_fast_stepper

from tests.helpers import (
    legs_run,
    numpy_hidden,
    on_leg,
    random_circuit,
    requires_numpy,
    sweeps_on,
    toggle_counter,
)


def _run_every_kernel():
    """One fault simulation, one exact search and one STG sweep."""
    from repro.atpg.exact import iter_exact
    from repro.equivalence.bitset import extract_arrays_bitset
    from repro.equivalence.explicit import all_vectors
    from repro.faults.collapse import collapse_faults
    from repro.faultsim import fault_simulate

    circuit = toggle_counter()
    faults = collapse_faults(circuit).representatives
    fault_simulate(circuit, [[(1,), (0,), (1,)]], faults)
    list(iter_exact(circuit, faults, 1 << 10))
    extract_arrays_bitset(circuit, (), all_vectors(1))


class TestBackendPolicy:
    """The platform rule: numpy when importable, bigint when not."""

    def test_bigint_always_resolves(self, monkeypatch):
        """With numpy hidden, every kernel runs, each on its bigint leg --
        narrow sweep steps included, which take numpy when it is there."""
        from repro.equivalence import bitset

        monkeypatch.setattr(bitset, "REACH_NUMPY_MIN_LANES", 1)
        with numpy_hidden(), legs_run() as ran:
            _run_every_kernel()
        assert ran == {
            ("faultsim", "bigint"),
            ("exact", "bigint"),
            ("sweep", "bigint"),
        }

    def test_auto_falls_back_without_numpy(self):
        with numpy_hidden():
            assert backends.numpy_or_none() is None
            assert not backends.numpy_available()
            assert backends.numpy_version() is None
        assert backends.numpy_available() == (backends.numpy_or_none() is not None)

    @requires_numpy
    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        import numpy

        from repro.equivalence import bitset

        assert backends.numpy_or_none() is numpy
        monkeypatch.setattr(bitset, "REACH_NUMPY_MIN_LANES", 1)
        with legs_run() as ran:
            _run_every_kernel()
        assert ran == {
            ("faultsim", "numpy"),
            ("exact", "numpy"),
            ("sweep", "numpy"),
        }

    def test_no_function_takes_a_backend_parameter(self):
        """The platform picks the word implementation; no caller does."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    arguments = node.args
                    names = [
                        argument.arg
                        for argument in arguments.posonlyargs
                        + arguments.args
                        + arguments.kwonlyargs
                    ]
                    if "backend" in names:
                        offenders.append(f"{path.relative_to(root)}:{node.name}")
        assert offenders == []


@requires_numpy
class TestWordPacking:
    """words_from_int / int_from_words round-trip and mask helpers."""

    @pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 130, 1024])
    def test_round_trip(self, width):
        from repro.simulation.wordplane import (
            int_from_words,
            word_count,
            words_from_int,
        )

        rng = random.Random(width)
        words = word_count(width)
        for _ in range(16):
            value = rng.getrandbits(width)
            assert int_from_words(words_from_int(value, words)) == value

    @pytest.mark.parametrize("width", [1, 64, 65, 192, 1000])
    def test_width_mask(self, width):
        from repro.simulation.wordplane import int_from_words, width_mask_words

        assert int_from_words(width_mask_words(width)) == (1 << width) - 1


def _random_rails(rng, count, width):
    """Random dual-rail (ones, zeros) pairs with disjoint rails."""
    rails = []
    for _ in range(count):
        ones = rng.getrandbits(width)
        zeros = rng.getrandbits(width) & ~ones
        rails.append((ones, zeros))
    return tuple(rails)


def _random_injection(rng, stepper, width):
    """Random per-slot stuck-at masks over a handful of slots."""
    sa1, sa0 = stepper.blank_injection_masks()
    for _ in range(4):
        slot = rng.randrange(stepper.num_injection_slots)
        lanes = rng.getrandbits(width)
        if rng.random() < 0.5:
            sa1[slot] = lanes & ~sa0[slot]
        else:
            sa0[slot] = lanes & ~sa1[slot]
    return sa1, sa0


@requires_numpy
class TestVectorKernelParity:
    """The word-plane runner vs the bigint ``step_clean``/``step_inject``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("width", [2, 64, 130])
    def test_injected_step_matches_bigint(self, seed, width):
        rng = random.Random(1000 * width + seed)
        circuit = random_circuit(seed + 300, num_inputs=3, num_gates=20, num_dffs=3)
        stepper = vector_fast_stepper(circuit)
        runner = stepper.word_runner(width)
        mask = (1 << width) - 1
        sa1, sa0 = _random_injection(rng, stepper, width)
        runner.set_group(sa1, sa0)
        for _ in range(4):
            state = _random_rails(rng, stepper.compiled.num_registers, width)
            vector = _random_rails(rng, stepper.compiled.num_inputs, width)
            outputs, next_state = stepper.step_inject(state, vector, mask, sa1, sa0)
            runner.load_state_ints(state)
            runner.load_vector_ints(vector)
            runner.step()
            assert tuple(runner.output_ints()) == outputs
            assert tuple(runner.state_ints()) == next_state

    @pytest.mark.parametrize("seed", range(4))
    def test_clean_step_matches_bigint(self, seed):
        width = 96
        rng = random.Random(seed)
        circuit = random_circuit(seed + 330, num_inputs=3, num_gates=18, num_dffs=3)
        stepper = vector_fast_stepper(circuit)
        runner = stepper.word_runner(width)
        runner.clear_group()
        mask = (1 << width) - 1
        state = _random_rails(rng, stepper.compiled.num_registers, width)
        vector = _random_rails(rng, stepper.compiled.num_inputs, width)
        outputs, next_state = stepper.step_clean(state, vector, mask)
        runner.load_state_ints(state)
        runner.load_vector_ints(vector)
        runner.step()
        assert tuple(runner.output_ints()) == outputs
        assert tuple(runner.state_ints()) == next_state

    @pytest.mark.parametrize("seed", range(4))
    def test_set_group_forms_agree(self, seed):
        """The lane-addressed fault loader builds the same injection
        entries as the equivalent bigint rails, and steps alike, for
        faults on scattered lanes of several words (several per slot,
        blank lanes in between)."""
        import numpy as np

        from repro.faults.collapse import collapse_faults

        rng = random.Random(seed)
        width = 192
        circuit = random_circuit(seed + 360, num_inputs=3, num_gates=20, num_dffs=3)
        stepper = vector_fast_stepper(circuit)
        faults = collapse_faults(circuit).representatives
        lanes = sorted(rng.sample(range(width), 90))
        sa1, sa0 = stepper.blank_injection_masks()
        slots, values = [], []
        for lane in lanes:
            fault = rng.choice(faults)
            slot = stepper.line_slot[fault.line]
            slots.append(slot)
            values.append(fault.value)
            (sa1 if fault.value else sa0)[slot] |= 1 << lane
        via_ints = stepper.word_runner(width)
        via_ints.set_group(sa1, sa0)
        via_lanes = stepper.word_runner(width)
        via_lanes.set_lane_faults(lanes, slots, values)
        assert len(via_ints.entries[0]) > 0
        for ints, lane_words in zip(via_ints.entries, via_lanes.entries):
            assert np.array_equal(ints, lane_words)
        state = _random_rails(rng, stepper.compiled.num_registers, width)
        vector = _random_rails(rng, stepper.compiled.num_inputs, width)
        outputs, next_state = stepper.step_inject(
            state, vector, (1 << width) - 1, sa1, sa0
        )
        for runner in (via_ints, via_lanes):
            runner.load_state_ints(state)
            runner.load_vector_ints(vector)
            runner.step()
            assert tuple(runner.output_ints()) == outputs
            assert tuple(runner.state_ints()) == next_state

    @pytest.mark.parametrize("width", [70, 130])
    def test_deep_chain_faults_match_bigint(self, width):
        """A NOT -> BUF -> fanout chain folds into one gather position per
        branch; with a fault on every stage, loaded one per lane and then
        all on one lane (the outer stage wins), the step matches the
        bigint ``step_inject``."""
        import numpy as np

        from repro.circuit import CircuitBuilder
        from repro.faults import full_fault_universe

        builder = CircuitBuilder("deep_chain")
        builder.input("a")
        builder.input("c")
        builder.not_("n", "a")
        builder.buf("b", "n")
        builder.and_("g", "b", "c")
        builder.or_("h", "b", "q")
        builder.dff("q", "g")
        builder.output("z", "h")
        circuit = builder.build()
        stepper = vector_fast_stepper(circuit)
        assert np.diff(stepper.word_runner(64).plan.chain_ptr).max() >= 3
        faults = full_fault_universe(circuit)
        rng = random.Random(width)
        mask = (1 << width) - 1

        def check(runner, sa1, sa0):
            for _ in range(3):
                state = _random_rails(rng, stepper.compiled.num_registers, width)
                vector = _random_rails(rng, stepper.compiled.num_inputs, width)
                outputs, next_state = stepper.step_inject(state, vector, mask, sa1, sa0)
                runner.load_state_ints(state)
                runner.load_vector_ints(vector)
                runner.step()
                assert tuple(runner.output_ints()) == outputs
                assert tuple(runner.state_ints()) == next_state

        # One fault per lane, lanes past the first word included.
        lanes = [1 + (index * 7) % (width - 1) for index in range(len(faults))]
        assert len(set(lanes)) == len(lanes)
        slots = [stepper.line_slot[fault.line] for fault in faults]
        values = [fault.value for fault in faults]
        sa1, sa0 = stepper.blank_injection_masks()
        for lane, slot, value in zip(lanes, slots, values):
            (sa1 if value else sa0)[slot] |= 1 << lane
        runner = stepper.word_runner(width)
        runner.set_lane_faults(lanes, slots, values)
        check(runner, sa1, sa0)
        # Every line faulted on one lane, with random stuck values.
        sa1, sa0 = stepper.blank_injection_masks()
        lane = width - 1
        for slot in sorted(set(slots)):
            (sa1 if rng.random() < 0.5 else sa0)[slot] |= 1 << lane
        runner.set_group(sa1, sa0)
        check(runner, sa1, sa0)

    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_read_own_inputs_and_reference(self, seed):
        """Per-block inputs drive the step exactly like the equivalent
        bigint rails, and each lane is compared with its own block's lane 0."""
        import numpy as np

        from repro.simulation.wordplane import int_from_words

        rng = random.Random(seed)
        circuit = random_circuit(seed + 370, num_inputs=3, num_gates=20, num_dffs=3)
        stepper = vector_fast_stepper(circuit)
        blocks, block_lanes = 3, 128
        width = blocks * block_lanes
        mask = (1 << width) - 1
        starts = sum(1 << (block * block_lanes) for block in range(blocks))
        fill = (1 << block_lanes) - 1
        sa1, sa0 = _random_injection(rng, stepper, width)
        sa1 = [lanes & ~starts for lanes in sa1]  # lane 0 of each block
        sa0 = [lanes & ~starts for lanes in sa0]  # stays fault-free
        state = _random_rails(rng, stepper.compiled.num_registers, width)
        trits = [
            [rng.choice((0, 1, 2)) for _ in range(blocks)]
            for _ in range(stepper.compiled.num_inputs)
        ]
        vector = [
            tuple(
                sum(fill << (b * block_lanes) for b, v in enumerate(row) if v == trit)
                for trit in (1, 0)
            )
            for row in trits
        ]
        outputs, _next_state = stepper.step_inject(state, vector, mask, sa1, sa0)

        runner = stepper.word_runner(width)
        runner.set_group(sa1, sa0)
        runner.load_state_ints(state)
        ones, zeros = (
            np.array(
                [[0xFFFFFFFFFFFFFFFF * (v == trit) for v in row] for row in trits],
                dtype=np.uint64,
            )
            for trit in (1, 0)
        )
        runner.load_input_blocks(ones, zeros)
        runner.step()
        assert tuple(runner.output_ints()) == outputs
        opposite, unknown = runner.block_compare(blocks)
        for k, (ones_k, zeros_k) in enumerate(outputs):
            good_one = (ones_k & starts) * fill
            good_zero = (zeros_k & starts) * fill
            expected = (good_one & zeros_k) | (good_zero & ones_k)
            assert int_from_words(opposite[k]) == expected
            binary = good_one | good_zero
            assert int_from_words(unknown[k]) == binary & ~(ones_k | zeros_k) & mask


@requires_numpy
class TestWordPlaneLayout:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width", [5, 130])
    def test_gathers_never_write_the_array_they_read(self, seed, width):
        """Every level gathers its operands from the value array ``V`` into
        rows of their own: numpy routes a ``take`` whose output overlaps
        its source through a temporary copy of the whole block."""
        import numpy as np

        circuit = random_circuit(seed + 390, num_inputs=3, num_gates=24, num_dffs=3)
        runner = vector_fast_stepper(circuit).word_runner(width)
        assert len(runner._exec) == len(runner.plan.levels) > 1
        for _src, destination, *_views in runner._exec:
            assert not np.shares_memory(destination, runner.V)

    def test_clean_runner_makes_no_injection_call(self):
        """A fresh runner and one cleared after a fault load carry no
        entries, so no level injects, and the step is ``step_clean``."""
        circuit = random_circuit(395, num_inputs=3, num_gates=24, num_dffs=3)
        stepper = vector_fast_stepper(circuit)
        width = 130
        fresh = stepper.word_runner(width)
        cleared = stepper.word_runner(width)
        cleared.set_lane_faults([1, 70], [0, 1], [1, 0])
        assert len(cleared.entries[0]) > 0
        cleared.clear_group()
        rng = random.Random(7)
        mask = (1 << width) - 1
        for runner in (fresh, cleared):
            assert all(len(entries) == 0 for entries in runner.entries)
            assert all(record[2] is None for record in runner._exec)
            state = _random_rails(rng, stepper.compiled.num_registers, width)
            vector = _random_rails(rng, stepper.compiled.num_inputs, width)
            outputs, next_state = stepper.step_clean(state, vector, mask)
            runner.load_state_ints(state)
            runner.load_vector_ints(vector)
            runner.step()
            assert tuple(runner.output_ints()) == outputs
            assert tuple(runner.state_ints()) == next_state

    @pytest.mark.parametrize("seed", range(3))
    def test_pass_footprint_covers_a_loaded_runner(self, seed):
        """``_WordPlaneLeg.footprint`` bytes per word cover what a runner
        holds: value and operand rows, and its entries with their
        buffer, even with every line forced on every lane."""
        from repro.faults import full_fault_universe
        from repro.faultsim.parallel import _WordPlaneLeg

        circuit = random_circuit(seed + 399, num_inputs=3, num_gates=24, num_dffs=3)
        stepper = vector_fast_stepper(circuit)
        footprint = _WordPlaneLeg(stepper).footprint
        faults = full_fault_universe(circuit)
        words = -(-len(faults) // 64)
        runner = stepper.word_runner(64 * words)

        def held():
            flat, orw, andw = runner.entries
            return (
                runner.V.nbytes + runner.G.nbytes
                + flat.nbytes + orw.nbytes + andw.nbytes + orw.nbytes
            )

        runner.set_lane_faults(
            range(len(faults)),
            [stepper.line_slot[fault.line] for fault in faults],
            [fault.value for fault in faults],
        )
        assert footprint * words >= held()
        sa1, _sa0 = stepper.blank_injection_masks()
        runner.set_group([(1 << runner.width) - 1] * len(sa1), [0] * len(sa1))
        assert footprint * words >= held()


@requires_numpy
class TestLoaderValidation:
    """Out-of-range faults raise ``ValueError`` before anything loads."""

    @pytest.mark.parametrize(
        "lanes, slots, values",
        [
            ([130], [0], [1]),  # past the last word
            ([110], [0], [1]),  # past the width, inside the last word
            ([-1], [0], [1]),  # a negative lane
            ([3], [10**6], [1]),  # a slot past the plan's
            ([3], [-1], [1]),  # a negative slot
            ([3], [0], [2]),  # a value other than 0 and 1
            ([7], [0], [1]),  # a lane listed twice
        ],
        ids=["lane-past-words", "lane-past-width", "negative-lane",
             "slot-past-plan", "negative-slot", "value-not-binary",
             "lane-twice"],
    )
    def test_set_lane_faults_rejects(self, lanes, slots, values):
        import numpy as np

        runner = vector_fast_stepper(toggle_counter()).word_runner(100)
        runner.set_lane_faults([5], [0], [1])
        before = [entries.copy() for entries in runner.entries]
        with pytest.raises(ValueError):
            runner.set_lane_faults([7] + lanes, [1] + slots, [0] + values)
        assert all(map(np.array_equal, runner.entries, before))

    @pytest.mark.parametrize("lane", [100, 127, 130])
    def test_set_group_rejects_bits_past_the_width(self, lane):
        import numpy as np

        stepper = vector_fast_stepper(toggle_counter())
        runner = stepper.word_runner(100)
        runner.set_lane_faults([5], [0], [1])
        before = [entries.copy() for entries in runner.entries]
        sa1, sa0 = stepper.blank_injection_masks()
        sa1[0] = (1 << lane) | 1
        with pytest.raises(ValueError):
            runner.set_group(sa1, sa0)
        assert all(map(np.array_equal, runner.entries, before))


@requires_numpy
class TestEngineBackendParity:
    """End-to-end engines: identical results on both legs."""

    @pytest.mark.parametrize("seed", range(3))
    def test_fault_simulation_detections_and_potential(self, seed):
        from repro.faults.collapse import collapse_faults
        from repro.faultsim import fault_simulate

        rng = random.Random(seed)
        circuit = random_circuit(seed + 430, num_inputs=4, num_gates=35, num_dffs=4)
        faults = collapse_faults(circuit).representatives
        sequences = [
            [tuple(rng.getrandbits(1) for _ in range(4)) for _ in range(16)]
            for _ in range(3)
        ]
        with on_leg("bigint", "faultsim"):
            reference = fault_simulate(circuit, sequences, faults)
        with on_leg("numpy", "faultsim"):
            candidate = fault_simulate(circuit, sequences, faults)
        assert candidate.detections == reference.detections
        assert candidate.potential == reference.potential

    def test_fault_simulation_with_narrowing_groups(self):
        """Passes of several word counts, narrowing as faults drop, share
        the word-plane runners and still match bigint exactly."""
        from repro.core.experiments import TABLE2_CIRCUITS, build_pair
        from repro.faults.collapse import collapse_faults
        from repro.faultsim import fault_simulate

        spec = next(s for s in TABLE2_CIRCUITS if s.name == "pma.jo.sd")
        circuit = build_pair(spec, store=None).retimed
        faults = collapse_faults(circuit).representatives
        width = len(circuit.input_names)
        rng = random.Random(5)
        sequences = [
            [tuple(rng.getrandbits(1) for _ in range(width)) for _ in range(24)]
            for _ in range(8)
        ]
        with on_leg("bigint", "faultsim"):
            reference = fault_simulate(circuit, sequences, faults, group_size=400)
        with on_leg("numpy", "faultsim"):
            candidate = fault_simulate(circuit, sequences, faults, group_size=400)
        assert len(reference.detections) > 100
        assert candidate.detections == reference.detections
        assert candidate.potential == reference.potential

    @pytest.mark.parametrize("leg", ["bigint", "numpy"])
    def test_sharded_fault_simulation_is_exact(self, leg):
        """Shard workers started with ``fork`` inherit the leg."""
        from repro.faults.collapse import collapse_faults
        from repro.faultsim import fault_simulate
        from repro.faultsim.shard import sharded_fault_simulate

        rng = random.Random(99)
        circuit = random_circuit(901, num_inputs=4, num_gates=40, num_dffs=5)
        faults = collapse_faults(circuit).representatives
        sequences = [
            [tuple(rng.getrandbits(1) for _ in range(4)) for _ in range(16)]
            for _ in range(3)
        ]
        with on_leg(leg, "faultsim"):
            single = fault_simulate(circuit, sequences, faults, group_size=16)
            sharded = sharded_fault_simulate(
                circuit, sequences, faults, workers=2, group_size=16
            )
        assert sharded.detections == single.detections
        assert sharded.potential == single.potential
        assert sharded.faults == single.faults

    @pytest.mark.parametrize("seed", range(2))
    def test_search_results_identical(self, seed):
        """A short random phase leaves faults to the search: the random
        phase and the search's collateral replays simulate on each leg."""
        from repro.atpg import AtpgBudget, run_atpg

        circuit = random_circuit(seed + 460, num_inputs=3, num_gates=18, num_dffs=3)
        budget = AtpgBudget(random_sequences=2, random_length=4)
        with on_leg("bigint", "faultsim"):
            reference = run_atpg(circuit, budget=budget)
        with on_leg("numpy", "faultsim"):
            candidate = run_atpg(circuit, budget=budget)
        assert reference.deterministic_detected > 0
        assert candidate.test_set.to_text() == reference.test_set.to_text()
        assert candidate.detected == reference.detected
        assert candidate.untestable == reference.untestable
        assert candidate.search_proved == reference.search_proved
        assert candidate.aborted == reference.aborted

    @staticmethod
    def _tables_on_both_legs(monkeypatch, circuit, faults):
        """Full-space tables with numpy hidden, then on numpy rows."""
        from repro.equivalence.bitset import extract_arrays_bitset
        from repro.equivalence.explicit import all_vectors

        alphabet = all_vectors(len(circuit.input_names))
        with sweeps_on("bigint", monkeypatch):
            reference = extract_arrays_bitset(circuit, faults, alphabet)
        with sweeps_on("numpy", monkeypatch):
            candidate = extract_arrays_bitset(circuit, faults, alphabet)
        return reference, candidate

    @pytest.mark.parametrize("num_faults", [0, 1, 3])
    def test_bitset_stg_tables_identical(self, monkeypatch, num_faults):
        from repro.faults.collapse import collapse_faults

        circuit = toggle_counter()
        faults = collapse_faults(circuit).representatives[:num_faults]
        reference, candidate = self._tables_on_both_legs(monkeypatch, circuit, faults)
        assert candidate == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_bitset_stg_tables_identical_random(self, monkeypatch, seed):
        from repro.faults.collapse import collapse_faults

        circuit = random_circuit(seed + 480, num_inputs=2, num_gates=20, num_dffs=4)
        faults = collapse_faults(circuit).representatives[:2]
        reference, candidate = self._tables_on_both_legs(monkeypatch, circuit, faults)
        assert candidate == reference
