"""Cross-checks of the code-generated bit-parallel kernel.

The compiled kernel must be bit-for-bit identical to the interpreted
``VectorSimulator`` (inject path) and to the scalar reference simulator
(clean path, one pattern per bit position).
"""

import random

import pytest

from repro.faults import collapse_faults
from repro.logic.three_valued import ONE, X, ZERO
from repro.simulation import SequentialSimulator, VectorSimulator
from repro.simulation.vector_codegen import VectorFastStepper, rail_pair_trit

from tests.helpers import (
    pipelined_logic,
    random_circuit,
    resettable_counter,
    toggle_counter,
)


def _group_masks(stepper, faults):
    sa1, sa0 = stepper.blank_injection_masks()
    injections = {}
    for bit, fault in enumerate(faults, start=1):
        slot = stepper.line_slot[fault.line]
        if fault.value == ONE:
            sa1[slot] |= 1 << bit
        else:
            sa0[slot] |= 1 << bit
        a1, a0 = injections.get(fault.line, (0, 0))
        if fault.value == ONE:
            a1 |= 1 << bit
        else:
            a0 |= 1 << bit
        injections[fault.line] = (a1, a0)
    return sa1, sa0, injections


class TestInjectKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_interpreted_simulator(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=14, num_dffs=3)
        faults = collapse_faults(circuit).representatives[:12]
        width = len(faults) + 1
        mask = (1 << width) - 1
        stepper = VectorFastStepper(circuit)
        sa1, sa0, injections = _group_masks(stepper, faults)
        reference = VectorSimulator(circuit, width, injections)
        rng = random.Random(seed)
        state_ref = reference.unknown_state()
        state_fast = stepper.unknown_state()
        for cycle in range(20):
            vector = [rng.randint(0, 1) for _ in circuit.input_names]
            step = reference.step(state_ref, reference.broadcast_vector(vector))
            state_ref = step.next_state
            outputs, state_fast = stepper.step_inject(
                state_fast, stepper.broadcast_vector(vector, width), mask, sa1, sa0
            )
            for bitvec, pair in zip(step.outputs, outputs):
                assert (bitvec.ones, bitvec.zeros) == pair
            for bitvec, pair in zip(state_ref, state_fast):
                assert (bitvec.ones, bitvec.zeros) == pair

    def test_zero_masks_equal_clean_step(self):
        circuit = pipelined_logic()
        stepper = VectorFastStepper(circuit)
        width = 7
        mask = (1 << width) - 1
        sa1, sa0 = stepper.blank_injection_masks()
        rng = random.Random(3)
        state_c = stepper.unknown_state()
        state_i = stepper.unknown_state()
        for _ in range(12):
            vector = stepper.broadcast_vector(
                [rng.randint(0, 1) for _ in circuit.input_names], width
            )
            out_c, state_c = stepper.step_clean(state_c, vector, mask)
            out_i, state_i = stepper.step_inject(state_i, vector, mask, sa1, sa0)
            assert out_c == out_i
            assert state_c == state_i

    @pytest.mark.parametrize("seed", range(4))
    def test_slot_subset_matches_dense_kernel(self, seed):
        """A kernel injecting at a subset of slots equals the dense one bit
        for bit whenever the masks are zero outside the subset."""
        rng = random.Random(seed)
        circuit = random_circuit(seed, num_inputs=4, num_gates=18, num_dffs=4)
        stepper = VectorFastStepper(circuit)
        slots = range(stepper.num_injection_slots)
        width = 67
        mask = (1 << width) - 1

        def rails():
            ones = rng.getrandbits(width)
            return ones, rng.getrandbits(width) & ~ones

        for subset in ([], rng.sample(slots, 5), list(slots)):
            step = stepper.inject_step(subset)
            for _ in range(6):
                sa1, sa0 = stepper.blank_injection_masks()
                for slot in subset:
                    sa1[slot], sa0[slot] = rails()
                state = tuple(rails() for _ in range(circuit.num_registers()))
                vector = tuple(rails() for _ in circuit.input_names)
                assert step(state, vector, mask, sa1, sa0) == stepper.step_inject(
                    state, vector, mask, sa1, sa0
                )

    def test_width_agnostic(self):
        """One compiled stepper serves any word width via the mask argument."""
        circuit = resettable_counter()
        stepper = VectorFastStepper(circuit)
        for width in (2, 64, 300):
            mask = (1 << width) - 1
            vector = stepper.broadcast_vector((ONE, ZERO), width)
            outputs, state = stepper.step_clean(
                stepper.unknown_state(), vector, mask
            )
            for ones, zeros in outputs + tuple(state):
                assert ones | zeros <= mask


class TestCleanKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_pattern_parallel_matches_scalar(self, seed):
        circuit = random_circuit(seed + 30, num_inputs=2, num_gates=10, num_dffs=2)
        stepper = VectorFastStepper(circuit)
        rng = random.Random(seed)
        width = 6
        length = 8
        sequences = [
            [
                tuple(rng.randint(0, 1) for _ in circuit.input_names)
                for _ in range(length)
            ]
            for _ in range(width)
        ]
        traces = [SequentialSimulator(circuit).run(s) for s in sequences]
        mask = (1 << width) - 1
        state = stepper.unknown_state()
        for cycle in range(length):
            packed = stepper.pack_vectors([s[cycle] for s in sequences])
            outputs, state = stepper.step_clean(state, packed, mask)
            for position in range(width):
                got = tuple(rail_pair_trit(pair, position) for pair in outputs)
                assert got == traces[position].outputs[cycle]


class TestApi:
    def test_every_line_has_an_injection_slot(self):
        circuit = pipelined_logic()
        stepper = VectorFastStepper(circuit)
        assert set(stepper.line_slot) == set(circuit.lines())
        assert stepper.num_injection_slots == circuit.num_lines()

    def test_broadcast_vector_validates_length(self):
        stepper = VectorFastStepper(toggle_counter())  # 1 input
        with pytest.raises(ValueError):
            stepper.broadcast_vector((ONE, ZERO), 4)

    def test_pack_vectors_validates_trit_counts(self):
        stepper = VectorFastStepper(resettable_counter())  # 2 inputs
        with pytest.raises(ValueError, match="expected 2"):
            stepper.pack_vectors([(0, 1), (1,)])

    def test_run_clean(self):
        circuit = resettable_counter()
        stepper = VectorFastStepper(circuit)
        width = 2
        vectors = [
            stepper.pack_vectors([(0, 1), (1, 1)]),
            stepper.pack_vectors([(1, 0), (0, 0)]),
        ]
        outputs, final = stepper.run_clean(vectors, width)
        assert len(outputs) == 2
        # Both positions reset on cycle 0: outputs are binary afterwards.
        for pair in final:
            assert (pair[0] | pair[1]) == (1 << width) - 1

    def test_rail_pair_trit(self):
        assert rail_pair_trit((0b10, 0b01), 0) == ZERO
        assert rail_pair_trit((0b10, 0b01), 1) == ONE
        assert rail_pair_trit((0b10, 0b01), 2) == X

    def test_sources_are_compilable_text(self):
        clean, inject = VectorFastStepper(toggle_counter()).sources()
        assert "def step_clean(state, vector, mask):" in clean
        assert "def step_inject(state, vector, mask, sa1, sa0):" in inject
