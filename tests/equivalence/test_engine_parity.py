"""Oracle parity: the lane-parallel STG sweep, the array classifier and
the bitset sync searches must be result-identical to the scalar seed
algorithms kept as named oracles (``extract_stg_reference``,
``classify_reference`` and the ``*_reference`` searches) -- same tables,
same classification block ids, same sync sequences (including tie-breaking
and search-budget cutoffs), on fault-free and faulty machines alike."""

import functools
import random

import pytest

from repro.circuit import CircuitBuilder
from repro.equivalence import (
    all_vectors,
    classify,
    extract_stg,
    find_functional_sync_sequence,
    functional_final_states,
    is_functional_sync_sequence,
    space_contains,
    space_equivalent,
    time_equivalence_bound,
)
from repro.equivalence.bitset import alphabet_sweep
from repro.equivalence.explicit import extract_stg_reference
from repro.equivalence.relations import classify_reference
from repro.equivalence.syncseq import (
    find_functional_sync_sequence_reference,
    functional_final_states_reference,
    is_functional_sync_sequence_reference,
)
from repro.faults.collapse import collapse_faults
from repro.papercircuits import fig3_pair, fig5_pair, n2_g1_q12_fault
from repro.simulation import vector_fast_stepper
from tests.helpers import (
    feedback_and,
    legs_run,
    pipelined_logic,
    random_circuit,
    requires_numpy,
    resettable_counter,
    resettable_random_circuit,
    sweeps_on,
    toggle_counter,
)

CIRCUITS = [
    ("feedback_and", feedback_and),
    ("toggle_counter", toggle_counter),
    ("resettable_counter", resettable_counter),
    ("pipelined_logic", pipelined_logic),
    ("rand7", lambda: random_circuit(7)),
    ("rand13_4dff", lambda: random_circuit(13, num_dffs=4)),
    ("rrand3", lambda: resettable_random_circuit(3)),
    ("fig3_l1", lambda: fig3_pair()[0]),
    ("fig3_l2", lambda: fig3_pair()[1]),
    ("fig5_n1", lambda: fig5_pair()[0]),
    ("fig5_n2", lambda: fig5_pair()[1]),
]


def both_engines(circuit, **kwargs):
    reference = extract_stg_reference(circuit, **kwargs)
    bitset = extract_stg(circuit, use_store=False, **kwargs)
    return reference, bitset


def assert_stg_identical(reference, bitset):
    assert reference.name == bitset.name
    assert reference.states == bitset.states
    assert reference.alphabet == bitset.alphabet
    assert reference.num_outputs == bitset.num_outputs
    assert reference.next_index == bitset.next_index
    assert reference.output_index == bitset.output_index
    assert reference == bitset


class TestExtractionParity:
    @pytest.mark.parametrize("name,make", CIRCUITS, ids=[c[0] for c in CIRCUITS])
    def test_fault_free_tables_identical(self, name, make):
        assert_stg_identical(*both_engines(make()))

    @pytest.mark.parametrize("name,make", CIRCUITS, ids=[c[0] for c in CIRCUITS])
    def test_faulty_tables_identical(self, name, make):
        circuit = make()
        rng = random.Random(11)
        faults = collapse_faults(circuit).representatives
        for fault in rng.sample(faults, min(3, len(faults))):
            assert_stg_identical(*both_engines(circuit, fault=fault))

    def test_multiple_fault_tables_identical(self):
        circuit = fig5_pair()[0]
        faults = collapse_faults(circuit).representatives[:2]
        assert_stg_identical(*both_engines(circuit, fault=faults))

    def test_custom_alphabet_tables_identical(self):
        circuit = random_circuit(19)
        alphabet = [(0, 0, 0), (1, 1, 1), (1, 0, 1)]
        reference, bitset = both_engines(circuit, alphabet=alphabet)
        assert reference.alphabet == tuple(alphabet)
        assert_stg_identical(reference, bitset)


class TestClassificationParity:
    @pytest.mark.parametrize("name,make", CIRCUITS, ids=[c[0] for c in CIRCUITS])
    def test_single_machine_block_ids_identical(self, name, make):
        reference, bitset = both_engines(make())
        assert (
            classify_reference([reference]).class_of
            == classify([bitset]).class_of
        )

    def test_joint_classification_block_ids_identical(self):
        l1, l2, _ = fig3_pair()
        ref1, bit1 = both_engines(l1)
        ref2, bit2 = both_engines(l2)
        assert (
            classify_reference([ref1, ref2]).class_of
            == classify([bit1, bit2]).class_of
        )

    def test_joint_classification_with_faulty_machine(self):
        circuit = fig5_pair()[1]
        fault = n2_g1_q12_fault(circuit)
        good_ref, good_bit = both_engines(circuit)
        bad_ref, bad_bit = both_engines(circuit, fault=fault)
        assert (
            classify_reference([good_ref, bad_ref]).class_of
            == classify([good_bit, bad_bit]).class_of
        )

    @pytest.mark.parametrize("name,make", CIRCUITS[:7], ids=[c[0] for c in CIRCUITS[:7]])
    def test_relations_agree_across_engines(self, name, make):
        circuit = make()
        fault = collapse_faults(circuit).representatives[0]
        good_ref, good_bit = both_engines(circuit)
        bad_ref, bad_bit = both_engines(circuit, fault=fault)
        assert space_contains(good_ref, bad_ref) == space_contains(good_bit, bad_bit)
        assert space_equivalent(good_ref, bad_ref) == space_equivalent(
            good_bit, bad_bit
        )
        assert time_equivalence_bound(good_ref, bad_ref, 4) == time_equivalence_bound(
            good_bit, bad_bit, 4
        )


class TestSyncSequenceParity:
    @pytest.mark.parametrize("name,make", CIRCUITS, ids=[c[0] for c in CIRCUITS])
    def test_found_sequences_identical(self, name, make):
        reference, bitset = both_engines(make())
        found_ref = find_functional_sync_sequence_reference(reference)
        found_bit = find_functional_sync_sequence(bitset)
        assert found_ref == found_bit
        if found_bit is not None:
            assert is_functional_sync_sequence(bitset, found_bit)
            assert is_functional_sync_sequence_reference(reference, found_bit)
            assert functional_final_states_reference(
                reference, found_bit
            ) == functional_final_states(bitset, found_bit)

    def test_budget_cutoff_identical(self):
        """Both searches give up at the same max_visited budget."""
        circuit = random_circuit(13, num_dffs=4)
        reference, bitset = both_engines(circuit)
        for budget in (1, 2, 5):
            assert find_functional_sync_sequence_reference(
                reference, max_visited=budget
            ) == find_functional_sync_sequence(bitset, max_visited=budget)

    def test_observation1_pair_across_engines(self):
        """Fig. 3: <11> functionally synchronizes L1 but not L2 -- on the
        oracle and the fast path, with identical final state sets."""
        l1, l2, _ = fig3_pair()
        (ref1, bit1), (ref2, bit2) = both_engines(l1), both_engines(l2)
        assert is_functional_sync_sequence_reference(ref1, [(1, 1)])
        assert is_functional_sync_sequence(bit1, [(1, 1)])
        assert not is_functional_sync_sequence_reference(ref2, [(1, 1)])
        assert not is_functional_sync_sequence(bit2, [(1, 1)])
        assert functional_final_states_reference(ref1, [(1, 1)]) == frozenset({(1,)})
        assert functional_final_states(bit1, [(1, 1)]) == frozenset({(1,)})

    def test_faulty_machine_sequences_identical(self):
        """Observation 2 machinery: sync search on faulty machines agrees."""
        _, n2, _ = fig5_pair()
        fault = n2_g1_q12_fault(n2)
        reference, bitset = both_engines(n2, fault=fault)
        assert find_functional_sync_sequence_reference(
            reference
        ) == find_functional_sync_sequence(bitset)


# -- the alphabet sweep against the lane cap ----------------------------------

#: (registers, inputs) of a full-state-space block against the 4096-lane
#: step cap: 16 states x 8 vectors, 256 x 16 (exactly the cap), 512 x 16
#: (two steps of 8 vectors), and a 4096-state block that steps one vector
#: at a time.
SWEEP_SHAPES = [
    pytest.param(4, 3, id="below-cap"),
    pytest.param(8, 4, id="at-cap"),
    pytest.param(9, 4, id="above-cap"),
    pytest.param(12, 2, id="block-at-cap"),
]
SWEEP_LEGS = ["bigint", pytest.param("numpy", marks=requires_numpy)]


def sweep_circuit(registers, inputs):
    # Seed 1 keeps every register in the output cone at each shape, so the
    # reachable-state tables' states are the full register tuples.
    return random_circuit(
        1, num_inputs=inputs, num_gates=3 * registers + 6, num_dffs=registers
    )


@functools.lru_cache(maxsize=None)
def sweep_reference(registers, inputs, faulty):
    circuit = sweep_circuit(registers, inputs)
    fault = None
    if faulty:
        faults = collapse_faults(circuit).representatives
        fault = faults[len(faults) // 2]
    stg = extract_stg_reference(circuit, fault=fault)
    return circuit, fault, stg


class TestAlphabetSweepParity:
    """One sweep serves the full-space and reachable-state extractions at
    every step width."""

    @pytest.mark.parametrize("faulty", [False, True], ids=["fault-free", "faulty"])
    @pytest.mark.parametrize("leg", SWEEP_LEGS)
    @pytest.mark.parametrize("registers,inputs", SWEEP_SHAPES)
    def test_bitset_and_reach_all_match_reference(
        self, monkeypatch, registers, inputs, leg, faulty
    ):
        circuit, fault, reference = sweep_reference(registers, inputs, faulty)
        with sweeps_on(leg, monkeypatch):
            bitset = extract_stg(circuit, fault=fault, use_store=False)
        assert_stg_identical(reference, bitset)
        with sweeps_on(leg, monkeypatch):
            reach = extract_stg(
                circuit,
                fault=fault,
                initial_states=all_vectors(registers),
                use_store=False,
            )
        assert reach.num_registers == registers  # identity cone
        assert reach.states == reference.states
        assert reach.next_index == reference.next_index
        assert reach.output_index == reference.output_index

    @staticmethod
    def _arbitrary_blocks_match(reference, sweep):
        rng = random.Random(3)
        # 16 vectors: 16, 80, 4096 (the cap), 4800 and 8192 lanes.
        for width in (1, 5, 256, 300, 512):
            block = [rng.randrange(1 << 9) for _ in range(width)]
            rows = [(list(nxt), list(out)) for nxt, out in sweep(block)]
            assert rows == [
                (
                    [reference.next_index[v][code] for code in block],
                    [reference.output_index[v][code] for code in block],
                )
                for v in range(len(reference.alphabet))
            ]

    @pytest.mark.parametrize(
        "leg", SWEEP_LEGS + [pytest.param("auto", marks=requires_numpy)]
    )
    def test_rows_on_arbitrary_blocks(self, monkeypatch, leg):
        """Blocks of repeated, unordered codes; ``auto``, numpy as
        installed, mixes both legs at the width line."""
        circuit, _, reference = sweep_reference(9, 4, False)
        stepper = vector_fast_stepper(circuit)
        if leg == "auto":
            with legs_run() as ran:
                sweep = alphabet_sweep(circuit, stepper, (), reference.alphabet)
                self._arbitrary_blocks_match(reference, sweep)
            assert ran == {("sweep", "bigint"), ("sweep", "numpy")}
            return
        with sweeps_on(leg, monkeypatch):
            sweep = alphabet_sweep(circuit, stepper, (), reference.alphabet)
            self._arbitrary_blocks_match(reference, sweep)

    @pytest.mark.parametrize("leg", SWEEP_LEGS)
    def test_output_words_wider_than_int64(self, monkeypatch, leg):
        builder = CircuitBuilder("wide_outputs")
        builder.input("a")
        builder.xor("t", "a", "q")
        builder.dff("q", "t")
        for k in range(70):
            builder.output(f"z{k}", "t" if k % 3 else "q")
        circuit = builder.build()
        reference = extract_stg_reference(circuit)
        assert max(max(row) for row in reference.output_index) >= 1 << 63
        with sweeps_on(leg, monkeypatch):
            bitset = extract_stg(circuit, use_store=False)
        assert_stg_identical(reference, bitset)
