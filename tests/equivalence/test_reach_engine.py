"""Reachable-state extraction: parity with the full-space tables on the
overlap, cone reduction, store memoization, and breaking the 18-register
wall."""

import random

import pytest

from repro.circuit import CircuitBuilder
from repro.core.preservation import verify_preservation
from repro.equivalence import (
    ReachableSTG,
    StateSpaceTooLarge,
    all_vectors,
    classify,
    extract_stg,
    find_functional_sync_sequence,
    functional_final_states,
    time_equivalence_bound,
)
from repro.faults.collapse import collapse_faults
from repro.retiming.core import Retiming
from repro.retiming.verify import verify_retiming
from repro.testset.model import TestSet
from tests.helpers import (
    numpy_hidden,
    random_circuit,
    requires_numpy,
    sweeps_on,
    toggle_counter,
    token_ring,
    token_ring_stem,
)


def reach(circuit, **kwargs):
    kwargs.setdefault("use_store", False)
    kwargs.setdefault("initial_states", "reset")
    return extract_stg(circuit, **kwargs)


def bitset(circuit, **kwargs):
    kwargs.setdefault("use_store", False)
    return extract_stg(circuit, **kwargs)


def every_state(circuit):
    """A BFS start set of all ``2^r`` register states."""
    return all_vectors(circuit.num_registers())


class TestAllModeExactParity:
    @pytest.mark.parametrize("seed", [3, 13, 21])
    def test_tables_bit_identical_to_bitset(self, seed):
        circuit = random_circuit(seed, num_dffs=4)
        full = bitset(circuit)
        rch = reach(circuit, initial_states=every_state(circuit))
        assert isinstance(rch, ReachableSTG)
        assert rch.states == full.states
        assert rch.next_index == full.next_index
        assert rch.output_index == full.output_index
        assert rch.alphabet == full.alphabet
        assert rch.visited_states == rch.total_states

    def test_classification_and_sync_search_coincide(self):
        circuit = toggle_counter()
        full = bitset(circuit)
        rch = reach(circuit, initial_states=every_state(circuit))
        assert classify([full]).class_array(0) == classify([rch]).class_array(0)
        assert find_functional_sync_sequence(
            full
        ) == find_functional_sync_sequence(rch)


class TestResetModeRestriction:
    @pytest.mark.parametrize("seed", [5, 11, 29])
    def test_visits_exactly_the_bitset_reachable_set(self, seed):
        circuit = random_circuit(
            seed, num_inputs=3, num_gates=30, num_dffs=8, num_outputs=2
        )
        full = bitset(circuit)
        rch = reach(circuit)
        zeros = (0,) * circuit.num_registers()
        assert rch.states[0] == zeros
        assert set(rch.states) == set(full.reachable_from(zeros))
        assert rch.visited_states == len(rch.states)
        assert 1 <= rch.peak_frontier <= rch.visited_states
        # Per-(vector, state) table agreement under the state mapping.
        full_index = {state: k for k, state in enumerate(full.states)}
        rch_index = {state: k for k, state in enumerate(rch.states)}
        for v in range(len(full.alphabet)):
            for state in rch.states:
                successor = full.states[full.next_index[v][full_index[state]]]
                assert rch.next_index[v][rch_index[state]] == rch_index[successor]
                assert (
                    rch.output_index[v][rch_index[state]]
                    == full.output_index[v][full_index[state]]
                )

    def test_joint_classification_agrees_on_shared_states(self):
        circuit = random_circuit(11, num_inputs=3, num_gates=30, num_dffs=8)
        full = bitset(circuit)
        rch = reach(circuit)
        classification = classify([full, rch])
        for state in rch.states:
            assert classification.class_of[(0, state)] == classification.class_of[
                (1, state)
            ]

    def test_sync_search_matches_start_restricted_bitset_search(self):
        # The reachable set is forward-closed, so BFS over subsets of it is
        # the same abstract search as the full-space one restricted to the
        # same start set -- identical sequences, identical cutoffs.
        for seed in (5, 12):
            circuit = random_circuit(seed, num_inputs=2, num_gates=25, num_dffs=6)
            full = bitset(circuit)
            rch = reach(circuit)
            # Shared state tuples require an identity cone for these seeds.
            assert rch.num_registers == circuit.num_registers()
            for max_length in (2, 8):
                assert find_functional_sync_sequence(
                    rch, max_length=max_length
                ) == find_functional_sync_sequence(
                    full, max_length=max_length, start_states=rch.states
                )
            vectors = [full.alphabet[-1], full.alphabet[0]]
            assert functional_final_states(
                rch, vectors
            ) == functional_final_states(full, vectors, start_states=rch.states)

    def test_faulty_machine_reset_parity(self):
        circuit = random_circuit(17, num_dffs=5)
        faults = collapse_faults(circuit).representatives
        for fault in (faults[3], faults[len(faults) // 2]):
            full = bitset(circuit, fault=fault)
            rch = reach(circuit, fault=fault)
            zeros = (0,) * circuit.num_registers()
            assert set(rch.states) == set(full.reachable_from(zeros))


class TestBackends:
    @requires_numpy
    def test_numpy_backend_is_bit_identical(self, monkeypatch):
        for seed in (5, 29):
            circuit = random_circuit(
                seed, num_inputs=3, num_gates=30, num_dffs=8, num_outputs=2
            )
            with sweeps_on("bigint", monkeypatch):
                big = reach(circuit)
            with sweeps_on("numpy", monkeypatch):
                npy = reach(circuit)
            assert big.states == npy.states
            assert big.next_index == npy.next_index
            assert big.output_index == npy.output_index
            assert (big.peak_frontier, big.levels) == (npy.peak_frontier, npy.levels)

    @pytest.mark.parametrize(
        "leg", ["bigint", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_faulty_reset_sweep_matches_bitset(self, monkeypatch, leg):
        circuit = random_circuit(
            29, num_inputs=3, num_gates=30, num_dffs=8, num_outputs=2
        )
        faults = collapse_faults(circuit).representatives
        for fault in (faults[2], faults[-3]):
            with numpy_hidden():
                full = bitset(circuit, fault=fault)
            with sweeps_on(leg, monkeypatch):
                rch = reach(circuit, fault=fault)
            full_index = {state: k for k, state in enumerate(full.states)}
            for v in range(len(full.alphabet)):
                for k, state in enumerate(rch.states):
                    successor = full.next_index[v][full_index[state]]
                    assert rch.states[rch.next_index[v][k]] == full.states[successor]
                    assert (
                        rch.output_index[v][k]
                        == full.output_index[v][full_index[state]]
                    )

    @pytest.mark.parametrize(
        "leg", ["bigint", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_level_wider_than_the_lane_cap(self, monkeypatch, leg):
        # 8192 initial states: the first level is two 4096-state blocks,
        # each stepping one vector at a time.
        circuit = random_circuit(0, num_inputs=2, num_gates=45, num_dffs=13)
        with numpy_hidden():
            full = bitset(circuit)
        with sweeps_on(leg, monkeypatch):
            rch = reach(circuit, initial_states=every_state(circuit))
        assert rch.num_registers == 13  # identity cone
        assert rch.peak_frontier == 1 << 13
        assert rch.next_index == full.next_index
        assert rch.output_index == full.output_index


class TestConeReduction:
    def test_unobservable_register_is_dropped(self):
        builder = CircuitBuilder("padded")
        builder.input("a")
        builder.and_("g1", "a", "q1")
        builder.dff("q1", "g1")
        builder.output("z", "g1")
        builder.and_("h", "a", "q2")
        builder.dff("q2", "h")
        circuit = builder.build()
        rch = reach(circuit)
        assert rch.dropped_registers == 1
        assert rch.total_registers == 2
        assert rch.num_registers == 1  # states live over the cone machine
        assert rch.total_states == 2


class TestStoreMemoization:
    def test_round_trip_replays_the_traversal(self):
        from repro.store.core import default_store

        circuit = random_circuit(5, num_inputs=3, num_gates=30, num_dffs=8)
        first = extract_stg(circuit, initial_states="reset")
        store = default_store()
        hits_before = store.stats.hits
        second = extract_stg(circuit, initial_states="reset")
        assert store.stats.hits == hits_before + 1
        assert second.states == first.states
        assert second.next_index == first.next_index
        assert second.output_index == first.output_index
        assert (
            second.visited_states,
            second.peak_frontier,
            second.levels,
            second.dropped_registers,
            second.initial_bitset,
            second.total_registers,
        ) == (
            first.visited_states,
            first.peak_frontier,
            first.levels,
            first.dropped_registers,
            first.initial_bitset,
            first.total_registers,
        )

    def test_initial_specs_get_distinct_records(self):
        from repro.store.core import default_store

        circuit = random_circuit(5, num_dffs=4)
        reset_mode = extract_stg(circuit, initial_states="reset")
        all_mode = extract_stg(circuit, initial_states=every_state(circuit))
        assert all_mode.visited_states == 1 << circuit.num_registers()
        store = default_store()
        assert store.summary()["by_kind"].get("reach-stg", 0) == 2
        assert reset_mode.visited_states <= all_mode.visited_states


class TestWallBreak:
    """The acceptance story: a 28-register machine past the full-space cap,
    verified end to end over its reset-reachable states."""

    WIDTH = 28

    def make_pair(self):
        circuit = token_ring(self.WIDTH)
        retiming = Retiming(circuit, {token_ring_stem(circuit): -1})
        return circuit, retiming

    def test_bitset_rejects_and_names_reach(self):
        circuit, _ = self.make_pair()
        with pytest.raises(StateSpaceTooLarge) as excinfo:
            extract_stg(circuit)
        assert "reset-reachable" in str(excinfo.value)

    def test_reach_traverses_a_sparse_fraction(self):
        circuit, retiming = self.make_pair()
        stg = reach(circuit)
        assert stg.visited_states == self.WIDTH + 1  # zeros + one-hots
        assert stg.total_states == 1 << self.WIDTH
        retimed = retiming.apply()
        assert retimed.num_registers() == self.WIDTH + 2  # stem split x3
        stg_retimed = reach(retimed)
        assert stg_retimed.visited_states == self.WIDTH + 1

    def test_verify_retiming_behaviour_check_runs_on_reach(self):
        circuit, retiming = self.make_pair()
        retimed = retiming.apply()
        verification = verify_retiming(circuit, retimed, check_behaviour=True)
        assert verification.behaviour_checked
        assert verification.behaviour_engine == "reach"
        assert verification.time_equivalence_bound == 1

    def test_verify_preservation_with_reach_time_equivalence(self):
        circuit, retiming = self.make_pair()
        retimed = retiming.apply()
        rng = random.Random(7)
        sequences = [
            [(1, 0), (0, 1)] + [(0, rng.randint(0, 1)) for _ in range(32)]
            for _ in range(4)
        ]
        test_set = TestSet.from_lists(circuit.name, 2, sequences)
        report = verify_preservation(
            circuit,
            retiming,
            test_set,
            retimed=retimed,
            check_time_equivalence=True,
        )
        assert report.holds
        assert report.time_equivalence_checked
        assert report.time_equivalence_engine == "reach"
        assert report.original_detected > 0  # the check is not vacuous

    def test_lemma2_bound_holds_on_the_reachable_sets(self):
        circuit, retiming = self.make_pair()
        stg = reach(circuit)
        stg_retimed = reach(retiming.apply())
        bound = retiming.time_equivalence_bound()
        assert time_equivalence_bound(stg, stg_retimed, max_steps=bound) == 0
