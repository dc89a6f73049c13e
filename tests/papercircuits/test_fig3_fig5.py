"""Tests for Fig. 3 (Observations 1/3, Theorem 2) and Fig. 5 (Observations 2/4)."""

import itertools

import pytest

from repro.circuit import validate
from repro.equivalence import (
    classify,
    extract_stg,
    functional_final_states,
    is_functional_sync_sequence,
    is_structural_sync_sequence,
    space_contains,
    states_equivalent,
)
from repro.faults import StuckAtFault
from repro.circuit import LineRef
from repro.logic.three_valued import X, ZERO
from repro.papercircuits import (
    EXAMPLE2_SEQUENCE,
    EXAMPLE4_TEST,
    fig3_pair,
    fig5_pair,
    n1_g1_g2_fault,
    n2_g1_q12_fault,
    n2_q12_g2_fault,
)
from repro.simulation import SequentialSimulator


class TestFig3Observation1:
    """Example 1: <11> functionally synchronizes L1 but not L2."""

    def test_sequence_is_functional_not_structural_for_l1(self):
        l1, _, _ = fig3_pair()
        stg = extract_stg(l1)
        assert is_functional_sync_sequence(stg, [(1, 1)])
        assert not is_structural_sync_sequence(l1, [(1, 1)])

    def test_l1_synchronized_to_state_1(self):
        l1, _, _ = fig3_pair()
        stg = extract_stg(l1)
        final = functional_final_states(stg, [(1, 1)])
        assert final == frozenset({(1,)})

    def test_sequence_fails_on_l2(self):
        _, l2, _ = fig3_pair()
        stg = extract_stg(l2)
        assert not is_functional_sync_sequence(stg, [(1, 1)])

    def test_forward_stem_move_breaks_containment(self):
        """K not superset_s K' after a forward stem move (inconsistent states)."""
        l1, l2, retiming = fig3_pair()
        stg1, stg2 = extract_stg(l1), extract_stg(l2)
        assert retiming.max_forward_moves_across_stems() == 1
        assert space_contains(stg2, stg1)
        assert not space_contains(stg1, stg2)


class TestFig3Theorem2:
    """Any one-vector prefix restores the synchronizing sequence on L2."""

    @pytest.mark.parametrize("prefix", list(itertools.product((0, 1), repeat=2)))
    def test_all_prefixes_work(self, prefix):
        l1, l2, _ = fig3_pair()
        stg2 = extract_stg(l2)
        sequence = [prefix, (1, 1)]
        assert is_functional_sync_sequence(stg2, sequence)
        final = functional_final_states(stg2, sequence)
        assert final == frozenset({(1, 1)})

    def test_synchronized_states_equivalent_across_machines(self):
        """P + I drives L2 to a state equivalent to L1's {1}."""
        l1, l2, _ = fig3_pair()
        stg1, stg2 = extract_stg(l1), extract_stg(l2)
        assert states_equivalent(stg1, (1,), stg2, (1, 1))


class TestFig3Observation3:
    """Example 3: a functional test for L1's output s-a-0 fails on L2."""

    @staticmethod
    def _output_branch_fault(circuit):
        po_edge = circuit.in_edges("Z")[0]
        return StuckAtFault(LineRef(po_edge.index, 1), ZERO)

    def test_functionally_detected_on_l1(self):
        l1, _, _ = fig3_pair()
        fault = self._output_branch_fault(l1)
        good = extract_stg(l1)
        bad = extract_stg(l1, fault=fault)
        # Under <11> every good state outputs 1, every faulty state 0.
        for state in good.states:
            _, outputs = good.run(state, [(1, 1)])
            assert outputs[0] == (1,)
        for state in bad.states:
            _, outputs = bad.run(state, [(1, 1)])
            assert outputs[0] == (0,)

    def test_not_detected_on_l2(self):
        _, l2, _ = fig3_pair()
        fault = self._output_branch_fault(l2)
        good = extract_stg(l2)
        bad = extract_stg(l2, fault=fault)
        # The inconsistent good state (0, 1) also outputs 0 under <11>:
        # the fault is not detected for that initial state.
        _, good_out = good.run((0, 1), [(1, 1)])
        assert good_out[0] == (0,)
        _, bad_out = bad.run((0, 1), [(1, 1)])
        assert bad_out[0] == (0,)

    def test_prefixed_test_detects_on_l2(self):
        """Theorem 4 on this example: P + T distinguishes good from faulty."""
        _, l2, _ = fig3_pair()
        fault = self._output_branch_fault(l2)
        good = extract_stg(l2)
        bad = extract_stg(l2, fault=fault)
        sequence = [(0, 0), (1, 1)]
        for good_state in good.states:
            for bad_state in bad.states:
                _, good_out = good.run(good_state, sequence)
                _, bad_out = bad.run(bad_state, sequence)
                # Detection at the final vector: good 1, faulty 0.
                assert good_out[-1] == (1,)
                assert bad_out[-1] == (0,)


class TestFig5Observation2:
    """Example 2: faulty-circuit sync sequences need the prefix."""

    def test_n1_faulty_synchronized_to_001(self):
        n1, _, _ = fig5_pair()
        sim = SequentialSimulator(n1, fault=n1_g1_g2_fault(n1))
        final = sim.run(EXAMPLE2_SEQUENCE).final_state
        assert final == (0, 0, 1)

    def test_sequence_is_structural_for_faulty_n1(self):
        n1, _, _ = fig5_pair()
        sim = SequentialSimulator(n1, fault=n1_g1_g2_fault(n1))
        assert sim.is_synchronizing(EXAMPLE2_SEQUENCE)

    def test_same_sequence_fails_on_faulty_n2(self):
        _, n2, _ = fig5_pair()
        sim = SequentialSimulator(n2, fault=n2_g1_q12_fault(n2))
        final = sim.run(EXAMPLE2_SEQUENCE).final_state
        assert final == (1, X)  # the paper's {1x}
        assert not sim.is_synchronizing(EXAMPLE2_SEQUENCE)

    @pytest.mark.parametrize(
        "prefix", list(itertools.product((0, 1), repeat=3))
    )
    def test_any_prefix_restores_sync(self, prefix):
        """Lemma 4 / Theorem 3: one arbitrary vector suffices."""
        _, n2, retiming = fig5_pair()
        assert retiming.max_forward_moves() == 1
        sim = SequentialSimulator(n2, fault=n2_g1_q12_fault(n2))
        assert sim.is_synchronizing([prefix] + EXAMPLE2_SEQUENCE)

    @pytest.mark.parametrize("engine", ["bitset", "reference"])
    def test_corresponding_fault_is_multiple_fault_equivalent(self, engine):
        """The G1-Q12 fault in N2 is space-equivalent to the *multiple*
        s-a-1 fault on I1-Q1 and I2-Q2 in N1 (checked behaviourally via
        parallel injection), on the lane sweep and on the scalar oracle."""
        n1, n2, _ = fig5_pair()
        from repro.equivalence import space_equivalent
        from repro.equivalence.explicit import extract_stg_reference

        extract = extract_stg if engine == "bitset" else extract_stg_reference
        multi_faults = _n1_multi_fault(n1)
        stg_multi = extract(n1, fault=multi_faults)
        stg_single = extract(n2, fault=n2_g1_q12_fault(n2))
        assert space_equivalent(stg_multi, stg_single)

    def test_multi_fault_extraction_matches_dict_construction(self):
        """The dict-style ExplicitSTG constructor (historical API) builds
        the same machine as multi-fault extract_stg."""
        n1, _, _ = fig5_pair()
        multi_faults = _n1_multi_fault(n1)
        stg_dicts = _extract_multi_fault_stg_via_dicts(n1, multi_faults)
        stg = extract_stg(n1, fault=multi_faults)
        assert stg_dicts.next_index == stg.next_index
        assert stg_dicts.output_index == stg.output_index
        assert stg_dicts.states == stg.states
        assert stg_dicts.alphabet == stg.alphabet


def _n1_multi_fault(n1):
    from repro.logic.three_valued import ONE

    multi_faults = []
    for edge in n1.edges:
        if edge.sink == "G1" and edge.weight == 1:
            multi_faults.append(StuckAtFault(LineRef(edge.index, 1), ONE))
    assert len(multi_faults) == 2
    return multi_faults


def _extract_multi_fault_stg_via_dicts(circuit, faults):
    """STG of a circuit under a multiple stuck-at fault, built through the
    historical dict-of-tuples ExplicitSTG constructor."""
    from repro.equivalence.explicit import ExplicitSTG, all_vectors
    from repro.simulation.sequential import SequentialSimulator

    simulator = SequentialSimulator(circuit, fault=list(faults))
    states = tuple(all_vectors(circuit.num_registers()))
    alphabet = tuple(all_vectors(len(circuit.input_names)))
    next_state, output = {}, {}
    for state in states:
        for vector in alphabet:
            result = simulator.step(state, vector)
            next_state[(state, vector)] = result.next_state
            output[(state, vector)] = result.outputs
    return ExplicitSTG(
        name=circuit.name + "^multi",
        num_inputs=len(circuit.input_names),
        num_registers=circuit.num_registers(),
        alphabet=alphabet,
        states=states,
        next_state=next_state,
        output=output,
    )


class TestFig5Observation4:
    """Example 4: structural tests are not preserved without the prefix."""

    def test_detects_g1_g2_fault_in_n1(self):
        n1, _, _ = fig5_pair()
        from repro.faultsim import fault_simulate

        result = fault_simulate(n1, [EXAMPLE4_TEST], [n1_g1_g2_fault(n1)])
        assert result.num_detected == 1

    def test_does_not_detect_corresponding_fault_in_n2(self):
        _, n2, _ = fig5_pair()
        from repro.faultsim import fault_simulate

        result = fault_simulate(n2, [EXAMPLE4_TEST], [n2_g1_q12_fault(n2)])
        assert result.num_detected == 0

    def test_detects_other_segment_in_n2(self):
        """The paper: T *does* detect the Q12-G2 s-a-1 fault in N2."""
        _, n2, _ = fig5_pair()
        from repro.faultsim import fault_simulate

        result = fault_simulate(n2, [EXAMPLE4_TEST], [n2_q12_g2_fault(n2)])
        assert result.num_detected == 1

    @pytest.mark.parametrize(
        "prefix", list(itertools.product((0, 1), repeat=3))
    )
    def test_prefixed_test_detects_in_n2(self, prefix):
        """Theorem 4: P + T detects the corresponding fault, any prefix."""
        _, n2, _ = fig5_pair()
        from repro.faultsim import fault_simulate

        sequence = [prefix] + EXAMPLE4_TEST
        result = fault_simulate(n2, [sequence], [n2_g1_q12_fault(n2)])
        assert result.num_detected == 1
