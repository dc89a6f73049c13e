"""Tests for independent retiming verification and label reconstruction."""

import pytest

from repro.retiming import (
    Retiming,
    RetimingError,
    min_period_retiming,
    min_register_retiming,
    performance_retiming,
)
from repro.retiming.verify import (
    RetimingVerification,
    reconstruct_labels,
    verify_retiming,
)
from repro.papercircuits import fig2_pair, fig5_pair

from tests.helpers import random_circuit, requires_numpy, resettable_counter


class TestReconstruction:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstructs_engine_labels(self, seed):
        circuit = random_circuit(seed + 5000, num_gates=9, num_dffs=3)
        retiming = min_register_retiming(circuit).retiming
        retimed = retiming.apply()
        labels = reconstruct_labels(circuit, retimed)
        rebuilt = Retiming(circuit, labels)
        assert rebuilt.retimed_weights() == retimed.weights()

    def test_unrelated_weights_rejected(self):
        circuit = resettable_counter()
        weights = circuit.weights()
        # Add a register to a single edge of a reconvergent pair: no
        # consistent labelling exists.
        target = next(
            e.index
            for e in circuit.edges
            if circuit.node(e.source).kind.value == "fanout"
        )
        weights[target] += 1
        imposter = circuit.with_weights(weights)
        with pytest.raises(RetimingError):
            reconstruct_labels(circuit, imposter)


class TestVerification:
    def test_fig2_pair_verifies_with_behaviour(self):
        c1, c2, retiming = fig2_pair()
        verification = verify_retiming(c1, c2, check_behaviour=True)
        assert verification.behaviour_checked
        assert verification.time_equivalence_bound == 0  # gate move only
        assert verification.prefix_length_tests == 0
        assert verification.retiming.labels == {
            k: v for k, v in retiming.labels.items() if v
        }

    def test_fig5_pair_prefix_length(self):
        n1, n2, _ = fig5_pair()
        verification = verify_retiming(n1, n2, check_behaviour=True)
        assert verification.prefix_length_tests == 1

    @pytest.mark.parametrize(
        "engine",
        [
            pytest.param("minperiod", marks=requires_numpy),
            "minregister",
            "performance",
        ],
    )
    def test_engine_outputs_verify(self, engine):
        circuit = resettable_counter()
        if engine == "minperiod":
            retiming = min_period_retiming(circuit).retiming
        elif engine == "minregister":
            retiming = min_register_retiming(circuit).retiming
        else:
            retiming = performance_retiming(circuit, backward_passes=1).retiming
        retimed = retiming.apply()
        verification = verify_retiming(circuit, retimed, check_behaviour=True)
        assert isinstance(verification, RetimingVerification)
        assert verification.behaviour_checked

    def test_supplied_labels_checked(self):
        c1, c2, retiming = fig2_pair()
        with pytest.raises(RetimingError):
            verify_retiming(c1, c2, labels={"g1": 1})

    def test_structure_mismatch_rejected(self):
        from tests.helpers import pipelined_logic

        with pytest.raises(Exception):
            verify_retiming(resettable_counter(), pipelined_logic())
