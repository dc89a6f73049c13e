"""Tests for structural equivalence fault collapsing."""

import random

import pytest

from repro.circuit import CircuitBuilder, GateType, LineRef
from repro.faults import StuckAtFault, collapse_faults, full_fault_universe
from repro.faultsim import serial_fault_simulate
from repro.logic.three_valued import ONE, ZERO

from tests.helpers import random_circuit


def _single_gate_circuit(gate_type, arity=2):
    builder = CircuitBuilder(f"single_{gate_type.value}")
    names = [builder.input(f"i{k}") for k in range(arity)]
    builder.gate("g", gate_type, names)
    builder.output("z", "g")
    return builder.build()


class TestGateLocalRules:
    def test_and_gate_classes(self):
        circuit = _single_gate_circuit(GateType.AND)
        collapsed = collapse_faults(circuit)
        # 3 lines (2 inputs, gate->z), 6 faults total; the three s-a-0
        # (in0, in1, out) merge into one class: 6 - 2 = 4.
        assert collapsed.num_total == 6
        assert collapsed.num_collapsed == 4

    def test_or_gate_classes(self):
        circuit = _single_gate_circuit(GateType.OR)
        assert collapse_faults(circuit).num_collapsed == 4

    def test_nand_gate_classes(self):
        circuit = _single_gate_circuit(GateType.NAND)
        assert collapse_faults(circuit).num_collapsed == 4

    def test_xor_no_collapsing(self):
        circuit = _single_gate_circuit(GateType.XOR)
        assert collapse_faults(circuit).num_collapsed == 6

    def test_inverter_chain_collapses_fully(self):
        builder = CircuitBuilder("chain")
        builder.input("a")
        builder.not_("g1", "a")
        builder.not_("g2", "g1")
        builder.output("z", "g2")
        circuit = builder.build()
        collapsed = collapse_faults(circuit)
        # 3 lines, 6 faults, all collapse into 2 classes through the chain.
        assert collapsed.num_total == 6
        assert collapsed.num_collapsed == 2

    def test_no_collapsing_across_register(self):
        builder = CircuitBuilder("reg")
        builder.input("a")
        builder.buf("g1", "a")
        builder.dff("q", "g1")
        builder.buf("g2", "q")
        builder.output("z", "g2")
        circuit = builder.build()
        collapsed = collapse_faults(circuit)
        # Lines: a->g1 (1), g1->(reg)->g2 (2), g2->z (1) = 4 lines, 8 faults.
        # BUF collapses a->g1 with g1-side line and register-side line with
        # g2->z, but never across the register: 2 classes on each side => 4.
        assert collapsed.num_total == 8
        assert collapsed.num_collapsed == 4

    def test_class_members(self):
        circuit = _single_gate_circuit(GateType.AND)
        collapsed = collapse_faults(circuit)
        sa0_class = [
            rep
            for rep in collapsed.representatives
            if len(collapsed.class_members(rep)) == 3
        ]
        assert len(sa0_class) == 1
        assert all(f.value == ZERO for f in collapsed.class_members(sa0_class[0]))


class TestCollapsingSoundness:
    """Every fault must be detected by exactly the tests detecting its representative."""

    @pytest.mark.parametrize("seed", range(3))
    def test_equivalent_faults_have_identical_detection(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=8, num_dffs=2)
        collapsed = collapse_faults(circuit)
        rng = random.Random(seed)
        sequences = [
            [tuple(rng.randint(0, 1) for _ in circuit.input_names) for _ in range(6)]
            for _ in range(3)
        ]
        universe = full_fault_universe(circuit)
        result = serial_fault_simulate(circuit, sequences, universe, drop=False)
        for fault in universe:
            rep = collapsed.class_of[fault]
            assert (fault in result.detections) == (rep in result.detections), (
                f"{fault} vs representative {rep}"
            )

    def test_restricted_fault_list(self):
        circuit = _single_gate_circuit(GateType.AND)
        some = full_fault_universe(circuit)[:3]
        collapsed = collapse_faults(circuit, some)
        assert collapsed.num_total == 3
        assert set(collapsed.class_of) == set(some)


def _components_reference(circuit, faults):
    """Brute force: connected components of the gate-local pairs among
    ``faults``, each represented by its smallest member."""
    from repro.faults.collapse import _gate_local_pairs

    listed = set(faults)
    neighbours = {fault: set() for fault in listed}
    for gate in circuit.gate_nodes():
        for fault_a, fault_b in _gate_local_pairs(circuit, gate.name):
            if fault_a in listed and fault_b in listed:
                neighbours[fault_a].add(fault_b)
                neighbours[fault_b].add(fault_a)
    class_of = {}
    for start in sorted(listed):
        if start in class_of:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for other in neighbours[frontier.pop()]:
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        representative = min(component)
        for fault in component:
            class_of[fault] = representative
    return tuple(sorted(set(class_of.values()))), class_of


class TestAgainstComponents:
    """The integer union-find equals the connected components of the
    gate-local equivalence pairs, whole-universe and restricted."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        circuit = random_circuit(seed + 900, num_inputs=3, num_gates=16, num_dffs=3)
        universe = full_fault_universe(circuit)
        rng = random.Random(seed)
        subset = rng.sample(universe, len(universe) // 2)
        for faults in (None, subset, subset + subset[:5]):
            collapsed = collapse_faults(circuit, faults)
            expected = _components_reference(
                circuit, universe if faults is None else faults
            )
            assert collapsed.representatives == expected[0]
            assert collapsed.class_of == expected[1]

    def test_table2_circuits(self):
        from repro.core.experiments import TABLE2_CIRCUITS, build_pair

        for spec in TABLE2_CIRCUITS:
            pair = build_pair(spec, store=None)
            for circuit in (pair.original, pair.retimed):
                collapsed = collapse_faults(circuit)
                expected = _components_reference(circuit, full_fault_universe(circuit))
                assert collapsed.representatives == expected[0], circuit.name
                assert collapsed.class_of == expected[1], circuit.name

    def test_fault_off_the_circuit_rejected(self):
        circuit = _single_gate_circuit(GateType.AND)
        ghost = StuckAtFault(LineRef(0, 9), ONE)
        with pytest.raises(ValueError, match="not on a line"):
            collapse_faults(circuit, [ghost])
