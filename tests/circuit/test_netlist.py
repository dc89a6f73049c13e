"""Tests for the Circuit graph model itself (nodes, edges, lines, registers)."""

import pytest

from repro.circuit import (
    Circuit,
    CircuitError,
    Edge,
    GateType,
    LineRef,
    Node,
    NodeKind,
    RegisterRef,
)

from tests.helpers import pipelined_logic, shift_register


class TestNodeEdgeValidation:
    def test_gate_requires_gate_type(self):
        with pytest.raises(ValueError):
            Node("g", NodeKind.GATE)

    def test_non_gate_rejects_gate_type(self):
        with pytest.raises(ValueError):
            Node("i", NodeKind.INPUT, GateType.AND)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Edge(0, "a", "b", 0, -1)

    def test_edge_lines(self):
        assert Edge(0, "a", "b", 0, 3).num_lines == 4

    def test_unknown_edge_endpoint_rejected(self):
        node = Node("a", NodeKind.INPUT)
        with pytest.raises(CircuitError):
            Circuit("bad", {"a": node}, [Edge(0, "a", "ghost", 0, 0)])

    def test_non_contiguous_pins_rejected(self):
        nodes = {
            "a": Node("a", NodeKind.INPUT),
            "b": Node("b", NodeKind.INPUT),
            "g": Node("g", NodeKind.GATE, GateType.AND),
            "z": Node("z", NodeKind.OUTPUT),
        }
        edges = [
            Edge(0, "a", "g", 0, 0),
            Edge(1, "b", "g", 2, 0),  # pin 1 missing
            Edge(2, "g", "z", 0, 0),
        ]
        with pytest.raises(CircuitError):
            Circuit("bad", nodes, edges)


class TestEnumerations:
    def test_registers_canonical_order(self):
        circuit = pipelined_logic()
        refs = circuit.registers()
        assert refs == sorted(refs)
        assert len(refs) == circuit.num_registers()

    def test_lines_canonical_order(self):
        circuit = pipelined_logic()
        lines = circuit.lines()
        assert lines == sorted(lines)
        assert len(lines) == circuit.num_lines()
        assert circuit.num_lines() == len(circuit.edges) + circuit.num_registers()

    def test_register_names_metadata(self):
        circuit = shift_register(depth=3)
        names = circuit.register_names
        assert sorted(names.values()) == ["q1", "q2", "q3"]
        # Position 1 is nearest the source: the first flip-flop in the chain.
        chain = {ref.position: name for ref, name in names.items()}
        assert chain == {1: "q1", 2: "q2", 3: "q3"}

    def test_stats_keys(self):
        stats = pipelined_logic().stats()
        assert set(stats) >= {"inputs", "outputs", "gates", "dffs", "clock_period"}

    def test_str(self):
        assert "pipelined_logic" in str(pipelined_logic())


class TestTopology:
    def test_topo_order_respects_zero_weight_edges(self):
        circuit = pipelined_logic()
        order = {name: i for i, name in enumerate(circuit.topo_order())}
        for edge in circuit.edges:
            if edge.weight == 0:
                assert order[edge.source] < order[edge.sink]

    def test_custom_delay_model(self):
        circuit = pipelined_logic()
        unit = circuit.clock_period(
            lambda node: 1 if node.kind is NodeKind.GATE else 0
        )
        default = circuit.clock_period()
        assert unit <= default

    def test_with_weights_invalidates_nothing(self):
        circuit = pipelined_logic()
        clone = circuit.with_weights(circuit.weights())
        assert clone.topo_order() == circuit.topo_order()


class TestPickling:
    """Circuits cross process boundaries (the multiprocess ATPG ships one
    per pool worker); pickling must round-trip the structure and must not
    drag compiled artifacts along."""

    def test_round_trip(self):
        import pickle

        circuit = pipelined_logic()
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone.name == circuit.name
        assert clone.nodes == circuit.nodes
        assert clone.edges == circuit.edges
        assert clone.topo_order() == circuit.topo_order()
        assert clone.input_names == circuit.input_names
        assert clone.output_names == circuit.output_names

    def test_compile_cache_entry_not_pickled(self):
        import pickle

        from repro.simulation import fast_stepper

        circuit = pipelined_logic()
        fast_stepper(circuit)  # stash an exec'd artifact on the instance
        payload = pickle.dumps(circuit)  # must not raise
        clone = pickle.loads(payload)
        assert not hasattr(clone, "_simulation_compile_cache")

    def test_identity_memos_not_pickled(self):
        """``circuit_digest`` and ``structural_identity`` are cached on the
        instance; the cache equals a fresh computation and stays behind."""
        import pickle

        from repro.circuit.digest import circuit_digest, structural_identity

        circuit = pipelined_logic()
        identity = structural_identity(circuit)
        digest = circuit_digest(circuit)
        assert circuit._structural_identity == identity
        assert structural_identity(circuit) == identity
        assert structural_identity(circuit.copy()) == identity
        clone = pickle.loads(pickle.dumps(circuit))
        assert not hasattr(clone, "_structural_identity")
        assert not hasattr(clone, "_circuit_digest")
        assert structural_identity(clone) == identity
        assert circuit_digest(clone) == digest

    def test_unpickled_circuit_simulates(self):
        import pickle

        from repro.simulation import fast_stepper

        circuit = pipelined_logic()
        clone = pickle.loads(pickle.dumps(circuit))
        stepper = fast_stepper(clone)
        vector = tuple(0 for _ in clone.input_names)
        outputs, state, _ = stepper.step(stepper.unknown_state(), vector)
        assert len(state) == clone.num_registers()
