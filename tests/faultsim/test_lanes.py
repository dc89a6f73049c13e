"""The (sequence x fault) pass layout against the serial oracle.

Randomized circuits, X inputs, unequal and empty sequences, duplicate
faults, every group size from one fault per block up, and pass budgets
that force one block per pass, several passes per test set and one
sequence split across passes: detections and potential sets must equal
the serial engine's on both word legs (bigint with numpy hidden, numpy
when installed), and sharded runs must equal single-process ones.
"""

import random

import pytest

from repro.faults import full_fault_universe
from repro.faultsim import parallel as lanes
from repro.faultsim import parallel_fault_simulate, serial_fault_simulate
from repro.faultsim.shard import sharded_fault_simulate
from repro.logic.three_valued import ONE, X, ZERO
from repro.simulation.cache import vector_fast_stepper

from tests.helpers import HAVE_NUMPY, on_leg, random_circuit

LEGS = ["bigint"] + (["numpy"] if HAVE_NUMPY else [])
GROUP_SIZES = (2, 3, 5, 64)


def _case(seed):
    """A random circuit, a shuffled fault list with duplicates, and
    sequences of 0-9 vectors (at least one empty) with X inputs."""
    rng = random.Random(seed)
    num_inputs = rng.randint(1, 5)
    circuit = random_circuit(
        seed + 5000,
        num_inputs=num_inputs,
        num_gates=rng.randint(4, 25),
        num_dffs=rng.randint(1, 4),
    )
    faults = full_fault_universe(circuit)
    faults = faults + rng.sample(faults, len(faults) // 4)
    rng.shuffle(faults)
    sequences = [
        [
            tuple(rng.choice((ZERO, ONE, ONE, ZERO, X)) for _ in range(num_inputs))
            for _ in range(rng.randint(0, 9))
        ]
        for _ in range(rng.randint(2, 7))
    ]
    sequences.insert(rng.randrange(len(sequences) + 1), [])
    return circuit, faults, sequences


def _limit_blocks(monkeypatch, circuit, group_size, blocks):
    """Pass budgets that hold ``blocks`` full-width blocks on either leg."""
    monkeypatch.setattr(lanes, "BIGINT_PASS_LANES", blocks * group_size)
    if HAVE_NUMPY:
        footprint = lanes._WordPlaneLeg(vector_fast_stepper(circuit)).footprint
        words = -(-group_size // 64)
        monkeypatch.setattr(lanes, "PASS_BUDGET_BYTES", blocks * words * footprint)


@pytest.fixture
def pass_shapes(monkeypatch):
    """Record each pass as (rows, blocks per row)."""
    shapes = []
    original = lanes._Layout

    def recording(rows, groups, *args):
        shapes.append((len(rows), len(groups)))
        return original(rows, groups, *args)

    monkeypatch.setattr(lanes, "_Layout", recording)
    return shapes


class TestPassLayout:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("drop", [True, False])
    def test_matches_serial_at_any_budget(self, seed, drop, monkeypatch):
        circuit, faults, sequences = _case(seed)
        reference = serial_fault_simulate(circuit, sequences, faults, drop=drop)
        for group_size in GROUP_SIZES:
            for blocks in (None, 1, 3):
                monkeypatch.undo()
                if blocks is not None:
                    _limit_blocks(monkeypatch, circuit, group_size, blocks)
                for leg in LEGS:
                    with on_leg(leg, "faultsim"):
                        result = parallel_fault_simulate(
                            circuit,
                            sequences,
                            faults,
                            drop=drop,
                            group_size=group_size,
                        )
                    where = (group_size, blocks, leg)
                    assert result.detections == reference.detections, where
                    assert result.potential == reference.potential, where

    @pytest.mark.parametrize("leg", LEGS)
    def test_budgets_shape_the_passes(self, leg, monkeypatch, pass_shapes):
        """One block per pass, several sequences per pass, and one
        sequence's groups split over consecutive passes all occur."""
        circuit, faults, sequences = _case(3)
        non_empty = sum(1 for sequence in sequences if sequence)

        _limit_blocks(monkeypatch, circuit, 5, 1)
        with on_leg(leg, "faultsim"):
            parallel_fault_simulate(circuit, sequences, faults, group_size=5)
        assert pass_shapes and all(shape == (1, 1) for shape in pass_shapes)

        pass_shapes.clear()
        whole = len(faults) + 1  # one block per sequence
        _limit_blocks(monkeypatch, circuit, whole, 3)
        with on_leg(leg, "faultsim"):
            parallel_fault_simulate(
                circuit, sequences, faults, drop=False, group_size=whole
            )
        assert len(pass_shapes) == -(-non_empty // 3)
        assert pass_shapes[0] == (3, 1)

        pass_shapes.clear()
        _limit_blocks(monkeypatch, circuit, 3, 3)
        with on_leg(leg, "faultsim"):
            parallel_fault_simulate(
                circuit, sequences, faults, drop=False, group_size=3
            )
        groups = -(-len(faults) // 2)
        assert pass_shapes[:2] == [(1, 3), (1, 3)]
        assert len(pass_shapes) == non_empty * -(-groups // 3)

    def test_empty_sequences_keep_their_index(self):
        circuit, faults, sequences = _case(4)
        padded = [[], *sequences, []]
        base = parallel_fault_simulate(circuit, sequences, faults)
        shifted = parallel_fault_simulate(circuit, padded, faults)
        assert {
            fault: (d.sequence_index + 1, d.cycle, d.output_name)
            for fault, d in base.detections.items()
        } == {
            fault: (d.sequence_index, d.cycle, d.output_name)
            for fault, d in shifted.detections.items()
        }
        assert shifted.potential == base.potential

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("drop", [True, False])
    def test_sharded_equals_single_process(self, seed, drop):
        circuit, faults, sequences = _case(seed + 20)
        single = parallel_fault_simulate(
            circuit, sequences, faults, drop=drop, group_size=5
        )
        sharded = sharded_fault_simulate(
            circuit, sequences, faults, workers=2, drop=drop, group_size=5
        )
        assert sharded.detections == single.detections
        assert sharded.potential == single.potential
        assert sharded.faults == single.faults

    def test_bad_vector_rejected(self):
        circuit, faults, _sequences = _case(1)
        width = len(circuit.input_names)
        with pytest.raises(ValueError, match="trits"):
            parallel_fault_simulate(circuit, [[(0,) * (width + 1)]], faults)
        with pytest.raises(ValueError, match="trit"):
            parallel_fault_simulate(circuit, [[(7,) * width]], faults)
