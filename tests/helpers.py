"""Shared circuit fixtures for the test suite."""

from __future__ import annotations

import itertools
import random
from typing import List, Tuple

import pytest

from repro.circuit import Circuit, CircuitBuilder, GateType

try:  # the optional [perf] extra
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: Skip marker for tests that exercise numpy-only paths (the word-plane
#: kernel backend and the dense retiming solvers).
requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="needs numpy (the optional [perf] extra)"
)


def feedback_and() -> Circuit:
    """``g1 = AND(a, q); q = DFF(g1); z = g1`` -- one stem, one register."""
    builder = CircuitBuilder("feedback_and")
    builder.input("a")
    builder.and_("g1", "a", "q")
    builder.dff("q", "g1")
    builder.output("z", "g1")
    return builder.build()


def toggle_counter() -> Circuit:
    """Two-bit counter with enable: classic small sequential circuit."""
    builder = CircuitBuilder("toggle_counter")
    builder.input("en")
    builder.xor("n0", "en", "q0")
    builder.and_("carry", "en", "q0")
    builder.xor("n1", "carry", "q1")
    builder.dff("q0", "n0")
    builder.dff("q1", "n1")
    builder.output("z0", "q0")
    builder.output("z1", "q1")
    return builder.build()


def resettable_counter() -> Circuit:
    """Two-bit counter with synchronous reset (synchronizable from all-X).

    ``rst=1`` forces both flip-flops to 0 regardless of state, so ``<1>`` on
    ``rst`` is a structural synchronizing sequence.
    """
    builder = CircuitBuilder("resettable_counter")
    builder.input("rst")
    builder.input("en")
    builder.not_("nrst", "rst")
    builder.xor("t0", "en", "q0")
    builder.and_("n0", "nrst", "t0")
    builder.and_("carry", "en", "q0")
    builder.xor("t1", "carry", "q1")
    builder.and_("n1", "nrst", "t1")
    builder.dff("q0", "n0")
    builder.dff("q1", "n1")
    builder.output("z0", "q0")
    builder.output("z1", "q1")
    return builder.build()


def shift_register(depth: int = 3) -> Circuit:
    """A ``depth``-deep shift register: d -> q1 -> ... -> qN -> z."""
    builder = CircuitBuilder(f"shift{depth}")
    builder.input("d")
    previous = "d"
    for stage in range(1, depth + 1):
        previous = builder.dff(f"q{stage}", previous)
    builder.buf("zbuf", previous)
    builder.output("z", "zbuf")
    return builder.build()


def pipelined_logic() -> Circuit:
    """Pipeline with registers between two logic levels and a fanout stem."""
    builder = CircuitBuilder("pipelined_logic")
    builder.input("a")
    builder.input("b")
    builder.input("c")
    builder.and_("g1", "a", "b")
    builder.dff("r1", "g1")
    builder.or_("g2", "r1", "c")
    builder.not_("g3", "r1")
    builder.dff("r2", "g2")
    builder.dff("r3", "g3")
    builder.xor("g4", "r2", "r3")
    builder.output("z", "g4")
    return builder.build()


def random_circuit(
    seed: int,
    num_inputs: int = 3,
    num_gates: int = 10,
    num_dffs: int = 3,
    num_outputs: int = 2,
    idle_inputs: int = 0,
    x_registers: int = 0,
) -> Circuit:
    """A random valid sequential circuit (deterministic in ``seed``).

    Gates read earlier signals; a subset of gate outputs is registered and
    the register outputs are fed back as additional gate operands, so the
    result is sequential with feedback but never has combinational cycles.
    ``idle_inputs`` more inputs, read by no gate, are named to sort (as
    inputs are ordered) into the middle of the read ones.  ``x_registers``
    more registers never leave X from the all-X state: each loads the XOR
    of itself and an input, and gates read it like the others.
    """
    rng = random.Random(seed)
    builder = CircuitBuilder(f"rand{seed}")
    inputs = [builder.input(f"i{k}") for k in range(num_inputs)]
    for k in range(idle_inputs):
        builder.input(f"i{num_inputs // 2 - 1}_{k}")
    # Pre-declare flip-flop output names so gates can reference them.
    dff_names = [f"q{k}" for k in range(num_dffs)]
    x_names = [f"u{k}" for k in range(x_registers)]
    available = inputs + dff_names + x_names
    gate_types = [
        GateType.AND,
        GateType.OR,
        GateType.NAND,
        GateType.NOR,
        GateType.XOR,
        GateType.NOT,
    ]
    gates: List[str] = []
    for k in range(num_gates):
        gate_type = rng.choice(gate_types)
        arity = 1 if gate_type is GateType.NOT else rng.randint(2, 3)
        operands = [rng.choice(available) for _ in range(arity)]
        name = f"g{k}"
        builder.gate(name, gate_type, operands)
        gates.append(name)
        available.append(name)
    if len(gates) < num_dffs:
        raise ValueError("need at least as many gates as flip-flops")
    sources = rng.sample(gates, num_dffs)
    for name, source in zip(dff_names, sources):
        builder.dff(name, source)
    for k, name in enumerate(x_names):
        builder.dff(name, builder.xor(f"{name}_d", name, inputs[k % num_inputs]))
    observed = set()
    for k in range(num_outputs):
        choice = rng.choice(gates)
        builder.output(f"z{k}", choice)
        observed.add(choice)
    # Attach any otherwise-dangling gate to an extra output so the circuit
    # is strictly valid (no dead logic).
    feeding = set()
    for definition in builder._signals.values():
        feeding.update(definition.operands)
    extra = 0
    for signal in gates + dff_names + x_names:
        if signal not in feeding and signal not in observed:
            builder.output(f"zx{extra}", signal)
            observed.add(signal)
            extra += 1
    return builder.build()


def resettable_random_circuit(
    seed: int,
    num_inputs: int = 2,
    num_gates: int = 8,
    num_dffs: int = 3,
    num_outputs: int = 2,
) -> Circuit:
    """A random circuit whose flip-flops are gated by a synchronous reset.

    ``rst = 1`` forces every flip-flop to 0, so the circuit is always
    structurally synchronizable -- useful for theorem-level tests that
    need synchronizing sequences to exist.
    """
    rng = random.Random(seed)
    builder = CircuitBuilder(f"rrand{seed}")
    builder.input("rst")
    builder.not_("rst_n", "rst")
    inputs = [builder.input(f"i{k}") for k in range(num_inputs)]
    dff_names = [f"q{k}" for k in range(num_dffs)]
    available = inputs + dff_names
    gate_types = [GateType.AND, GateType.OR, GateType.NAND, GateType.XOR]
    gates: List[str] = []
    for k in range(num_gates):
        gate_type = rng.choice(gate_types)
        operands = [rng.choice(available) for _ in range(2)]
        name = builder.gate(f"g{k}", gate_type, operands)
        gates.append(name)
        available.append(name)
    sources = rng.sample(gates, num_dffs)
    for name, source in zip(dff_names, sources):
        gated = builder.and_(f"{name}_d", "rst_n", source)
        builder.dff(name, gated)
    observed = set()
    for k in range(num_outputs):
        choice = rng.choice(gates)
        builder.output(f"z{k}", choice)
        observed.add(choice)
    feeding = set()
    for definition in builder._signals.values():
        feeding.update(definition.operands)
    extra = 0
    for signal in gates + dff_names:
        if signal not in feeding and signal not in observed:
            builder.output(f"zx{extra}", signal)
            observed.add(signal)
            extra += 1
    return builder.build()


def token_ring(width: int, name: str = "") -> Circuit:
    """A one-hot token ring with synchronous reset: ``width`` flip-flops,
    ``width + 1`` reset-reachable states.

    ``rst=1`` clears the ring; ``start=1`` on an empty ring injects a
    token that then rotates forever (``q_{w-1}`` wraps to ``q0``).  The
    output observes ``q_{w-1}`` through a BUF, and the fanout stem feeding
    that BUF has one register on its in-edge -- so labelling the stem
    ``-1`` is a legal single forward move that the reset-reachable
    extraction can verify (reachability-bounded Lemma 2) far beyond the
    full space's 18-register wall.
    """
    builder = CircuitBuilder(name or f"ring{width}")
    builder.input("rst")
    builder.input("start")
    builder.not_("go", "rst")
    qs = [f"q{i}" for i in range(width)]
    level = list(qs)
    k = 0
    while len(level) > 1:
        paired = []
        for i in range(0, len(level) - 1, 2):
            paired.append(builder.or_(f"ort{k}", level[i], level[i + 1]))
            k += 1
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    builder.not_("none_token", level[0])
    builder.and_("inj", "start", "none_token")
    builder.or_("n0", "inj", qs[-1])
    builder.and_("d0", "go", "n0")
    builder.dff(qs[0], "d0")
    for i in range(1, width):
        builder.and_(f"d{i}", "go", qs[i - 1])
        builder.dff(qs[i], f"d{i}")
    builder.buf("zbuf", qs[-1])
    builder.output("z", "zbuf")
    return builder.build()


def token_ring_stem(circuit: Circuit) -> str:
    """The fanout stem feeding ``zbuf`` (the forward-move target)."""
    (edge,) = [e for e in circuit.edges if e.sink == "zbuf"]
    return edge.source


def wide_or(num_inputs: int = 13) -> Circuit:
    """One register latching the OR of ``num_inputs`` inputs: past both
    state-space caps' 12-input limit at the default width."""
    builder = CircuitBuilder("wide")
    names = [builder.input(f"i{k}") for k in range(num_inputs)]
    acc = names[0]
    for k, name in enumerate(names[1:]):
        acc = builder.or_(f"o{k}", acc, name)
    builder.dff("q", acc)
    builder.output("z", "q")
    return builder.build()


def all_binary_vectors(width: int) -> List[Tuple[int, ...]]:
    """All 2**width binary vectors, in lexicographic order."""
    return list(itertools.product((0, 1), repeat=width))
