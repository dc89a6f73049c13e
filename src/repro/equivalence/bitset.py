"""Bit-packed state-space kernel: the alphabet sweep and bitset ops.

The explicit state-transition-graph layer used to enumerate all
``2^r x 2^i`` (state, vector) pairs one scalar simulation at a time.  This
module packs **(state, vector) pairs as lanes** of the compiled
bit-parallel stepper (:class:`~repro.simulation.vector_codegen.
VectorFastStepper`): :func:`alphabet_sweep` advances a block of states
under a whole chunk of the input alphabet per step and decodes the
next-state/output rail planes into packed codes.  The full-space
extraction sweeps the block of all ``2^r`` states
(:func:`extract_arrays_bitset`, flat arrays indexed
``[vector_idx][state_idx]``); the reachable-state BFS sweeps each
frontier block.

In the full block lane ``s`` of a vector's run carries the state whose
register bits are the binary digits of ``s`` (register ``j`` holds bit
``r - 1 - j``), which is exactly the lexicographic order of
:func:`repro.equivalence.explicit.all_vectors`.

The rest of the module is bitset arithmetic over state *sets*
represented as plain Python ints (bit ``s`` set <=> state index ``s`` in
the set): byte-table iteration over members and table-driven set images
(``image_bitset``), the primitives behind the functional synchronizing-
sequence searches.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import StuckAtFault
from repro.simulation.backends import numpy_or_none
from repro.simulation.cache import vector_fast_stepper

#: Offsets of the set bits of every byte value -- the work table for
#: C-speed iteration over bitset members via ``int.to_bytes``.
BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)
)


# -- bitset primitives -------------------------------------------------------


def iter_bit_indices(bits: int, num_bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending.

    Byte-table based: O(num_bits / 8) C-level iteration plus one small-int
    step per member, instead of O(popcount) big-int ``bits & -bits`` scans
    (quadratic for dense sets over large state spaces).
    """
    table = BYTE_BITS
    data = bits.to_bytes((num_bits + 7) // 8, "little")
    for base, byte in enumerate(data):
        if byte:
            base8 = base << 3
            for offset in table[byte]:
                yield base8 | offset


def bitset_from_indices(indices: Iterable[int]) -> int:
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


def image_bitset(row: Sequence[int], bits: int, num_bits: int) -> int:
    """Image of the state set ``bits`` under the successor table ``row``.

    ``row[s]`` is the successor *index* of state ``s`` under one fixed
    input vector.  The image is accumulated in a bytearray (O(1) per
    member) rather than by OR-ing ``1 << row[s]`` big ints (O(words) per
    member), so dense images over large state spaces stay linear.
    """
    out = bytearray((num_bits + 7) // 8)
    table = BYTE_BITS
    data = bits.to_bytes(len(out), "little")
    for base, byte in enumerate(data):
        if byte:
            base8 = base << 3
            for offset in table[byte]:
                target = row[base8 | offset]
                out[target >> 3] |= 1 << (target & 7)
    return int.from_bytes(out, "little")


# -- lane packing ------------------------------------------------------------


def state_plane(register: int, num_registers: int) -> int:
    """The ones-rail of register ``register`` with all ``2^r`` states packed
    one per lane: bit ``s`` is set iff state ``s`` has that register at 1.

    Register ``j`` carries index bit ``p = r - 1 - j``, so the plane is the
    classic alternating mask (``...1100`` for ``p = 1``), built by doubling
    rather than per-lane loops.
    """
    position = num_registers - 1 - register
    half = 1 << position
    unit = ((1 << half) - 1) << half  # one period: 2^p zeros then 2^p ones
    width = half << 1
    total = 1 << num_registers
    while width < total:
        unit |= unit << width
        width <<= 1
    return unit


def all_state_lanes(num_registers: int) -> Tuple[Tuple[int, int], ...]:
    """Dual-rail packing of the full binary state space, one state per lane."""
    total = 1 << num_registers
    mask = (1 << total) - 1
    rails = []
    for register in range(num_registers):
        ones = state_plane(register, num_registers)
        rails.append((ones, mask ^ ones))
    return tuple(rails)


def decode_plane_into(
    indices: List[int], ones: int, weight: int, num_lanes: int
) -> None:
    """Add ``weight`` to ``indices[s]`` for every set lane of ``ones``."""
    table = BYTE_BITS
    data = ones.to_bytes((num_lanes + 7) // 8, "little")
    for base, byte in enumerate(data):
        if byte:
            base8 = base << 3
            for offset in table[byte]:
                indices[base8 | offset] += weight


# -- the alphabet sweep ------------------------------------------------------

#: Widest step a sweep packs: a block of ``B`` states times a chunk of the
#: alphabet fills at most this many lanes (64 words for the numpy runner).
#: Blocks at least this wide -- the full ``2^r`` range of the state space from
#: 12 registers up -- step one vector at a time.
REACH_LANE_BLOCK = 1 << 12

#: Below this step width the bigint step beats the numpy word-plane step,
#: whose per-gate array-call overhead is width-independent; with numpy
#: installed, a sweep switches per step at this line.
REACH_NUMPY_MIN_LANES = 512


def chunk_lanes(
    width: int, chunk: Sequence[Tuple[int, ...]], num_inputs: int
) -> Tuple[int, int, Tuple[Tuple[int, int], ...]]:
    """``(mask, tile, inputs)``: the lane layout of one packed sweep step.

    Lane ``v * width + s`` carries chunk vector ``v`` applied to block row
    ``s``.  Each input rail holds one ``width``-lane run per vector;
    ``tile`` has one set bit at the start of every run, so a block rail
    times ``tile`` repeats the block once per vector, and ``tile << s``
    selects every lane of row ``s``.
    """
    lanes = width * len(chunk)
    mask = (1 << lanes) - 1
    run = (1 << width) - 1
    tile = mask // run
    selects = [0] * num_inputs
    for position, vector in enumerate(chunk):
        bit = 1 << (position * width)
        for pi, value in enumerate(vector):
            if value:
                selects[pi] |= bit
    inputs = tuple((select * run, mask ^ (select * run)) for select in selects)
    return mask, tile, inputs


def alphabet_sweep(
    circuit: Circuit,
    stepper,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Tuple[int, ...]],
) -> Callable[[Sequence[int]], Iterator[Tuple[List[int], List[int]]]]:
    """``sweep(block)``: every alphabet vector applied to a block of states.

    ``sweep(block)`` yields, for each vector of ``alphabet`` in order, the
    lists ``(next_codes, out_codes)``: the packed next-state code and the
    packed output word of every state ``block[s]`` (MSB-first: register
    ``j`` is bit ``r - 1 - j``, output ``k`` bit ``o - 1 - k``).  ``block``
    holds packed state codes; ``range(2 ** r)`` -- the full state space --
    gets its rails from the closed-form :func:`state_plane`.

    One compiled step covers a chunk of ``max(1, REACH_LANE_BLOCK // B)``
    vectors for a block of ``B`` states: lane ``v * B + s`` carries chunk
    vector ``v`` applied to block state ``s``, so the state rails are the
    block's rails tiled once per vector and each input rail holds one
    ``B``-lane run per vector.  Stuck-at ``faults`` are forced through the
    stepper's runtime ``sa1``/``sa0`` masks on every lane; the last fault
    per line wins, matching the reference simulator's forced-value dict.
    With numpy installed, steps of at least :data:`REACH_NUMPY_MIN_LANES`
    lanes run on the word-plane runner and narrower ones on bigints; both
    decode identical rows (the parity suite asserts it).
    """
    num_inputs = stepper.compiled.num_inputs
    num_registers = stepper.compiled.num_registers
    num_outputs = len(circuit.output_names)
    for vector in alphabet:
        if len(vector) != num_inputs:
            raise ValueError(
                f"vector needs {num_inputs} trits, got {len(vector)}"
            )
    forced = {fault.line: fault.value for fault in faults}
    injection: Dict[int, Tuple[List[int], List[int]]] = {}

    def injection_masks(width: int) -> Tuple[List[int], List[int]]:
        masks = injection.get(width)
        if masks is None:
            sa1, sa0 = stepper.blank_injection_masks()
            lane_mask = (1 << width) - 1
            for line, value in forced.items():
                slot = stepper.line_slot[line]
                if value == 1:
                    sa1[slot] = lane_mask
                else:
                    sa0[slot] = lane_mask
            masks = injection[width] = (sa1, sa0)
        return masks

    def bigint_rows(block_rails, width: int, chunk):
        lanes = width * len(chunk)
        mask, tile, inputs = chunk_lanes(width, chunk, num_inputs)
        state = tuple((ones * tile, zeros * tile) for ones, zeros in block_rails)
        if forced:
            sa1, sa0 = injection_masks(lanes)
            out_rails, next_rails = stepper.step_inject(state, inputs, mask, sa1, sa0)
        else:
            out_rails, next_rails = stepper.step_clean(state, inputs, mask)
        codes = []
        for what, rails, count in (
            ("register", next_rails, num_registers),
            ("output", out_rails, num_outputs),
        ):
            lane_codes = [0] * lanes
            for position, (ones, zeros) in enumerate(rails):
                if (ones ^ zeros) & mask != mask:
                    raise _not_binary(circuit, what, position)
                decode_plane_into(
                    lane_codes, ones, 1 << (count - 1 - position), lanes
                )
            codes.append(lane_codes)
        next_codes, out_codes = codes
        return [
            (next_codes[start : start + width], out_codes[start : start + width])
            for start in range(0, lanes, width)
        ]

    numpy_rows = None
    if numpy_or_none() is not None:
        numpy_rows = _numpy_rows(
            circuit, stepper, alphabet, forced, injection_masks
        )

    def sweep(block: Sequence[int]):
        width = len(block)
        # Equal chunks: no short remainder step drops below the numpy line.
        steps = -(-len(alphabet) // max(1, REACH_LANE_BLOCK // width))
        per_step = -(-len(alphabet) // steps)
        block_rails = state_bits = None
        for start in range(0, len(alphabet), per_step):
            chunk = alphabet[start : start + per_step]
            lanes = width * len(chunk)
            if numpy_rows is not None and lanes >= REACH_NUMPY_MIN_LANES:
                if state_bits is None:
                    state_bits = _state_bits(block, num_registers)
                yield from numpy_rows(state_bits, start, len(chunk))
            else:
                if block_rails is None:
                    block_rails = _block_rails(block, num_registers)
                yield from bigint_rows(block_rails, width, chunk)

    return sweep


def _block_rails(block: Sequence[int], num_registers: int):
    """Dual-rail bigint packing of ``block``, state ``block[s]`` in lane ``s``."""
    if isinstance(block, range) and block == range(1 << num_registers):
        return all_state_lanes(num_registers)
    mask = (1 << len(block)) - 1
    ones_by_register = [0] * num_registers
    for lane, code in enumerate(block):
        remaining = code
        while remaining:
            position = (remaining & -remaining).bit_length() - 1
            ones_by_register[num_registers - 1 - position] |= 1 << lane
            remaining &= remaining - 1
    return tuple((ones, mask ^ ones) for ones in ones_by_register)


def _state_bits(block: Sequence[int], num_registers: int):
    """``(r, B)`` uint8 array: row ``j`` holds register ``j`` of every state."""
    import numpy as np

    codes = np.asarray(block, dtype=np.int64)
    shifts = np.arange(num_registers - 1, -1, -1, dtype=np.int64)
    return ((codes[None, :] >> shifts[:, None]) & 1).astype(np.uint8)


def _numpy_rows(circuit: Circuit, stepper, alphabet, forced, injection_masks):
    """The numpy word-plane leg of :func:`alphabet_sweep`.

    One runner, sized to the widest step seen (never below
    :data:`REACH_LANE_BLOCK` lanes), serves every step; lanes past a
    step's width are left at X and never decoded.  Rails are packed and
    decoded with ``packbits``/``unpackbits`` over whole plane blocks.
    """
    import numpy as np

    from repro.simulation.wordplane import width_mask_words, wordplane_plan

    plan = wordplane_plan(stepper)
    alphabet_bits = np.array(alphabet, dtype=np.uint8).reshape(
        len(alphabet), plan.num_inputs
    )
    # Plane weights of the packed codes; past 62 planes (wide output
    # words) they are Python ints, which int64 would silently wrap.
    weights = {
        what: np.array(
            [1 << k for k in range(count - 1, -1, -1)],
            dtype=np.int64 if count < 63 else object,
        )
        for what, count in (
            ("register", plan.num_registers),
            ("output", plan.num_outputs),
        )
    }
    runner = None

    def load(row0: int, bits, mask_words) -> None:
        ones = np.zeros((len(bits), runner.words), dtype=np.uint64)
        packed = np.packbits(bits, axis=1, bitorder="little")
        ones.view(np.uint8)[:, : packed.shape[1]] = packed
        runner.V[row0 : row0 + 2 * len(bits) : 2] = ones
        runner.V[row0 + 1 : row0 + 2 * len(bits) : 2] = mask_words & ~ones

    def decode(planes, what: str, lanes: int, mask_words):
        ones = planes[0::2]
        bad = ((ones ^ planes[1::2]) & mask_words != mask_words).any(axis=1)
        if bad.any():
            raise _not_binary(circuit, what, int(bad.argmax()))
        bits = np.unpackbits(
            np.ascontiguousarray(ones).view(np.uint8),
            axis=1,
            count=lanes,
            bitorder="little",
        )
        return weights[what] @ bits

    def rows(state_bits, start: int, count: int):
        nonlocal runner
        width = state_bits.shape[1]
        lanes = width * count
        if runner is None or runner.width < lanes:
            runner = plan.runner(max(lanes, REACH_LANE_BLOCK))
            if forced:
                runner.set_group(*injection_masks(runner.width))
        mask_words = width_mask_words(lanes, runner.words)
        load(plan.reg0, np.tile(state_bits, count), mask_words)
        chunk_bits = alphabet_bits[start : start + count].T
        load(plan.vin0, np.repeat(chunk_bits, width, axis=1), mask_words)
        runner.step()
        next_codes = decode(runner.next_state_view(), "register", lanes, mask_words)
        out_codes = decode(runner.output_view(), "output", lanes, mask_words)
        return zip(
            next_codes.reshape(count, width).tolist(),
            out_codes.reshape(count, width).tolist(),
        )

    return rows


def _not_binary(circuit: Circuit, what: str, position: int) -> ValueError:
    return ValueError(
        f"{circuit.name}: {what} {position} is not binary on every lane; "
        "STG extraction requires binary states and input vectors"
    )


# -- full-space STG extraction ----------------------------------------------


def extract_arrays_bitset(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    alphabet: Sequence[Tuple[int, ...]],
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """``(next_index, output_index)`` flat tables for the (faulty) machine.

    One :func:`alphabet_sweep` over the block of all ``2^r`` states: lane
    ``s`` of every vector's run is state ``s``, so a packed next-state code
    is its state index.
    """
    stepper = vector_fast_stepper(circuit)
    sweep = alphabet_sweep(circuit, stepper, faults, alphabet)
    next_index: List[Tuple[int, ...]] = []
    output_index: List[Tuple[int, ...]] = []
    for next_codes, out_codes in sweep(range(1 << stepper.compiled.num_registers)):
        next_index.append(tuple(next_codes))
        output_index.append(tuple(out_codes))
    return tuple(next_index), tuple(output_index)


__all__ = [
    "BYTE_BITS",
    "REACH_LANE_BLOCK",
    "REACH_NUMPY_MIN_LANES",
    "all_state_lanes",
    "alphabet_sweep",
    "bitset_from_indices",
    "chunk_lanes",
    "decode_plane_into",
    "extract_arrays_bitset",
    "image_bitset",
    "iter_bit_indices",
    "state_plane",
]
