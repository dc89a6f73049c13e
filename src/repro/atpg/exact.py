"""Exact sequential ATPG for small input alphabets: a product-machine search.

Every test set here is graded by 3-valued fault simulation from the all-X
state (:func:`repro.faultsim.fault_simulate`): a fault is detected when,
at some cycle, an output is binary in both the fault-free and the faulty
machine and the two values differ.  On ``r`` registers that pair of
machines can only be in one of ``3^r x 3^r`` (good, faulty) ternary state
pairs, so a breadth-first search over the pairs reachable from
``(X^r, X^r)`` under every binary input vector decides each fault:

* a reached pair with a detecting vector gives the fault's shortest test
  (the vectors that reached the pair, then the detecting one);
* an exhausted search *proves* that no input sequence detects the fault
  under the grader's rule.  That is weaker than sequential redundancy: a
  fault only a known initial state would expose is still untestable here,
  exactly as the fault simulator grades it.

**Lanes.**  One step packs rows -- one (fault, frontier pair) each --
times the whole input alphabet into the lanes of the compiled bit-parallel
stepper, laid out by :func:`repro.equivalence.bitset.chunk_lanes` as an
STG sweep lays out (state, vector) pairs: lane ``v * B + s`` is alphabet
vector ``v`` applied to row ``s``.  The good half steps through
``step_clean``; the faulty half through ``step_inject``, with each row's
stuck-at fault set in the runtime masks of that row's lanes only.  Rows
of many faults share one step (at most
:data:`~repro.equivalence.bitset.REACH_LANE_BLOCK` lanes) and no code is
generated per fault.

**Keys.**  A pair is four rails per register (good ones, good zeros,
faulty ones, faulty zeros); its key is the ``4r``-bit Python int whose
bit ``p`` is rail plane ``p`` of :meth:`ProductSearch._step`, so keys
never wrap.  A step decodes its lanes' keys with a bit transpose
(:func:`lane_keys`) over its distinct non-constant planes only
(:class:`StepKeys`).

**Cap and determinism.**  A fault may visit at most
``lane_cap // |alphabet|`` pairs (each costs one lane-step per vector to
expand); past that it is handed back undecided.  Pairs are interned per
fault in discovery order -- rows in pair order, each row in vector order
-- the first detecting (pair, vector) in that order wins, and nothing
reads a clock.  A fault's outcome is thus a function of the circuit, the
fault and the cap alone, whichever faults share its steps.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.equivalence.bitset import REACH_LANE_BLOCK, chunk_lanes
from repro.equivalence.explicit import ENGINE_LIMITS, all_vectors
from repro.faults.model import StuckAtFault
from repro.simulation.cache import vector_fast_stepper

#: Widest input alphabet the search enumerates: the explicit-state
#: engines' input limit.
EXACT_MAX_INPUTS = ENGINE_LIMITS["reach"].inputs

#: Faults searched side by side, sharing steps.  Outcomes do not depend
#: on it; only the wasted work on faults an earlier test in the batch
#: detects does.
EXACT_FAULT_BATCH = 64

#: Interned pairs a batch may hold (~200 bytes each): a search joins a
#: level only while the pairs held plus the most that level could add
#: stay within it, except that the first undecided search always joins.
#: Outcomes do not depend on it.
EXACT_BATCH_PAIRS = 1 << 17


@dataclass
class ExactOutcome:
    """One fault's search result.

    ``status`` is ``"det"`` (``sequence`` detects the fault), ``"proved"``
    (no sequence does) or ``"cap"`` (undecided within the cap).
    ``lane_steps`` is the pairs expanded times the alphabet size.
    """

    status: str
    sequence: Optional[List[Tuple[int, ...]]]
    lane_steps: int


def exact_applicable(circuit: Circuit, lane_cap: int) -> bool:
    """Whether :func:`iter_exact` runs on ``circuit`` under ``lane_cap``."""
    return lane_cap > 0 and len(circuit.input_names) <= EXACT_MAX_INPUTS


# -- lane keys ---------------------------------------------------------------

#: array typecode per item size, for reading interleaved key bytes.
_WORD_CODES = {array(code).itemsize: code for code in "QLIHB"}


def lane_keys(planes: Sequence[int], lanes: int) -> List:
    """Per-lane keys: bit ``p`` of lane ``l``'s key is bit ``l`` of
    ``planes[p]``.

    A bit transpose at C speed: ``format`` spreads each plane to one
    ASCII digit per lane, eight planes fold into one byte per lane, and
    the byte groups interleave into machine words.  Keys of more than 64
    bits are tuples of little-endian 64-bit words.
    """
    if not planes:
        return [0] * lanes
    digits = f"0{lanes}b"
    low = int.from_bytes(b"\x01" * lanes, "little")
    groups = []
    for start in range(0, len(planes), 8):
        folded = 0
        for shift, plane in enumerate(planes[start : start + 8]):
            spread = int.from_bytes(format(plane, digits).encode(), "big")
            folded |= (spread & low) << shift
        groups.append(folded.to_bytes(lanes, "little"))
    count = len(groups)
    size = 1 if count == 1 else 2 if count == 2 else 4 if count <= 4 else 8 * -(-count // 8)
    interleaved = bytearray(lanes * size)
    for index, group in enumerate(groups):
        interleaved[index::size] = group
    words = array(_WORD_CODES[min(size, 8)], interleaved)
    if sys.byteorder == "big":
        words.byteswap()
    values = words.tolist()
    if size <= 8:
        return values
    per = size // 8
    return list(zip(*(values[k::per] for k in range(per))))


def _as_int(key) -> int:
    return key if isinstance(key, int) else sum(w << (64 * n) for n, w in enumerate(key))


class StepKeys:
    """The pair keys of one step's lanes, decoded from its distinct planes.

    A retimed circuit's registers often carry copies of one another, and
    many rails are constant across a step, so only the distinct
    non-constant planes go through :func:`lane_keys`.  ``lanes[l]`` is
    lane ``l``'s key in that compressed form; :meth:`full` expands one to
    the ``4r``-bit pair key (a Python int), which is the same in every
    step.  Expansion is injective within a step.
    """

    def __init__(self, planes: Sequence[int], lanes: int):
        mask = (1 << lanes) - 1
        self.constant = 0
        positions = {}
        for index, plane in enumerate(planes):
            if plane == mask:
                self.constant |= 1 << index
            elif plane:
                positions[plane] = positions.get(plane, 0) | 1 << index
        self.masks = list(positions.values())
        self.lanes = lane_keys(list(positions), lanes)
        self._full = {}

    def full(self, compressed) -> int:
        key = self._full.get(compressed)
        if key is None:
            key = self.constant
            bits = _as_int(compressed)
            while bits:
                low = bits & -bits
                key |= self.masks[low.bit_length() - 1]
                bits ^= low
            self._full[compressed] = key
        return key


def key_planes(keys: Sequence[int], num_planes: int) -> List[int]:
    """The inverse of :func:`lane_keys`: plane ``p`` has bit ``s`` set
    when ``keys[s]`` has bit ``p`` set."""
    digits = f"0{num_planes}b"
    columns = list(zip(*[format(key, digits) for key in keys]))
    # Column c carries bit num_planes - 1 - c, row 0 first.
    return [
        int("".join(columns[num_planes - 1 - plane])[::-1], 2)
        for plane in range(num_planes)
    ]


# -- the search --------------------------------------------------------------


class _FaultSearch:
    """One fault's BFS: interned pairs, their parents and the open level.

    Pairs are numbered in discovery order, so each BFS level is the index
    range ``[start, end)``.
    """

    __slots__ = (
        "fault", "index", "keys", "parents", "start", "end", "status", "hit",
        "expanded", "outcome",
    )

    def __init__(self, fault: StuckAtFault):
        self.fault = fault
        # Pair 0 is the root: every rail clear, all registers X in both halves.
        self.index = {0: 0}
        self.keys = [0]
        self.parents: List[Tuple[int, int]] = [(0, 0)]
        self.start, self.end = 0, 1
        self.status: Optional[str] = None
        self.hit: Optional[Tuple[int, int]] = None
        self.expanded = 0
        self.outcome: Optional[ExactOutcome] = None


class ProductSearch:
    """The lane-packed (good, faulty) pair search on one circuit."""

    def __init__(self, circuit: Circuit, lane_cap: int):
        self.stepper = vector_fast_stepper(circuit)
        self.num_registers = self.stepper.compiled.num_registers
        self.num_inputs = self.stepper.compiled.num_inputs
        self.alphabet = all_vectors(self.num_inputs)
        self.rows_per_step = max(1, REACH_LANE_BLOCK // len(self.alphabet))
        self.max_pairs = lane_cap // len(self.alphabet)
        self.num_planes = 4 * self.num_registers
        self._layouts = {}

    def run(self, faults: Sequence[StuckAtFault]) -> List[ExactOutcome]:
        """Search every fault of ``faults`` side by side, level by level."""
        searches = [_FaultSearch(fault) for fault in faults]
        live = []
        for search in searches:
            if self.max_pairs < 1:
                search.status = "cap"
                self._decide(search)
            else:
                live.append(search)
        while live:
            for search in self._expand_level(live):
                if search.status is None:
                    if len(search.keys) == search.end:
                        search.status = "proved"
                        search.expanded = len(search.keys)
                    else:
                        search.start, search.end = search.end, len(search.keys)
                if search.status is not None:
                    self._decide(search)
            live = [search for search in live if search.status is None]
        return [search.outcome for search in searches]

    def _decide(self, search: _FaultSearch) -> None:
        """Record a decided search's outcome and free its pairs."""
        lane_steps = search.expanded * len(self.alphabet)
        if search.status == "det":
            pair, vector = search.hit
            path = [vector]
            while pair:
                pair, vector = search.parents[pair]
                path.append(vector)
            sequence = [self.alphabet[v] for v in reversed(path)]
            search.outcome = ExactOutcome("det", sequence, lane_steps)
        else:
            search.outcome = ExactOutcome(search.status, None, lane_steps)
        search.index = search.keys = search.parents = None

    def _expand_level(self, live: Sequence[_FaultSearch]) -> List[_FaultSearch]:
        """Expand one BFS level of each search that fits under
        :data:`EXACT_BATCH_PAIRS`; returns the searches advanced."""
        held = sum(len(search.keys) for search in live)
        advanced: List[_FaultSearch] = []
        rows: List[Tuple[_FaultSearch, int]] = []
        for search in live:
            growth = min(
                (search.end - search.start) * len(self.alphabet),
                self.max_pairs - len(search.keys),
            )
            if advanced and held + growth > EXACT_BATCH_PAIRS:
                continue  # waits for a later level, its pairs kept
            held += growth
            advanced.append(search)
            for pair in range(search.start, search.end):
                if search.status is not None:
                    break
                rows.append((search, pair))
                if len(rows) == self.rows_per_step:
                    self._step(rows)
                    rows = []
        if rows:
            self._step(rows)
        return advanced

    def _step(self, rows: Sequence[Tuple[_FaultSearch, int]]) -> None:
        """Expand ``rows`` under the whole alphabet in one compiled step."""
        width = len(rows)
        layout = self._layouts.get(width)
        if layout is None:
            layout = self._layouts[width] = chunk_lanes(
                width, self.alphabet, self.num_inputs
            )
        mask, tile, inputs = layout
        r = self.num_registers
        planes = key_planes([search.keys[pair] for search, pair in rows], self.num_planes)
        good = tuple((planes[j] * tile, planes[r + j] * tile) for j in range(r))
        faulty = tuple(
            (planes[2 * r + j] * tile, planes[3 * r + j] * tile) for j in range(r)
        )
        sa1, sa0 = self.stepper.blank_injection_masks()
        segments = []
        first = 0
        while first < width:
            search = rows[first][0]
            end = first + 1
            while end < width and rows[end][0] is search:
                end += 1
            segments.append((search, first, end))
            lanes = (((1 << (end - first)) - 1) << first) * tile
            slot = self.stepper.line_slot[search.fault.line]
            if search.fault.value:
                sa1[slot] |= lanes
            else:
                sa0[slot] |= lanes
            first = end
        good_out, good_next = self.stepper.step_clean(good, inputs, mask)
        faulty_out, faulty_next = self.stepper.step_inject(
            faulty, inputs, mask, sa1, sa0
        )
        detect = 0
        for (good_one, good_zero), (faulty_one, faulty_zero) in zip(good_out, faulty_out):
            detect |= (good_one & faulty_zero) | (good_zero & faulty_one)
        next_keys = StepKeys(
            [one for one, _ in good_next]
            + [zero for _, zero in good_next]
            + [one for one, _ in faulty_next]
            + [zero for _, zero in faulty_next],
            width * len(self.alphabet),
        )
        for search, first, end in segments:
            self._absorb(search, rows, first, end, detect, tile, next_keys)

    def _absorb(self, search, rows, first, end, detect, tile, next_keys: StepKeys) -> None:
        """Fold rows ``[first, end)`` of one fault into its search, in
        order: a detecting row ends it, otherwise the row's successors are
        interned, and a pair past the cap ends it undecided."""
        width = len(rows)
        size = len(self.alphabet)
        hit_row = end
        if detect:
            for row in range(first, end):
                lanes = (detect >> row) & tile
                if lanes:
                    hit_row = row
                    hit_vector = ((lanes & -lanes).bit_length() - 1) // width
                    break
        successors: List = []
        for row in range(first, hit_row):
            successors += next_keys.lanes[row::width]
        room = self.max_pairs - len(search.keys)
        position = -1
        count = 0
        for compressed in dict.fromkeys(successors):
            key = next_keys.full(compressed)
            if key in search.index:
                continue
            position = successors.index(compressed, position + 1)
            pair = rows[first + position // size][1]
            if count == room:
                search.status = "cap"
                search.expanded = pair + 1
                return
            count += 1
            search.index[key] = len(search.keys)
            search.keys.append(key)
            search.parents.append((pair, position % size))
        if hit_row < end:
            pair = rows[hit_row][1]
            search.status = "det"
            search.hit = (pair, hit_vector)
            search.expanded = pair + 1


def iter_exact(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    lane_cap: int,
    skip: Callable[[StuckAtFault], bool] = lambda fault: False,
) -> Iterator[Tuple[StuckAtFault, ExactOutcome]]:
    """``(fault, outcome)`` for the faults of ``faults``, in order.

    Faults are searched in batches of :data:`EXACT_FAULT_BATCH`; a batch
    is formed only once the caller has consumed the previous one, so
    ``skip`` (consulted per fault at batch formation) can drop faults the
    caller's earlier tests already detect.
    """
    search = ProductSearch(circuit, lane_cap)
    position = 0
    while position < len(faults):
        batch: List[StuckAtFault] = []
        while position < len(faults) and len(batch) < EXACT_FAULT_BATCH:
            fault = faults[position]
            position += 1
            if not skip(fault):
                batch.append(fault)
        yield from zip(batch, search.run(batch))


__all__ = [
    "EXACT_BATCH_PAIRS",
    "EXACT_FAULT_BATCH",
    "EXACT_MAX_INPUTS",
    "ExactOutcome",
    "ProductSearch",
    "StepKeys",
    "exact_applicable",
    "iter_exact",
    "key_planes",
    "lane_keys",
]
