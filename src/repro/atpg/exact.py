"""Exact sequential ATPG: a product-machine search over input cubes.

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

**Cube lanes.**  A *row* -- one (fault, pair) -- is expanded over input
cubes, not over the alphabet.  Each step also simulates every cube's *top
extension*, in which each unassigned input carries both rails.  The
kernels compute every rail as an AND/OR of input rails, state rails and
per-call constants (NOT swaps rails), so a rail clear on the top extension
is clear under every minterm of the cube.  After a step a lane is a *leaf*
when every observed line (an output or a next-state rail, good or faulty
half) is binary on the cube, or X on its top extension and so X under
every minterm; every minterm of a leaf then gives the same successor pair
and the same detect bit, because ternary simulation is monotone.  A lane
that detects is a leaf as well: its lowest minterm detects, and the row
ends the search.  Any other lane splits on the first unassigned input of
its first group of lines (grouped by structural input support) that is
neither binary nor support-assigned, giving two lanes for a later step.
Lanes of many rows and faults share one compiled step of at most
:data:`~repro.equivalence.bitset.REACH_LANE_BLOCK` lanes: the good half
steps through ``step_clean``, the faulty half through one
:meth:`~repro.simulation.vector_codegen.VectorFastStepper.inject_step`
kernel per search, injecting at the lines of the faults searched only,
with each fault's stuck-at set in the runtime masks of its own lanes, so
no code is generated per fault or per step.

**Seeds.**  A row does not start from the all-X cube: it starts from the
*seeds* of its good state ``g`` -- the leaves of the fault-free row
``(g, g)``, expanded once per good state and kept for the run -- so only
its faulty half still splits.  A seed state whose fault-free row passes
``lane_cap`` lanes is seeded with the all-X cube alone.

**Order.**  A leaf's *index* is that of its lowest minterm (unassigned
inputs at 0) in :func:`~repro.equivalence.explicit.all_vectors` order.
Rows are finalized in pair order; a row's distinct successors are interned
in order of their lowest index, the detecting leaf of lowest index is the
row's hit, and the first row with a hit ends the search.  That is exactly
the search that enumerates every vector of every row in order, so
outcomes depend on neither the seeds, the split order, the batching nor
the leg: any partition of the alphabet into leaves gives the same
successors and hit.

**Keys.**  A pair is four rails per register (good ones, good zeros,
faulty ones, faulty zeros); its key is the ``4r``-bit Python int whose
bit ``p`` is rail plane ``p``, so keys never wrap.  Lanes and planes
convert with the bit transposes :func:`lane_keys` and :func:`key_planes`.

**Cap.**  A fault may simulate at most ``lane_cap`` lanes (lane-steps:
a row's seed lanes and their descendants), checked row by row in pair
order: the row whose lanes would pass the cap hands the fault back
undecided.  The search reads no clock of its own: a caller's
``out_of_time`` check, consulted between steps (seed expansion's
included), only stops it early.  Unless that fires, a fault's outcome is
a function of the circuit, the fault and the cap alone.

**Legs.**  The bookkeeping around the bigint kernel -- plane/lane
transposes, leaf dedup, child generation -- runs in pure Python
(:class:`_BigintLeg`, the reference) or on numpy arrays
(:class:`_NumpyLeg`) when numpy is importable.  Both give identical
outcomes.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.equivalence.bitset import REACH_LANE_BLOCK
from repro.faults.model import StuckAtFault
from repro.simulation.backends import numpy_or_none
from repro.simulation.cache import vector_fast_stepper

#: Faults searched side by side, sharing steps.  Outcomes do not depend
#: on it; only the wasted work on faults an earlier test in the batch
#: detects does.
EXACT_FAULT_BATCH = 64

#: Interned pairs a batch may hold (~200 bytes each): while the live
#: searches hold more, only the first of them launches new rows.
#: Outcomes do not depend on it.
EXACT_BATCH_PAIRS = 1 << 17

#: Generation of the search semantics, folded into every budget
#: fingerprint: bump it when the same budget can give different results.
EXACT_SEARCH_GENERATION = 4


@dataclass
class ExactOutcome:
    """One fault's search result.

    ``status`` is ``"det"`` (``sequence`` detects the fault), ``"proved"``
    (no sequence does), ``"cap"`` (undecided within the cap) or
    ``"time"`` (undecided when the caller ran out of time).
    ``lane_steps`` is the cube lanes simulated for the rows finalized,
    seed lanes included.
    """

    status: str
    sequence: Optional[List[Tuple[int, ...]]]
    lane_steps: int


# -- lane keys ---------------------------------------------------------------

#: array typecode per item size, for reading interleaved key bytes.
_WORD_CODES = {array(code).itemsize: code for code in "QLIHB"}

#: Per bit ``b``: a ``bytes.translate`` table mapping a byte to the ASCII
#: digit of its bit ``b``.
_BIT_DIGITS = [bytes(48 + (byte >> bit & 1) for byte in range(256)) for bit in range(8)]


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
    """The keys of one step's lanes, decoded from its distinct planes.

    A retimed circuit's registers often carry copies of one another, and
    many rails are constant across a step, so only the distinct
    non-constant planes go through :func:`lane_keys`.  ``lanes[l]`` is
    lane ``l``'s key in that compressed form; :meth:`full` expands one to
    the full key (a Python int), which is the same in every step.
    Expansion is injective within a step.
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
    when ``keys[s]`` has bit ``p`` set.

    Each key becomes little-endian bytes; byte ``g`` of every key is one
    strided slice, and ``translate`` turns each of its bits into one
    ASCII digit per lane, parsed back as a base-2 int.
    """
    size = (num_planes + 7) // 8
    data = b"".join([key.to_bytes(size, "little") for key in keys])
    return _byte_planes(data, size, num_planes)


def _byte_planes(data: bytes, size: int, num_planes: int) -> List[int]:
    """Planes of ``size``-byte little-endian lane records in ``data``."""
    planes = []
    for group in range(size):
        column = data[group::size][::-1]  # lane 0 last: the least significant digit
        for bit in range(min(8, num_planes - 8 * group)):
            planes.append(int(column.translate(_BIT_DIGITS[bit]), 2) if column else 0)
    return planes


# -- the search --------------------------------------------------------------


class _FaultSearch:
    """One fault's BFS: interned pairs, their parents and its open rows.

    Pairs are numbered in discovery order and finalized in that order:
    ``cursor`` is the next pair to finalize, ``launched`` the number of
    pairs whose rows went on the lane stack (``rows[p]`` is pair ``p``'s
    row id), and rows at or past ``horizon`` are never expanded, since the
    outcome is settled before them.  Until a row is finalized its pair
    keeps its successors (``succ``: key -> lowest index), its lowest
    detecting index (``det``) and whether it is finished (``done``).
    ``spent`` counts the lanes of finalized rows, ``inflight`` those of
    launched, unfinalized rows below the horizon.
    """

    __slots__ = (
        "slot", "index", "keys", "parents", "rows", "succ", "det", "done",
        "launched", "cursor", "horizon", "spent", "inflight", "status", "hit",
        "outcome",
    )

    def __init__(self, slot: int):
        self.slot = slot
        # Pair 0 is the root: every rail clear, all registers X in both halves.
        self.index = {0: 0}
        self.keys = [0]
        self.parents: List[Tuple[int, int]] = [(0, 0)]
        self.rows: List[int] = []
        self.succ: Dict[int, Dict[int, int]] = {}
        self.det: Dict[int, int] = {}
        self.done: Set[int] = set()
        self.launched = 0
        self.cursor = 0
        self.horizon = sys.maxsize
        self.spent = 0
        self.inflight = 0
        self.status: Optional[str] = None
        self.hit: Optional[Tuple[int, int]] = None
        self.outcome: Optional[ExactOutcome] = None


def _supports(compiled, output_names: Sequence[str]) -> Tuple[List[int], List[int]]:
    """Structural input supports of the outputs and the next-state lines,
    as bit masks in vector-index order (input ``i`` is bit ``n - 1 - i``)."""
    top = compiled.num_inputs - 1
    support = [0] * compiled.num_slots
    for op in compiled.ops:
        if op.pi_index >= 0:
            support[op.slot] = 1 << (top - op.pi_index)
        else:
            bits = 0
            for read in op.reads:
                if not read.from_register:
                    bits |= support[read.index]
            support[op.slot] = bits
    outputs = [support[compiled.slot_of[name]] for name in output_names]
    nexts = [
        0 if read.from_register else support[read.index]
        for read in compiled.register_loads
    ]
    return outputs, nexts


class ProductSearch:
    """The cube-lane (good, faulty) pair search on one circuit.

    ``faults`` are the faults it will search: the faulty half's kernel
    injects at their lines and is compiled once, on the first faulty step.
    A fault on another line widens it (compiling it again).
    """

    def __init__(
        self,
        circuit: Circuit,
        lane_cap: int,
        faults: Iterable[StuckAtFault] = (),
    ):
        self.stepper = vector_fast_stepper(circuit)
        self._inject_slots = {self.stepper.line_slot[fault.line] for fault in faults}
        self._step_inject: Optional[Callable] = None
        compiled = self.stepper.compiled
        self.num_registers = compiled.num_registers
        self.num_inputs = compiled.num_inputs
        self.num_planes = 4 * self.num_registers
        self.lane_cap = lane_cap
        # Observed lines (outputs, then next-state lines) grouped by
        # support, smallest support first: an open lane splits on an input
        # of its first group neither binary nor support-assigned.  Lines
        # with no input support never split.
        outputs, nexts = _supports(compiled, circuit.output_names)
        groups: Dict[int, List[int]] = {}
        for line, bits in enumerate(outputs + nexts):
            if bits:
                groups.setdefault(bits, []).append(line)
        top = self.num_inputs - 1
        self._groups = [
            ([top - i for i in range(self.num_inputs) if bits >> (top - i) & 1], lines)
            for bits, lines in sorted(
                groups.items(), key=lambda item: (bin(item[0]).count("1"), -item[0])
            )
        ]
        # A key's low 2r bits are its good half.
        self.good_mask = (1 << 2 * self.num_registers) - 1
        # Good half -> seed cubes (``assigned << n | value`` each), kept
        # for every batch of the run.
        self.seeds: Dict[int, List[int]] = {}

    # -- one step ------------------------------------------------------------

    def evaluate(
        self,
        state: Sequence[int],
        assigned: Sequence[int],
        values: Sequence[int],
        injections: Optional[Sequence[Tuple[StuckAtFault, int]]],
        lanes: int,
    ) -> Tuple[List[int], int, int, List[int]]:
        """One compiled step of ``lanes`` cube lanes.

        ``state`` holds the ``4r`` key planes of each lane's pair,
        ``assigned``/``values`` the cube planes per input bit (bit ``b`` is
        input ``n - 1 - b``), ``injections`` one ``(fault, lane mask)``
        per fault present, or ``None`` for fault-free rows ``(g, g)``,
        whose faulty half is then not simulated.  Returns
        ``(next_planes, leaf, detect, picks)``: the ``4r`` key planes of
        the successors, the leaf and detect lanes, and per input bit the
        non-leaf lanes that split on it.

        The kernels run on ``2 * lanes`` lanes: lane ``lanes + l`` is lane
        ``l``'s top extension, the same state with both rails set on every
        input the cube leaves free.
        """
        mask = (1 << lanes) - 1
        wide = mask << lanes | mask
        r = self.num_registers

        def twice(ones, zeros):
            return tuple(
                (one | one << lanes, zero | zero << lanes) for one, zero in zip(ones, zeros)
            )

        good = twice(state[:r], state[r : 2 * r])
        top = self.num_inputs - 1
        inputs = []
        for i in range(self.num_inputs):
            one = values[top - i]
            zero = assigned[top - i] & ~one
            free = mask & ~assigned[top - i]
            inputs.append((one | (one | free) << lanes, zero | (zero | free) << lanes))
        inputs = tuple(inputs)
        stepper = self.stepper
        good_out, good_next = stepper.step_clean(good, inputs, wide)
        if injections is None:
            faulty_out, faulty_next = good_out, good_next
        else:
            faulty = twice(state[2 * r : 3 * r], state[3 * r :])
            slots = [stepper.line_slot[fault.line] for fault, _lanes in injections]
            if self._step_inject is None or not self._inject_slots.issuperset(slots):
                self._inject_slots.update(slots)
                self._step_inject = stepper.inject_step(self._inject_slots)
            sa1, sa0 = stepper.blank_injection_masks()
            for slot, (fault, lane_mask) in zip(slots, injections):
                if fault.value:
                    sa1[slot] |= lane_mask | lane_mask << lanes
                else:
                    sa0[slot] |= lane_mask | lane_mask << lanes
            faulty_out, faulty_next = self._step_inject(faulty, inputs, wide, sa1, sa0)
        detect = 0
        for (good_one, good_zero), (faulty_one, faulty_zero) in zip(good_out, faulty_out):
            detect |= (good_one & faulty_zero) | (good_zero & faulty_one)
        detect &= mask
        # Per observed line, the lanes binary in both halves; a lane is
        # settled when each half of each line is binary on the cube or X
        # on the top extension.
        known = []
        settled = mask
        for (good_one, good_zero), (faulty_one, faulty_zero) in [
            *zip(good_out, faulty_out),
            *zip(good_next, faulty_next),
        ]:
            good_rails = good_one | good_zero
            faulty_rails = faulty_one | faulty_zero
            known.append(good_rails & faulty_rails)
            settled &= good_rails | ~(good_rails >> lanes)
            settled &= faulty_rails | ~(faulty_rails >> lanes)
        open_lanes = mask & ~(detect | settled)
        split = 0
        picks = [0] * self.num_inputs
        for bits, lines in self._groups:
            if not open_lanes:
                break
            resolved = mask
            for line in lines:
                resolved &= known[line]
            unknown = open_lanes & ~resolved
            if not unknown:
                continue
            covered = unknown
            for bit in bits:
                covered &= assigned[bit]
            # X lanes whose support is not all assigned split on the
            # first unassigned input of the support.
            pending = unknown ^ covered
            open_lanes ^= pending
            split |= pending
            for bit in bits:
                if not pending:
                    break
                pick = pending & ~assigned[bit]
                picks[bit] |= pick
                pending ^= pick
        leaf = mask ^ split
        next_planes = (
            [one & mask for one, _ in good_next]
            + [zero & mask for _, zero in good_next]
            + [one & mask for one, _ in faulty_next]
            + [zero & mask for _, zero in faulty_next]
        )
        return next_planes, leaf, detect, picks

    def _seed(self, goods: Iterable[int], out_of_time: Callable[[], bool]) -> bool:
        """Expand the fault-free row ``(g, g)`` of each good half ``g`` of
        ``goods`` not yet seeded, all of them in shared steps, and keep
        its leaves in :attr:`seeds`.  A state whose row passes
        ``lane_cap`` lanes gets the all-X cube alone.  Returns ``False``,
        leaving the unfinished states unseeded, once ``out_of_time()``
        holds before a step."""
        new = [good for good in dict.fromkeys(goods) if good not in self.seeds]
        if not new:
            return True
        n = self.num_inputs
        shift = 2 * n
        cube_mask = (1 << shift) - 1
        leaf_flag = 1 << n
        bits = shift + 2 * self.num_registers
        size = (bits + 7) // 8
        # Leaves so far per state; None once its row passed the cap.
        leaves: Dict[int, Optional[List[int]]] = {good: [] for good in new}
        lanes = dict.fromkeys(new, 0)
        # A lane is its good half over its cube, on a stack like the legs'.
        stack = [good << shift for good in new]
        while stack:
            if out_of_time():
                return False
            batch = stack[-REACH_LANE_BLOCK:]
            del stack[-REACH_LANE_BLOCK:]
            batch = [lane for lane in batch if leaves[lane >> shift] is not None]
            if not batch:
                continue
            planes = _byte_planes(
                b"".join([lane.to_bytes(size, "little") for lane in batch]), size, bits
            )
            good = planes[shift:]
            _next, leaf, _detect, picks = self.evaluate(
                good + good, planes[n:shift], planes[:n], None, len(batch)
            )
            codes = lane_keys(picks + [leaf], len(batch))
            if n + 1 > 64:
                codes = list(map(_as_int, codes))
            for lane, code in zip(batch, codes):
                state = lane >> shift
                lanes[state] += 1
                if code == leaf_flag:
                    leaves[state].append(lane & cube_mask)
                else:
                    stack += [lane | code << n, lane | code << n | code]
            for state in {lane >> shift for lane in batch}:
                if lanes[state] > self.lane_cap:
                    leaves[state] = None
        for good in new:
            self.seeds[good] = leaves[good] if leaves[good] is not None else [0]
        return True

    # -- the loop ------------------------------------------------------------

    def run(
        self,
        faults: Sequence[StuckAtFault],
        out_of_time: Callable[[], bool] = lambda: False,
    ) -> List[ExactOutcome]:
        """Search every fault of ``faults`` side by side; once
        ``out_of_time()`` holds before a step, the undecided ones stop
        with status ``"time"``."""
        searches = [_FaultSearch(slot) for slot in range(len(faults))]
        if self.lane_cap < 1:
            for search in searches:
                search.status = "cap"
                self._decide(search)
            return [search.outcome for search in searches]
        self.faults = list(faults)
        leg = (_NumpyLeg if numpy_or_none() is not None else _BigintLeg)(self)
        live = list(searches)
        while live:
            if out_of_time() or not self._launch(live, leg, out_of_time):
                for search in live:
                    search.status = "time"
                    self._decide(search)
                break
            finished, successors, detections, lanes_by_slot = leg.step()
            if not lanes_by_slot:
                raise RuntimeError("exact search stalled with undecided faults")
            for slot, count in lanes_by_slot.items():
                searches[slot].inflight += count
            for slot, pair, key, lowest in successors:
                search = searches[slot]
                succ = search.succ.get(pair)
                if succ is None:
                    search.succ[pair] = {key: lowest}
                else:
                    known = succ.get(key)
                    if known is None or lowest < known:
                        succ[key] = lowest
            for slot, pair, lowest in detections:
                search = searches[slot]
                if pair < search.horizon:
                    known = search.det.get(pair)
                    if known is None or lowest < known:
                        search.det[pair] = lowest
                    # Rows after a detecting one never matter.
                    self._cut(search, pair + 1, leg)
            for slot, pair in finished:
                search = searches[slot]
                if pair < search.horizon:
                    search.done.add(pair)
            for slot in lanes_by_slot:
                self._advance(searches[slot], leg)
            live = [search for search in live if search.status is None]
        return [search.outcome for search in searches]

    def _launch(self, live: List[_FaultSearch], leg, out_of_time: Callable[[], bool]) -> bool:
        """Put the rows of the live searches' pairs not yet launched on
        the stack, in one leg call, once their good states are seeded.
        While the live searches hold more than :data:`EXACT_BATCH_PAIRS`
        pairs, only the first of them launches.  Returns ``False`` when
        the clock stopped the seeding."""
        held = sum(len(search.keys) for search in live)
        spans = []
        for position, search in enumerate(live):
            if position and held > EXACT_BATCH_PAIRS:
                break  # the rest wait, their pairs kept
            end = min(len(search.keys), search.horizon)
            if search.launched < end:
                spans.append((search, range(search.launched, end)))
        if not spans:
            return True
        keys = [key for search, pairs in spans for key in search.keys[pairs.start : pairs.stop]]
        if not self._seed([key & self.good_mask for key in keys], out_of_time):
            return False
        first = leg.launch(
            [search.slot for search, pairs in spans for _ in pairs],
            [pair for _search, pairs in spans for pair in pairs],
            keys,
        )
        for search, pairs in spans:
            search.rows.extend(range(first, first + len(pairs)))
            first += len(pairs)
            search.launched = pairs.stop
        return True

    def _cut(self, search: _FaultSearch, pair: int, leg) -> None:
        """Never expand ``search``'s rows from ``pair`` on (all unfinalized)."""
        if pair >= search.horizon:
            return
        end = min(search.launched, search.horizon)
        dropped = search.rows[pair:end]
        search.horizon = pair
        search.inflight -= sum(leg.lanes(row) for row in dropped)
        leg.kill(dropped)
        for gone in range(pair, end):
            search.succ.pop(gone, None)
            search.det.pop(gone, None)
            search.done.discard(gone)

    def _advance(self, search: _FaultSearch, leg) -> None:
        """Finalize ``search``'s finished rows in pair order, then settle
        where the cap falls inside its launched rows."""
        self._finalize(search, leg)
        cap = self.lane_cap
        if search.status is None and search.spent + search.inflight > cap:
            # The first row whose lanes so far pass the cap settles the
            # outcome at or before it; rows after it never matter.
            total = search.spent
            for pair in range(search.cursor, search.launched):
                total += leg.lanes(search.rows[pair])
                if total > cap:
                    self._cut(search, pair, leg)
                    break
            self._finalize(search, leg)
        if search.status is not None:
            self._cut(search, search.cursor, leg)
            self._decide(search)

    def _finalize(self, search: _FaultSearch, leg) -> None:
        cap = self.lane_cap
        while search.status is None:
            pair = search.cursor
            if pair == len(search.keys):
                search.status = "proved"
                break
            if pair >= search.horizon:
                search.status = "cap"
                break
            if pair >= search.launched:
                break
            lanes = leg.lanes(search.rows[pair])
            if search.spent + lanes > cap:
                search.status = "cap"
                break
            if pair not in search.done:
                break
            search.done.discard(pair)
            search.spent += lanes
            search.inflight -= lanes
            hit = search.det.pop(pair, None)
            if hit is not None:
                search.status = "det"
                search.hit = (pair, hit)
                break
            for key, lowest in sorted(search.succ.pop(pair, {}).items(), key=itemgetter(1)):
                if key not in search.index:
                    search.index[key] = len(search.keys)
                    search.keys.append(key)
                    search.parents.append((pair, lowest))
            search.cursor += 1

    def _decide(self, search: _FaultSearch) -> None:
        """Record a decided search's outcome and free its pairs."""
        if search.status == "det":
            pair, vector = search.hit
            path = [vector]
            while pair:
                pair, vector = search.parents[pair]
                path.append(vector)
            top = self.num_inputs - 1
            sequence = [
                tuple(index >> (top - i) & 1 for i in range(self.num_inputs))
                for index in reversed(path)
            ]
            search.outcome = ExactOutcome("det", sequence, search.spent)
        else:
            search.outcome = ExactOutcome(search.status, None, search.spent)
        search.index = search.keys = search.parents = search.rows = None
        search.succ = search.det = search.done = None


# -- bookkeeping legs --------------------------------------------------------


class _BigintLeg:
    """Pure-Python bookkeeping.  A lane is one int -- row id, pair key,
    assigned bits, value bits, from the top -- on a list stack; its low
    bits go through :func:`_byte_planes` into the step's planes, which
    come back through :func:`lane_keys`."""

    def __init__(self, search: ProductSearch):
        self.search = search
        n = search.num_inputs
        self.key_shift = 2 * n
        self.row_shift = 2 * n + search.num_planes
        self.low_mask = (1 << self.row_shift) - 1
        self.value_mask = (1 << n) - 1
        self.size = max(1, (self.row_shift + 7) // 8)
        self.stack: List[int] = []
        # Launched rows not yet fully taken: [[(row lane bits, seed
        # cubes)], next row, next seed], unrolled into lanes as steps take
        # them.
        self.fresh: deque = deque()
        self.row_slot = array("h")
        self.row_pair = array("q")
        self.row_lanes = array("q")
        self.row_pending = array("q")
        self.alive = bytearray()
        self.dead = False

    def launch(self, slots: Sequence[int], pairs: Sequence[int], keys: Sequence[int]) -> int:
        """Rows for ``(slots[k], pairs[k])`` with pair keys ``keys[k]``,
        numbered from the returned id on, each pending its seeds."""
        first = len(self.row_slot)
        count = len(keys)
        seeds = self.search.seeds
        good = self.search.good_mask
        cubes = [seeds[key & good] for key in keys]
        self.row_slot.extend(slots)
        self.row_pair.extend(pairs)
        self.row_lanes.extend([0] * count)
        self.row_pending.extend(map(len, cubes))
        self.alive.extend(b"\x01" * count)
        planes = self.search.num_planes
        self.fresh.append(
            [
                [
                    ((first + k << planes | key) << self.key_shift, row_cubes)
                    for k, (key, row_cubes) in enumerate(zip(keys, cubes))
                ],
                0,
                0,
            ]
        )
        return first

    def kill(self, rows: Sequence[int]) -> None:
        for row in rows:
            self.alive[row] = 0
        self.dead = self.dead or bool(rows)

    def lanes(self, row: int) -> int:
        return self.row_lanes[row]

    def _take(self, width: int) -> List[int]:
        batch = self.stack[-width:]
        del self.stack[-width:]
        alive = self.alive
        shift = self.row_shift
        if self.dead:
            batch = [lane for lane in batch if alive[lane >> shift]]
        while len(batch) < width and self.fresh:
            entry = self.fresh[0]
            roots, row, seed = entry
            while row < len(roots) and len(batch) < width:
                base, cubes = roots[row]
                if alive[base >> shift]:
                    end = seed + width - len(batch)
                    batch += [base | cube for cube in cubes[seed:end]]
                    if end < len(cubes):
                        seed = end
                        continue
                row, seed = row + 1, 0
            if row == len(roots):
                self.fresh.popleft()
            else:
                entry[1:] = row, seed
        return batch

    def step(self):
        search = self.search
        n = search.num_inputs
        batch = self._take(REACH_LANE_BLOCK)
        while not batch and (self.stack or self.fresh):
            batch = self._take(REACH_LANE_BLOCK)
        if not batch:
            return [], [], [], {}
        lanes = len(batch)
        shift = self.row_shift
        row_slot, row_pair = self.row_slot, self.row_pair
        # Lanes of one fault side by side: each injection mask is one run.
        slots = [row_slot[lane >> shift] for lane in batch]
        batch = [batch[k] for k in sorted(range(lanes), key=slots.__getitem__)]
        rows = [lane >> shift for lane in batch]
        low = self.low_mask
        size = self.size
        planes = _byte_planes(
            b"".join([(lane & low).to_bytes(size, "little") for lane in batch]), size, shift
        )
        per_slot = Counter(slots)
        faults = search.faults
        injections = []
        offset = 0
        for slot, count in sorted(per_slot.items()):
            injections.append((faults[slot], ((1 << count) - 1) << offset))
            offset += count
        next_planes, leaf, detect, picks = search.evaluate(
            planes[2 * n :], planes[n : 2 * n], planes[:n], injections, lanes
        )
        # One code per lane: its split bit, or a leaf flag at bit n (with
        # the detect flag at bit n + 1).
        leaf_flag = 1 << n
        codes = lane_keys(picks + [leaf, detect], lanes)
        if n + 2 > 64:
            codes = list(map(_as_int, codes))  # wide codes come back as word tuples
        parents = [(lane | code << n, code) for lane, code in zip(batch, codes) if code < leaf_flag]
        children = [child for child, _ in parents]
        self.stack += children
        self.stack += [child | code for child, code in parents]
        value_mask = self.value_mask
        stepkeys = StepKeys(next_planes, lanes)
        compressed = stepkeys.lanes
        # Per (row, key) the lowest index: written in descending order, so
        # the lowest is written last.
        leaves = {}
        for row, key, lowest in sorted(
            [
                (rows[position], compressed[position], batch[position] & value_mask)
                for position, code in enumerate(codes)
                if code == leaf_flag
            ],
            reverse=True,
        ):
            leaves[row, key] = lowest
        successors = [
            (row_slot[row], row_pair[row], stepkeys.full(key), lowest)
            for (row, key), lowest in leaves.items()
        ]
        detected = {}
        for lowest, row in sorted(
            [(lane & value_mask, lane >> shift) for lane, code in zip(batch, codes) if code > leaf_flag],
            reverse=True,
        ):
            detected[row] = lowest
        detections = [(row_slot[row], row_pair[row], lowest) for row, lowest in detected.items()]
        for row, count in Counter([child >> shift for child in children]).items():
            self.row_pending[row] += 2 * count
        finished = []
        for row, count in Counter(rows).items():
            self.row_lanes[row] += count
            self.row_pending[row] -= count
            if not self.row_pending[row]:
                finished.append((row_slot[row], row_pair[row]))
        return finished, successors, detections, per_slot


class _NumpyLeg:
    """numpy bookkeeping: the lane stack (row, key bytes, cube words) and
    the per-row counters are arrays; the plane/lane transposes
    (:func:`_bit_transpose`), leaf dedup and child generation are array
    operations; the kernel is the same bigint step.  As in the
    pure-Python leg, a step's lanes are ordered by fault, so each
    injection mask is one run of lanes.  Keys and cubes of more than 64
    bits span several words."""

    def __init__(self, search: ProductSearch):
        import numpy as np

        self.np = np
        self.search = search
        self.key_bytes = max(1, (search.num_planes + 7) // 8)
        self.key_words = -(-self.key_bytes // 8)
        self.cube_words = max(1, -(-search.num_inputs // 64))
        cube = (0, self.cube_words)
        self.stack = {
            "rows": np.zeros(0, dtype=np.int64),
            "keys": np.zeros((0, self.key_bytes), dtype=np.uint8),
            # Cubes are little-endian words, read bit by bit through byte views.
            "assigned": np.zeros(cube, dtype="<u8"),
            "values": np.zeros(cube, dtype="<u8"),
        }
        self.size = 0
        # The seeds of every good state launched so far, one cube a row,
        # and each state's (first, count) in them.
        self.seeds = {"assigned": np.zeros(cube, dtype="<u8"), "values": np.zeros(cube, dtype="<u8")}
        self.seed_span: Dict[int, Tuple[int, int]] = {}
        # Launched rows not yet fully taken, unrolled into lanes as steps
        # take them (see :meth:`_unroll`).
        self.fresh: deque = deque()
        self.kills = 0
        self.rows = 0
        self.table = {
            "slot": np.zeros(0, dtype=np.int16),
            "pair": np.zeros(0, dtype=np.int64),
            "lanes": np.zeros(0, dtype=np.int64),
            "pending": np.zeros(0, dtype=np.int64),
            "alive": np.zeros(0, dtype=bool),
        }

    def _spans(self, keys: Sequence[int]):
        """Per key, the (first, count) of its good state's seeds."""
        np = self.np
        good = self.search.good_mask
        spans = self.seed_span
        new = [state for state in dict.fromkeys(key & good for key in keys) if state not in spans]
        if new:
            first = len(self.seeds["assigned"])
            for state in new:
                spans[state] = (first, len(self.search.seeds[state]))
                first += spans[state][1]
            cubes = [cube for state in new for cube in self.search.seeds[state]]
            n = self.search.num_inputs
            size = 8 * self.cube_words
            for name, half in (("assigned", [cube >> n for cube in cubes]),
                               ("values", [cube & ((1 << n) - 1) for cube in cubes])):
                words = _int_rows(np, half, size).view("<u8")
                self.seeds[name] = np.concatenate([self.seeds[name], words])
        return np.array([spans[key & good] for key in keys], dtype=np.int64).reshape(-1, 2)

    def launch(self, slots: Sequence[int], pairs: Sequence[int], keys: Sequence[int]) -> int:
        """Rows for ``(slots[k], pairs[k])`` with pair keys ``keys[k]``,
        numbered from the returned id on, each pending its seeds."""
        np = self.np
        first = self.rows
        count = len(keys)
        end = first + count
        table = self.table
        if end > len(table["slot"]):
            capacity = max(end, len(table["slot"]) * 3 // 2, 1024)
            for name, old in table.items():
                table[name] = np.zeros(capacity, dtype=old.dtype)
                table[name][:first] = old[:first]
        spans = self._spans(keys)
        table["slot"][first:end] = slots
        table["pair"][first:end] = pairs
        table["pending"][first:end] = spans[:, 1]
        table["alive"][first:end] = True
        self.rows = end
        self.fresh.append(
            self._entry(
                np.arange(first, end, dtype=np.int64),
                _int_rows(np, keys, self.key_bytes),
                spans[:, 0],
                spans[:, 1],
            )
        )
        return first

    def _entry(self, rows, keys, starts, counts) -> Dict:
        """A fresh entry: rows whose lanes are their seed cubes
        ``starts[k] : starts[k] + counts[k]``, the first ``taken`` of
        them (in row order) already taken."""
        ends = self.np.cumsum(counts)
        return {
            "rows": rows, "keys": keys, "starts": starts, "counts": counts,
            "ends": ends, "base": starts - ends + counts, "taken": 0, "kills": self.kills,
        }

    def _unroll(self, entry, width: int):
        """Up to ``width`` lanes of the live rows of a fresh entry, or
        ``None`` once it has no more."""
        np = self.np
        if entry["kills"] != self.kills:
            # Drop rows killed since: restart the entry at its next lane.
            taken = entry["taken"]
            skip = int(np.searchsorted(entry["ends"], taken, side="right"))
            starts = entry["starts"][skip:].copy()
            counts = entry["counts"][skip:].copy()
            if len(counts):
                done = taken - int(entry["ends"][skip] - entry["counts"][skip])
                starts[0] += done
                counts[0] -= done
            rows = entry["rows"][skip:]
            keep = self.table["alive"][rows]
            entry.update(
                self._entry(rows[keep], entry["keys"][skip:][keep], starts[keep], counts[keep])
            )
        ends = entry["ends"]
        taken = entry["taken"]
        if not len(ends) or taken == ends[-1]:
            return None
        lane = np.arange(taken, min(taken + width, int(ends[-1])))
        entry["taken"] = taken + len(lane)
        row = np.searchsorted(ends, lane, side="right")
        cube = entry["base"][row] + lane
        return {
            "rows": entry["rows"][row],
            "keys": entry["keys"][row],
            "assigned": self.seeds["assigned"][cube],
            "values": self.seeds["values"][cube],
        }

    def kill(self, rows: Sequence[int]) -> None:
        if rows:
            self.table["alive"][rows] = False
            self.kills += 1

    def lanes(self, row: int) -> int:
        return int(self.table["lanes"][row])

    def _push(self, **columns) -> None:
        np = self.np
        stack = self.stack
        need = self.size + len(columns["rows"])
        if need > len(stack["rows"]):
            capacity = max(need, 2 * len(stack["rows"]), 1 << 14)
            for name, old in stack.items():
                stack[name] = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
                stack[name][: self.size] = old[: self.size]
        for name, column in columns.items():
            stack[name][self.size : need] = column
        self.size = need

    def _take(self, width: int):
        np = self.np
        low = max(0, self.size - width)
        lanes = {name: column[low : self.size] for name, column in self.stack.items()}
        self.size = low
        keep = self.table["alive"][lanes["rows"]]
        if not keep.all():
            lanes = {name: column[keep] for name, column in lanes.items()}
        parts = [lanes]
        taken = len(lanes["rows"])
        while taken < width and self.fresh:
            part = self._unroll(self.fresh[0], width - taken)
            if part is None:
                self.fresh.popleft()
            else:
                parts.append(part)
                taken += len(part["rows"])
        if len(parts) == 1:
            return lanes
        return {name: np.concatenate([part[name] for part in parts]) for name in lanes}

    def step(self):
        np = self.np
        search = self.search
        n = search.num_inputs
        r4 = search.num_planes
        lanes = self._take(REACH_LANE_BLOCK)
        while not len(lanes["rows"]) and (self.size or self.fresh):
            lanes = self._take(REACH_LANE_BLOCK)
        count = len(lanes["rows"])
        if not count:
            return [], [], [], {}
        table = self.table
        # Lanes of one fault side by side: each injection mask is one run.
        slots = table["slot"][lanes["rows"]]
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        lanes = {name: column[order] for name, column in lanes.items()}
        rows, assigned, values = lanes["rows"], lanes["assigned"], lanes["values"]
        nbytes = (count + 7) // 8
        key_bytes = self.key_bytes
        cube_bytes = (n + 7) // 8
        # Lane records (key bytes, assigned bytes, value bytes), padded to
        # whole bytes of lanes, transpose to planes.
        records = np.zeros((8 * nbytes, key_bytes + 2 * cube_bytes), dtype=np.uint8)
        records[:count, :key_bytes] = lanes["keys"]
        records[:count, key_bytes : key_bytes + cube_bytes] = assigned.view(np.uint8)[:, :cube_bytes]
        records[:count, key_bytes + cube_bytes :] = values.view(np.uint8)[:, :cube_bytes]
        data = _bit_transpose(np, records).tobytes()
        first_cube = 8 * key_bytes
        used = list(range(r4)) + [
            first_cube + 8 * cube_bytes * half + bit for half in (0, 1) for bit in range(n)
        ]
        planes = [int.from_bytes(data[k * nbytes : (k + 1) * nbytes], "little") for k in used]
        per_slot = np.bincount(slots)
        present = np.flatnonzero(per_slot)
        sizes = per_slot[present]
        offsets = np.cumsum(sizes) - sizes
        injections = [
            (search.faults[slot], ((1 << size) - 1) << offset)
            for slot, size, offset in zip(present.tolist(), sizes.tolist(), offsets.tolist())
        ]
        next_planes, leaf, detect, picks = search.evaluate(
            planes[:r4], planes[r4 : r4 + n], planes[r4 + n :], injections, count
        )
        # Back to lane records: next key bytes, a flag byte (leaf, detect),
        # and the split bit as cube bytes.
        blank = [0] * 8
        out = b"".join(
            plane.to_bytes(nbytes, "little")
            for plane in next_planes + blank[: 8 * key_bytes - r4] + [leaf, detect] + blank[:6]
            + picks + blank[: 8 * cube_bytes - n]
        )
        out = _bit_transpose(np, np.frombuffer(out, dtype=np.uint8).reshape(-1, nbytes))[:count]
        flags = out[:, key_bytes]
        is_leaf = (flags & 1).astype(bool)
        is_det = (flags & 2).astype(bool)
        # Children: each split lane twice, with its pick bit assigned.
        split = ~is_leaf
        split_rows = rows[split]
        chosen = _words(np, out[split, key_bytes + 1 :], self.cube_words)
        split_keys = lanes["keys"][split]
        child_assigned = assigned[split] | chosen
        child_values = values[split]
        self._push(
            rows=np.concatenate([split_rows, split_rows]),
            keys=np.concatenate([split_keys, split_keys]),
            assigned=np.concatenate([child_assigned, child_assigned]),
            values=np.concatenate([child_values | chosen, child_values]),
        )
        detections = self._owners(rows[is_det], _word_ints(values[is_det]))
        keep = is_leaf & ~is_det
        successors = self._successors(
            rows[keep], values[keep], _words(np, out[keep, :key_bytes], self.key_words)
        )
        touched, counts = np.unique(rows, return_counts=True)
        table["lanes"][touched] += counts
        table["pending"][touched] -= counts
        np.add.at(table["pending"], split_rows, 2)
        finished = self._owners(touched[table["pending"][touched] == 0])
        return finished, successors, detections, dict(zip(present.tolist(), sizes.tolist()))

    def _owners(self, rows, *columns) -> List[Tuple]:
        """``(slot, pair, *column values)`` per row of ``rows``."""
        table = self.table
        return list(zip(table["slot"][rows].tolist(), table["pair"][rows].tolist(), *columns))

    def _successors(self, rows, values, keys):
        """``(slot, pair, key, lowest index)`` per distinct (row, key) of
        the leaves."""
        np = self.np
        if not len(rows):
            return []
        r4, n = self.search.num_planes, self.search.num_inputs
        low = rows.min()
        if int(rows.max() - low).bit_length() + r4 + n <= 64:
            # One sort of (row, key, value) words: the first of each
            # (row, key) run holds its lowest value.
            key_shift, value_shift = np.uint64(r4), np.uint64(n)
            words = (rows - low).astype(np.uint64) << key_shift | keys[:, 0]
            words = np.sort(words << value_shift | values[:, 0])
            heads = words >> value_shift
            first = np.ones(len(words), dtype=bool)
            first[1:] = heads[1:] != heads[:-1]
            words, heads = words[first], heads[first]
            return self._owners(
                (heads >> key_shift).astype(np.int64) + low,
                (heads & np.uint64((1 << r4) - 1)).tolist(),
                (words & np.uint64((1 << n) - 1)).tolist(),
            )
        # Rows, then keys, then values, the low value word least significant.
        order = np.lexsort(tuple(values.T) + tuple(keys.T) + (rows,))
        rows = rows[order]
        keys = keys[order]
        values = values[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
        return self._owners(rows[first], _word_ints(keys[first]), _word_ints(values[first]))


def _bit_transpose(np, matrix):
    """The bit transpose of a uint8 matrix of ``8R`` rows and ``C`` byte
    columns (bit ``b`` of byte ``c`` is bit column ``8c + b``): ``8C``
    rows of ``R`` bytes, bit ``b`` of byte ``j`` of row ``k`` being bit
    column ``k`` of row ``8j + b``.  Each 8x8 bit block is one word,
    transposed by three delta swaps."""
    groups, columns = matrix.shape[0] // 8, matrix.shape[1]
    words = np.ascontiguousarray(matrix.reshape(groups, 8, columns).transpose(0, 2, 1))
    words = words.view("<u8")
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0)):
        swap = (words ^ words >> np.uint64(shift)) & np.uint64(mask)
        words = words ^ swap ^ swap << np.uint64(shift)
    blocks = words.astype("<u8", copy=False).view(np.uint8).reshape(groups, columns, 8)
    return np.ascontiguousarray(blocks.transpose(1, 2, 0)).reshape(8 * columns, groups)


def _int_rows(np, values: Sequence[int], size: int):
    """Python ints as rows of ``size`` little-endian bytes."""
    data = b"".join([value.to_bytes(size, "little") for value in values])
    return np.frombuffer(data, dtype=np.uint8).reshape(len(values), size)


def _words(np, data, count: int):
    """Rows of little-endian bytes as rows of ``count`` 64-bit words."""
    words = np.zeros((len(data), 8 * count), dtype=np.uint8)
    words[:, : data.shape[1]] = data
    return words.view("<u8")


def _word_ints(words) -> List[int]:
    """Python ints of the rows of an array of little-endian 64-bit words."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def iter_exact(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    lane_cap: int,
    skip: Callable[[StuckAtFault], bool] = lambda fault: False,
    out_of_time: Callable[[], bool] = lambda: False,
) -> Iterator[Tuple[StuckAtFault, ExactOutcome]]:
    """``(fault, outcome)`` for the faults of ``faults``, in order.

    Faults are searched in batches of :data:`EXACT_FAULT_BATCH`; a batch
    is formed only once the caller has consumed the previous one, so
    ``skip`` (consulted per fault at batch formation) can drop faults the
    caller's earlier tests already detect.  Once ``out_of_time()`` holds,
    every fault not yet decided comes back with status ``"time"``.
    """
    search = ProductSearch(circuit, lane_cap, faults)
    position = 0
    while position < len(faults):
        batch: List[StuckAtFault] = []
        while position < len(faults) and len(batch) < EXACT_FAULT_BATCH:
            fault = faults[position]
            position += 1
            if not skip(fault):
                batch.append(fault)
        yield from zip(batch, search.run(batch, out_of_time))


__all__ = [
    "EXACT_BATCH_PAIRS",
    "EXACT_FAULT_BATCH",
    "EXACT_SEARCH_GENERATION",
    "ExactOutcome",
    "ProductSearch",
    "StepKeys",
    "iter_exact",
    "key_planes",
    "lane_keys",
]
