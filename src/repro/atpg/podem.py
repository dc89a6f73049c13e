"""Deterministic sequential test generation: PODEM over time frames.

The classic structural approach of HITEC-family ATPGs, in simplified form:

* the circuit is expanded over ``T`` time frames with the all-X initial
  state in frame 0 (no global reset);
* decisions are binary assignments to primary inputs of specific frames,
  found by *backtracing* an objective through gates and across registers
  (crossing a register moves the objective one frame earlier);
* after every decision both the fault-free and the faulty machine are
  re-simulated in three-valued logic; a fault is detected when some
  primary output in some frame carries complementary binary values;
* conflicts trigger chronological backtracking with a per-fault backtrack
  limit (aborted faults count against fault efficiency, as in HITEC);
* frame counts increase iteratively (1, 2, ..., max_frames) so short tests
  are found quickly and deep state justification is attempted only when
  needed.

Objectives follow PODEM's two-phase scheme: first *excite* the fault
(drive the faulted line, in the good machine, to the complement of the
stuck value at a frame from which the effect can still reach frame T-1),
then *propagate* by picking a D-frontier gate -- a gate with a provable
good/faulty difference on an input and an undetermined output -- and
setting one of its unknown inputs to the gate's non-controlling value.

The search resimulates on the
:class:`~repro.simulation.dual_codegen.DualFastStepper` kernel: one
compiled pass per frame steps *both* machines over two-plane (value/care)
bitmasks and returns the detection / difference / prune verdicts as lane
masks, so the per-decision checks are O(frames recomputed) boolean merges
instead of O(frames x slots) Python scans.  On top of the packed pass the
engine adds

* **branch-lane lookahead** -- every decision is simulated with its
  complement packed into a second bit lane, so flipping the decision on
  backtrack reuses the already-computed lane instead of resimulating; and
* **incremental resimulation** -- per-frame records carry the machine
  states they were computed from, and a resimulation that reconverges to
  the previous trajectory (equal entering states, unchanged inputs) adopts
  the remaining suffix of records instead of recomputing it, while
  cumulative per-frame flags make the detection and effect-alive checks
  O(1) per decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuit.netlist import Circuit, LineRef
from repro.circuit.types import GateType, NodeKind
from repro.faults.model import StuckAtFault
from repro.logic.three_valued import ONE, Trit, X, ZERO, t_not
from repro.atpg.budget import EffortMeter
from repro.simulation.cache import compiled_circuit, dual_fast_stepper


@dataclass
class PodemResult:
    """Outcome for one targeted fault."""

    detected: bool
    sequence: Optional[List[Tuple[Trit, ...]]]
    backtracks: int
    aborted: bool
    frames_used: int


# Field order of one DualFastStepper.step_dual result.
_GV, _GC, _BV, _BC, _GN, _BN, _DET, _VDIFF, _SDIFF, _SAME = range(10)


class _DualMachine:
    """Resimulation state: packed lanes, cached verdicts.

    Lane 0 carries the search's actual trajectory; lane 1 carries the
    complement of the most recent decision (the branch a backtrack would
    flip to).  ``self.active`` tracks, per frame, which lane is the real
    one -- flipping a speculated decision just switches the active lane
    for the suffix, with zero simulation.
    """

    WIDTH = 2
    MASK = 3

    def __init__(self, engine: "PodemEngine", fault: StuckAtFault, inputs, meter):
        stepper = engine.dual
        self.step = stepper.step_dual
        # Per-fault frame memo, shared across escalation levels (the engine
        # resets it per generate()).  Chronological backtracking revisits
        # the same (entering states, packed inputs) configuration
        # constantly -- measured hit rates run above 70% -- and with the
        # fault's injection masks fixed, the step is a pure function of
        # that key, so a memoized record is bit-identical to a recomputed
        # one.
        self._memo = engine._step_memo
        self.sa1, self.sa0 = stepper.injection_masks(fault, width=self.WIDTH)
        self.inputs = inputs
        self.meter = meter
        self.num_registers = engine.num_registers
        self.records: List[Tuple] = []
        self.active: List[int] = []
        # Cumulative per-frame verdicts: _det_cum[f] != 0 iff some frame
        # <= f detects; _eff_cum[f] likewise for a live fault effect.
        self._det_cum: List[int] = []
        self._eff_cum: List[int] = []
        # Lazily materialized per-frame trit tuples and D-frontier entry
        # lists (None = not computed); invalidated exactly like the frame
        # records, so a decision at frame f never re-derives anything for
        # the untouched prefix.
        self._gvals: List[Optional[Tuple[Trit, ...]]] = []
        self._bvals: List[Optional[Tuple[Trit, ...]]] = []
        self._frontier: List[Optional[List[Tuple[str, int]]]] = []
        self._unknown_regs = (X,) * engine.num_registers
        # (frame, pi, value) of the decision whose complement lane 1
        # currently models, or None when lane 1 is stale.
        self.spec: Optional[Tuple[int, int, Trit]] = None

    # -- plane helpers -----------------------------------------------------

    def _lane_trits(self, pairs, lane: int) -> Tuple[Trit, ...]:
        bit = 1 << lane
        return tuple(
            ((ONE if value & bit else ZERO) if care & bit else X)
            for value, care in pairs
        )

    @staticmethod
    def _lane_equal(pairs_a, lane_a: int, pairs_b, lane_b: int) -> bool:
        """Whether two plane-pair states carry equal trits on the given
        lanes (compared bitwise, without materializing trit tuples)."""
        for (value_a, care_a), (value_b, care_b) in zip(pairs_a, pairs_b):
            known = (care_a >> lane_a) & 1
            if known != (care_b >> lane_b) & 1:
                return False
            if known and ((value_a >> lane_a) ^ (value_b >> lane_b)) & 1:
                return False
        return True

    def _broadcast_lane(self, pairs, lane: int):
        """Replicate one lane of a plane-pair state across both lanes."""
        bit = 1 << lane
        mask = self.MASK
        return tuple(
            ((mask if value & bit else 0, mask) if care & bit else (0, 0))
            for value, care in pairs
        )

    def _pack_frame(self, frame: int, spec):
        """This frame's input planes; the spec decision diverges in lane 1."""
        spec_pi = spec[1] if spec is not None and spec[0] == frame else -1
        mask = self.MASK
        packed = []
        for pi, trit in enumerate(self.inputs[frame]):
            if pi == spec_pi:
                # lane 0 = the assigned value, lane 1 = its complement.
                packed.append((1 if trit == ONE else 2, mask))
            elif trit == ONE:
                packed.append((mask, mask))
            elif trit == ZERO:
                packed.append((0, mask))
            else:
                packed.append((0, 0))
        return tuple(packed)

    # -- simulation --------------------------------------------------------

    def _resim(self, from_frame: int, changed_max: int, spec) -> None:
        """Recompute frames ``from_frame ..``, adopting the old suffix when
        the trajectory reconverges.

        ``changed_max`` is the last frame whose inputs differ from what the
        existing records were computed under; a frame beyond it whose
        entering machine states match the old records' is the head of a
        suffix that would recompute identically, so the old records are
        kept verbatim.  ``spec`` is the decision packed into lane 1.
        """
        records = self.records
        active = self.active
        old_records = records[from_frame:]
        old_active = active[from_frame:]
        old_gvals = self._gvals[from_frame:]
        old_bvals = self._bvals[from_frame:]
        old_frontier = self._frontier[from_frame:]
        del records[from_frame:]
        del active[from_frame:]
        del self._gvals[from_frame:]
        del self._bvals[from_frame:]
        del self._frontier[from_frame:]
        num_frames = len(self.inputs)
        if from_frame == 0:
            unknown = ((0, 0),) * self.num_registers
            good_state, bad_state = unknown, unknown
        else:
            prev = records[from_frame - 1]
            lane = active[from_frame - 1]
            good_state = self._broadcast_lane(prev[_GN], lane)
            bad_state = self._broadcast_lane(prev[_BN], lane)
        step, sa1, sa0 = self.step, self.sa1, self.sa0
        memo = self._memo
        lane_equal = self._lane_equal
        cut = False
        simulated = 0
        # The cut-off may only adopt a *complete* suffix; a stale short
        # record list (the initial resim, or one ended by the detection
        # early-exit below) can never satisfy this.
        adoptable = len(old_records) == num_frames - from_frame
        for frame in range(from_frame, num_frames):
            offset = frame - from_frame
            if adoptable and frame > changed_max and offset > 0:
                # The frame's entering state is the just-appended record's
                # lane 0 (offset > 0 guarantees one exists).
                old_prev = old_records[offset - 1]
                old_lane = old_active[offset - 1]
                prev_new = records[-1]
                if lane_equal(
                    old_prev[_GN], old_lane, prev_new[_GN], 0
                ) and lane_equal(old_prev[_BN], old_lane, prev_new[_BN], 0):
                    # Reconverged: inputs from here on are unchanged and the
                    # entering states match what the old suffix was computed
                    # from, so recomputation would reproduce it exactly --
                    # including every derived value/frontier cache.
                    records.extend(old_records[offset:])
                    active.extend(old_active[offset:])
                    self._gvals.extend(old_gvals[offset:])
                    self._bvals.extend(old_bvals[offset:])
                    self._frontier.extend(old_frontier[offset:])
                    cut = True
                    break
            packed = self._pack_frame(frame, spec)
            key = (good_state, bad_state, packed)
            record = memo.get(key)
            if record is None:
                record = step(good_state, bad_state, packed, self.MASK, sa1, sa0)
                memo[key] = record
                # Only actual kernel evaluations count as simulation effort;
                # memo hits cost a dictionary probe, not a frame.
                simulated += 1
            records.append(record)
            active.append(0)
            self._gvals.append(None)
            self._bvals.append(None)
            self._frontier.append(None)
            good_state = record[_GN]
            bad_state = record[_BN]
            if record[_DET] & 1:
                # Lane 0 detects at this frame: the search returns before
                # asking about anything beyond it, and the next _resim's
                # completeness guard refuses to adopt the short suffix, so
                # the remaining frames are never needed.
                break
        if simulated:
            self.meter.note_simulation(
                frames=2 * simulated, lanes=2 * self.WIDTH * simulated
            )
        # A cut truncates lane 1's divergent trajectory, so the
        # speculation is only trusted when the whole suffix was simulated.
        self.spec = None if (cut or spec is None) else spec
        self._rebuild_cums(from_frame)

    def _rebuild_cums(self, from_frame: int) -> None:
        det_cum, eff_cum = self._det_cum, self._eff_cum
        del det_cum[from_frame:]
        del eff_cum[from_frame:]
        det = det_cum[from_frame - 1] if from_frame else 0
        eff = eff_cum[from_frame - 1] if from_frame else 0
        records, active = self.records, self.active
        for frame in range(from_frame, len(records)):
            record = records[frame]
            lane = active[frame]
            det |= (record[_DET] >> lane) & 1
            eff |= ((record[_VDIFF] | record[_SDIFF]) >> lane) & 1
            det_cum.append(det)
            eff_cum.append(eff)

    def resim_initial(self) -> None:
        self._resim(0, len(self.inputs), None)

    def resim_decision(self, frame: int, pi: int, value: Trit) -> None:
        self._resim(frame, frame, (frame, pi, value))

    def resim_flip(
        self, earliest: int, changed_max: int, frame: int, pi: int, value: Trit
    ) -> None:
        """Apply a flipped decision; reuse lane 1 when it speculated it.

        ``value`` is the decision's *original* value.  When the flip
        targets exactly the decision lane 1 speculated -- which implies it
        is the newest decision, so the other inputs still match what the
        lanes were simulated under -- the flipped trajectory is already in
        lane 1 and activating it costs no simulation.
        """
        if self.spec == (frame, pi, value):
            active = self.active
            for f in range(frame, len(active)):
                active[f] = 1
                self._gvals[f] = None
                self._bvals[f] = None
                self._frontier[f] = None
            self.spec = None
            self._rebuild_cums(frame)
            return
        self._resim(earliest, changed_max, None)

    # -- verdicts ----------------------------------------------------------

    def detected(self) -> bool:
        return bool(self._det_cum and self._det_cum[-1])

    def effect_exists(self) -> bool:
        return bool(self._eff_cum and self._eff_cum[-1])

    def prune(self) -> bool:
        record = self.records[-1]
        return bool((record[_SAME] >> self.active[-1]) & 1)

    # -- value accessors ---------------------------------------------------

    def good_value(self, frame: int, slot: int) -> Trit:
        """One slot's good-machine trit (sparse reads: no materialization)."""
        vals = self._gvals[frame]
        if vals is not None:
            return vals[slot]
        record = self.records[frame]
        bit = 1 << self.active[frame]
        if record[_GC][slot] & bit:
            return ONE if record[_GV][slot] & bit else ZERO
        return X

    def good_values(self, frame: int) -> Tuple[Trit, ...]:
        """All slots' good-machine trits, materialized once per frame."""
        vals = self._gvals[frame]
        if vals is None:
            record = self.records[frame]
            bit = 1 << self.active[frame]
            vals = tuple(
                ((ONE if value & bit else ZERO) if care & bit else X)
                for value, care in zip(record[_GV], record[_GC])
            )
            self._gvals[frame] = vals
        return vals

    def bad_values(self, frame: int) -> Tuple[Trit, ...]:
        vals = self._bvals[frame]
        if vals is None:
            record = self.records[frame]
            bit = 1 << self.active[frame]
            vals = tuple(
                ((ONE if value & bit else ZERO) if care & bit else X)
                for value, care in zip(record[_BV], record[_BC])
            )
            self._bvals[frame] = vals
        return vals

    def good_regs(self, frame: int) -> Tuple[Trit, ...]:
        """Register contents *entering* ``frame``."""
        if frame == 0:
            return self._unknown_regs
        return self._lane_trits(
            self.records[frame - 1][_GN], self.active[frame - 1]
        )

    def bad_regs(self, frame: int) -> Tuple[Trit, ...]:
        if frame == 0:
            return self._unknown_regs
        return self._lane_trits(
            self.records[frame - 1][_BN], self.active[frame - 1]
        )

    def frontier_cached(self, frame: int):
        return self._frontier[frame]

    def frontier_store(self, frame: int, entries) -> None:
        self._frontier[frame] = entries

    def frontier_frames(self) -> Iterable[int]:
        """Frames that can host D-frontier entries.

        A frontier entry needs a gate read with a provable good/bad
        difference; reads are either this frame's slot values (covered by
        ``vdiff``) or registers entering the frame (the previous frame's
        ``sdiff``).  Frames with neither mask bit set provably contribute
        nothing and are skipped -- the fault site's own consumer, whose
        difference lives in the injected reads rather than slot values, is
        appended separately from the excited frames by the caller.
        """
        records, active = self.records, self.active
        entering = 0  # frame 0 enters from the all-X state: no difference
        for frame in range(len(records)):
            record = records[frame]
            lane = active[frame]
            if entering or ((record[_VDIFF] >> lane) & 1):
                yield frame
            entering = (record[_SDIFF] >> lane) & 1


class PodemEngine:
    """Targets single faults on one circuit.

    ``guidance`` optionally supplies a
    :class:`~repro.atpg.guidance.GuidancePolicy` whose value-aware
    controllability/observability tables replace the built-in structural
    heuristics for D-frontier and objective-candidate ranking, and whose
    exact register-distance fixpoints frame-gate the search (escalation
    levels, excitation frames and frontier entries provably infeasible
    within the window are skipped).  With ``guidance=None`` every choice
    -- walk order, cost tables, tie-breaking -- is exactly the unguided
    engine's.
    """

    def __init__(self, circuit: Circuit, guidance=None):
        self.circuit = circuit
        self.compiled = compiled_circuit(circuit)
        # Two lanes per call leave no lane parallelism to amortize numpy's
        # dispatch cost, so the kernel always steps on bigints.
        self.dual = dual_fast_stepper(circuit)
        self.num_inputs = len(circuit.input_names)
        self.num_registers = self.compiled.num_registers
        self._pi_index = {name: i for i, name in enumerate(circuit.input_names)}
        self._names = circuit.topo_order()
        self._gate_ops = tuple(
            op for op in self.compiled.ops if op.kind is NodeKind.GATE
        )
        # Adjacency snapshots: Circuit.in_edges materializes a fresh list
        # per call, which dominates backtrace cost on the hot path.
        self._nodes = circuit.nodes
        self._in_edges_of = {
            name: tuple(circuit.in_edges(name)) for name in circuit.nodes
        }
        self._slot_of = self.compiled.slot_of
        # Per-fault step memo; generate() replaces it for each new target.
        self._step_memo: Dict[Tuple, Tuple] = {}
        self._depth = self._static_depths()
        self._control_cost = self._static_controllability()
        self._bt_table = self._compile_backtrace_table()
        self.guidance = guidance
        self._g_observe = guidance.observe if guidance is not None else None
        self._g_obs_regs = (
            self._compile_obs_regs(guidance) if guidance is not None else None
        )

    def _compile_obs_regs(self, guidance) -> Dict[str, int]:
        """Minimum register crossings from each node's output to a primary
        output, folded from the policy's exact per-edge ``pin_regs``
        distances.  Used to frame-gate D-frontier entries: an effect at a
        gate's output at frame ``f`` is observed no earlier than frame
        ``f + obs_regs[gate]``."""
        big = 10 ** 6
        obs: Dict[str, int] = {}
        pin_regs = guidance.scoap.pin_regs
        for edge in self.circuit.edges:
            pulled = edge.weight + pin_regs.get(edge.index, big)
            if pulled < obs.get(edge.source, big):
                obs[edge.source] = pulled
        return obs

    def _compile_backtrace_table(self) -> Dict[str, Tuple]:
        """Per-node dispatch records for the backtrace hot loop.

        Backtrace walks thousands of node hops per fault; resolving each
        hop through ``nodes[...]`` / ``in_edges`` / ``slot_of`` /
        ``_control_cost`` dictionary chains every time dominates its cost.
        Each record bakes the whole decision into one tuple:

        * ``(0, pi_index)`` -- primary input;
        * ``(1,)`` -- constant (objective unreachable);
        * ``(2, source, weight)`` -- fanout/output pass-through;
        * ``(3, invert, base, inputs)`` -- gate, where ``invert`` is the
          output inversion, ``base`` codes the input requirement (0 =
          AND-like, 1 = OR-like, 2 = pass the desired value through) and
          ``inputs`` is ``(source, slot, weight, control_cost)`` per fanin
          in circuit order (the order the original walk examined them in,
          so cost ties break identically).
        """
        table: Dict[str, Tuple] = {}
        slot_of = self._slot_of
        cost = self._control_cost
        for name, node in self.circuit.nodes.items():
            kind = node.kind
            if kind is NodeKind.INPUT:
                table[name] = (0, self._pi_index[name])
            elif kind in (NodeKind.CONST0, NodeKind.CONST1):
                table[name] = (1,)
            elif kind in (NodeKind.FANOUT, NodeKind.OUTPUT):
                edges = self._in_edges_of[name]
                if edges:
                    table[name] = (2, edges[0].source, edges[0].weight)
                else:
                    table[name] = (1,)  # floating sink: unreachable
            else:
                gate_type = node.gate_type
                invert = gate_type in (
                    GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR
                )
                if gate_type in (GateType.AND, GateType.NAND):
                    base = 0
                elif gate_type in (GateType.OR, GateType.NOR):
                    base = 1
                else:
                    base = 2
                gate_inputs = tuple(
                    (
                        edge.source,
                        slot_of[edge.source],
                        edge.weight,
                        cost.get(edge.source, 10 ** 6),
                    )
                    for edge in self._in_edges_of[name]
                )
                table[name] = (3, invert, base, gate_inputs)
        return table

    def _static_depths(self) -> Dict[str, int]:
        """Static distance-to-output estimate used to rank D-frontier gates."""
        depth: Dict[str, int] = {}
        for name in reversed(self.circuit.topo_order()):
            out_edges = self.circuit.out_edges(name)
            if not out_edges:
                depth[name] = 0 if self.circuit.node(name).kind is NodeKind.OUTPUT else 999
                continue
            depth[name] = min(depth.get(e.sink, 999) + 1 for e in out_edges)
        return depth

    def _static_controllability(self) -> Dict[str, int]:
        """SCOAP-flavoured cost of setting a node from the primary inputs.

        Registers are expensive (they push the objective a frame earlier),
        so backtrace prefers purely combinational paths to PIs and never
        cycles around state feedback loops.  Computed as a shortest-path
        fixpoint over the cyclic graph.
        """
        BIG = 10 ** 6
        cost: Dict[str, int] = {}
        for name, node in self.circuit.nodes.items():
            cost[name] = 0 if node.kind is NodeKind.INPUT else BIG
        for _ in range(len(self.circuit.nodes)):
            changed = False
            for name in self.circuit.topo_order():
                node = self.circuit.node(name)
                if node.kind is NodeKind.INPUT:
                    continue
                in_edges = self.circuit.in_edges(name)
                if not in_edges:
                    continue  # constants stay expensive
                best = min(
                    cost[e.source] + 1 + 100 * e.weight for e in in_edges
                )
                if best < cost[name]:
                    cost[name] = best
                    changed = True
            if not changed:
                break
        return cost

    # -- public API ----------------------------------------------------------

    def generate(
        self,
        fault: StuckAtFault,
        meter: EffortMeter,
        max_frames: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> PodemResult:
        """Try to find a test sequence for ``fault``.

        ``deadline`` (a ``time.perf_counter`` timestamp) caps the effort
        spent on this single fault, on top of the global budget.

        Every attempt is bracketed by the meter's ``begin_fault`` /
        ``end_fault`` in ``try/finally``, so the per-fault effort row is
        flushed on *every* exit path -- a budget-aborted fault records its
        partial counters instead of vanishing from the run telemetry.
        """
        meter.begin_fault(fault)
        result: Optional[PodemResult] = None
        try:
            result = self._generate(fault, meter, max_frames, deadline)
            return result
        finally:
            if result is None:
                status = "abort"  # exception path: flush partial effort
            elif result.detected:
                status = "det"
            elif result.aborted:
                status = "abort"
            else:
                status = "exhausted"
            meter.end_fault(status)

    def _generate(
        self,
        fault: StuckAtFault,
        meter: EffortMeter,
        max_frames: Optional[int],
        deadline: Optional[float],
    ) -> PodemResult:
        import time as _time

        limit = max_frames or meter.budget.max_frames
        # Fresh per-fault step memo: keyed by (entering good state,
        # entering bad state, packed inputs) -- everything else the
        # generated step reads (plane mask, injection masks) is fixed for
        # the duration of one fault.  Sharing it across escalation levels
        # makes each deeper level's prefix frames free.
        self._step_memo = {}
        total_backtracks = 0
        # Geometric time-frame escalation with a *fresh* backtrack budget
        # per depth level.  Total effort per aborted fault therefore scales
        # with the unrolling depth -- which scales with the flip-flop
        # count.  This is the cost model of iterative-deepening sequential
        # ATPG: circuits retimed to several times more registers cost
        # several times more per fault, the paper's Table II effect.
        levels = []
        frames = 1
        while frames < limit:
            levels.append(frames)
            frames *= 2
        levels.append(limit)
        if self.guidance is not None:
            # Sequential-depth pruning.  ``min_frames`` is a sound lower
            # bound on the window any test for this fault needs (with an
            # all-X initial state no signal crosses k registers in fewer
            # than k frames), so a bound beyond ``limit`` means no test
            # exists in the window at all -- report that as exhausted,
            # not aborted, without simulating a single frame.  For the
            # rest the guided engine drops the ladder entirely and
            # searches the full window once: the ladder exists to find
            # short tests cheaply, but the faults that reach the
            # deterministic phase survived the random walks precisely
            # because they need deep windows, so intermediate rungs
            # mostly burn a fresh backtrack budget each proving what the
            # final rung re-proves anyway.  (Measured on the Table II
            # set: the single-rung ladder beats both the full geometric
            # ladder and a probe-then-limit two-rung variant on every
            # circuit.)
            bound = self.guidance.scoap.min_frames.get(
                fault.line.edge_index, 1
            )
            if bound > limit:
                return PodemResult(False, None, 0, False, limit)
            levels = [limit]
        aborted_any = False
        for frames in levels:
            if meter.out_of_time() or (
                deadline is not None and _time.perf_counter() >= deadline
            ):
                return PodemResult(False, None, total_backtracks, True, frames)
            found, used, aborted = self._search(
                fault,
                frames,
                meter.budget.backtracks_per_fault,
                meter,
                deadline,
            )
            total_backtracks += used
            if found is not None:
                return PodemResult(True, found, total_backtracks, False, frames)
            aborted_any = aborted_any or aborted
        return PodemResult(False, None, total_backtracks, aborted_any, levels[-1])

    # -- search over one frame count -------------------------------------------

    def _search(
        self,
        fault: StuckAtFault,
        frames: int,
        backtrack_limit: int,
        meter: EffortMeter,
        deadline: Optional[float] = None,
    ):
        import time as _time

        inputs: List[List[Trit]] = [
            [X] * self.num_inputs for _ in range(frames)
        ]
        decisions: List[Tuple[int, int, Trit, bool]] = []  # (frame, pi, value, flipped)
        backtracks = 0
        machine = _DualMachine(self, fault, inputs, meter)
        machine.resim_initial()

        while True:
            if meter.out_of_time() or (
                deadline is not None and _time.perf_counter() >= deadline
            ):
                return None, backtracks, True
            if machine.detected():
                return [tuple(v if v != X else ZERO for v in frame) for frame in inputs], backtracks, False
            prune = machine.prune()
            assignment = None
            if not prune:
                for objective in self._objective_candidates(
                    fault, machine, frames
                ):
                    assignment = self._backtrace(objective, machine, inputs)
                    if assignment is not None:
                        break
            if assignment is None:
                # Conflict or no way forward: chronological backtracking.
                # Track the earliest frame touched by the pops (the resim
                # point) and the latest (beyond which cached frame records
                # stay valid for the incremental cut-off).
                earliest = frames
                changed_max = 0
                while decisions:
                    frame, pi, value, flipped = decisions.pop()
                    inputs[frame][pi] = X
                    earliest = min(earliest, frame)
                    changed_max = max(changed_max, frame)
                    if not flipped:
                        backtracks += 1
                        meter.note_backtrack()
                        if backtracks >= backtrack_limit:
                            return None, backtracks, True
                        inputs[frame][pi] = t_not(value)
                        decisions.append((frame, pi, t_not(value), True))
                        machine.resim_flip(earliest, changed_max, frame, pi, value)
                        break
                else:
                    return None, backtracks, False  # search space exhausted
                continue
            frame, pi, value = assignment
            meter.note_objective()
            inputs[frame][pi] = value
            decisions.append((frame, pi, value, False))
            machine.resim_decision(frame, pi, value)

    # -- objectives ---------------------------------------------------------------

    def _line_source(self, line: LineRef, frame: int):
        """(node, frame) whose output drives this line, or None pre-window."""
        edge = self.circuit.edge(line.edge_index)
        source_frame = frame - (line.segment - 1)
        if source_frame < 0:
            return None
        return edge.source, source_frame

    def _excited_frames(self, fault: StuckAtFault, machine, frames: int) -> List[int]:
        """Frames where the good machine provably drives the faulted line to
        the complement of the stuck value (the faulty line is forced, so an
        effect exists at the line in those frames)."""
        desired = t_not(fault.value)
        edge = self.circuit.edge(fault.line.edge_index)
        slot = self.compiled.slot_of[edge.source]
        excited = []
        offset = fault.line.segment - 1
        for frame in range(frames):
            source_frame = frame - offset
            if source_frame < 0:
                continue
            if machine.good_value(source_frame, slot) == desired:
                excited.append(frame)
        return excited

    def _objective_candidates(self, fault, machine, frames):
        """Objectives to try, in preference order.

        Excitation candidates target the *earliest* frames first: an
        effect created early has the rest of the window to propagate
        (exciting only in the last frame leaves no room to observe faults
        whose effect must first traverse registers).
        """
        excited = self._excited_frames(fault, machine, frames)
        candidates = []
        if not excited and not machine.effect_exists():
            edge = self.circuit.edge(fault.line.edge_index)
            desired = t_not(fault.value)
            slot = self.compiled.slot_of[edge.source]
            latest = frames - 1 - (fault.line.segment - 1)
            earliest = 0
            if self.guidance is not None:
                # Frame-gate the excitation window with the exact register
                # distances behind ``min_frames``: the driver is provably X
                # before frame ``known[source]``, and an effect excited at
                # frame f still needs the edge's own registers plus the
                # cheapest register path from the sink pin to an output
                # inside the window -- candidates outside [earliest,
                # latest] cannot be part of any test, only of wasted
                # decisions.
                scoap = self.guidance.scoap
                earliest = min(scoap.known.get(edge.source, 0), frames)
                latest = min(
                    latest,
                    frames
                    - 1
                    - edge.weight
                    - scoap.pin_regs.get(edge.index, 0),
                )
            for target_frame in range(earliest, latest + 1):
                if machine.good_value(target_frame, slot) == X:
                    candidates.append((edge.source, desired, target_frame))
            return candidates
        # Propagation: D-frontier gates closest to an output first; within
        # a gate, the cheapest-to-control unknown side inputs first.
        # Guided, the frontier ranks by the policy's observability and the
        # side inputs by value-aware controllability, both with explicit
        # (score, name, frame) tie-breaks so guided runs reproduce across
        # processes and Python versions.
        frontier = self._d_frontier(fault, machine, excited)
        guided = self.guidance is not None
        if guided:
            # Frame-gate the frontier: a difference at ``gate`` in frame
            # ``f`` still needs ``obs_regs[gate]`` register crossings to
            # reach an output, so entries with ``f + obs_regs`` past the
            # window cannot be observed -- propagating through them is
            # provably wasted work.
            obs_regs = self._g_obs_regs
            horizon = frames - 1
            frontier = [
                item
                for item in frontier
                if item[1] + obs_regs.get(item[0], 0) <= horizon
            ]
        if guided:
            observe = self._g_observe
            depth = self._depth
            frontier.sort(
                key=lambda item: (
                    observe.get(item[0], float("inf")),
                    depth.get(item[0], 999),
                    item[0],
                    item[1],
                )
            )
        else:
            frontier.sort(key=lambda item: self._depth.get(item[0], 999))
        slot_of = self._slot_of
        for gate_name, frame in frontier:
            node = self._nodes[gate_name]
            controlling = node.gate_type.controlling_value if node.gate_type else None
            non_controlling = (
                t_not(controlling) if controlling is not None else ONE
            )
            if guided:
                side_cost = (
                    self.guidance.cost1
                    if non_controlling == ONE
                    else self.guidance.cost0
                )
            gate_candidates = []
            for edge in self._in_edges_of[gate_name]:
                located = self._line_source(
                    LineRef(edge.index, edge.num_lines), frame
                )
                if located is None:
                    continue
                source, source_frame = located
                value = machine.good_value(source_frame, slot_of[source])
                if value != X:
                    continue
                if guided:
                    cost = (side_cost.get(source, float("inf")), source, source_frame)
                else:
                    cost = self._control_cost.get(source, 10 ** 6)
                gate_candidates.append(
                    (cost, (source, non_controlling, source_frame))
                )
            gate_candidates.sort(key=lambda item: item[0])
            candidates.extend(objective for _, objective in gate_candidates)
        return candidates

    def _frontier_for_frame(self, machine, frame: int) -> List[Tuple[str, int]]:
        """One frame's D-frontier entries (pure function of that frame)."""
        entries: List[Tuple[str, int]] = []
        names = self._names
        good_values = machine.good_values(frame)
        bad_values = machine.bad_values(frame)
        good_regs = machine.good_regs(frame)
        bad_regs = machine.bad_regs(frame)
        for op in self._gate_ops:
            out_good = good_values[op.slot]
            out_bad = bad_values[op.slot]
            if out_good != X and out_bad != X and out_good != out_bad:
                continue  # effect already through this gate
            if out_good != X and out_good == out_bad:
                continue  # blocked
            for read in op.reads:
                if read.from_register:
                    g_val = good_regs[read.index]
                    b_val = bad_regs[read.index]
                else:
                    g_val = good_values[read.index]
                    b_val = bad_values[read.index]
                if g_val != X and b_val != X and g_val != b_val:
                    entries.append((names[op.slot], frame))
                    break
        return entries

    def _d_frontier(self, fault, machine, excited_frames) -> List[Tuple[str, int]]:
        """Gates with a provable input difference and undecided output.

        The faulted line's own consumer is added explicitly for the frames
        where the line is excited: the injection happens at the consumer's
        read, so node values alone would miss it.
        """
        frontier: List[Tuple[str, int]] = []
        for frame in machine.frontier_frames():
            entries = machine.frontier_cached(frame)
            if entries is None:
                entries = self._frontier_for_frame(machine, frame)
                machine.frontier_store(frame, entries)
            frontier.extend(entries)
        fault_edge = self.circuit.edge(fault.line.edge_index)
        if fault.line.segment == fault_edge.num_lines:
            sink = self.circuit.node(fault_edge.sink)
            if sink.kind is NodeKind.GATE:
                for frame in excited_frames:
                    frontier.append((fault_edge.sink, frame))
        return frontier

    # -- backtrace -------------------------------------------------------------------

    def _backtrace(self, objective, machine, inputs):
        """Walk an objective back to an unassigned primary input.

        Runs entirely on the precompiled dispatch table (see
        :meth:`_compile_backtrace_table`); the walk order, the cost
        tie-breaking and therefore the chosen assignment are identical to
        a direct walk over the circuit structures.  Guided runs use the
        same walk: guidance steers *which* objectives are tried and in
        what order (:meth:`_objective_candidates`), not how one objective
        maps to a primary input -- a value-aware walk variant was
        measured to win on some circuits and lose as much on others,
        while the shared walk keeps guided effort uniformly below
        unguided.
        """
        node_name, value, frame = objective
        table = self._bt_table
        good_value = machine.good_value
        for _ in range(10_000):
            if frame < 0:
                return None
            entry = table[node_name]
            tag = entry[0]
            if tag == 3:
                # GATE: translate the desired output into an input
                # objective.  Output 1 of an AND-like base needs all inputs
                # 1, output 0 needs one input 0; dually for OR-like.  The
                # XOR family passes the desired value through (heuristic).
                desired = t_not(value) if entry[1] else value
                chosen_name = None
                chosen_frame = 0
                chosen_cost = None
                for source, slot, weight, source_cost in entry[3]:
                    source_frame = frame - weight
                    if source_frame < 0:
                        continue
                    if good_value(source_frame, slot) != X:
                        continue
                    if chosen_cost is None or source_cost < chosen_cost:
                        chosen_name = source
                        chosen_frame = source_frame
                        chosen_cost = source_cost
                if chosen_name is None:
                    return None
                node_name = chosen_name
                frame = chosen_frame
                base = entry[2]
                if base == 0:
                    value = ONE if desired == ONE else ZERO
                elif base == 1:
                    value = ZERO if desired == ZERO else ONE
                else:
                    value = desired
            elif tag == 2:
                node_name = entry[1]
                frame -= entry[2]
            elif tag == 0:
                pi = entry[1]
                if inputs[frame][pi] != X:
                    return None  # already pinned: objective unreachable
                return (frame, pi, value)
            else:
                return None  # constant: unreachable
        return None

__all__ = ["PodemEngine", "PodemResult"]
