"""Tests for the ATPG guidance layer: SCOAP measures, the off-mode
bit-identity guard and guided/unguided interchangeability."""

import pytest

from repro.atpg import (
    AtpgBudget,
    EffortMeter,
    PodemEngine,
    run_atpg,
)
from repro.atpg.guidance import (
    GUIDANCE_MODES,
    SCOAP_REGISTER_COST,
    compute_scoap,
    fault_sort_key,
    make_policy,
    scoap_measures,
)
from repro.atpg.parallel import _partition_indices
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import LineRef
from repro.core.preservation import verify_preservation
from repro.faults.collapse import collapse_faults
from repro.faults.model import StuckAtFault
from repro.logic.three_valued import ONE, ZERO
from repro.papercircuits import fig2_pair, fig5_n1, fig5_pair
from repro.store.core import ArtifactStore

R = SCOAP_REGISTER_COST  # 20.0: one register crossing


def small_budget(**overrides):
    """A small PODEM budget: the exact pair search is off unless
    overridden, since guidance steers PODEM."""
    values = dict(
        total_seconds=20.0,
        seconds_per_fault=2.0,
        backtracks_per_fault=20,
        frames_cap=8,
        random_sequences=4,
        exact_lane_steps=0,
    )
    values.update(overrides)
    return AtpgBudget(**values)


class TestScoapHandComputed:
    """Goldstein's rules on the reconstructed Fig. 5 N1, by hand.

    Structure: G1 = AND(DFF(I1), DFF(I2)); G3 = OR(I3, Q3);
    G2 = AND(G1, G3); Q3 = DFF(G2); Z = G2.
    """

    def test_controllability(self):
        m = compute_scoap(fig5_n1())
        # Inputs cost 1 either way.
        assert m.cc0["I1"] == m.cc1["I1"] == 1.0
        # G1 = AND of two lines that each cross one register:
        #   line cost = 1 + R; CC1 = sum + 1, CC0 = min + 1.
        assert m.cc1["G1"] == (1 + R) * 2 + 1  # 43
        assert m.cc0["G1"] == (1 + R) + 1  # 22
        # G3 = OR(I3, G2 across one register):
        #   CC1 = min(1, CC1(G2) + R) + 1 = 2; CC0 = sum + 1.
        assert m.cc1["G3"] == 2.0
        assert m.cc0["G3"] == 1 + (m.cc0["G2"] + R) + 1  # 45
        # G2 = AND(G1, G3), both lines register-free.
        assert m.cc1["G2"] == m.cc1["G1"] + m.cc1["G3"] + 1  # 46
        assert m.cc0["G2"] == min(m.cc0["G1"], m.cc0["G3"]) + 1  # 23

    def test_observability(self):
        c = fig5_n1()
        m = compute_scoap(c)
        # G2 fans out straight to the output Z: free to observe.
        assert m.co["G2"] == 0.0
        # G1 -> G2 (AND): hold side input G3 at 1 (its CC1 = 2), plus the
        # gate's own +1.
        assert m.co["G1"] == 0.0 + 1 + m.cc1["G3"]  # 3
        # I1 -> G1 (AND): side input is I2's line across one register;
        # then pull I1's own measure back across its register.
        edge_i1 = next(e.index for e in c.edges if e.source == "I1")
        assert m.edge_co[edge_i1] == m.co["G1"] + 1 + (1 + R)  # 25
        assert m.co["I1"] == m.edge_co[edge_i1] + R  # 45
        # G3 -> G2 (AND): side input is G1 at CC1 = 43.
        edge_g3 = next(e.index for e in c.edges if e.source == "G3")
        assert m.edge_co[edge_g3] == 0.0 + 1 + m.cc1["G1"]  # 44

    def test_line_measures_split_edge_registers(self):
        """Segment 2 of I1 -> G1 sits *after* the register: excitation
        pays the crossing, observation no longer does."""
        c = fig5_n1()
        m = compute_scoap(c)
        edge_i1 = next(e.index for e in c.edges if e.source == "I1")
        cc0_s1, _, co_s1 = m.line_measures(c, LineRef(edge_i1, 1))
        cc0_s2, _, co_s2 = m.line_measures(c, LineRef(edge_i1, 2))
        assert cc0_s2 == cc0_s1 + R
        assert co_s2 == co_s1 - R

    def test_min_frames_bounds(self):
        """The sequential-depth bound, edge by edge: registers on the
        cheapest source path + the edge's own + cheapest path out, + 1."""
        c = fig5_n1()
        m = compute_scoap(c)
        by_pair = {(e.source, e.sink): e.index for e in c.edges}
        # I3 -> G3 and everything from G2 to Z: combinational, 1 frame.
        assert m.min_frames[by_pair[("I3", "G3")]] == 1
        # I1 -> G1 crosses its own register; G1 -> G2 needs I1's register
        # crossed first.  Both need a 2-frame window.
        assert m.min_frames[by_pair[("I1", "G1")]] == 2
        assert m.min_frames[by_pair[("G1", "G2")]] == 2
        # Every bound is >= 1 and none is trivially huge on this circuit.
        assert all(1 <= v <= 3 for v in m.min_frames.values())

    def test_min_frames_sound_against_real_tests(self):
        """No unguided PODEM test is shorter than the fault's bound."""
        for circuit in (fig5_n1(), fig5_pair()[1]):
            m = compute_scoap(circuit)
            engine = PodemEngine(circuit)
            for fault in collapse_faults(circuit).representatives:
                meter = EffortMeter(small_budget())
                result = engine.generate(fault, meter, max_frames=8)
                if result.detected:
                    assert len(result.sequence) >= (
                        m.min_frames[fault.line.edge_index]
                    )


class TestScoapStore:
    def test_round_trip_hits_cache(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        circuit = fig5_n1()
        first = scoap_measures(circuit, store=store)
        again = scoap_measures(circuit, store=store)
        assert first == again
        assert store.stats.hits >= 1

    def test_different_circuit_misses(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        scoap_measures(fig5_n1(), store=store)
        other = fig2_pair()[0]
        assert scoap_measures(other, store=store) == compute_scoap(other)

    def test_atpg_stages_store_no_other_guidance_records(self, tmp_path):
        """PODEM runs, guided or not, leave only ``scoap`` records behind
        as guidance state: no training dataset, no predictor."""
        from repro.pipeline import FlowPipeline

        store = ArtifactStore(root=str(tmp_path))
        circuit = fig5_n1()
        faults = collapse_faults(circuit).representatives
        for mode in GUIDANCE_MODES:
            result = FlowPipeline(store=store, guidance=mode).stage_atpg(
                circuit, faults, small_budget()
            )
            assert result.fault_rows and result.guidance == mode
        kinds = set(store.summary()["by_kind"])
        assert {"atpg", "scoap"} <= kinds
        assert not kinds & {"guidance-data", "predictor"}


class TestPolicy:
    def test_off_is_none_and_unknown_rejected(self):
        circuit = fig5_n1()
        assert make_policy(circuit, "off") is None
        assert make_policy(circuit, None) is None
        assert GUIDANCE_MODES == ("off", "scoap")
        for mode in ("psychic", "learned", "auto"):
            with pytest.raises(ValueError, match="'off', 'scoap'"):
                make_policy(circuit, mode)

    def test_scores_carry_explicit_tie_breaks(self):
        circuit = fig5_n1()
        policy = make_policy(circuit, "scoap")
        faults = collapse_faults(circuit).representatives
        costs = policy.score_faults(circuit, faults)
        ordered = sorted(faults, key=lambda f: (costs[f], fault_sort_key(f)))
        assert sorted(ordered, key=lambda f: (costs[f], fault_sort_key(f))) == ordered
        assert len(costs) == len(faults)


class TestOffBitIdentity:
    """The hard guard: guidance="off" must be the seed engine, bit for bit."""

    def test_off_equals_default(self):
        circuit = fig5_pair()[1]
        budget = small_budget()
        base = run_atpg(circuit, budget=budget)
        off = run_atpg(circuit, budget=budget, guidance="off")
        assert base.test_set.to_text() == off.test_set.to_text()
        assert base.detected == off.detected
        assert base.aborted == off.aborted
        assert base.backtracks == off.backtracks
        assert base.frames_simulated == off.frames_simulated
        assert off.guidance == "off"

    def test_partitioner_without_costs_is_contiguous(self):
        assert _partition_indices(10, 3, None) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9],
        ]

    def test_partitioner_with_costs_balances_and_covers(self):
        costs = [8.0, 1.0, 1.0, 1.0, 8.0, 1.0]
        chunks = _partition_indices(len(costs), 2, costs)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(6))
        loads = [sum(costs[i] for i in chunk) for chunk in chunks]
        # LPT puts one heavy fault in each bin instead of both in one.
        assert max(loads) < sum(costs)
        assert all(chunk == sorted(chunk) for chunk in chunks)

    def test_partitioner_is_deterministic(self):
        costs = [3.0, 3.0, 2.0, 2.0, 1.0]
        assert _partition_indices(5, 2, costs) == _partition_indices(
            5, 2, list(costs)
        )


class TestGuidedRuns:
    def test_guided_serial_process_parity(self):
        circuit = fig5_pair()[1]
        budget = small_budget()
        serial = run_atpg(
            circuit, budget=budget, guidance="scoap", engine="serial"
        )
        pooled = run_atpg(
            circuit, budget=budget, guidance="scoap", engine="process", workers=2
        )
        assert serial.test_set.to_text() == pooled.test_set.to_text()
        assert serial.detected == pooled.detected
        assert serial.guidance == pooled.guidance == "scoap"

    def test_guided_coverage_not_worse_on_fig5(self):
        circuit = fig5_pair()[1]
        budget = small_budget()
        off = run_atpg(circuit, budget=budget, guidance="off")
        guided = run_atpg(circuit, budget=budget, guidance="scoap")
        assert guided.fault_coverage >= off.fault_coverage

    def test_guided_tests_preserve_like_unguided(self):
        """Theorem 4 does not care which engine produced the test set:
        both the unguided and the guided sets must verify preservation on
        the Fig. 5 pair."""
        n1, _n2, retiming = fig5_pair()
        budget = small_budget()
        for mode in ("off", "scoap"):
            result = run_atpg(n1, budget=budget, guidance=mode)
            report = verify_preservation(n1, retiming, result.test_set)
            assert report.holds

    def test_bound_skips_unreachable_window(self):
        """A fault needing more frames than the cap is *exhausted* (proven
        untestable in the window) under guidance, with zero search effort."""
        builder = CircuitBuilder("deep")
        builder.input("a")
        builder.dff("q1", "a")
        builder.dff("q2", "q1")
        builder.dff("q3", "q2")
        builder.buf("g", "q3")
        builder.output("z", "g")
        circuit = builder.build()
        deep_edge = next(e for e in circuit.edges if e.weight >= 1)
        fault = StuckAtFault(LineRef(deep_edge.index, 1), ZERO)
        policy = make_policy(circuit, "scoap")
        bound = policy.scoap.min_frames[deep_edge.index]
        assert bound >= 2
        engine = PodemEngine(circuit, guidance=policy)
        meter = EffortMeter(small_budget())
        result = engine.generate(fault, meter, max_frames=bound - 1)
        assert not result.detected
        assert not result.aborted
        assert result.backtracks == 0
        # The effort row still flushed, recording the free exhaustion.
        assert meter.fault_rows[-1].status == "exhausted"

    def test_objective_choices_counted(self):
        circuit = fig5_n1()
        result = run_atpg(circuit, budget=small_budget(), guidance="scoap")
        assert result.objective_choices > 0
        assert result.objective_choices == sum(
            row.objective_choices for row in result.fault_rows
        )


class TestEffortRows:
    def test_every_fault_gets_a_row(self):
        circuit = fig5_n1()
        result = run_atpg(circuit, budget=small_budget(), guidance="off")
        keys = [row.fault_key for row in result.fault_rows]
        assert len(keys) == len(set(keys))
        statuses = {row.status for row in result.fault_rows}
        assert statuses <= {"det", "abort", "exhausted", "budget"}
        assert all(row.seconds >= 0.0 for row in result.fault_rows)

    def test_meter_begin_end_flushes_deltas(self):
        meter = EffortMeter(small_budget())
        fault = StuckAtFault(LineRef(0, 1), ONE)
        meter.begin_fault(fault)
        meter.note_backtrack()
        meter.note_objective()
        meter.end_fault("det")
        meter.end_fault("abort")  # idempotent: no second row
        assert len(meter.fault_rows) == 1
        row = meter.fault_rows[0]
        assert row.fault_key == (0, 1, int(ONE))
        assert row.status == "det"
        assert row.backtracks == 1
        assert row.objective_choices == 1

    def test_skip_fault_records_budget_row(self):
        meter = EffortMeter(small_budget())
        meter.skip_fault(StuckAtFault(LineRef(2, 1), ZERO))
        row = meter.fault_rows[0]
        assert row.status == "budget"
        assert row.backtracks == 0 and row.seconds == 0.0
