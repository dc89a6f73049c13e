"""Warm-store behaviour of the stage pipeline (Fig. 6 flow memoization)."""

import pytest

from repro.atpg import AtpgBudget
from repro.pipeline import FlowPipeline
from repro.store import ArtifactStore, RunJournal
from repro.store.journal import journal_stage_summaries

from tests.helpers import resettable_counter

BUDGET = AtpgBudget(total_seconds=60.0, random_sequences=16, random_length=16)

STORE_BACKED = ("retime", "collapse", "atpg", "faultsim")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "store"))


class TestWarmFlow:
    def test_second_run_hits_every_store_backed_stage(self, store):
        hard = resettable_counter()

        cold_pipe = FlowPipeline(store=store)
        cold = cold_pipe.run(hard, budget=BUDGET)
        # The first time each store-backed stage runs it must compute.  (A
        # repeat of the same stage inside one run may already hit: the easy
        # retiming of an already-minimal circuit is the identity, so both
        # collapse stages share one store key.)
        first_seen = {}
        for record in cold_pipe.stages:
            first_seen.setdefault(record.name, record.cache)
        assert all(first_seen[name] == "miss" for name in STORE_BACKED)

        warm_pipe = FlowPipeline(store=store)
        warm = warm_pipe.run(hard, budget=BUDGET)
        assert all(
            s.cache == "hit" for s in warm_pipe.stages if s.name in STORE_BACKED
        )
        assert [s.cache for s in warm_pipe.stages if s.name == "derive"] == ["off"]

        # The memoized flow is indistinguishable from the recomputed one.
        assert (
            warm.derived_test_set.to_text() == cold.derived_test_set.to_text()
        )
        assert warm.prefix_length == cold.prefix_length
        assert warm.hard_coverage == cold.hard_coverage
        assert sorted(warm.atpg_result.detected) == sorted(
            cold.atpg_result.detected
        )

    def test_no_store_means_every_stage_computes(self):
        pipe = FlowPipeline(store=None)
        pipe.run(resettable_counter(), budget=BUDGET)
        assert all(s.cache == "off" for s in pipe.stages)

    def test_budget_change_misses_atpg_but_hits_collapse(self, store):
        hard = resettable_counter()
        FlowPipeline(store=store).run(hard, budget=BUDGET)

        other_budget = AtpgBudget(
            total_seconds=BUDGET.total_seconds + 1.0,
            random_sequences=BUDGET.random_sequences,
            random_length=BUDGET.random_length,
        )
        pipe = FlowPipeline(store=store)
        pipe.run(hard, budget=other_budget)
        dispositions = {s.name: s.cache for s in pipe.stages if s.name != "derive"}
        assert dispositions["collapse"] == "hit"
        assert dispositions["atpg"] == "miss"

    def test_journal_records_stage_ends_and_pins(self, store, tmp_path):
        journal = RunJournal.create(store.journal_dir, "flow-test")
        pipe = FlowPipeline(store=store, journal=journal)
        pipe.run(resettable_counter(), budget=BUDGET)
        journal.close(ok=True)
        stages = journal_stage_summaries(journal.path)
        assert [s["stage"] for s in stages] == [
            "retime",
            "collapse",
            "atpg",
            "derive",
            "collapse",
            "faultsim",
        ]
        assert all("seconds" in s and "cache" in s for s in stages)


class TestEasyRetimingStage:
    @pytest.mark.parametrize("name", ["dk16.ji.sd", "pma.jo.sd", "s510.jo.sr", "s832.jo.sr"])
    def test_registers_saved_is_the_register_drop(self, name):
        """The stage reports how many registers the easy retiming removes
        from the flow's hard circuit."""
        from repro.core.experiments import TABLE2_CIRCUITS, build_pair

        spec = next(s for s in TABLE2_CIRCUITS if s.name == name)
        hard = build_pair(spec, store=None).retimed
        pipe = FlowPipeline(store=None)
        easy = pipe.stage_easy_retiming(hard).apply(f"{hard.name}.easy")
        (record,) = [record for record in pipe.stages if record.name == "retime"]
        saved = record.detail["registers_saved"]
        assert saved == hard.num_registers() - easy.num_registers()
        assert saved > 0
