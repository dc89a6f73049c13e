"""ATPG checkpoint write/load and kill-resume bit-identity."""

import json

import pytest

from repro.atpg import AtpgBudget, run_atpg
from repro.faults import collapse_faults
from repro.store import AtpgCheckpoint

from tests.helpers import resettable_counter, toggle_counter

# Generous enough that wall clock never binds: resume determinism is only
# guaranteed when outcomes are decided by search limits, not the clock.
# The exact pair search is off, so PODEM outcomes are what gets journaled.
BUDGET = AtpgBudget(
    total_seconds=120.0,
    seconds_per_fault=5.0,
    backtracks_per_fault=300,
    max_frames=8,
    random_sequences=16,
    random_length=16,
    exact_lane_steps=0,
)


@pytest.fixture
def checkpoint(tmp_path):
    return AtpgCheckpoint(str(tmp_path / "run.ckpt.jsonl"))


class TestLoadValidation:
    def test_absent_file_loads_none(self, checkpoint):
        circuit = toggle_counter()
        faults = collapse_faults(circuit).representatives
        assert checkpoint.load(circuit, faults, BUDGET) is None

    def test_header_binds_circuit_faults_and_budget(self, checkpoint):
        circuit = toggle_counter()
        faults = collapse_faults(circuit).representatives
        run_atpg(circuit, faults, BUDGET, checkpoint=checkpoint)

        # Completed run: loads for the matching triple...
        assert checkpoint.load(circuit, faults, BUDGET) is not None
        # ...but not for a different circuit, fault list or budget.
        other = resettable_counter()
        other_faults = collapse_faults(other).representatives
        assert checkpoint.load(other, other_faults, BUDGET) is None
        assert checkpoint.load(circuit, faults[:-1], BUDGET) is None
        bigger = AtpgBudget(total_seconds=BUDGET.total_seconds + 1)
        assert checkpoint.load(circuit, faults, bigger) is None

    def test_header_only_checkpoint_loads_none(self, checkpoint):
        """A run killed before the random phase completed restores nothing."""
        circuit = toggle_counter()
        faults = collapse_faults(circuit).representatives
        checkpoint.start(circuit, faults, BUDGET)
        checkpoint.close()
        assert checkpoint.load(circuit, faults, BUDGET) is None

    def test_torn_trailing_line_is_dropped(self, checkpoint):
        circuit = toggle_counter()
        faults = collapse_faults(circuit).representatives
        run_atpg(circuit, faults, BUDGET, checkpoint=checkpoint)
        with open(checkpoint.path, "a", encoding="utf-8") as handle:
            handle.write('{"e": "fault", "f": [0, 0')  # the kill point
        state = checkpoint.load(circuit, faults, BUDGET)
        assert state is not None

    def test_malformed_middle_line_invalidates_only_the_tail(self, checkpoint):
        # resettable_counter keeps a few undetectable faults out of the
        # random phase's reach, so the deterministic phase always writes
        # per-fault records for this corruption test to target.
        circuit = resettable_counter()
        faults = collapse_faults(circuit).representatives
        run_atpg(circuit, faults, BUDGET, checkpoint=checkpoint)
        lines = open(checkpoint.path).read().splitlines()
        # Corrupt the first per-fault record; the random phase must survive.
        target = next(
            i for i, line in enumerate(lines) if json.loads(line).get("e") == "fault"
        )
        lines[target] = '{"e": "fault", "f": "not-a-fault", "s": "det"}'
        with open(checkpoint.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        state = checkpoint.load(circuit, faults, BUDGET)
        assert state is not None
        assert state.outcomes == {}  # tail dropped, random phase kept


class TestResumeBitIdentity:
    def _truncated_copy(self, checkpoint, keep_fault_lines):
        """Rewrite the checkpoint as if the run died mid-deterministic-phase."""
        lines = open(checkpoint.path).read().splitlines()
        kept, fault_seen = [], 0
        for line in lines:
            if json.loads(line).get("e") == "fault":
                fault_seen += 1
                if fault_seen > keep_fault_lines:
                    break
            kept.append(line)
        # A torn half-line at the kill point, as a real SIGKILL leaves.
        with open(checkpoint.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(kept) + "\n" + '{"e": "fault", "f": [1')
        return fault_seen > keep_fault_lines

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_killed_run_resumes_bit_identical(self, tmp_path, engine):
        circuit = resettable_counter()
        faults = collapse_faults(circuit).representatives

        reference = run_atpg(circuit, faults, BUDGET)

        checkpoint = AtpgCheckpoint(str(tmp_path / f"{engine}.ckpt"))
        run_atpg(circuit, faults, BUDGET, checkpoint=checkpoint)
        truncated = self._truncated_copy(checkpoint, keep_fault_lines=2)
        assert truncated, "workload too small to simulate a mid-run kill"

        resumed = run_atpg(
            circuit,
            faults,
            BUDGET,
            checkpoint=checkpoint,
            resume=True,
            engine=engine,
            workers=2 if engine == "process" else None,
        )
        assert resumed.test_set.to_text() == reference.test_set.to_text()
        assert sorted(resumed.detected) == sorted(reference.detected)
        assert sorted(resumed.aborted) == sorted(reference.aborted)

    def test_resume_without_surviving_checkpoint_restarts(self, tmp_path):
        circuit = toggle_counter()
        faults = collapse_faults(circuit).representatives
        checkpoint = AtpgCheckpoint(str(tmp_path / "fresh.ckpt"))
        reference = run_atpg(circuit, faults, BUDGET)
        resumed = run_atpg(
            circuit, faults, BUDGET, checkpoint=checkpoint, resume=True
        )
        assert resumed.test_set.to_text() == reference.test_set.to_text()
