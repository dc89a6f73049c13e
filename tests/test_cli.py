"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "dk16" in out and "121" in out

    def test_synth_emits_bench(self, capsys):
        assert main(["synth", "s820", "jc", "rugged"]) == 0
        out = capsys.readouterr().out
        assert "INPUT(" in out and "= DFF(" in out

    def test_synth_accepts_script_codes(self, capsys):
        assert main(["synth", "s820", "jc", "sr"]) == 0
        assert "OUTPUT(" in capsys.readouterr().out

    def test_retime_reports_prefix(self, capsys):
        assert main(["retime", "pma", "jo", "delay"]) == 0
        out = capsys.readouterr().out
        assert "prefix |P| = 1" in out

    def test_missing_args(self, capsys):
        assert main(["synth"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_atpg_emits_testset(self, capsys):
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        captured = capsys.readouterr()
        assert "# testset" in captured.out
        assert "FC" in captured.err

    def test_equiv_reports_classes_and_sequence(self, capsys):
        assert main(["equiv", "dk16", "ji", "sd"]) == 0
        captured = capsys.readouterr()
        assert "32 states x 16 vectors" in captured.out
        assert "equivalence classes" in captured.out
        assert "functional sync sequence" in captured.out
        assert "store:" in captured.err

    def test_equiv_reference_engine_matches(self, capsys):
        """The printed counts are the scalar oracle's."""
        from repro.core.experiments import TABLE2_CIRCUITS, build_pair
        from repro.equivalence.explicit import extract_stg_reference
        from repro.equivalence.relations import classify_reference

        assert main(["equiv", "dk16", "ji", "sd"]) == 0
        out = capsys.readouterr().out
        spec = next(s for s in TABLE2_CIRCUITS if s.name == "dk16.ji.sd")
        oracle = extract_stg_reference(build_pair(spec).original)
        classes = len(set(classify_reference([oracle]).class_array(0)))
        assert classes == 28
        assert (
            f"full space: {len(oracle.states)} states x {len(oracle.alphabet)} "
            f"vectors, {classes} equivalence classes"
        ) in out

    def test_equiv_rejects_oversized_circuit(self, capsys):
        # s820 has 18 primary inputs -- beyond both state-space caps.
        assert main(["equiv", "s820", "jc", "rugged"]) == 1
        assert "state space too large" in capsys.readouterr().err

    def test_equiv_reach_engine_reports_visited_states(self, capsys):
        assert main(["equiv", "dk16", "ji", "sd", "--initial", "reset"]) == 0
        out = capsys.readouterr().out
        assert "reachable from reset: visited 27 of 32 states" in out
        assert "peak frontier" in out

    def test_equiv_reach_initial_all_matches_bitset_counts(self, capsys):
        assert main(["equiv", "dk16", "ji", "sd", "--initial", "all"]) == 0
        out = capsys.readouterr().out
        assert "full space: 32 states x 16 vectors" in out
        assert "28 equivalence classes" in out
        assert main(["equiv", "dk16", "ji", "sd"]) == 0
        assert capsys.readouterr().out == out  # "all" is the default

    def test_equiv_help_prints_engine_limits_table(self, capsys):
        assert main(["equiv", "--help"]) == 0
        out = capsys.readouterr().out
        assert "state-space caps:" in out
        assert "all:   18 registers, 12 inputs, 2^22" in out
        assert "reset: 30 output-cone registers, 12 inputs, 2^24" in out

    def test_flow_verify_stage_runs(self, capsys):
        assert main(["flow", "dk16", "ji", "sd", "2", "--verify"]) == 0
        captured = capsys.readouterr()
        assert "stage verify:" in captured.err

    def test_flow_verify_prints_the_checked_outcome(self, capsys):
        assert main(["flow", "dk16", "ji", "sd", "--no-store", "--verify"]) == 0
        out = capsys.readouterr().out
        assert (
            "verify: checked, K ==1t K' (least N 1); "
            "hard: 134 states reachable from reset; easy: all 32 states"
        ) in out.splitlines()

    def test_flow_verify_prints_the_unverified_outcome(self, capsys):
        assert main(["flow", "s510", "jo", "sr", "--no-store", "--verify"]) == 0
        out = capsys.readouterr().out
        assert (
            "verify: unverified, s510.jo.sr.re: 21 inputs is past the "
            "reachable-state cap of 12 (2^21 = 2097152 vectors per state)"
        ) in out.splitlines()

    def test_flow_without_verify_prints_no_outcome(self, capsys):
        assert main(["flow", "dk16", "ji", "sd", "--no-store"]) == 0
        assert "verify:" not in capsys.readouterr().out


class TestRunArguments:
    """``atpg``/``flow`` check ``[seconds]`` before any stage runs, and a
    stage that raises ends the run's journal ``ok: false``."""

    @staticmethod
    def _journals():
        import glob
        import os

        from repro.store.core import default_store

        return sorted(glob.glob(os.path.join(default_store().journal_dir, "*.jsonl")))

    @pytest.mark.parametrize("command", ["atpg", "flow"])
    @pytest.mark.parametrize("seconds", ["abc", "nan", "-1"])
    def test_bad_seconds_is_a_usage_error(self, capsys, monkeypatch, command, seconds):
        from repro.pipeline import FlowPipeline

        def never(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(FlowPipeline, "stage_collapse", never)
        monkeypatch.setattr(FlowPipeline, "run_spec", never)
        assert main([command, "dk16", "ji", "sd", seconds]) == 2
        err = capsys.readouterr().err
        assert f"seconds must be a number >= 0, got {seconds!r}" in err
        assert self._journals() == []

    @pytest.mark.parametrize("command", ["atpg", "flow"])
    def test_failed_stage_ends_the_journal_not_ok(self, monkeypatch, command):
        from repro.pipeline import FlowPipeline
        from repro.store.journal import read_journal

        def broken(*args, **kwargs):
            raise RuntimeError("stage broke")

        monkeypatch.setattr(FlowPipeline, "stage_atpg", broken)
        monkeypatch.setattr(FlowPipeline, "run_spec", broken)
        with pytest.raises(RuntimeError, match="stage broke"):
            main([command, "dk16", "ji", "sd", "3"])
        (journal,) = self._journals()
        last = list(read_journal(journal))[-1]
        assert (last["event"], last["ok"]) == ("run_end", False)

    def test_finished_run_ends_the_journal_ok(self, capsys):
        from repro.store.journal import read_journal

        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        (journal,) = self._journals()
        last = list(read_journal(journal))[-1]
        assert (last["event"], last["ok"]) == ("run_end", True)
