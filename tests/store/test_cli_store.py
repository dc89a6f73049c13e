"""CLI coverage for the ``store`` subcommand and the shared run flags."""

import json

import pytest

from repro.__main__ import _pop_flags, _spec, main
from repro.store.core import default_store


class TestStoreSubcommand:
    def test_stats_reports_empty_store(self, capsys):
        assert main(["store", "stats", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["artifacts"] == 0
        assert summary["root"] == default_store().root

    def test_stats_counts_after_a_run(self, capsys):
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["artifacts"] > 0
        assert "faults" in summary["by_kind"]

    def test_gc_respects_journal_pins(self, capsys):
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        capsys.readouterr()
        assert main(["store", "gc", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        # Everything the journalled run touched stays; nothing else exists.
        assert report["skipped_pinned"] > 0
        assert report["evicted"] == 0

    def test_clear_empties_the_store(self, capsys):
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        capsys.readouterr()
        assert main(["store", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"] == 0

    def test_disabled_store_reports_failure(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DISABLE", "1")
        assert main(["store", "stats"]) == 1
        assert "disabled" in capsys.readouterr().err

    def test_unknown_action_is_a_usage_error(self, capsys):
        assert main(["store", "frobnicate"]) == 2


class TestRunFlags:
    def test_pop_flags_defaults(self):
        positional, options = _pop_flags(["dk16", "ji", "sd"])
        assert positional == ["dk16", "ji", "sd"]
        assert options == {
            "store": True,
            "resume": False,
            "workers": None,
            "guidance": "off",
            "initial": "all",
            "retimed": False,
            "max_length": None,
            "verify": False,
        }

    def test_pop_flags_parses_everything(self):
        positional, options = _pop_flags(
            [
                "--no-store",
                "dk16",
                "--resume",
                "ji",
                "--workers",
                "3",
                "sd",
                "--guidance",
                "scoap",
                "--initial",
                "reset",
                "--retimed",
                "--max-length",
                "5",
                "--verify",
            ]
        )
        assert positional == ["dk16", "ji", "sd"]
        assert options == {
            "store": False,
            "resume": True,
            "workers": 3,
            "guidance": "scoap",
            "initial": "reset",
            "retimed": True,
            "max_length": 5,
            "verify": True,
        }

    def test_workers_without_count_is_an_error(self):
        with pytest.raises(ValueError):
            _pop_flags(["--workers"])

    def test_kernel_without_name_is_an_error(self):
        with pytest.raises(ValueError, match="--kernel"):
            _pop_flags(["--kernel"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kernel", "scalar"],
            ["--guidance", "learned"],
            ["--guidance", "auto"],
            ["--bogus"],
            ["--stg-engine", "auto"],
            ["--engine", "reach"],
            ["--backend", "numpy"],
        ],
    )
    def test_retired_and_unknown_flags_exit_2(self, capsys, flags):
        assert main(["atpg", "--no-store", "dk16", "ji", "sd", "3"] + flags) == 2
        assert flags[0] in capsys.readouterr().err

    def test_unknown_flag_is_not_a_positional(self, capsys):
        assert main(["synth", "dk16", "ji", "sd", "--frobnicate"]) == 2
        assert "--frobnicate" in capsys.readouterr().err
        assert main(["atpg", "--no-store", "--bogus", "dk16", "ji", "sd"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "many"], ["--workers", "0"], ["--initial", "bogus"]],
    )
    def test_bad_option_fails_the_same_warm_and_cold(self, capsys, flags):
        """The option is checked before any stage, so a cached ATPG stage
        cannot hide it."""
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        capsys.readouterr()
        warm = main(["atpg", "dk16", "ji", "sd", "3"] + flags)
        warm_err = capsys.readouterr().err
        cold = main(["atpg", "--no-store", "dk16", "ji", "sd", "3"] + flags)
        cold_err = capsys.readouterr().err
        assert warm == cold == 2
        assert warm_err == cold_err and flags[1] in cold_err

    def test_backend_without_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown option '--backend'"):
            _pop_flags(["--backend"])

    def test_guidance_rejects_unknown_modes(self):
        with pytest.raises(ValueError):
            _pop_flags(["--guidance"])
        for mode in ("psychic", "learned", "auto"):
            with pytest.raises(ValueError, match="off or scoap"):
                _pop_flags(["--guidance", mode])

    def test_no_store_atpg_writes_nothing(self, capsys):
        assert main(["atpg", "--no-store", "dk16", "ji", "sd", "3"]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"] == 0

    def test_warm_atpg_reprints_identical_testset(self, capsys):
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        cold = capsys.readouterr()
        assert main(["atpg", "dk16", "ji", "sd", "3"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "stage atpg: hit" in warm.err


class TestSpecLookup:
    def test_table2_spec_carries_paper_forward_moves(self, capsys):
        spec = _spec("pma", "jo", "sd")  # Table II lists one forward move
        assert spec.forward_stem_moves == 1
        assert capsys.readouterr().err == ""

    def test_unknown_spec_warns_and_names_known_ones(self, capsys):
        spec = _spec("nosuch", "ji", "sd")
        assert spec.forward_stem_moves == 0
        err = capsys.readouterr().err
        assert "not a Table II circuit" in err
        assert "dk16.ji.sd" in err


class TestStatsTableAndServeUsage:
    def test_stats_renders_table_by_default(self, capsys):
        assert main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "store root:" in out
        assert "session" in out and "lifetime" in out
        assert "evictions" in out

    def test_stats_table_shows_shards_and_tenants(self, capsys):
        store = default_store()
        store.put("demo", store.key("x"), {"v": 1})
        assert main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "shard" in out and "tenant" in out
        assert "shared" in out  # the no-namespace tenant row

    def test_gc_accepts_tenant_max_bytes(self, capsys):
        assert main(["store", "gc", "--tenant-max-bytes", "1024"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tenant_max_bytes"] == 1024

    def test_serve_rejects_unknown_option(self, capsys):
        assert main(["serve", "--frobnicate"]) == 2
        assert "unknown serve option" in capsys.readouterr().err

    def test_serve_rejects_dangling_value_option(self, capsys):
        assert main(["serve", "--port"]) == 2
        assert "needs a valid value" in capsys.readouterr().err
