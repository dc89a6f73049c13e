"""Request-schema validation and dedup-fingerprint semantics."""

import pytest

from repro.service.schema import SchemaError, parse_request

BENCH_SOURCE = """\
INPUT(a)
OUTPUT(z)
q = DFF(g1)
g1 = AND(a, q)
z = NOT(g1)
"""

BUILDER_CIRCUIT = {
    "format": "builder",
    "name": "tiny",
    "signals": [
        {"op": "input", "name": "a"},
        {"op": "and", "name": "g1", "args": ["a", "q"]},
        {"op": "dff", "name": "q", "args": ["g1"]},
        {"op": "not", "name": "g2", "args": ["g1"]},
    ],
    "outputs": [["z", "g2"]],
}


def _table2(fsm="s510", style="jo", script="rugged"):
    return {"circuit": {"format": "table2", "fsm": fsm, "style": style, "script": script}}


class TestCircuitFormats:
    def test_table2_resolves_known_spec(self):
        request = parse_request(_table2("pma", "jo", "delay"))
        assert request.spec is not None
        assert request.spec.forward_stem_moves == 1  # the paper names pma.jo.sd
        assert request.circuit is None
        assert request.label == "pma.jo.sd"

    def test_table2_normalizes_script_codes(self):
        sd = parse_request(_table2("dk16", "ji", "sd"))
        delay = parse_request(_table2("dk16", "ji", "delay"))
        assert sd.spec == delay.spec

    def test_table2_unknown_fsm_still_parses(self):
        request = parse_request(_table2("nosuch", "ji", "delay"))
        assert request.spec.forward_stem_moves == 0

    def test_table2_rejects_bad_style(self):
        with pytest.raises(SchemaError, match="style"):
            parse_request(_table2(style="xx"))

    def test_bench_compiles_to_circuit(self):
        request = parse_request(
            {"circuit": {"format": "bench", "source": BENCH_SOURCE, "name": "tiny"}}
        )
        assert request.spec is None
        assert request.circuit.num_registers() == 1
        assert request.label == "tiny"

    def test_bench_syntax_error_is_schema_error(self):
        with pytest.raises(SchemaError, match="bench"):
            parse_request({"circuit": {"format": "bench", "source": "g = WAT(a)"}})

    def test_verilog_compiles_to_circuit(self):
        from repro.circuit import parse_bench, write_verilog

        source = write_verilog(parse_bench(BENCH_SOURCE, name="tiny"))
        request = parse_request(
            {"circuit": {"format": "verilog", "source": source, "name": "tiny"}}
        )
        assert request.circuit.num_registers() == 1

    def test_builder_compiles_to_circuit(self):
        request = parse_request({"circuit": BUILDER_CIRCUIT})
        assert request.circuit.name == "tiny"
        assert request.circuit.num_registers() == 1

    def test_builder_rejects_unknown_op(self):
        circuit = dict(BUILDER_CIRCUIT, signals=[{"op": "frob", "name": "x"}])
        with pytest.raises(SchemaError, match="frob"):
            parse_request({"circuit": circuit})

    def test_unknown_format_rejected(self):
        with pytest.raises(SchemaError, match="format"):
            parse_request({"circuit": {"format": "edif"}})

    def test_missing_circuit_rejected(self):
        with pytest.raises(SchemaError, match="circuit"):
            parse_request({})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SchemaError, match="frobnicate"):
            parse_request({**_table2(), "frobnicate": 1})


class TestBudgetAndOptions:
    def test_budget_fields_apply(self):
        request = parse_request(
            {**_table2(), "budget": {"total_seconds": 5.0, "seed": 7}}
        )
        assert request.budget.total_seconds == 5.0
        assert request.budget.seed == 7

    def test_budget_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="wallclock"):
            parse_request({**_table2(), "budget": {"wallclock": 1}})

    def test_budget_non_numeric_rejected(self):
        with pytest.raises(SchemaError, match="total_seconds"):
            parse_request({**_table2(), "budget": {"total_seconds": "fast"}})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("random_batch", 0),
            ("sync_samples", 0),
            ("random_length", 2.5),
            ("total_seconds", float("nan")),
            ("seconds_per_fault", -1.0),
        ],
    )
    def test_budget_that_cannot_run_rejected(self, field, value):
        """A budget that would hang or crash ATPG is a 400, not a job."""
        with pytest.raises(SchemaError, match=f"budget: {field} must be"):
            parse_request({**_table2(), "budget": {field: value}})

    def test_options_apply(self):
        request = parse_request(
            {
                **_table2(),
                "options": {"workers": 2, "engine": "process", "verify": True},
            }
        )
        assert request.workers == 2
        assert request.engine == "process"
        assert request.verify is True

    def test_options_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="turbo"):
            parse_request({**_table2(), "options": {"turbo": True}})

    def test_options_bad_kernel_rejected(self):
        """PODEM has one kernel, so ``kernel`` is no option at all."""
        for kernel in ("warp", "dual"):
            with pytest.raises(SchemaError, match="unknown option 'kernel'"):
                parse_request({**_table2(), "options": {"kernel": kernel}})

    def test_options_bad_workers_rejected(self):
        with pytest.raises(SchemaError, match="workers"):
            parse_request({**_table2(), "options": {"workers": 0}})

    @pytest.mark.parametrize("workers", [True, False, 1.5, "2"])
    def test_options_non_integer_workers_rejected(self, workers):
        with pytest.raises(SchemaError, match="workers"):
            parse_request({**_table2(), "options": {"workers": workers}})

    def test_options_engine_validated(self):
        for engine in ("serial", "process", "auto", None):
            request = parse_request({**_table2(), "options": {"engine": engine}})
            assert request.engine == engine
        for engine in ("gpu", "", 2):
            with pytest.raises(SchemaError, match="'engine' must be one of"):
                parse_request({**_table2(), "options": {"engine": engine}})

    @pytest.mark.parametrize("value", ["auto", "bitset", "reference", "reach"])
    def test_options_stg_engine_is_unknown(self, value):
        """The verify stage has one extraction policy, so ``stg_engine`` is
        no option at all."""
        with pytest.raises(SchemaError, match="unknown option 'stg_engine'"):
            parse_request({**_table2(), "options": {"stg_engine": value}})

    @pytest.mark.parametrize("value", ["auto", "bigint", "numpy"])
    def test_options_backend_is_unknown(self, value):
        """The platform picks the word implementation, so ``backend`` is
        no option at all."""
        with pytest.raises(SchemaError, match="unknown option 'backend'"):
            parse_request({**_table2(), "options": {"backend": value}})

    def test_every_other_option_parses_as_before(self):
        options = {
            "workers": 3,
            "engine": "serial",
            "guidance": "scoap",
            "verify": True,
        }
        request = parse_request({**_table2(), "options": options})
        assert {key: getattr(request, key) for key in options} == options
        assert not hasattr(request, "stg_engine")
        assert not hasattr(request, "backend")

    @pytest.mark.parametrize("guidance", ["learned", "auto", "psychic"])
    def test_options_guidance_is_off_or_scoap(self, guidance):
        with pytest.raises(SchemaError, match="off, scoap"):
            parse_request({**_table2(), "options": {"guidance": guidance}})

    def test_invalid_tenant_rejected(self):
        with pytest.raises(SchemaError, match="tenant"):
            parse_request({**_table2(), "tenant": "../escape"})

    def test_default_tenant_applies_when_absent(self):
        request = parse_request(_table2(), default_tenant="team-a")
        assert request.tenant == "team-a"
        explicit = parse_request({**_table2(), "tenant": "team-b"}, "team-a")
        assert explicit.tenant == "team-b"


class TestFingerprint:
    def test_execution_knobs_do_not_change_the_fingerprint(self):
        base = parse_request(_table2()).fingerprint()
        tuned = parse_request(
            {
                **_table2(),
                "options": {"workers": 4, "engine": "process"},
            }
        ).fingerprint()
        assert tuned == base  # bit-identical results => same work

    def test_budget_changes_the_fingerprint(self):
        base = parse_request(_table2()).fingerprint()
        longer = parse_request(
            {**_table2(), "budget": {"total_seconds": 60.0}}
        ).fingerprint()
        assert longer != base

    def test_verify_changes_the_fingerprint(self):
        base = parse_request(_table2()).fingerprint()
        verified = parse_request(
            {**_table2(), "options": {"verify": True}}
        ).fingerprint()
        assert verified != base

    def test_equivalent_netlists_share_a_fingerprint(self):
        bench = parse_request(
            {"circuit": {"format": "bench", "source": BENCH_SOURCE, "name": "a"}}
        ).fingerprint()
        again = parse_request(
            {
                "circuit": {
                    "format": "bench",
                    "source": BENCH_SOURCE + "\n# trailing comment\n",
                    "name": "b",
                }
            }
        ).fingerprint()
        assert bench == again  # digest identity, not text identity

    def test_different_circuits_differ(self):
        table2 = parse_request(_table2()).fingerprint()
        bench = parse_request(
            {"circuit": {"format": "bench", "source": BENCH_SOURCE}}
        ).fingerprint()
        assert table2 != bench
