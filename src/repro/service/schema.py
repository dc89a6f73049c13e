"""Request schema for the ATPG job service.

A job request is one JSON document describing *what to run* (a circuit, in
one of four formats), *how hard to try* (an ATPG budget) and *how to run
it* (execution options).  :func:`parse_request` validates the document and
compiles it into a :class:`JobRequest`; :meth:`JobRequest.fingerprint`
folds the request into the store key that drives service-level
deduplication.

Circuit formats::

    {"format": "table2",  "fsm": "s510", "style": "jo", "script": "rugged"}
    {"format": "bench",   "source": "INPUT(a)\\n...", "name": "mychip"}
    {"format": "verilog", "source": "module m (...); ...", "name": "mychip"}
    {"format": "builder", "name": "c1",
     "signals": [{"op": "input", "name": "a"},
                 {"op": "and", "name": "g1", "args": ["a", "q"]},
                 {"op": "dff", "name": "q", "args": ["g1"]}],
     "outputs": [["z", "g1"]]}

Execution options::

    {"verify": false}

Every option and budget field is validated here, so a bad value -- or a
key the service does not know -- is a 400 whether or not the answer is
already cached.

The word implementation is no option: the worker runs the numpy kernels
when numpy is importable and the bigint ones otherwise, with identical
results.  ATPG has one configuration (the random phase, then the exact
search), so the fingerprint -- the circuit identity, the budget
fingerprint and the ``verify`` flag -- names one test set whenever the
budget's clock does not bind; the verify stage has one extraction
policy, so it also names one verify outcome.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.atpg.budget import AtpgBudget
from repro.circuit.netlist import Circuit, CircuitError

_FORMATS = ("table2", "bench", "verilog", "builder")

_BUDGET_FIELDS = {f.name: f.type for f in dataclasses.fields(AtpgBudget)}

_OPTION_KEYS = ("verify",)


class SchemaError(ValueError):
    """A malformed or unsupported job request document."""


@dataclass
class JobRequest:
    """A validated job: circuit identity + budget + execution options."""

    label: str
    spec: Optional[object]  # CircuitSpec for table2 requests
    circuit: Optional[Circuit]  # compiled netlist for the other formats
    budget: AtpgBudget
    verify: bool = False
    tenant: Optional[str] = None

    def fingerprint(self) -> str:
        """The dedup key: same key == same artifacts, bit for bit.

        Table II specs key on the (fsm, style, script) triple -- the synth
        stage is deterministic, so the triple *is* the circuit identity.
        Explicit netlists key on the circuit digest plus structural
        identity, exactly like the pipeline's own stage keys.
        """
        from repro.circuit.digest import circuit_digest, structural_identity
        from repro.store.artifacts import budget_fingerprint
        from repro.store.core import ArtifactStore

        if self.spec is not None:
            identity: List[object] = [
                "table2",
                self.spec.fsm,
                self.spec.style,
                self.spec.script,
                self.spec.forward_stem_moves,
            ]
        else:
            identity = [
                "circuit",
                circuit_digest(self.circuit),
                structural_identity(self.circuit),
            ]
        return ArtifactStore.key(
            "service-flow", identity, budget_fingerprint(self.budget), self.verify
        )


def _require(payload: Dict, key: str, context: str) -> object:
    if key not in payload:
        raise SchemaError(f"{context}: missing required field {key!r}")
    return payload[key]


def _parse_table2_spec(circuit: Dict) -> object:
    from repro.core.experiments import TABLE2_CIRCUITS, CircuitSpec

    fsm = str(_require(circuit, "fsm", "table2 circuit"))
    style = str(_require(circuit, "style", "table2 circuit"))
    script = str(_require(circuit, "script", "table2 circuit"))
    script = {"sd": "delay", "sr": "rugged"}.get(script, script)
    if style not in ("ji", "jo", "jc"):
        raise SchemaError(f"table2 circuit: unknown style {style!r}")
    if script not in ("delay", "rugged"):
        raise SchemaError(f"table2 circuit: unknown script {script!r}")
    for spec in TABLE2_CIRCUITS:
        if (spec.fsm, spec.style, spec.script) == (fsm, style, script):
            return spec
    return CircuitSpec(fsm, style, script, 0)


def _parse_builder(circuit: Dict) -> Circuit:
    from repro.circuit.builder import CircuitBuilder
    from repro.circuit.types import GateType

    name = str(circuit.get("name") or "builder")
    signals = circuit.get("signals")
    if not isinstance(signals, list):
        raise SchemaError("builder circuit: 'signals' must be a list")
    builder = CircuitBuilder(name)
    for index, item in enumerate(signals):
        if not isinstance(item, dict) or "op" not in item or "name" not in item:
            raise SchemaError(
                f"builder circuit: signal #{index} needs 'op' and 'name'"
            )
        op = str(item["op"]).lower()
        signal = str(item["name"])
        args = [str(a) for a in item.get("args", [])]
        if op == "input":
            builder.input(signal)
        elif op == "const0":
            builder.const0(signal)
        elif op == "const1":
            builder.const1(signal)
        elif op == "dff":
            if len(args) != 1:
                raise SchemaError(
                    f"builder circuit: dff {signal!r} needs exactly one arg"
                )
            builder.dff(signal, args[0])
        else:
            try:
                gate_type = GateType(op)
            except ValueError:
                raise SchemaError(
                    f"builder circuit: unknown op {op!r} for signal {signal!r}"
                ) from None
            builder.gate(signal, gate_type, args)
    outputs = circuit.get("outputs")
    if not isinstance(outputs, list) or not outputs:
        raise SchemaError("builder circuit: 'outputs' must be a non-empty list")
    for index, item in enumerate(outputs):
        if isinstance(item, dict):
            pair = (item.get("name"), item.get("signal"))
        else:
            pair = tuple(item) if isinstance(item, (list, tuple)) else (None, None)
        if len(pair) != 2 or not all(isinstance(p, str) for p in pair):
            raise SchemaError(
                f"builder circuit: output #{index} must be [name, signal]"
            )
        builder.output(pair[0], pair[1])
    return builder.build(allow_dangling=True)


def _parse_circuit(circuit: object) -> "tuple[Optional[object], Optional[Circuit], str]":
    """``(spec, netlist, label)`` from the request's circuit document."""
    if not isinstance(circuit, dict):
        raise SchemaError("'circuit' must be a JSON object")
    fmt = circuit.get("format")
    if fmt not in _FORMATS:
        raise SchemaError(
            f"circuit format must be one of {', '.join(_FORMATS)}; got {fmt!r}"
        )
    try:
        if fmt == "table2":
            spec = _parse_table2_spec(circuit)
            return spec, None, spec.name
        if fmt == "bench":
            from repro.circuit.bench_io import parse_bench

            source = str(_require(circuit, "source", "bench circuit"))
            name = str(circuit.get("name") or "bench")
            netlist = parse_bench(source, name=name)
        elif fmt == "verilog":
            from repro.circuit.verilog_io import parse_verilog

            source = str(_require(circuit, "source", "verilog circuit"))
            netlist = parse_verilog(source, name=circuit.get("name"))
        else:
            netlist = _parse_builder(circuit)
    except CircuitError as error:
        raise SchemaError(f"{fmt} circuit: {error}") from error
    return None, netlist, netlist.name


def _parse_budget(raw: object) -> AtpgBudget:
    if raw is None:
        return AtpgBudget()
    if not isinstance(raw, dict):
        raise SchemaError("'budget' must be a JSON object")
    kwargs: Dict[str, object] = {}
    for key, value in raw.items():
        if key not in _BUDGET_FIELDS:
            raise SchemaError(f"budget: unknown field {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"budget: field {key!r} must be a number")
        kwargs[key] = value
    try:
        return AtpgBudget(**kwargs)
    except ValueError as error:
        raise SchemaError(f"budget: {error}") from error


def _parse_options(raw: object) -> Dict[str, object]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SchemaError("'options' must be a JSON object")
    options: Dict[str, object] = {}
    for key, value in raw.items():
        if key not in _OPTION_KEYS:
            raise SchemaError(f"options: unknown option {key!r}")
        options[key] = value
    if not isinstance(options.get("verify", False), bool):
        raise SchemaError("options: 'verify' must be a boolean")
    return options


def parse_request(
    payload: object, default_tenant: Optional[str] = None
) -> JobRequest:
    """Validate one job document into a :class:`JobRequest`.

    Raises :class:`SchemaError` (a ``ValueError``) on any malformed input,
    with a message naming the offending field -- the server relays it
    verbatim as the 400 response body.
    """
    from repro.store.core import _TENANT_RE

    if not isinstance(payload, dict):
        raise SchemaError("job request must be a JSON object")
    unknown = set(payload) - {"circuit", "budget", "options", "tenant"}
    if unknown:
        raise SchemaError(f"unknown request fields: {', '.join(sorted(unknown))}")
    spec, circuit, label = _parse_circuit(_require(payload, "circuit", "request"))
    budget = _parse_budget(payload.get("budget"))
    options = _parse_options(payload.get("options"))
    tenant = payload.get("tenant", default_tenant)
    if tenant is not None:
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise SchemaError(f"invalid tenant name {tenant!r}")
    return JobRequest(
        label=label,
        spec=spec,
        circuit=circuit,
        budget=budget,
        verify=options.get("verify", False),
        tenant=tenant,
    )


__all__ = ["JobRequest", "SchemaError", "parse_request"]
