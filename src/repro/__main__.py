"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``table1`` — print the Table I machine characteristics;
* ``synth <fsm> <style> <script>`` — synthesize a benchmark circuit and
  print its BENCH netlist (e.g. ``synth s820 jc rugged``);
* ``retime <fsm> <style> <script>`` — synthesize, performance-retime, and
  report the pair's statistics and prefix length;
* ``atpg <fsm> <style> <script> [seconds]`` — run the ATPG engine on a
  benchmark circuit and print the test set (``testset`` text format);
  ``seconds`` is the wall-clock budget (default 30), a number ``>= 0``;
* ``flow <fsm> <style> <script> [seconds]`` — run the Fig. 6
  retime-for-testability flow on the retimed circuit (``--verify`` adds a
  Lemma 2 behavioural check stage and prints its outcome: the bound and
  each side's state space, or ``unverified`` and the reason);
* ``equiv <fsm> <style> <script>`` — explicit state-space analysis: state
  counts, equivalence classes and the shortest functional synchronizing
  sequence (``--initial all|reset`` picks the full state space, the
  default, or the states reachable from reset; ``--retimed`` analyses the
  retimed circuit, ``--max-length N`` bounds the sequence search);
  ``equiv --help`` prints the two state-space caps; prints artifact-store
  hit/miss stats;
* ``store stats [--json]`` — one table of per-kind, per-shard and
  per-tenant artifact counts/bytes plus session and lifetime hit/miss/
  eviction counters (``--json`` emits the machine-readable summary);
  ``store gc [max_bytes] [--tenant-max-bytes N]`` / ``store clear`` —
  size-bound (globally and per tenant) or empty the persistent store;
* ``serve`` — run the ATPG job service (``repro.service``): an HTTP/JSON
  API that accepts circuit specs, runs Fig. 6 flows on a worker pool,
  dedups in-flight and completed work against the store, and streams run
  journals as NDJSON.  Connections are keep-alive by default and the job
  table persists across restarts via an index under the store root.
  Options: ``--host``, ``--port``, ``--pool N``, ``--tenant NAME``
  (default namespace), ``--no-store``, ``--queue-high-water N``
  (backpressure: 429 + Retry-After past that queue depth),
  ``--idle-timeout SECONDS`` / ``--max-requests N`` (per-connection
  keep-alive limits), ``--gc-interval SECONDS`` + ``--max-bytes N`` /
  ``--tenant-max-bytes N`` (background store GC loop, also compacts the
  job index).

``atpg`` and ``flow`` memoize their expensive stages against the artifact
store (``~/.cache/repro-store``, override with ``REPRO_STORE_DIR``) and
journal each run under its ``journals/`` directory.  Flags:

* ``--no-store`` — compute everything, touch no cache (``--store`` is the
  default);
* ``--resume`` — restore a surviving mid-run ATPG checkpoint for the same
  circuit, fault list and budget (e.g. after a kill) instead of restarting
  the deterministic phase from scratch;
* ``--workers N`` — run the deterministic ATPG phase on N worker processes;
* ``--guidance off|scoap`` — SCOAP testability ranking for ATPG fault
  ordering, pool partitioning and backtrace objectives (``off``, the
  default, is bit-identical to the unguided engine; ``scoap`` may emit a
  *different but equally valid* test set faster — see
  :mod:`repro.atpg.guidance`).

The compiled kernels run on numpy when it is installed and on Python
bigints otherwise, with bit-identical results; no flag picks between them.

An unknown ``--flag``, an invalid option value or a bad ``seconds`` is a
usage error (exit status 2).
"""

from __future__ import annotations

import contextlib
import json
import sys

from repro.atpg import AtpgBudget
from repro.circuit import write_bench
from repro.core import build_pair, format_table
from repro.core.experiments import TABLE2_CIRCUITS, CircuitSpec
from repro.fsm import table1


def _spec(fsm: str, style: str, script: str) -> CircuitSpec:
    script = {"sd": "delay", "sr": "rugged"}.get(script, script)
    for known in TABLE2_CIRCUITS:
        if (known.fsm, known.style, known.script) == (fsm, style, script):
            return known
    # Not one of the sixteen Table II variants: the paper only names the
    # forward-move counts for those, so anything else silently assuming 0
    # moves would be easy to misread as "this spec exists".  Say so.
    print(
        f"warning: {fsm}.{style}.{script} is not a Table II circuit; "
        "assuming forward_stem_moves=0. Known specs: "
        + ", ".join(sorted(s.name for s in TABLE2_CIRCUITS)),
        file=sys.stderr,
    )
    return CircuitSpec(fsm, style, script, 0)


def _budget(argv, position) -> AtpgBudget:
    """The ``[seconds]`` argument as a budget (``ValueError`` if bad)."""
    if len(argv) <= position:
        return AtpgBudget(total_seconds=30.0)
    try:
        return AtpgBudget(total_seconds=float(argv[position]))
    except ValueError:
        raise ValueError(
            f"seconds must be a number >= 0, got {argv[position]!r}"
        ) from None


def _pop_flags(rest):
    """Split ``rest`` into positionals and the shared option set."""
    options = {
        "store": True,
        "resume": False,
        "workers": None,
        "guidance": "off",
        "retimed": False,
        "max_length": None,
        "initial": "all",
        "verify": False,
    }
    positional = []
    index = 0
    while index < len(rest):
        argument = rest[index]
        if argument == "--store":
            options["store"] = True
        elif argument == "--no-store":
            options["store"] = False
        elif argument == "--resume":
            options["resume"] = True
        elif argument == "--retimed":
            options["retimed"] = True
        elif argument == "--workers":
            index += 1
            if index >= len(rest):
                raise ValueError("--workers needs a count")
            options["workers"] = int(rest[index])
        elif argument == "--guidance":
            index += 1
            if index >= len(rest) or rest[index] not in ("off", "scoap"):
                raise ValueError("--guidance needs a mode (off or scoap)")
            options["guidance"] = rest[index]
        elif argument == "--initial":
            index += 1
            space = rest[index] if index < len(rest) else None
            if space not in ("all", "reset"):
                raise ValueError(
                    f"--initial needs a state space (all or reset), got {space!r}"
                )
            options["initial"] = space
        elif argument == "--verify":
            options["verify"] = True
        elif argument == "--max-length":
            index += 1
            if index >= len(rest):
                raise ValueError("--max-length needs a count")
            options["max_length"] = int(rest[index])
        elif argument.startswith("--"):
            raise ValueError(f"unknown option {argument!r}")
        else:
            positional.append(argument)
        index += 1
    return positional, options


def _open_run(options, label):
    """(store, journal) for one atpg/flow run, honouring ``--no-store``."""
    from repro.store.core import default_store
    from repro.store.journal import RunJournal

    store = default_store() if options["store"] else None
    journal = (
        RunJournal.create(store.journal_dir, label) if store is not None else None
    )
    return store, journal


def _equiv_usage() -> str:
    from repro.equivalence import ENGINE_LIMITS

    full, reach = ENGINE_LIMITS["bitset"], ENGINE_LIMITS["reach"]
    return (
        "usage: python -m repro equiv <fsm> <style> <script> [options]\n"
        "\n"
        "options:\n"
        "  --initial all|reset      full state space (default) or the states\n"
        "                           reachable from reset\n"
        "  --retimed                analyse the retimed circuit\n"
        "  --max-length N           sync-sequence search bound (default 8)\n"
        "  --no-store               bypass the artifact store\n"
        "\n"
        "state-space caps:\n"
        f"  all:   {full.registers} registers, {full.inputs} inputs, "
        f"2^{full.transitions.bit_length() - 1} states x vectors\n"
        f"  reset: {reach.registers} output-cone registers, {reach.inputs} inputs, "
        f"2^{reach.transitions.bit_length() - 1} visited states x vectors"
    )


def _equiv_command(spec, options) -> int:
    """Explicit state-space analysis of one benchmark circuit."""
    from repro.equivalence import (
        ReachableSTG,
        StateSpaceTooLarge,
        classify,
        extract_stg,
        find_functional_sync_sequence,
    )
    from repro.store.core import default_store

    store = default_store() if options["store"] else None
    pair = build_pair(spec, store=store)
    circuit = pair.retimed if options["retimed"] else pair.original
    max_length = options["max_length"] if options["max_length"] is not None else 8
    try:
        stg = extract_stg(
            circuit,
            use_store=options["store"],
            initial_states=options["initial"],
        )
    except StateSpaceTooLarge as error:
        print(f"state space too large: {error}", file=sys.stderr)
        return 1
    classification = classify([stg])
    num_classes = len(set(classification.class_array(0)))
    sequence = find_functional_sync_sequence(
        stg, max_length=max_length, classification=classification
    )
    print(
        f"circuit {circuit.name}: {circuit.num_gates()} gates, "
        f"{circuit.num_registers()} dffs, {len(circuit.input_names)} inputs"
    )
    if isinstance(stg, ReachableSTG):
        print(
            f"reachable from reset: visited {stg.visited_states} of "
            f"{stg.total_states} states x {len(stg.alphabet)} vectors "
            f"(peak frontier {stg.peak_frontier}, {stg.levels} levels), "
            f"{num_classes} equivalence classes"
        )
    else:
        print(
            f"full space: {len(stg.states)} states x "
            f"{len(stg.alphabet)} vectors, {num_classes} equivalence classes"
        )
    if sequence is None:
        print(f"functional sync sequence: none found (max length {max_length})")
    elif not sequence:
        print("functional sync sequence: empty (all states already equivalent)")
    else:
        rendered = " ".join("".join(str(bit) for bit in v) for v in sequence)
        print(f"functional sync sequence ({len(sequence)} vectors): {rendered}")
    if store is not None:
        stats = store.stats
        print(
            f"store: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.writes} writes",
            file=sys.stderr,
        )
    return 0


def _verify_line(detail, flow) -> str:
    """The verify stage's outcome: the bound and each side's state space,
    or ``unverified`` and the reason."""
    if not detail["checked"]:
        return f"verify: unverified, {detail['skipped']}"
    spaces = []
    for side, circuit in (("hard", flow.hard_circuit), ("easy", flow.easy_circuit)):
        visited = detail.get(f"visited_{side}")
        if visited is None:
            spaces.append(f"{side}: all {1 << circuit.num_registers()} states")
        else:
            spaces.append(f"{side}: {visited} states reachable from reset")
    return (
        f"verify: checked, K =={detail['bound']}t K' (least N {detail['found']}); "
        + "; ".join(spaces)
    )


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"


def _render_stats(summary) -> str:
    """The ``store stats`` table: kinds, shards, tenants, counters."""
    lines = [
        f"store root: {summary['root']}",
        f"schema:     {summary['schema']}",
        f"artifacts:  {summary['artifacts']} ({_human_bytes(summary['bytes'])})",
        "",
    ]
    kind_rows = [
        {"kind": kind, "artifacts": count}
        for kind, count in summary["by_kind"].items()
    ]
    if kind_rows:
        lines.append(format_table(kind_rows, ["kind", "artifacts"]))
        lines.append("")
    for title, table in (("tenant", "by_tenant"), ("shard", "by_shard")):
        rows = [
            {
                title: name,
                "artifacts": cell["artifacts"],
                "bytes": _human_bytes(cell["bytes"]),
            }
            for name, cell in summary[table].items()
        ]
        if rows:
            lines.append(format_table(rows, [title, "artifacts", "bytes"]))
            lines.append("")
    counter_rows = [
        {"counters": scope, **summary[scope]} for scope in ("session", "lifetime")
    ]
    lines.append(
        format_table(
            counter_rows,
            ["counters", "hits", "misses", "writes", "errors", "evictions"],
        )
    )
    return "\n".join(lines)


def _store_command(rest) -> int:
    from repro.store.core import default_store
    from repro.store.journal import journal_pinned_paths

    store = default_store()
    if store is None:
        print("artifact store is disabled (REPRO_STORE_DISABLE)", file=sys.stderr)
        return 1
    action = rest[0] if rest else "stats"
    if action == "stats":
        summary = store.summary()
        if "--json" in rest:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(_render_stats(summary))
        return 0
    if action == "gc":
        tenant_max_bytes = None
        arguments = []
        index = 1
        while index < len(rest):
            if rest[index] == "--tenant-max-bytes":
                index += 1
                if index >= len(rest):
                    print("--tenant-max-bytes needs a count", file=sys.stderr)
                    return 2
                tenant_max_bytes = int(rest[index])
            else:
                arguments.append(rest[index])
            index += 1
        max_bytes = int(arguments[0]) if arguments else None
        pinned = journal_pinned_paths(store.journal_dir)
        report = store.gc(
            max_bytes=max_bytes, pinned=pinned, tenant_max_bytes=tenant_max_bytes
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return 0
    print(
        "usage: python -m repro store stats [--json]"
        "|gc [max_bytes] [--tenant-max-bytes N]|clear",
        file=sys.stderr,
    )
    return 2


def _serve_command(rest) -> int:
    host = "127.0.0.1"
    port = 8695
    pool = 2
    use_store = True
    tenant = None
    gc_interval = None
    max_bytes = None
    tenant_max_bytes = None
    queue_high_water = None
    idle_timeout = None
    max_requests = None
    index = 0
    try:
        while index < len(rest):
            argument = rest[index]
            if argument == "--host":
                index += 1
                host = rest[index]
            elif argument == "--port":
                index += 1
                port = int(rest[index])
            elif argument == "--pool":
                index += 1
                pool = int(rest[index])
            elif argument == "--tenant":
                index += 1
                tenant = rest[index]
            elif argument == "--gc-interval":
                index += 1
                gc_interval = float(rest[index])
            elif argument == "--max-bytes":
                index += 1
                max_bytes = int(rest[index])
            elif argument == "--tenant-max-bytes":
                index += 1
                tenant_max_bytes = int(rest[index])
            elif argument == "--queue-high-water":
                index += 1
                queue_high_water = int(rest[index])
            elif argument == "--idle-timeout":
                index += 1
                idle_timeout = float(rest[index])
            elif argument == "--max-requests":
                index += 1
                max_requests = int(rest[index])
            elif argument == "--no-store":
                use_store = False
            elif argument == "--store":
                use_store = True
            else:
                print(f"unknown serve option {argument!r}", file=sys.stderr)
                return 2
            index += 1
    except (IndexError, ValueError):
        print(f"option {rest[index - 1]!r} needs a valid value", file=sys.stderr)
        return 2
    from repro.service import run_server
    from repro.service.server import (
        KEEPALIVE_IDLE_SECONDS,
        MAX_REQUESTS_PER_CONNECTION,
    )

    run_server(
        host,
        port,
        store="default" if use_store else None,
        pool=pool,
        tenant=tenant,
        gc_interval=gc_interval,
        gc_max_bytes=max_bytes,
        tenant_max_bytes=tenant_max_bytes,
        queue_high_water=queue_high_water,
        idle_timeout=(
            KEEPALIVE_IDLE_SECONDS if idle_timeout is None else idle_timeout
        ),
        max_requests=(
            MAX_REQUESTS_PER_CONNECTION if max_requests is None else max_requests
        ),
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__)
        return 2
    command, rest = argv[0], argv[1:]

    if command == "table1":
        print(format_table(table1(), ["FSM", "PI", "PO", "States"]))
        return 0

    if command == "store":
        return _store_command(rest)

    if command == "serve":
        return _serve_command(rest)

    if command == "equiv" and ("--help" in rest or "-h" in rest):
        # Caught before flag parsing, which rejects unknown flags.
        print(_equiv_usage())
        return 0

    if command in ("synth", "retime", "atpg", "flow", "equiv"):
        try:
            rest, options = _pop_flags(rest)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if len(rest) < 3:
            print(f"usage: python -m repro {command} <fsm> <style> <script>")
            return 2
        spec = _spec(rest[0], rest[1], rest[2])

        if command == "synth":
            sys.stdout.write(write_bench(build_pair(spec).original))
            return 0
        if command == "equiv":
            return _equiv_command(spec, options)
        if command == "retime":
            pair = build_pair(spec)
            rows = [
                {
                    "circuit": circuit.name,
                    "gates": circuit.num_gates(),
                    "dffs": circuit.num_registers(),
                    "period": circuit.clock_period(),
                }
                for circuit in (pair.original, pair.retimed)
            ]
            print(format_table(rows, ["circuit", "gates", "dffs", "period"]))
            print(f"prefix |P| = {pair.prefix_length} (Theorem 4)")
            return 0

        from repro.pipeline import FlowPipeline

        try:
            budget = _budget(rest, 3)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        store, journal = _open_run(options, f"{command}-{spec.name}")
        try:
            pipeline = FlowPipeline(
                store=store,
                journal=journal,
                workers=options["workers"],
                guidance=options["guidance"],
                resume=options["resume"],
                verify=options["verify"],
            )
        except ValueError as error:
            if journal is not None:
                journal.close(ok=False)
            print(str(error), file=sys.stderr)
            return 2
        # Closing the journal through its context manager records
        # ``ok: false`` when a stage raises.
        if command == "atpg":
            with journal or contextlib.nullcontext():
                pair = build_pair(spec, store=store)
                faults = pipeline.stage_collapse(pair.original)
                result = pipeline.stage_atpg(pair.original, faults, budget)
            print(result.summary(), file=sys.stderr)
            for stage in pipeline.stages:
                print(
                    f"stage {stage.name}: {stage.cache} {stage.seconds:.2f}s",
                    file=sys.stderr,
                )
            if journal is not None:
                print(f"journal: {journal.path}", file=sys.stderr)
            sys.stdout.write(result.test_set.to_text())
            return 0
        if command == "flow":
            with journal or contextlib.nullcontext():
                result = pipeline.run_spec(spec, budget=budget)
            print(result.flow.summary())
            verify = result.stage("verify")
            if verify is not None:
                print(_verify_line(verify.detail, result.flow))
            for stage in result.stages:
                print(
                    f"stage {stage.name}: {stage.cache} {stage.seconds:.2f}s",
                    file=sys.stderr,
                )
            if journal is not None:
                print(f"journal: {journal.path}", file=sys.stderr)
            return 0

    print(f"unknown command {command!r}", file=sys.stderr)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
