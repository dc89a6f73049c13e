"""End-to-end benchmark of the Fig. 6 flow; run from the repository root.

    python3 benchmarks/e2e/run.py --workload flow-cold --seed 1995 --seconds 18 --trace 0
    python3 benchmarks/e2e/run.py run --workload serve --trace --out serve.json
    python3 benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same command.)

A run imports the library from this checkout's ``src``, sets up
``SETUP_REPEATS`` times (each in a fresh process, or with a fresh server,
so interpreter start and imports are part of set-up), measures for
``--seconds`` and checks every output.  The last line on stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
Everything the run writes stays under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

WORKLOADS = ("flow-cold", "flow-warm", "validate", "serve")
SETUP_REPEATS = 3
DEFAULT_SECONDS = 18
DEFAULT_SEED = 1995
WORK_DIR = ROOT / ".bench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="run", choices=("run", "compare"))
    parser.add_argument("dirs", nargs="*", help="compare: PARENT_DIR CHANGE_DIR")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="also write the full record (samples, checks, digests) here")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.dirs) != 2:
        parser.error("compare takes PARENT_DIR CHANGE_DIR")
    if args.command == "run" and (args.workload is None or args.dirs):
        parser.error("run takes --workload")
    return args


def _isolate(work: Path) -> None:
    """Send every write of this process and its children into ``work``:
    the artifact store, temporary files, and nothing in the home
    directory.  The library is imported from this checkout's ``src``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_STORE_DIR"] = str(work / "store")
    os.environ.pop("REPRO_STORE_DISABLE", None)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join([src, str(ROOT)])
    sys.path[:0] = [src]


def _library_missing() -> str:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no library source at {ROOT / 'src' / 'repro'}"
    try:
        import repro
    except ImportError as error:
        return f"cannot import repro: {error}"
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        return f"repro imported from {repro.__file__}, not from this checkout"
    return ""


def _probe_setup(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import the library and build
    the workload's inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        if child.wait() != 0 or ready != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def _metrics(names, values):
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in names.items()}


def _measure(args, work: Path):
    from benchmarks.e2e import library, report
    from benchmarks.e2e.trace import layer_profile

    env = library.Env(args.seed, args.seconds, bool(args.trace), str(work))
    if args.probe_setup:
        library.PREPARE[args.workload](env)
        return None
    if args.workload == "serve":
        from benchmarks.e2e.serve import run_serve

        setup, outcome = run_serve(env)
    else:
        # Set-up samples are spread over the run -- before, midway, after --
        # so a slow spell of the machine moves one sample, not the median.
        setup = [_probe_setup(args.workload, args.seed)]
        env.midway = lambda: setup.append(_probe_setup(args.workload, args.seed))
        outcome = library.RUN[args.workload](env, library.PREPARE[args.workload](env))
        while len(setup) < SETUP_REPEATS:
            setup.append(_probe_setup(args.workload, args.seed))
    failed = outcome.failed
    if not outcome.samples_ms:
        failed += 1
        outcome.problems.append("no operation completed")
    attempted = max(outcome.attempted, failed, 1)
    e2e = {
        "setup_s": statistics.median(setup),
        "latency_ms": report.quantile(outcome.samples_ms, 0.5) if outcome.samples_ms else 0.0,
        "fault_coverage_pct": outcome.coverage_pct,
        "peak_rss_mb": outcome.rss_mb,
    }
    if args.trace:
        profile = layer_profile(env.tracer.spans) if env.tracer.spans else None
        values = report.layer_metrics(outcome, profile, len(env.tracer.missing))
        metrics = _metrics(report.PER_LAYER, values)
    else:
        metrics = _metrics(report.END_TO_END, e2e)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished": time.time(),
        "environment": report.environment(),
        "result": line,
        "end_to_end": e2e,
        "setup_s": setup,
        "latency_ms": report.summary(outcome.samples_ms),
        "samples_ms": outcome.samples_ms,
        "traced_ms": outcome.traced_ms,
        "problems": outcome.problems,
        "missing_hooks": env.tracer.missing,
        "details": outcome.details,
    }
    return line, record, env.tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if args.command == "compare":
        from benchmarks.e2e.compare import compare

        return compare(Path(args.dirs[0]), Path(args.dirs[1]))
    work = WORK_DIR / f"run-{os.getpid()}"
    try:
        _isolate(work)
        missing = _library_missing()
        if missing:
            print(f"e2e benchmark: {missing}", file=sys.stderr)
            return 2
        try:
            measured = _measure(args, work)
        except Exception:
            traceback.print_exc()
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured is None:
        print("ready", flush=True)
        return 0
    line, record, tracer = measured
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        spans = Path(args.out + ".spans.json") if args.out else WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(str(spans))
    for problem in record["problems"]:
        print(f"e2e benchmark: {problem}", file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
