"""Closed-loop benchmark of the ``decoupling`` command line.

One client in one process issues ``decoupling.cli.main([...])`` calls back
to back, each after the previous returned. A run:

1. set-up: imports ``decoupling`` in fresh interpreters, generates the
   workload's configs from the seed, and makes one untimed warm-up round
   whose outputs are checked against the invariants and, for the default
   seed, the reference outputs;
2. timed loop: repeats rounds until ``--seconds`` have passed, checking
   that every call writes the bytes its warm-up call wrote;
3. report: prints a readable block, writes the full record under
   ``.bench_out/results/``, and prints one JSON line last.

With ``--trace 0`` the JSON carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of the traced rounds, which alternate
with untraced rounds so the same run also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"

#: Set-up is repeated this many times where it is cheap; the median counts.
SETUP_REPEATS = 3
#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import decoupling; print(time.perf_counter() - t)"
)


class SourceMissing(RuntimeError):
    """The checkout has no ``src/decoupling`` to benchmark."""


def import_package():
    """Import ``decoupling`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "decoupling" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC / 'decoupling'}")
    sys.path.insert(0, str(SRC))
    import decoupling
    import decoupling.cli

    if Path(decoupling.__file__).resolve().parent != (SRC / "decoupling").resolve():
        raise SourceMissing(f"imported decoupling from {decoupling.__file__}, not {SRC}")
    return decoupling


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown (git not available)"
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "machine": platform.machine(),
    }


# -- one op ------------------------------------------------------------------


class Runner:
    """Issues one workload's ops and keeps their per-run state."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.baseline = {}
        self.baseline_problems = {}

    def write_inputs(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(self.workload.ops):
            if op.config is not None:
                (self.work / f"config-{i}.json").write_text(json.dumps(op.config))

    def argv(self, i: int) -> list[str]:
        op = self.workload.ops[i]
        if op.command == "design":
            return ["design", *op.argv]
        return [op.command, "--config", str(self.work / f"config-{i}.json"),
                "--out", str(self.work / f"out-{i}")]

    def call(self, i: int, tracer=None):
        """Run op ``i`` once: (seconds, Outputs or None, problem or None)."""
        import decoupling.cli as cli
        from checks import collect

        op = self.workload.ops[i]
        out_dir = self.work / f"out-{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.argv(i)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, (argv,), {})
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return time.perf_counter() - t0, None, f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.count("cli.calls")
            if rc != 0:
                tracer.count("cli.nonzero_exits")
        outputs = collect(op, rc, out_dir, stdout.getvalue())
        if rc != 0:
            return elapsed, outputs, f"exit code {rc}: {stderr.getvalue().strip()}"
        return elapsed, outputs, None

    def first_call(self, i: int, reference: dict | None):
        """Warm-up call: full output check; its outputs become the baseline."""
        from checks import check_outputs

        elapsed, outputs, problem = self.call(i)
        problems = [problem] if problem else []
        if outputs is not None:
            problems += check_outputs(self.workload.ops[i], outputs, reference)
        self.baseline[i] = outputs
        self.baseline_problems[i] = problems
        return elapsed, problems

    def repeat_call(self, i: int, tracer=None):
        """Timed call: must pass where the warm-up passed, byte for byte."""
        elapsed, outputs, problem = self.call(i, tracer)
        problems = [problem] if problem else []
        if outputs is not None and not outputs.same_as(self.baseline[i]):
            problems.append("outputs differ from the run's first call")
        if self.baseline_problems[i]:
            problems.append("first call of this op failed its check")
        return elapsed, problems


def load_reference(workload: str) -> dict | None:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["ops"]


# -- a run -------------------------------------------------------------------


def _import_seconds() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """One benchmark run; returns the record ``describe`` prints and ``save`` writes."""
    import workloads
    from spans import Tracer

    work = OUT / f"run-{name}-{os.getpid()}"
    failures: list[str] = []
    attempted = failed = 0
    try:
        import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.make(name, seed, scale)
            runner = Runner(workload, work)
            runner.write_inputs()
            gen_times.append(time.perf_counter() - t0)
        gen_s = statistics.median(gen_times)

        reference = None
        if seed == workloads.DEFAULT_SEED and scale is None:
            reference = load_reference(name) or {}  # a missing file fails every op
        warm_s = 0.0
        for i, op in enumerate(workload.ops):
            elapsed, problems = runner.first_call(i, reference)
            warm_s += elapsed
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"warm-up {op.name}: {'; '.join(problems)}")
        setup_s = import_s + gen_s + warm_s

        tracer = Tracer() if trace else None
        op_times = {True: [], False: []}
        op_of_call: list = []
        traced_calls: set[int] = set()
        t_start = time.perf_counter()
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                for i, op in enumerate(workload.ops):
                    call_id = len(op_of_call)
                    op_of_call.append(op)
                    if tracer is not None:
                        tracer.op = call_id
                    if traced:
                        traced_calls.add(call_id)
                    elapsed, problems = runner.repeat_call(i, tracer if traced else None)
                    op_times[traced].append(elapsed)
                    attempted += 1
                    if problems:
                        failed += 1
                        failures.append(f"round {rounds} {op.name}: {'; '.join(problems)}")
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            wall = time.perf_counter() - t_start
            if wall >= seconds and (not trace or rounds >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = op_times[False]
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup": {"import_s": import_s, "generate_s": gen_s, "warmup_s": warm_s},
        "op_times_s": op_times[False] + op_times[True],
    }
    if not trace:
        p90 = None
        if len(untraced) >= P90_MIN_OPS:
            p90 = statistics.quantiles(untraced, n=10)[-1]
        record["metrics"] = {
            "op_s_p50": {"value": statistics.median(untraced), "unit": "s"},
            "ops_per_s": {"value": len(untraced) / wall, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        record["extra"] = {
            "samples": len(untraced),
            "op_s_p90": p90,
            "error_rate": failed / attempted,
        }
    else:
        from layers import per_layer

        overhead = statistics.median(op_times[True]) - statistics.median(op_times[False])
        metrics, notes = per_layer(tracer, op_of_call, traced_calls, overhead)
        record["metrics"] = metrics
        record["notes"] = notes
        record["extra"] = {
            "samples": len(op_times[True]),
            "untraced_samples": len(op_times[False]),
            "error_rate": failed / attempted,
        }
        _write_spans(tracer, name, seed, record)
    return record


def _write_spans(tracer, name: str, seed: int, record: dict):
    from spans import self_times

    own = self_times(tracer.spans)
    doc = {
        "workload": name,
        "seed": seed,
        "spans": [
            {"id": s.sid, "parent": s.parent, "name": s.name, "start": s.t0, "end": s.t1,
             "self": own[s.sid], "op": s.op, "thread": s.thread, "size": s.size}
            for s in tracer.spans
        ],
        "counts": [{"op": op, "name": k, "n": n} for (op, k), n in sorted(
            tracer.counts.items(), key=lambda kv: (kv[0][0], kv[0][1]))],
        "missing_hooks": tracer.missing,
    }
    path = OUT / "traces" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    record["trace_file"] = str(path.relative_to(ROOT))


# -- output ------------------------------------------------------------------


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def describe(record: dict) -> list[str]:
    extra = record["extra"]
    lines = [
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} rounds={record['rounds']}",
        f"#   why: {record['why']}",
        f"#   error_rate {extra['error_rate']:.4g} ({record['failed']}/{record['attempted']} ops)",
    ]
    n = extra["samples"]
    for key, m in record["metrics"].items():
        lines.append(f"#   {key:34s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        lines.append(f"#   timings over n={n} timed ops")
        p90 = extra["op_s_p90"]
        lines.append(
            f"#   op_s_p90 {p90:.6g} s (n={n})" if p90 is not None
            else f"#   op_s_p90 not reported: {n} < {P90_MIN_OPS} ops"
        )
    else:
        lines.append(f"#   per op over n={n} traced ops, {extra['untraced_samples']} untraced")
        for note in record["notes"]:
            lines.append(f"#   note: {note}")
    for failure in record["failures"]:
        lines.append(f"#   FAILED {failure}")
    return lines


def save(record: dict, env: dict):
    record = dict(record, environment=env)
    path = OUT / "results" / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads

    rows = []
    ok = True
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            path = OUT / "results" / f"{name}-seed{args.seed}-trace{trace}.json"
            rows.append(json.loads(path.read_text()))
    print(f"# environment {json.dumps(rows[0]['environment'])}")
    for untraced, traced in zip(rows[::2], rows[1::2]):
        for line in describe(untraced):
            print(line)
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        print(f"#   tracing overhead {overhead:.6g} s per op "
              f"(traced minus untraced op_s_p50, same process)")
        for line in describe(traced):
            print(line)
    return 0 if ok else 1


def main(argv=None, threads: int = 1) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env = environment(threads)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record, env)
    print(f"# environment {json.dumps(env)}")
    for line in describe(record):
        print(line)
    print(result_line(record))
    return 0
