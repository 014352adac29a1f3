#!/usr/bin/env python3
"""Benchmark runner for asymcap.

    python3 bench/run.py --workload mc_short --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Drives the product surface in-process through ``asymcap.cli.main(argv)``
with stdout captured, against ``src/`` of the checkout this file sits in
(the package need not be installed).  Workloads, metrics and bounds are
declared in ``BENCHMARK.json``; ``bench/workloads.py`` says what each
workload runs.

With ``--trace 0`` a run sets up several times, warms up on one pass, then
cycles through the workload's passes for ``--seconds`` (and at least
MIN_CYCLES times) and reports every end-to-end metric, with times in
reference seconds (see REFERENCE_KERNEL_S).  With ``--trace 1`` it runs one fixed pass, first
through the CLI and then as an outside-in replay with a span around every
call into a layer (``bench/tracing.py``), and reports every per-layer
metric; the spans are written to ``.bench_runs/``.  Either way the last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
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
import tempfile
import types
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("mc_short", "mc_wide", "capacity", "verify")
MAX_REPORTED_PROBLEMS = 5
MIN_CYCLES = 3  # timed visits of every pass, whatever --seconds says
# A shared host drifts between fast and slow phases that last from seconds
# to minutes: raw op latency moves by 25-35% between 20 s windows.  A fixed
# kernel timed just before each measurement moves with the host, and the
# ratio of the two stays within about 3%.  End-to-end times are therefore
# reported in reference seconds: measured seconds times REFERENCE_KERNEL_S
# over the kernel time measured beside them.  The summary also prints the
# raw median.
REFERENCE_KERNEL_S = 0.005


def pin_environment() -> None:
    """One BLAS thread and a serial Monte Carlo engine; set before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ASYMCAP_THREADS", None)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "ASYMCAP_THREADS": os.environ.get("ASYMCAP_THREADS", "unset"),
    }


def kernel_seconds() -> float:
    """Time one fixed mix of Philox set-up, small numpy draws and a Python
    loop, the kinds of work the package does; it never calls the package."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for key in range(200):
        a = np.random.Generator(np.random.Philox(key=key)).random(256)
        acc += int(np.searchsorted(np.cumsum(a), a.sum() / 2))
        acc += sum(i * i for i in range(50))
    return perf_counter() - t0


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def timed_setup(workload: str, seed: int, work: str, reps: int):
    """Median over `reps` of: import asymcap in a fresh interpreter, then
    write the workload's inputs.  Returns (median reference seconds, last pool)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times, kernels = [], []
    for r in range(reps):
        kernels.append(kernel_seconds())
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import asymcap"], env=env, cwd=ROOT, check=True)
        pool = workloads.make_inputs(workload, seed, os.path.join(work, f"setup{r}"))
        times.append(perf_counter() - t0)
    return to_reference(statistics.median(times), statistics.median(kernels)), pool


def import_package():
    sys.path.insert(0, str(SRC))
    import asymcap.capacity
    import asymcap.cli
    import asymcap.codec
    import asymcap.info
    import asymcap.rng
    import asymcap.verify
    import numpy

    ac = types.SimpleNamespace(
        cli=asymcap.cli, rng=asymcap.rng, codec=asymcap.codec, info=asymcap.info,
        capacity=asymcap.capacity, verify=asymcap.verify,
    )
    return ac, numpy.__version__


def run_op(main, op):
    """(seconds, exit code or exception text, stdout) of one CLI op."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc = f"raised {exc!r}"
    return perf_counter() - t0, rc, out.getvalue()


class Ledger:
    """Attempted and failed ops, with the first few problems kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{what}: {problem}")


def measure(ac, pool, seconds: float, unit: str, ledger: Ledger, notes: list) -> dict:
    """Warm up on pass 0, then cycle through the pool for `seconds`, and at
    least MIN_CYCLES times.  Each op's time is the median over its repeats,
    in reference seconds."""
    main = ac.cli.main
    first: dict = {}
    times: dict = {}
    raw_passes = []
    alarms = 0

    def one_pass(k: int, timed: bool):
        nonlocal alarms
        raw = 0.0
        for j, op in enumerate(pool[k % len(pool)]):
            kernel_s = kernel_seconds()
            dt, rc, stdout = run_op(main, op)
            problem, norm = workloads.check_output(op, rc, stdout)
            key = (k % len(pool), j)
            if problem is None and first.setdefault(key, norm) != norm:
                problem = "output differs from the same op's first run"
            ledger.record(f"pass {k % len(pool)} op {j} ({op.kind} {op.label})", problem)
            alarms += op.kind == "verify" and stdout.endswith("overall FAIL\n")
            if timed:
                times.setdefault(key, []).append(to_reference(dt, kernel_s))
            raw += dt
        if timed:
            raw_passes.append(raw)

    one_pass(0, timed=False)
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_CYCLES * len(pool) or perf_counter() < deadline:
        one_pass(k, timed=True)
        k += 1

    ops = [(statistics.median(times[(i, j)]), op.work)
           for i, pass_ops in enumerate(pool) for j, op in enumerate(pass_ops)]
    work = sum(w for _, w in ops)
    notes.append(f"timed {k} passes over a pool of {len(pool)}: each of {len(ops)} ops "
                 f"ran {k // len(pool)}-{-(-k // len(pool))} times; work unit: {unit}")
    notes.append(f"raw median pass time {statistics.median(raw_passes):.4f} s "
                 f"(wall_s below is in reference seconds)")
    if alarms:
        notes.append(f"{alarms} verify runs raised a 3-sigma sampling alarm (allowed)")
    return {
        "wall_s": sum(dt for dt, _ in ops) / len(pool),
        "work_per_s": work / sum(dt for dt, w in ops if w),
        "op_p50_ms": statistics.median(dt * 1e3 for dt, _ in ops),
    }


def traced(ac, pool, workload: str, ledger: Ledger, notes: list, trace_path: Path, env: dict):
    import tracing

    main = ac.cli.main
    ops = pool[0]
    for j, op in enumerate(ops):  # warm-up, untraced
        _, rc, stdout = run_op(main, op)
        ledger.record(f"warm-up op {j} ({op.kind})", workloads.check_output(op, rc, stdout)[0])

    # Each op runs through the CLI with one level of spans, then as a replay
    # with every layer traced, back to back so both see the same host speed.
    tr = tracing.Tracer()
    cli_targets = tracing.cli_targets(tr, ac)
    library_targets = tracing.library_targets(tr, ac)
    prepared = [tracing.prepare(ac, op) for op in ops]
    sections, labels = [], {}
    for j, op in enumerate(ops):
        tr.op_id = j
        labels[j] = op.label
        with tracing.patched(cli_targets), tr.span("cli.main"):
            _, rc, stdout = run_op(main, op)
        ledger.record(f"op {j} ({op.kind})", workloads.check_output(op, rc, stdout)[0])
        with tracing.patched(library_targets):
            i = tr.begin(tracing.REPLAY)
            got = tracing.replay(tr, ac, op, prepared[j])
            tr.finish(i)
        sections.append(i)
        try:
            want = workloads.printed_values(op, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            want = f"unreadable output ({exc!r})"
        ledger.record(f"replay of op {j} ({op.kind} {op.label})",
                      None if got == want else f"replay gave {got}, program printed {want}")
    untraced_s = tracing.untraced_library_s(tr)

    metrics = tracing.layer_metrics(tr, labels, sections, untraced_s)
    for nx in workloads.CAP_NX:
        for key in ("simplex_project", "mi", "gradient"):
            metrics[f"capacity.{key}_us.nx{nx}"] = 0.0
    if workload == "capacity":
        for nx in workloads.CAP_NX:
            j = next(j for j, op in enumerate(ops) if op.label == f"nx{nx}")
            metrics.update(tracing.probe_capacity(ac, *prepared[j]))
    metrics["codec.pool2_speedup"] = 0.0
    if workload == "mc_short":
        sims = [op.cfg for op in ops if op.kind == "simulate"]
        speedup, same = tracing.pool2_speedup(ac, sims)
        metrics["codec.pool2_speedup"] = speedup
        ledger.record("two-worker run_experiment", None if same else "reports differ from serial")

    tr.write(str(trace_path), {"workload": workload, "environment": env, "ops": [
        {"op": j, "kind": op.kind, "label": op.label, "config": op.cfg} for j, op in enumerate(ops)
    ], "metrics": metrics})
    notes.append(f"traced one pass of {len(ops)} ops: {len(tr.name)} spans written to {trace_path}")
    return metrics


def run_one(args, spec) -> int:
    pin_environment()
    RUNS_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    ledger, notes = Ledger(), []
    try:
        setup_s, pool = timed_setup(args.workload, args.seed, work,
                                    1 if args.trace else SETUP_REPS)
        ac, numpy_version = import_package()
        env = environment(numpy_version)
        if args.trace:
            trace_path = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values = traced(ac, pool, args.workload, ledger, notes, trace_path, env)
            declared = spec["per_layer"]
        else:
            values = measure(ac, pool, args.seconds, workloads.WORK_UNIT[args.workload],
                             ledger, notes)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print("  " + note)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<36} {values[m['name']]:<24.10g} {m['unit']}")
    rate = ledger.failed / ledger.attempted
    print(f"  error_rate {rate:.10g} ({ledger.failed} of {ledger.attempted} ops failed)")
    for problem in ledger.problems:
        print("  FAILED " + problem)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; one summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asymcap" / "__init__.py").is_file():
        print(f"error: no asymcap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
