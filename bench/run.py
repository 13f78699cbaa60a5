"""Cold-process benchmark of the qso-reps command line.

Usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is taken from its ``src``.
Each workload runs as a closed loop with one client: every call is a fresh
``python -m qso_reps.cli`` process that starts only after the previous one
has exited.  After a warm-up pass, whole passes over the workload's call list
are timed for about --seconds: the loop ends on the pass boundary nearest to
it, and runs at least one pass.  Every output is checked (see
verify.py).  With --trace 1 each timed pass is followed by the same pass
through tracer.py, which yields the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics, or with --trace 1 the per-layer
ones.  The lines above it print the same metrics for reading.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = ROOT / ".bench_tmp"
# One BLAS thread: a second one saves about 5% of wall time on the heavy
# calls but ties each call to both vCPUs of a shared host, and its wall time
# then spreads more from run to run.
BLAS_THREADS = 1
SETUP_SAMPLES = 11
SETUP_CODE = ("import time; t = time.perf_counter(); import qso_reps.cli; "
              "t = time.perf_counter() - t; import numpy; "
              "print(t, numpy.__version__)")

# (name, unit, in the JSON result).  The per-call metrics are printed only:
# the heavy workloads have three calls in their list, so there each is one
# call's median of a few samples, about twice as noisy as wall_s across runs.
E2E_METRICS = [
    ("wall_s", "s", True),
    ("cpu_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("call_p50_s", "s", False),
    ("call_tail_s", "s", False),
    ("setup_s", "s", True),
]


@dataclass
class Call:
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_call(argv: list[str], env: dict[str, str], traced: bool) -> Call:
    trace_path = TMP / "trace.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path)]
        trace_path.unlink(missing_ok=True)
    else:
        cmd = [sys.executable, "-m", "qso_reps.cli"]
    with open(TMP / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        with proc.stdout:
            out = proc.stdout.read()
        # os.wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return Call(argv, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode, out, stderr, trace)


def run_pass(calls: list[list[str]], env: dict[str, str],
             traced: bool) -> tuple[float, list[Call]]:
    start = time.perf_counter()
    results = [run_call(argv, env, traced) for argv in calls]
    return time.perf_counter() - start, results


class Tally:
    """Counts calls attempted and calls whose output failed a check."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, results: list[Call], untraced: list[Call] | None = None):
        for i, call in enumerate(results):
            self.attempted += 1
            problem = verify.check_output(call.argv, call.code, call.stdout,
                                          self.reference)
            if problem is None and untraced is not None \
                    and call.stdout != untraced[i].stdout:
                problem = "traced stdout differs from the untraced call"
            if problem is None and untraced is not None and call.trace is None:
                problem = "traced call wrote no trace"
            if problem:
                self.failed += 1
                tail = call.stderr.decode(errors="replace")[-400:]
                print(f"FAILED {' '.join(call.argv)}: {problem}\n{tail}",
                      file=sys.stderr)


def measure_setup(env: dict[str, str]) -> tuple[list[float], str]:
    samples, numpy_version = [], ""
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout.split()
        samples.append(float(out[0]))
        numpy_version = out[1]
    return samples, numpy_version


def tail(values: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples above it;
    the maximum when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of n={n}"


def per_call_walls(passes) -> list[float]:
    """Each call of the list's wall time, median over the timed passes.

    The per-call statistics take one sample per call of the list, so their
    sample count is fixed for a workload: a pass more or less only steadies
    each sample.  Over all passes' calls, a percentile's rank would jump
    between call types of different cost as the pass count changes.
    """
    return [statistics.median(results[i].wall for _, results in passes)
            for i in range(len(passes[0][1]))]


def e2e_metrics(passes, setup: list[float]) -> dict[str, float]:
    calls = per_call_walls(passes)
    return {
        "wall_s": statistics.median(w for w, _ in passes),
        "cpu_s": statistics.median(sum(c.cpu for c in r) for _, r in passes),
        "peak_rss_mb": max(c.rss_mb for _, r in passes for c in r),
        "call_p50_s": statistics.median(calls),
        "call_tail_s": tail(calls)[0],
        "setup_s": statistics.median(setup),
    }


def layer_metrics(passes, traced) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, median over the traced passes, and absent names."""
    per_pass = []
    for (wall, _), (traced_wall, results) in zip(passes, traced):
        trace = tracer.PassTrace(
            [c.trace for c in results if c.trace is not None],
            sum(len(c.stdout) for c in results), traced_wall - wall)
        values, absent = tracer.layer_metrics(trace)
        per_pass.append(values)
    return ({name: statistics.median(p[name] for p in per_pass)
             for name in per_pass[0]}, absent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qso_reps" / "cli.py").is_file():
        print(f"error: no qso_reps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    env = child_env()
    calls = workloads.calls(args.workload, args.seed)
    reference = (verify.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    tally = Tally(reference)
    passes, traced = [], []
    TMP.mkdir(exist_ok=True)
    try:
        setup, numpy_version = measure_setup(env)
        tally.check(run_pass(calls, env, False)[1])  # warm-up
        deadline = time.perf_counter() + args.seconds
        step = 0.0  # length of the last loop round
        while not passes or time.perf_counter() + step / 2 < deadline:
            round_start = time.perf_counter()
            passes.append(run_pass(calls, env, False))
            tally.check(passes[-1][1])
            if args.trace:
                traced.append(run_pass(calls, env, True))
                tally.check(traced[-1][1], passes[-1][1])
            step = time.perf_counter() - round_start
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(calls)} cold calls per pass, {len(passes)} timed passes")
    print(f"environment: python {platform.python_version()}, numpy "
          f"{numpy_version}, nproc {os.cpu_count()}, blas_threads {BLAS_THREADS}")
    e2e = e2e_metrics(passes, setup)
    pass_tail, pass_tail_rank = tail([w for w, _ in passes])
    notes = {
        "wall_s": f"median of {len(passes)} passes; tail {pass_tail:.4f} s "
                  f"({pass_tail_rank})",
        "cpu_s": "user+sys of the children, median over passes",
        "peak_rss_mb": "largest ru_maxrss of any child",
        "call_p50_s": f"median of n={len(calls)} calls, each the median of "
                      f"its {len(passes)} passes",
        "call_tail_s": tail(per_call_walls(passes))[1],
        "setup_s": f"median of {len(setup)} cold imports of qso_reps.cli",
    }
    for name, unit, in_json in E2E_METRICS:
        print(f"  {name:<12} {e2e[name]:>12.4f} {unit:<3} {notes[name]}"
              + ("" if in_json else " (printed only)"))
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<12} {error_rate:>12.4f}     "
          f"{tally.failed} of {tally.attempted} calls failed")

    if args.trace:
        layers, absent = layer_metrics(passes, traced)
        units = {name: unit for name, unit, *_ in tracer.LAYER_METRICS}
        print(f"per-layer totals per pass, median of {len(traced)} traced passes")
        for name, value in layers.items():
            print(f"  {name:<42} {value:>16.6g} {units[name]}")
        if absent:
            print("  absent (function no longer in the program): "
                  + ", ".join(absent))
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, in_json in E2E_METRICS if in_json}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
