"""Own peak RSS and wall time of command-line calls, two checkouts side by side.

A child process starts with the high-water RSS of the process that spawned
it, so a runner that holds numpy or earlier calls' output inflates the
`ru_maxrss` of every call it spawns.  This script spawns each call from a
small process that imports neither numpy nor `qso_reps`, so a call's peak
is its own; the last line prints the helper's peak, below which a call's
figure would be the helper's.

    python tests/own_peak.py BEFORE_SRC AFTER_SRC [--workload NAME]
                             [--call ARGS]... [--runs N]

BEFORE_SRC and AFTER_SRC are the `src` directories of the two checkouts.
The calls are the default-seed list of a `bench/workloads.py` workload
(`operators` by default), or the `--call` argument strings.  Both sides
are byte-compiled first.  Each call then runs N times (10 by default) per
side as a cold `python -m qso_reps.cli` at one BLAS thread, the sides
alternating and taking turns to go first.  One line per call gives each
side's median own peak RSS (MB) and wall time (s), the number of the N
pairs in which the second side was strictly lower, and the exit codes.
The file name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def workload_calls(name: str) -> list[list[str]]:
    """The default-seed call list of workload `name`, from
    `bench/workloads.py` loaded by path (it imports only `random`)."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calls(name, module.DEFAULT_SEED)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_once(argv: list[str], env: dict[str, str]) -> tuple[float, float, int]:
    """(own peak RSS in MB, wall time in s, exit code) of one cold call."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qso_reps.cli", *argv],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=env)
    # os.wait4 reaps the child and returns its own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, wall, proc.returncode


def measure(envs, calls, runs: int) -> list[tuple[list, list]]:
    """Per call, the (peak, wall, exit) runs of each side, alternating."""
    results = [([], []) for _ in calls]
    for r in range(runs):
        for argv, sides in zip(calls, results):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                sides[side].append(run_once(argv, envs[side]))
    return results


def report(calls, results) -> None:
    print("call", "peak_mb_1", "peak_mb_2", "peak_wins_2", "wall_s_1",
          "wall_s_2", "wall_wins_2", "exit_1/exit_2", sep="\t")
    for argv, (one, two) in zip(calls, results):
        cols = [shlex.join(argv)]
        for i, digits in ((0, 2), (1, 3)):
            cols += [f"{statistics.median(run[i] for run in side):.{digits}f}"
                     for side in (one, two)]
            cols.append(f"{sum(b[i] < a[i] for a, b in zip(one, two))}/{len(one)}")
        cols.append("/".join(",".join(sorted({str(run[2]) for run in side}))
                             for side in (one, two)))
        print(*cols, sep="\t")
    helper = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# helper peak {helper:.2f} MB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Median own peak RSS and wall time of CLI calls on two "
                    "checkouts, in alternating cold runs.")
    parser.add_argument("before", type=Path, help="src directory of side 1")
    parser.add_argument("after", type=Path, help="src directory of side 2")
    parser.add_argument("--workload", default="operators",
                        help="bench/workloads.py workload (default operators)")
    parser.add_argument("--call", action="append", default=[],
                        help="one call's arguments as a string, in place of "
                             "the workload; may repeat")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per call and side (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    srcs = [p.resolve() for p in (args.before, args.after)]
    for src in srcs:
        if not (src / "qso_reps" / "cli.py").is_file():
            parser.error(f"no qso_reps package in {src}")
        compileall.compile_dir(src, quiet=1)
    calls = [shlex.split(c) for c in args.call] or workload_calls(args.workload)
    report(calls, measure([child_env(src) for src in srcs], calls, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
