"""Record the reference outputs of the default seed.

Usage: python3 bench/record_reference.py [WORKLOAD...]

Runs each call of the default seed's call list once, checks it as any
benchmark call is checked, and stores its parsed JSON output under
bench/reference/.  Re-record only when a change to the program is meant to
change its output, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import verify
import workloads


def main(names: list[str]) -> int:
    env = run.child_env()
    run.TMP.mkdir(exist_ok=True)
    try:
        for workload in names or workloads.WORKLOADS:
            calls = workloads.calls(workload, workloads.DEFAULT_SEED)
            outputs = {}
            for call in run.run_pass(calls, env, False)[1]:
                problem = verify.check_output(call.argv, call.code, call.stdout)
                if problem:
                    print(f"{' '.join(call.argv)}: {problem}", file=sys.stderr)
                    return 1
                outputs[verify.call_key(call.argv)] = json.loads(call.stdout)
            verify.save_reference(workload, outputs)
            print(f"{workload}: {len(outputs)} outputs recorded")
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
