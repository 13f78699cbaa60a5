"""Smoke test of `own_peak.py` on one small call against this checkout."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def test_own_peak_measures_one_dim_call():
    # run as its own small process, which must import neither numpy nor
    # qso_reps, or the calls' peaks would be the helper's
    script = ("import sys, own_peak; own_peak.main(sys.argv[1:]); "
              "assert not {'numpy', 'qso_reps'} & set(sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", script, str(SRC), str(SRC),
         "--call", "dim --algebra 3 --weight 1", "--runs", "1"],
        capture_output=True, text=True, cwd=HERE, timeout=60, check=True)
    head, row, helper = done.stdout.splitlines()
    assert head.split("\t")[0] == "call"
    call, peak1, peak2, peak_wins, wall1, wall2, wall_wins, codes = row.split("\t")
    assert call == "dim --algebra 3 --weight 1"
    assert float(peak1) > 0 and float(peak2) > 0
    assert float(wall1) > 0 and float(wall2) > 0
    assert peak_wins in ("0/1", "1/1") and wall_wins in ("0/1", "1/1")
    assert codes == "0/0"
    assert helper.startswith("# helper peak ")
