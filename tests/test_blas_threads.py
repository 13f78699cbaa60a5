"""The command line prints the same bytes at one and at two BLAS threads.

Each call runs in a fresh process, because a BLAS library reads its thread
count once, when it is loaded.  A threaded reduction splits a sum
differently, so a dot product or a norm taken by BLAS can move the last
printed digit; the reduced-element fit and the residual norms sum in numpy
or exactly instead.  Two threads at most: the count is part of the input,
not a stress setting.
"""

import os
import subprocess
import sys

import pytest

import qso_reps

# `decompose` checks each intertwiner M against `M @ G` for every block
# generator G, a dense BLAS product; at two threads OpenBLAS splits the
# 504 x 300 by 300 x 300 products of so6(2,2,0)'s largest block differently,
# and four printed intertwining residuals move in their fourth digit.
GEMM_RESIDUALS = pytest.mark.xfail(
    strict=True, reason="intertwining residuals read a threaded GEMM")

CALLS = {
    "reduced so6(3,2,1)": ["reduced", "--algebra", "5",
                           "--ambient-weight", "3,2,1"],
    "reduced so6[7/2,3/2,1/2;----+]": [
        "reduced", "--algebra", "5", "--ambient-weight", "7/2,3/2,1/2",
        "--ambient-kind", "nonclassical", "--ambient-eps=----+"],
    "decompose so6(2,2,0)": pytest.param(
        ["decompose", "--algebra", "6", "--weight", "2,2,0"],
        marks=GEMM_RESIDUALS),
    "check so7(2,1,1)": ["check", "--algebra", "7", "--weight", "2,1,1"],
}


def _stdout(argv, threads: int) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qso_reps.__file__)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    result = subprocess.run([sys.executable, "-m", "qso_reps.cli", *argv],
                            capture_output=True, check=True, env=env)
    return result.stdout


@pytest.mark.parametrize("argv", CALLS.values(), ids=CALLS)
def test_stdout_is_the_same_at_one_and_two_blas_threads(argv):
    one = _stdout(argv, 1)
    assert one
    assert _stdout(argv, 2) == one
