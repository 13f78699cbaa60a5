"""Byte-identity sweep of the `qso-reps` command line.

Runs a fixed list of about a thousand argument lists through
`qso_reps.cli.main` in one process and prints one line per call:

    argv<TAB>exit<TAB>sha256(stdout)<TAB>sha256(stderr)

Run it once per checkout and diff the two outputs, for example

    PYTHONPATH=src python tests/cli_sweep.py > after.tsv
    PYTHONPATH=../parent/src python tests/cli_sweep.py > before.tsv

It imports whichever `qso_reps` is first on `PYTHONPATH`.  The calls cover
`dim`, `check` as CSV, `decompose` as JSON, as CSV and at `--q 0.35,2.5`
on every label of rank 2..6 of both families (eps all-plus and
alternating, entries in [-3, 3], dimension at most 60), `reduced` as JSON
and as CSV on every such ambient of rank 3..6, eight labels at q = 1e±6,
1e±20, 5, 0.2, 1.0001 and 1e60, and the known edge and malformed inputs.  The process limits its own
address space so that a runaway allocation fails at once.  The file name
does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import resource
import traceback
import warnings

from qso_reps.cli import main
from qso_reps.gtbasis import (CLASSICAL, NONCLASSICAL, IrrepLabel, dimension,
                              weight_is_dominant)
from qso_reps.qarith import HalfInt

MAX_DIM = 60
EDGE_QS = ("1e6", "1e-6", "1e20", "1e-20", "5", "0.2", "1.0001", "1e60")


def _text(row) -> str:
    return ",".join(str(e) for e in row)


def _signs(eps) -> str:
    return "".join("+" if e > 0 else "-" for e in eps)


def labels(ranks) -> list[IrrepLabel]:
    """Dominant labels of the given ranks with entries in [-3, 3] and
    dimension at most MAX_DIM; nonclassical ones with all-plus and
    alternating signs."""
    out = []
    for n in ranks:
        twice = range(-6, 7)
        for kind in (CLASSICAL, NONCLASSICAL):
            signs = [None]
            if kind == NONCLASSICAL:
                signs = sorted({(1,) * (n - 1),
                                tuple(1 if i % 2 == 0 else -1
                                      for i in range(n - 1))}, reverse=True)
            for entries in itertools.product(twice, repeat=n // 2):
                row = tuple(HalfInt(t) for t in entries)
                if not weight_is_dominant(row, n, kind):
                    continue
                for eps in signs:
                    label = IrrepLabel(n, kind, row, eps)
                    if dimension(label) <= MAX_DIM:
                        out.append(label)
    return out


def label_args(label: IrrepLabel, prefix: str = "") -> list[str]:
    args = [f"--{prefix}weight", _text(label.m_top)]
    if label.kind == NONCLASSICAL:
        args += [f"--{prefix}kind", NONCLASSICAL,
                 f"--{prefix}eps", _signs(label.eps)]
    return args


def calls() -> list[list[str]]:
    out = []
    for label in labels(range(2, 7)):
        base = ["--algebra", str(label.n)] + label_args(label)
        out.append(["dim"] + base)
        out.append(["check"] + base + ["--format", "csv"])
        out.append(["decompose"] + base)
        out.append(["decompose"] + base + ["--format", "csv"])
        out.append(["decompose"] + base + ["--q", "0.35,2.5"])
    for ambient in labels(range(3, 7)):
        base = (["reduced", "--algebra", str(ambient.n - 1)]
                + label_args(ambient, "ambient-"))
        out.append(base)
        out.append(base + ["--format", "csv"])
    edge = [
        ["decompose", "--algebra", "3", "--weight", "1"],
        ["decompose", "--algebra", "4", "--weight", "1,1"],
        ["decompose", "--algebra", "5", "--weight", "3,1"],
        ["decompose", "--algebra", "6", "--weight", "2,1,0"],
        ["decompose", "--algebra", "6", "--kind", "nonclassical",
         "--weight", "5/2,3/2,1/2", "--eps", "+++++"],
        ["decompose", "--algebra", "4", "--kind", "nonclassical",
         "--weight", "3/2,1/2", "--eps", "+-+"],
        ["reduced", "--algebra", "3", "--ambient-weight", "2,1"],
        ["reduced", "--algebra", "3", "--ambient-weight", "3/2,1/2",
         "--ambient-kind", "nonclassical", "--ambient-eps", "+-+"],
    ]
    out += [argv + ["--q", q] for argv in edge for q in EDGE_QS]
    seven = ["decompose", "--algebra", "6", "--kind", "nonclassical",
             "--weight", "7/2,1/2,1/2", "--eps=+++++"]
    out += [seven + ["--q", q] for q in ("5", "0.2", "0.25")]
    out += [
        ["check", "--algebra", "3", "--weight", "1/2", "--q", "1e27"],
        ["decompose", "--algebra", "4", "--weight", "1,1", "--q", "1e25"],
        ["decompose", "--algebra", "5", "--weight", "2,1", "--q", "1e25"],
        ["check", "--algebra", "3", "--weight", "99999", "--q", "1e300"],
        ["check", "--algebra", "3", "--weight", "1", "--q", "inf"],
        ["check", "--algebra", "3", "--weight", "1", "--q", "nan"],
        ["check", "--algebra", "3", "--weight", "1", "--q", "0"],
        ["check", "--algebra", "3", "--weight", "1", "--q", "1"],
        ["check", "--algebra", "3", "--weight", "1", "--q", "-2"],
        ["check", "--algebra", "3", "--weight", "1", "--q", ""],
        ["dim", "--algebra", "3", "--weight=--"],
        ["reduced", "--algebra", "3", "--ambient-weight=--"],
        ["reduced", "--algebra", "1", "--ambient-weight", "1"],
        ["reduced", "--algebra", "2", "--ambient-weight", "2"],
        ["dim", "--algebra", "3", "--kind", "nonclassical", "--weight",
         "3/2", "--eps=--"],
        ["dim", "--algebra", "3", "--kind", "nonclassical", "--weight",
         "3/2", "--eps", "-+"],
        ["dim", "--algebra", "2", "--weight", "-1/2"],
        ["dim", "--algebra", "4", "--weight", "1,0,9"],
        ["dim", "--algebra", "4", "--weight", "0,1"],
        ["dim", "--algebra", "1", "--weight", "1"],
        ["decompose", "--algebra", "3", "--weight", "1", "--out",
         "/nonexistent/dir/x"],
        ["check", "--algebra", "3", "--weight", "1", "--tol", "nan"],
        ["check", "--algebra", "3", "--weight", "1", "--tol", "inf"],
        ["dim", "--algebra", "3", "--weight", "1", "--q", "abc"],
    ]
    return out


def run(argv: list[str]) -> tuple[str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception:  # an uncaught error is a finding, not a crash
            traceback.print_exc(limit=0)
            code = "traceback"
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    limit = 4 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    warnings.simplefilter("always")
    for argv in calls():
        code, out, err = run(argv)
        print(" ".join(argv), code, _digest(out), _digest(err), sep="\t",
              flush=True)
