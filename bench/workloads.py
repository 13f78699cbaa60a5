"""Seeded call lists for the benchmark workloads.

A workload is a fixed list of CLI calls.  The seed picks each call's q from
[0.6, 0.9] U [1.1, 1.8], the sign vectors of nonclassical labels and the
order of the calls; the work a call does barely depends on any of these.
Every pass of a run repeats the same list.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# (subcommand, rank n, kind, weight, number of q values).  For `reduced` the
# weight is the ambient rank-(n+1) weight and the kind is the ambient kind.
_LABELS = {
    "decompose-ladder": [
        ("decompose", 5, "classical", "3,1", 1),
        ("decompose", 6, "classical", "2,1,0", 1),
        ("decompose", 6, "nonclassical", "5/2,3/2,1/2", 1),
    ],
    "operators": [
        ("reduced", 5, "classical", "3,2,1", 1),
        ("reduced", 5, "nonclassical", "7/2,3/2,1/2", 1),
        ("check", 7, "classical", "2,1,1", 2),
    ],
    "small-calls": [
        ("dim", 7, "classical", "4,3,2", 0),
        ("dim", 8, "classical", "3,2,1,0", 0),
        ("dim", 5, "classical", "2,1", 0),
        ("dim", 6, "nonclassical", "7/2,5/2,3/2", 0),
        ("dim", 4, "nonclassical", "5/2,3/2", 0),
        ("dim", 3, "nonclassical", "5/2", 0),
        ("check", 5, "classical", "2,1", 1),
        ("check", 4, "classical", "1,1", 1),
        ("check", 6, "classical", "1,0,0", 1),
        ("check", 3, "classical", "2", 1),
        ("check", 4, "nonclassical", "3/2,1/2", 1),
        ("check", 5, "nonclassical", "3/2,1/2", 1),
        ("decompose", 4, "classical", "1,1", 1),
        ("decompose", 4, "classical", "1,0", 1),
        ("decompose", 3, "classical", "2", 1),
        ("decompose", 4, "nonclassical", "3/2,1/2", 1),
        ("decompose", 3, "nonclassical", "3/2", 1),
        ("decompose", 5, "classical", "1,0", 1),
        ("reduced", 4, "classical", "2,1", 1),
        ("reduced", 4, "nonclassical", "3/2,1/2", 1),
        ("reduced", 3, "classical", "2,1", 1),
        ("reduced", 3, "nonclassical", "3/2,1/2", 1),
        ("reduced", 4, "classical", "1,0", 1),
        ("reduced", 2, "nonclassical", "3/2", 1),
    ],
}

WORKLOADS = tuple(_LABELS)


def _draw_q(rng: random.Random) -> str:
    x = rng.uniform(0.0, 1.0)  # total length of the two intervals
    q = 0.6 + x if x < 0.3 else 1.1 + (x - 0.3)
    return f"{q:.4f}"


def _draw_eps(rng: random.Random, length: int) -> str:
    # The CLI cannot take the sign string "--": argparse drops a lone "--"
    # value even in the --eps=-- form, and the call exits 2 with "needs
    # --eps".  Redraw it; test_bench.py keeps the defect visible.
    while True:
        eps = "".join(rng.choice("+-") for _ in range(length))
        if eps != "--":
            return eps


def calls(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for command, n, kind, weight, n_q in _LABELS[workload]:
        nonclassical = kind == "nonclassical"
        if command == "reduced":
            argv = [command, "--algebra", str(n), "--ambient-weight", weight]
            if nonclassical:
                argv += ["--ambient-kind", kind,
                         "--ambient-eps=" + _draw_eps(rng, n)]
        else:
            argv = [command, "--algebra", str(n), "--weight", weight]
            if nonclassical:
                argv += ["--kind", kind, "--eps=" + _draw_eps(rng, n - 1)]
        if n_q:
            argv += ["--q", ",".join(_draw_q(rng) for _ in range(n_q))]
        out.append(argv)
    rng.shuffle(out)
    return out
