"""Command-line front end with deterministic JSON/CSV output; the only
module that decides how labels, tableaux and tables are written.

Exit codes: 0 success, 1 a numerical check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import sys

import numpy as np

from .qarith import HalfInt, QContext, ValidationError
from .gtbasis import CLASSICAL, NONCLASSICAL, IrrepLabel, dimension
from .reps import build_all_generators, check_relations
from .cgc import (AuxSearchError, DecompositionError, assemble_decomposition,
                  decomposition_rank)
from .wigner import (FactorizationError, canonical_vector_operator,
                     check_vector_operator, reduced_matrix_elements)


def _fmt(value) -> str:
    """Render a JSON value with floats at 17 significant digits."""
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, dict):
        inner = ",".join(f"{_fmt(str(k))}:{_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    return _scalar(value)


def _scalar(value) -> str:
    """A JSON scalar or a CSV cell; floats at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "null"
    raise TypeError(f"cannot serialise {type(value).__name__}")


# One writer per output form: a weight row as doubled entries or as CSV text
# "(3/2,1/2)", a tableau (rows top first), a label, a coupling table, and the
# JSON items and CSV rows of the reduced elements at one q.

def _weight(row) -> list[int]:
    return [e.twice for e in row]


def _weight_text(row) -> str:
    return "(" + ",".join(str(e) for e in row) + ")"


def _pattern(pattern) -> list[list[int]]:
    return [_weight(row) for row in pattern.rows]


def _label(label) -> dict:
    return {"n": label.n, "kind": label.kind, "weight": _weight(label.m_top),
            "eps": list(label.eps) if label.eps else None}


def _table(table) -> dict:
    return {"source": _label(table.source),
            "target": _weight(table.target.m_top),
            "entries": [{"target_pattern": _pattern(t),
                         "terms": [{"k": k, "source_pattern": _pattern(s),
                                    "re": float(v.real), "im": float(v.imag)}
                                   for k, s, v in terms]}
                        for t, terms in table.entries]}


def _reduced_pairs(q: float, reduced) -> tuple[list[dict], list[dict]]:
    pairs, rows = [], []
    for (m_t, s_t, m_s, s_s), entry in reduced.entries.items():
        value = {"re": float(entry.value.real), "im": float(entry.value.imag),
                 "residual": float(entry.residual)}
        pairs.append({"m_target": _weight(m_t), "s_target": s_t,
                      "m_source": _weight(m_s), "s_source": s_s, **value})
        rows.append({"q": q, "m_target": _weight_text(m_t),
                     "m_source": _weight_text(m_s), **value})
    return pairs, rows


def _emit(payload: dict, rows: list[dict], args) -> None:
    if args.format == "json":
        text = _fmt(payload) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows([_scalar(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_weight(text: str) -> tuple[HalfInt, ...]:
    return tuple(HalfInt.parse(part) for part in text.split(","))


def _parse_eps(text: str) -> tuple[int, ...]:
    out = []
    for ch in text:
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValidationError(f"eps must be a string of + and -, got {text!r}")
    return tuple(out)


def _parse_qs(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _label_from(args, *, kind_attr="kind", weight_attr="weight",
                eps_attr="eps", n: int | None = None) -> IrrepLabel:
    kind = getattr(args, kind_attr)
    weight_text = getattr(args, weight_attr)
    if not isinstance(weight_text, str):  # argparse turns `--weight=--` into []
        raise ValidationError(f"--{weight_attr.replace('_', '-')} needs a value")
    weight = _parse_weight(weight_text)
    eps_text = getattr(args, eps_attr, None)
    eps = _parse_eps(eps_text) if (eps_text and kind == NONCLASSICAL) else None
    if kind == NONCLASSICAL and eps is None:
        flag = "--" + eps_attr.replace("_", "-")
        raise ValidationError(f"nonclassical labels need {flag}")
    return IrrepLabel(n if n is not None else args.algebra, kind, weight, eps)


def cmd_dim(args) -> int:
    label = _label_from(args)
    d = dimension(label)
    _emit({"label": _label(label), "dim": d, "patterns": d},
          [{"dim": d, "patterns": d}], args)
    return 0


def cmd_check(args) -> int:
    label = _label_from(args)
    results, rows = [], []
    ok = True
    for q in _parse_qs(args.q):
        ctx = QContext(q, args.tol)
        report = check_relations(build_all_generators(label, ctx), ctx)
        ok = ok and report.all_passed
        relations = [{"relation": e.relation, "residual": e.residual,
                      "scale": e.scale, "passed": e.passed}
                     for e in report.entries]
        results.append({"q": q, "passed": report.all_passed,
                        "relations": relations})
        rows += [{"q": q, **r} for r in relations]
    _emit({"label": _label(label), "results": results, "passed": ok}, rows,
          args)
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    label = _label_from(args)
    n, d = label.n, dimension(label)
    results, rows = [], []
    for q in _parse_qs(args.q):
        ctx = QContext(q, args.tol)
        blocks = assemble_decomposition(label, ctx)
        block_items = []
        for m_tgt, it in blocks.items():
            dim, replaced = it.matrix.shape[1], it.table.replaced
            block_items.append({
                "target": _weight(m_tgt), "dim": dim, "replaced": replaced,
                "residuals": [{"generator": k, "residual": e.residual,
                               "scale": e.scale}
                              for k, e in enumerate(it.residuals.entries, 1)],
                "cgc": _table(it.table)})
            rows.append({"q": q, "target": _weight_text(m_tgt), "dim": dim,
                         "replaced": replaced,
                         "max_residual": it.residuals.max_residual})
        results.append({"q": q, "blocks": block_items,
                        "rank": decomposition_rank(blocks, ctx),
                        "dim_product": n * d,
                        "sum_rule_ok": sum(b["dim"] for b in block_items) == n * d})
        del blocks  # this q's intertwiners go before the next q's are built
    _emit({"label": _label(label), "results": results}, rows, args)
    return 0


def cmd_reduced(args) -> int:
    n = args.algebra
    ambient = _label_from(args, kind_attr="ambient_kind",
                          weight_attr="ambient_weight", eps_attr="ambient_eps",
                          n=n + 1)
    results, rows = [], []
    for q in _parse_qs(args.q):
        ctx = QContext(q, args.tol)
        vop = canonical_vector_operator(ambient, ctx)
        report = check_vector_operator(vop, ctx)
        if not report.all_passed:
            failed = "; ".join(
                f"{e.relation} residual {e.residual:.3e} scale {e.scale:.3e} "
                f"tolerance {ctx.tolerance(e.scale):.3e}"
                for e in report.failures())
            raise FactorizationError(
                f"canonical operator failed covariance check at q={q}: "
                f"{failed}")
        pairs, pair_rows = _reduced_pairs(q, reduced_matrix_elements(vop, ctx))
        rows += pair_rows
        results.append({"q": q, "pairs": pairs,
                        "covariance_residual": report.max_residual})
    _emit({"ambient": _label(ambient), "algebra": n, "results": results},
          rows, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qso-reps",
        description="Tableau representations, tensor-product decompositions "
                    "and reduced matrix elements for the q-deformed "
                    "orthogonal algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    # option groups shared by the subcommands; `dim` evaluates nothing at q
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", type=int, required=True, metavar="N",
                         help="rank n of the algebra")
    label = argparse.ArgumentParser(add_help=False)
    label.add_argument("--kind", choices=[CLASSICAL, NONCLASSICAL],
                       default=CLASSICAL)
    label.add_argument("--weight", required=True, metavar="LIST",
                       help="comma-separated entries, e.g. 1,0 or 3/2,1/2")
    label.add_argument("--eps", metavar="STR",
                       help="sign string of length n-1, e.g. ++-")
    at_q = argparse.ArgumentParser(add_help=False)
    at_q.add_argument("--q", default="1.3,0.7", metavar="LIST",
                      help="comma-separated evaluation points")
    at_q.add_argument("--tol", type=float, default=QContext.tol,
                      help=f"tolerance (default {QContext.tol:g})")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["json", "csv"], default="json")
    output.add_argument("--out", metavar="PATH", help="write output to file")

    sub.add_parser("dim", help="dimension and pattern count",
                   parents=[algebra, label, output]).set_defaults(func=cmd_dim)
    sub.add_parser("check", help="verify the defining relations",
                   parents=[algebra, label, at_q, output]
                   ).set_defaults(func=cmd_check)
    sub.add_parser("decompose",
                   help="tensor-product decomposition with coupling "
                        "coefficients",
                   parents=[algebra, label, at_q, output]
                   ).set_defaults(func=cmd_decompose)
    p_red = sub.add_parser("reduced",
                           help="reduced matrix elements of the canonical "
                                "vector operator of an ambient weight",
                           parents=[algebra, at_q, output])
    p_red.add_argument("--ambient-weight", required=True, metavar="LIST",
                       help="next-rank weight, length floor((n+1)/2)")
    p_red.add_argument("--ambient-kind", choices=[CLASSICAL, NONCLASSICAL],
                       default=CLASSICAL)
    p_red.add_argument("--ambient-eps", metavar="STR",
                       help="sign string of length n for the ambient label")
    p_red.set_defaults(func=cmd_reduced)
    return parser


# options whose value may start with "-", and the characters of such values
_DASH_VALUES = {"--eps": "+-", "--ambient-eps": "+-",
                "--weight": "-0123456789/,",
                "--ambient-weight": "-0123456789/,"}


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite `--eps X` as `--eps=X` (likewise `--ambient-eps`, `--weight`
    and `--ambient-weight`) when X starts with `-` and is made of the
    option's value characters, so argparse does not read X as an option.
    X = `--` is left alone: argparse drops it even as `--eps=--`."""
    out: list[str] = []
    for arg in argv:
        chars = _DASH_VALUES.get(out[-1]) if out else None
        if (chars and arg.startswith("-") and arg != "--"
                and set(arg) <= set(chars)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _check_out(path: str) -> None:
    """Raise what `open(path, "w")` would for a missing or unwritable
    directory or a path that is a directory, without touching the file, so
    a bad `--out` fails first."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.out:
            _check_out(args.out)
        # every check fails on NaN, so numpy's warnings add nothing
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:  # ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large: {str(exc) or 'ran out of memory'}",
              file=sys.stderr)
        return 2
    except (DecompositionError, AuxSearchError, FactorizationError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
