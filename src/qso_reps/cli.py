"""Command-line front end with deterministic JSON/CSV output.

Exit codes: 0 success, 1 a numerical check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .qarith import HalfInt, QContext, ValidationError
from .gtbasis import CLASSICAL, NONCLASSICAL, IrrepLabel, dimension
from .reps import build_all_generators, check_relations
from .cgc import (AuxSearchError, DecompositionError, assemble_decomposition,
                  decomposition_rank)
from .wigner import (FactorizationError, canonical_vector_operator,
                     check_vector_operator, reduced_matrix_elements)

_DEFAULT_TOL = 1e-9


def _fmt(value) -> str:
    """Render a JSON value with floats at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, dict):
        inner = ",".join(f"{_fmt(str(k))}:{_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(payload: dict, rows: list[dict], args) -> None:
    if args.format == "json":
        text = _fmt(payload) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row.values()])
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
    weight = _parse_weight(getattr(args, weight_attr))
    eps_text = getattr(args, eps_attr, None)
    eps = _parse_eps(eps_text) if (eps_text and kind == NONCLASSICAL) else None
    if kind == NONCLASSICAL and eps is None:
        flag = "--" + eps_attr.replace("_", "-")
        raise ValidationError(f"nonclassical labels need {flag}")
    return IrrepLabel(n if n is not None else args.algebra, kind, weight, eps)


def _context(args, q: float) -> QContext:
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("QSO_REPS_TOL", _DEFAULT_TOL))
    return QContext(q, tol_abs=tol, tol_rel=tol)


def cmd_dim(args) -> int:
    label = _label_from(args)
    d = dimension(label)
    payload = {"label": label.to_jsonable(), "dim": d, "patterns": d}
    _emit(payload, [{"dim": d, "patterns": d}], args)
    return 0


def cmd_check(args) -> int:
    label = _label_from(args)
    results = []
    rows = []
    ok = True
    for q in _parse_qs(args.q):
        ctx = _context(args, q)
        report = check_relations(build_all_generators(label, ctx), ctx)
        ok = ok and report.all_passed
        relations = [{"relation": e.relation, "residual": e.residual,
                      "scale": e.scale, "passed": e.passed}
                     for e in report.entries]
        results.append({"q": q, "passed": report.all_passed,
                        "relations": relations})
        rows += [{"q": q, **r} for r in relations]
    payload = {"label": label.to_jsonable(), "results": results, "passed": ok}
    _emit(payload, rows, args)
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    label = _label_from(args)
    n, d = label.n, dimension(label)
    results = []
    rows = []
    for q in _parse_qs(args.q):
        ctx = _context(args, q)
        blocks = assemble_decomposition(label, ctx)
        block_items = []
        for m_tgt, it in blocks.items():
            block_items.append({
                "target": [e.twice for e in m_tgt],
                "dim": it.matrix.shape[1],
                "replaced": it.table.replaced,
                "residuals": [{"generator": k, "residual": e.residual,
                               "scale": e.scale}
                              for k, e in enumerate(it.residuals.entries, 1)],
                "cgc": it.table.to_jsonable(),
            })
            rows.append({"q": q, "target": "(" + ",".join(str(e) for e in m_tgt) + ")",
                         "dim": it.matrix.shape[1],
                         "replaced": it.table.replaced,
                         "max_residual": it.residuals.max_residual})
        rank = decomposition_rank(blocks, ctx)
        results.append({
            "q": q,
            "blocks": block_items,
            "rank": rank,
            "dim_product": n * d,
            "sum_rule_ok": sum(b["dim"] for b in block_items) == n * d,
        })
    payload = {"label": label.to_jsonable(), "results": results}
    _emit(payload, rows, args)
    return 0


def cmd_reduced(args) -> int:
    n = args.algebra
    ambient = _label_from(args, kind_attr="ambient_kind",
                          weight_attr="ambient_weight", eps_attr="ambient_eps",
                          n=n + 1)
    results = []
    rows = []
    for q in _parse_qs(args.q):
        ctx = _context(args, q)
        vop = canonical_vector_operator(ambient, ctx)
        report = check_vector_operator(vop, ctx)
        if not report.all_passed:
            raise FactorizationError(
                f"canonical operator failed covariance check at q={q}: "
                f"max residual {report.max_residual:.3e}")
        reduced = reduced_matrix_elements(vop, ctx)
        for (m_t, _, m_s, _), entry in reduced.entries.items():
            rows.append({"q": q,
                         "m_target": "(" + ",".join(str(e) for e in m_t) + ")",
                         "m_source": "(" + ",".join(str(e) for e in m_s) + ")",
                         "re": entry.value.real, "im": entry.value.imag,
                         "residual": entry.residual})
        results.append({"q": q, "pairs": reduced.to_jsonable()["pairs"],
                        "covariance_residual": report.max_residual})
    payload = {"ambient": ambient.to_jsonable(), "algebra": n,
               "results": results}
    _emit(payload, rows, args)
    return 0


def _add_common(parser: argparse.ArgumentParser, with_label: bool = True) -> None:
    parser.add_argument("--algebra", type=int, required=True, metavar="N",
                        help="rank n of the algebra")
    if with_label:
        parser.add_argument("--kind", choices=[CLASSICAL, NONCLASSICAL],
                            default=CLASSICAL)
        parser.add_argument("--weight", required=True, metavar="LIST",
                            help="comma-separated entries, e.g. 1,0 or 3/2,1/2")
        parser.add_argument("--eps", metavar="STR",
                            help="sign string of length n-1, e.g. ++-")
    parser.add_argument("--q", default="1.3,0.7", metavar="LIST",
                        help="comma-separated evaluation points")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance (default 1e-9 or QSO_REPS_TOL)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", metavar="PATH", help="write output to file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qso-reps",
        description="Tableau representations, tensor-product decompositions "
                    "and reduced matrix elements for the q-deformed "
                    "orthogonal algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="dimension and pattern count")
    _add_common(p_dim)
    p_dim.set_defaults(func=cmd_dim)

    p_check = sub.add_parser("check", help="verify the defining relations")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_dec = sub.add_parser("decompose",
                           help="tensor-product decomposition with coupling "
                                "coefficients")
    _add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_red = sub.add_parser("reduced",
                           help="reduced matrix elements of the canonical "
                                "vector operator of an ambient weight")
    _add_common(p_red, with_label=False)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DecompositionError, AuxSearchError, FactorizationError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
