"""Generator matrices of the q-deformed orthogonal algebra on tableau bases.

The generator attached to index k (k = 1..n-1) acts on the level-k row of a
tableau.  Even k raises/lowers one entry of that row with square-root
coefficients; odd k does the same on the smaller odd row and adds a diagonal
term (imaginary for the classical family, eps-signed for the nonclassical
one).  Both families share one set of coefficient formulas, `_coefficient`,
whose parameter is the bracket pair: the classical family reads [x] where
the nonclassical one reads [x]+, and the raising prefactor takes the
complementary sum or difference of q-powers.  `coeff_classical` and
`coeff_nonclassical` are its two entry points.  Their factors are
q-brackets of half-integer arguments; [x] vanishes only at x = 0 and [x]+
never, so zeros are decided from the arguments, not by a float threshold.
Transition coefficients vanish identically on every one-step excursion
outside the tableau lattice; we evaluate them anyway and insist they come
out exactly 0, which turns that boundary property into a runtime check.

Every coefficient of generator k reads only the rows at levels k+1, k and
k-1 of the tableau it acts on, and the eps signs of nonclassical labels
enter only as a factor on the diagonal term.  The action of generator k on
one tableau is therefore memoised on those three rows and the family: a hit
runs the same formulas on the same rows, so it returns bit-identical values,
and the out-of-lattice check runs once per key.  The memo and the generators
of `build_all_generators` are values derived at q, so they live in the
`QContext`'s cache and are freed with it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .qarith import (HalfInt, QContext, SingularCoefficientError,
                     ValidationError, q_bracket, q_bracket_plus, q_power)
from .gtbasis import (CLASSICAL, NONCLASSICAL, HALF, GTPattern, IrrepLabel,
                      enumerate_patterns, l_coords)


@dataclass(frozen=True)
class GeneratorMatrix:
    """One generator (or composite generator) as a dense complex matrix."""

    label: IrrepLabel
    gen: str
    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _product(ctx: QContext, factors: list[HalfInt], plus: bool = False) -> float:
    """Product of q-brackets; exactly 0.0 when a plain bracket has argument
    0, decided before any bracket is evaluated ([x]+ never vanishes)."""
    if not plus and any(a.twice == 0 for a in factors):
        return 0.0
    bracket = q_bracket_plus if plus else q_bracket
    value = 1.0
    for a in factors:
        value *= bracket(a, ctx)
    return value


def _ratio(ctx: QContext, num: list[HalfInt], den: list[HalfInt],
           name: str, j: int, xi: GTPattern, plus: bool = False) -> float:
    """Quotient of two bracket products for coefficient `name` (entry j, 0
    for none) at tableau xi; the message is only formatted when raising."""
    num_val = _product(ctx, num, plus)
    if num_val == 0.0:
        return 0.0
    den_val = _product(ctx, den, plus)
    if den_val == 0.0:
        where = f"{name}^{j}" if j else name
        raise SingularCoefficientError(
            f"vanishing denominator bracket in {where} at {xi}: factors {den}")
    return num_val / den_val


def _hat_squared(xi: GTPattern, j: int, level: int, which: str,
                 ctx: QContext) -> float:
    """Squared numerator of the raising coefficient at entry j of row
    `level`: which="A" for even rows, "B" for odd rows.  The two differ in
    one numerator and one denominator shift."""
    a, b = (1, 1) if which == "A" else (0, -1)
    la = l_coords(xi.row(level + 1), level + 1)
    lm = l_coords(xi.row(level), level)
    lb = l_coords(xi.row(level - 1), level - 1) if level - 1 >= 2 else ()
    lj = lm[j - 1]
    num: list[HalfInt] = []
    for x in la:
        num += [x + lj, x - lj - a]
    for x in lb:
        num += [x + lj, x - lj - a]
    den: list[HalfInt] = []
    for i, x in enumerate(lm):
        if i != j - 1:
            den += [x + lj, x - lj, x + lj + b, x - lj - 1]
    return _ratio(ctx, num, den, which, j, xi)


def _coefficient(xi: GTPattern, j: int, level: int, which: str,
                 ctx: QContext, plus: bool) -> complex | float:
    """Matrix-element coefficient of either family at a tableau.

    `plus` selects the nonclassical family: its bracket [x]+ replaces [x] in
    the linear denominator of B and throughout C, the prefactor of A takes
    differences q^l - q^-l where the classical one takes sums, and the
    radicand must not be negative, so the result is real.  which="A":
    raising coefficient for entry j of even row `level`; "B": the same for
    odd rows; "C": the diagonal element of the odd-row generator; "D"
    (nonclassical only): the diagonal element on the half line of an even
    row (j ignored for C and D).
    """
    name = f"{which}~" if plus else which
    if which in ("A", "B"):
        lj = l_coords(xi.row(level), level)[j - 1]
        hat2 = _hat_squared(xi, j, level, which, ctx)
        if hat2 == 0.0:
            return 0.0
        if which == "A":
            # [l][l+1]/([2l][2l+2]) == 1/((q^l+q^-l)(q^(l+1)+q^-(l+1))), finite
            # at l = 0; with [l]+[l+1]+ on top the sums become differences
            s = -1.0 if plus else 1.0
            pref = (q_power(lj, ctx) + s * q_power(-lj, ctx)) * (
                q_power(lj + 1, ctx) + s * q_power(-lj - 1, ctx))
            radicand = hat2 / pref
        else:
            den_sq = _product(ctx, [2 * lj + 1, 2 * lj - 1])
            den_lin = _product(ctx, [lj], plus)
            if den_sq == 0.0 or den_lin == 0.0:
                raise SingularCoefficientError(
                    f"vanishing bracket [{lj}] or [2l+-1] in {name}^{j} at {xi}")
            radicand = hat2 / den_sq
        if plus and radicand < 0.0:
            raise SingularCoefficientError(
                f"nonclassical {name}^{j} came out complex at {xi}")
        root = math.sqrt(radicand) if plus else cmath.sqrt(radicand)
        return root if which == "A" else root / den_lin
    if which == "C" or (which == "D" and plus):
        la = l_coords(xi.row(level + 1), level + 1)
        lm = l_coords(xi.row(level), level) if level >= 2 else ()
        lb = l_coords(xi.row(level - 1), level - 1) if level - 1 >= 2 else ()
        den: list[HalfInt] = []
        if which == "C":
            for x in lm:
                den += [x, x - 1]
            value = _ratio(ctx, list(la + lb), den, name, 0, xi, plus)
            return value if plus else complex(value)
        for x in lm[:-1]:
            den += [x + HALF, x - HALF]
        return _ratio(ctx, [x - HALF for x in la + lb], den, name, 0, xi)
    family = NONCLASSICAL if plus else CLASSICAL
    raise ValidationError(f"unknown {family} coefficient kind {which!r}")


def coeff_classical(xi: GTPattern, j: int, level: int, which: str,
                    ctx: QContext) -> complex:
    """Classical-family coefficient; which in {"A","B","C"}."""
    return _coefficient(xi, j, level, which, ctx, plus=False)


def coeff_nonclassical(xi: GTPattern, j: int, level: int, which: str,
                       ctx: QContext) -> float:
    """Nonclassical-family coefficient; which in {"A","B","C","D"}."""
    return _coefficient(xi, j, level, which, ctx, plus=True)


def _column_action(label: IrrepLabel, k: int, xi: GTPattern,
                   ctx: QContext) -> tuple[list[tuple[int, int, complex]],
                                           complex | float | None]:
    """Action of generator k on the column tableau xi: the in-lattice steps
    (j, step, signed coefficient) and the diagonal term without its eps sign
    (None when there is none), memoised in `ctx.cache` on the rows of xi at
    levels k+1, k and k-1 and the family."""
    i = xi.n - k - 1  # rows[i] is level k+1; levels below 2 do not exist
    key = (label.kind, k, xi.rows[i:i + 3])
    action = ctx.cache.get(key)
    if action is not None:
        return action
    # looked up here, not bound at import, so a rebound entry point is used
    classical = label.kind == CLASSICAL
    coeff = coeff_classical if classical else coeff_nonclassical
    which = "A" if k % 2 == 0 else "B"
    p = (k + 1) // 2
    truncate = not classical and k % 2 == 0 and xi.m(k, p) == HALF
    steps: list[tuple[int, int, complex]] = []
    for step in (+1, -1):
        for j in range(1, k // 2 + 1):
            if step < 0 and truncate and j == p:
                continue
            nb = xi.replace(k, j, step)
            # raising at xi, lowering by the raising coefficient at nb
            c = coeff(xi if step > 0 else nb, j, k, which, ctx)
            if nb.is_valid(label.kind):
                steps.append((j, step, c if step > 0 else -c))
            elif c != 0:
                raise SingularCoefficientError(
                    f"out-of-lattice step {xi}->{nb} has coefficient {c}")
    diag = None
    if k % 2 == 1:
        diag = coeff(xi, 0, k, "C", ctx)
        if classical:
            diag = 1j * diag
    elif truncate:
        diag = coeff(xi, 0, k, "D", ctx) / (
            q_power(HALF, ctx) - q_power(-HALF, ctx))
    ctx.cache[key] = action = (steps, diag)
    return action


def generator_block(label: IrrepLabel, k: int, rows: dict[GTPattern, int],
                    cols: Sequence[GTPattern], ctx: QContext) -> np.ndarray:
    """Block of generator k with the tableaux of `rows` (tableau -> row
    index) as rows and `cols` as columns.

    Each column's action comes from `_column_action`, memoised on the rows
    at levels k+1, k and k-1 that the coefficients read.  Precondition:
    every column tableau is valid for `label.kind` (as `enumerate_patterns`
    gives them).  Whether a step stays in the lattice then also depends
    only on those rows, so the out-of-lattice check made once per key
    covers every column."""
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    sign = label.eps_for(k + 1) if label.kind == NONCLASSICAL else 1
    for col, xi in enumerate(cols):
        steps, diag = _column_action(label, k, xi, ctx)
        for j, step, c in steps:
            row = rows.get(xi.replace(k, j, step))
            if row is not None:
                mat[row, col] += c
        if diag is not None:
            row = rows.get(xi)
            if row is not None:
                mat[row, col] += sign * diag
    return mat


def build_generator(label: IrrepLabel, k: int, ctx: QContext) -> GeneratorMatrix:
    """Matrix of generator k (k = 1..n-1) on the tableau basis of `label`."""
    if not 1 <= k <= label.n - 1:
        raise ValidationError(f"generator index {k} out of range for n={label.n}")
    basis = enumerate_patterns(label)
    mat = generator_block(label, k, basis.index, basis.patterns, ctx)
    return GeneratorMatrix(label, f"I({k + 1},{k})", mat)


def build_all_generators(label: IrrepLabel, ctx: QContext) -> list[GeneratorMatrix]:
    """Generators k = 1..n-1 of `label`, built once per context and kept in
    `ctx.cache`; each call returns a new list of the same read-only arrays."""
    gens = ctx.cache.get(label)
    if gens is None:
        gens = ctx.cache[label] = [build_generator(label, k, ctx)
                                   for k in range(1, label.n)]
        for g in gens:
            g.mat.flags.writeable = False
    return list(gens)


def composite_chain(top: np.ndarray, row_gens: Sequence[np.ndarray],
                    col_gens: Sequence[np.ndarray], sign: str, ctx: QContext,
                    stop: int = 1) -> dict[int, np.ndarray]:
    """Downward q-commutator recursion run on one block: `top` is the block
    of generator m = len(row_gens) + 1, row_gens[lv - 1] and col_gens[lv - 1]
    are generator lv on the row and column spaces, and entry l of the result
    (m down to `stop`) is the block of I^sign(m+1, l)."""
    s = +0.5 if sign == "+" else -0.5
    qs, qsi = ctx.q ** s, ctx.q ** (-s)
    current = top
    out = {len(row_gens) + 1: current}
    for lv in range(len(row_gens), stop - 1, -1):
        current = qs * (row_gens[lv - 1] @ current) - qsi * (current @ col_gens[lv - 1])
        out[lv] = current
    return out


def composite_generator(label: IrrepLabel, k: int, l: int, sign: str,
                        ctx: QContext,
                        base: list[GeneratorMatrix] | None = None) -> GeneratorMatrix:
    """Composite generator bridging indices k > l, built by the downward
    q-commutator recursion from the plain generator chain."""
    if sign not in ("+", "-"):
        raise ValidationError(f"sign must be '+' or '-', got {sign!r}")
    if not (label.n >= k > l >= 1):
        raise ValidationError(f"need n >= k > l >= 1, got k={k}, l={l}")
    if base is None:
        base = build_all_generators(label, ctx)
    low = [g.mat for g in base[:k - 2]]
    chain = composite_chain(base[k - 2].mat, low, low, sign, ctx, stop=l)
    return GeneratorMatrix(label, f"I{sign}({k},{l})", chain[l])


@dataclass(frozen=True)
class RelationResidual:
    relation: str
    residual: float
    scale: float
    passed: bool


@dataclass(frozen=True)
class RelationReport:
    entries: tuple[RelationResidual, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def failures(self) -> list[RelationResidual]:
        return [e for e in self.entries if not e.passed]


def relation_residual(relation: str, diff: np.ndarray, scale: float,
                      ctx: QContext) -> RelationResidual:
    """Report entry for one relation: the Frobenius norm of `diff`, its two
    sides' difference, passed when at most `ctx.tolerance(scale)`."""
    residual = float(np.linalg.norm(diff))
    return RelationResidual(relation, residual, scale,
                            residual <= ctx.tolerance(scale))


def max_entry(*mats: np.ndarray) -> float:
    """Largest absolute entry of `mats`, 0.0 for empty ones."""
    return max((float(np.abs(m).max()) if m.size else 0.0) for m in mats)


def check_relations(mats: list[GeneratorMatrix], ctx: QContext) -> RelationReport:
    """Residuals of the defining relations for a candidate representation."""
    dims = {g.dim for g in mats}
    if len(dims) != 1:
        raise ValidationError(f"generator dimensions differ: {sorted(dims)}")
    two = ctx.q + 1.0 / ctx.q
    entries: list[RelationResidual] = []
    ms = [g.mat for g in mats]
    for a in range(1, len(ms)):
        x, y = ms[a], ms[a - 1]
        xx, yy = x @ x, y @ y
        t1, t2, t3 = xx @ y, y @ xx, x @ (y @ x)
        entries.append(relation_residual(
            f"serre({a + 1},{a})", t1 + t2 - two * t3 + y,
            max_entry(t1, t2, t3, y), ctx))
        u1, u2, u3 = yy @ x, x @ yy, y @ (x @ y)
        entries.append(relation_residual(
            f"serre({a},{a + 1})", u1 + u2 - two * u3 + x,
            max_entry(u1, u2, u3, x), ctx))
    for a in range(len(ms)):
        for b in range(a + 2, len(ms)):
            ab, ba = ms[a] @ ms[b], ms[b] @ ms[a]
            entries.append(relation_residual(
                f"far({a + 1},{b + 1})", ab - ba, max_entry(ab, ba), ctx))
    return RelationReport(tuple(entries))
