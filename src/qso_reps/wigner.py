"""Vector operators and the reduced-matrix-element factorisation.

A vector operator is a family of n operators tied to the ambient generators
by q-commutators, which `check_vector_operator` evaluates on the nonzeros.
Restricting an irrep of the next-rank algebra to the chain subalgebra
yields the canonical example: the composite generators bridging level n+1
to each slot k.  Operators and generators are held as nonzeros
(`reps.Sparse`); the q-commutator chain that makes the components runs on
dense arrays, whose BLAS products fix the printed digits, and each level is
stored as nonzeros as soon as the chain yields it.  Matrix elements of any
vector operator between two irreducible blocks factor into a block-pair
constant times a primed inverse coupling coefficient; the constant is
extracted by a weighted least-squares fit and the factorisation is
certified by the spread of the individual ratios.

The primed inverse coefficients of a block pair are the (target, source)
blocks of the "+" composite generators of an auxiliary next-rank irrep over
their normalising ratio.  Every generator obeys G.T == D G D, D the diagonal
of `gtbasis.pattern_parity`, so each "+" chain level is minus the gauged
transpose of a "-" one, and slot k is s (-1)^(n-k) D_t (F_k / mu).T D_s for
the blocks F_k and ratio mu of `cgc.admissible_aux`.  s = D_t[j] D_s[i] at
the entry (i, j) of mu is 1: D skips the top row, the rest is shared there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qarith import QContext, ValidationError
from .gtbasis import (NONCLASSICAL, BasisIndex, GTPattern, IrrepLabel,
                      branch_rows, enumerate_patterns, pattern_parity)
from .reps import (RelationReport, RelationResidual, Sparse,
                   build_all_generators, combine, composite_chain,
                   sparse_residual)
from .cgc import Row, admissible_aux


@dataclass(frozen=True)
class AmbientBlock:
    """One irreducible constituent of the space a vector operator acts on."""

    label: IrrepLabel
    s: int
    offset: int
    basis: BasisIndex

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass(frozen=True)
class VectorOperator:
    """Components V_1..V_n with the ambient generator matrices they covary
    with, on a space decomposed into labelled irreducible blocks; both are
    held as nonzeros."""

    n: int
    blocks: tuple[AmbientBlock, ...]
    gens: tuple[Sparse, ...]
    components: tuple[Sparse, ...]

    @property
    def dim(self) -> int:
        return self.gens[0].shape[0]


def check_vector_operator(vop: VectorOperator, ctx: QContext) -> RelationReport:
    """Residuals of the q-commutator covariance identities and of the far
    commutators of a candidate vector operator, from products on the
    nonzeros (`reps.Sparse`: O(w * d^2) memory, never d^3)."""
    shapes = {m.shape for m in vop.gens} | {m.shape for m in vop.components}
    if len(shapes) != 1:
        raise ValidationError(f"inconsistent operator shapes: {shapes}")
    sq = ctx.q ** 0.5
    entries: list[RelationResidual] = []
    gens, comps = vop.gens, vop.components

    def entry(name, lhs, rhs):
        return sparse_residual(name, ((1, lhs), (-1, rhs)), ctx, floor=1.0)

    def qcomm(x, y):
        return combine((sq, x @ y), (-1.0 / sq, y @ x))

    for j in range(2, vop.n + 1):
        t, low, high = gens[j - 2], comps[j - 2], comps[j - 1]
        entries.append(entry(f"raise({j})", qcomm(low, t), high))
        entries.append(entry(f"lower({j})", qcomm(t, high), low))
    for j in range(2, vop.n + 1):
        t = gens[j - 2]
        for k in range(1, vop.n + 1):
            if k in (j - 1, j):
                continue
            entries.append(entry(f"far({j},{k})", t @ comps[k - 1], comps[k - 1] @ t))
    return RelationReport(tuple(entries))


def _restriction_blocks(ambient: IrrepLabel) -> tuple[AmbientBlock, ...]:
    n = ambient.n - 1
    eps = ambient.eps[:n - 1] if ambient.kind == NONCLASSICAL else None
    patterns = enumerate_patterns(ambient).patterns
    rows = [p.row(n) for p in patterns]
    blocks: list[AmbientBlock] = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i] != rows[start]:
            label = IrrepLabel(n, ambient.kind, rows[start], eps)
            basis = enumerate_patterns(label)
            assert all(patterns[start + j].rows[1:] == basis.patterns[j].rows
                       for j in range(basis.dim)), "restricted order mismatch"
            blocks.append(AmbientBlock(label, 0, start, basis))
            start = i
    return tuple(blocks)


def canonical_vector_operator(ambient: IrrepLabel, ctx: QContext) -> VectorOperator:
    """The vector operator carried by a next-rank irrep restricted to the
    chain subalgebra: component k is the composite generator from level n+1
    down to slot k, component n the plain top generator.  Each ambient
    generator is dense only for the chain step that reads it."""
    if ambient.n < 3:
        raise ValidationError(f"an ambient needs rank >= 3, got n={ambient.n}")
    n = ambient.n - 1
    gens = tuple(g.nonzeros for g in build_all_generators(ambient, ctx))
    low = gens[:n - 1]
    components = {k: Sparse.of(level) for k, level in
                  composite_chain(gens[n - 1].dense(), low, low, "+", ctx)}
    return VectorOperator(n, _restriction_blocks(ambient), low,
                          tuple(components[k] for k in range(1, n + 1)))


def _inverse_blocks(src_label: IrrepLabel, m_tgt: Row,
                    ctx: QContext) -> dict[int, np.ndarray]:
    """Slot k (1..n) -> target x source primed inverse coefficients."""
    _, ((_, mu, blocks),) = admissible_aux(src_label, m_tgt, ctx)
    gauge = np.outer(pattern_parity(src_label.with_weight(m_tgt)),
                     pattern_parity(src_label))
    return {k: (-1) ** (src_label.n - k) * gauge * (block / mu).T
            for k, block in blocks.items()}


def primed_inverse_cgc(k: int, tgt: GTPattern, src: GTPattern, kind: str,
                       eps: tuple[int, ...] | None, ctx: QContext) -> complex:
    """Primed inverse coupling coefficient of vector slot k (1..n) between a
    target tableau and a source tableau, from the first admissible
    auxiliary weight; the value does not depend on the choice."""
    n = src.n
    src_label = IrrepLabel(n, kind, src.row(n), eps)
    m_tgt = tgt.row(n)
    if m_tgt not in branch_rows(src.row(n), n, kind):
        return 0j
    table = _inverse_blocks(src_label, m_tgt, ctx)[k]
    return table[enumerate_patterns(src_label.with_weight(m_tgt)).position(tgt),
                 enumerate_patterns(src_label).position(src)]


@dataclass(frozen=True)
class ReducedEntry:
    value: complex
    residual: float
    first_ratio: complex
    contributing: int


@dataclass(frozen=True)
class ReducedElements:
    """Block-pair constants of the factorisation, with per-pair residuals
    and the largest raw matrix element found on forbidden block pairs."""

    entries: dict
    forbidden: dict


class FactorizationError(RuntimeError):
    """Ratios of matrix elements to inverse coefficients failed to be
    constant on an admissible block pair."""


def _pair_admissible(tgt: AmbientBlock, src: AmbientBlock) -> bool:
    if tgt.label.kind != src.label.kind or tgt.label.eps != src.label.eps:
        return False
    return tgt.label.m_top in branch_rows(src.label.m_top, src.label.n,
                                          src.label.kind)


# relative spread allowed between the ratios of one block pair
_RATIO_TOL = 1e-8


def reduced_matrix_elements(vop: VectorOperator, ctx: QContext) -> ReducedElements:
    """Extract the reduced matrix element of every admissible ordered block
    pair and certify the factorisation.

    Raises FactorizationError when the ratio of a raw matrix element to its
    primed inverse coefficient deviates from the fitted constant by more
    than `_RATIO_TOL` (relative), or when a value it reads is NaN.
    """
    entries: dict = {}
    forbidden: dict = {}
    for bt in vop.blocks:
        for bs in vop.blocks:
            key = (bt.label.m_top, bt.s, bs.label.m_top, bs.s)
            pair = [v.block(bt.offset, bt.offset + bt.dim,
                            bs.offset, bs.offset + bs.dim)
                    for v in vop.components]
            raw_max = max(float(np.abs(b).max()) for b in pair)
            if not _pair_admissible(bt, bs):
                forbidden[key] = raw_max
                continue
            tables = _inverse_blocks(bs.label, bt.label.m_top, ctx)
            denoms = np.concatenate(
                [tables[k].ravel() for k in range(1, vop.n + 1)])
            raws = np.concatenate([b.ravel() for b in pair])
            weight = np.abs(denoms) ** 2
            total = float(weight.sum())
            if total == 0.0:
                raise FactorizationError(
                    f"all inverse coefficients vanish on pair {key}")
            value = complex(np.vdot(denoms, raws) / total)
            dmax = float(np.abs(denoms).max())
            live = np.abs(denoms) > _RATIO_TOL * dmax
            ratios = raws[live] / denoms[live]
            ref = max(abs(value), float(np.abs(ratios).max()), 1e-300)
            residual = float(np.abs(ratios - value).max()) / ref
            silent = ~live
            silent_raw = float(np.abs(raws[silent]).max()) if silent.any() else 0.0
            tol = ctx.tolerance(max(float(np.abs(raws).max()), 1.0))
            if not silent_raw <= tol:
                raise FactorizationError(
                    f"matrix element {silent_raw:.3e} outside the inverse-"
                    f"coefficient support on pair {key}")
            if not (residual <= _RATIO_TOL or abs(value) * dmax <= tol):
                raise FactorizationError(
                    f"non-constant ratio on pair {key}: spread {residual:.3e}")
            first = complex(ratios[0]) if ratios.size else 0j
            entries[key] = ReducedEntry(value, residual, first, int(live.sum()))
    return ReducedElements(entries, forbidden)
