"""Vector operators and the reduced-matrix-element factorisation.

A vector operator is a family of n operators tied to the ambient generators
by q-commutators, which `check_vector_operator` evaluates on the nonzeros.
Restricting an irrep of the next-rank algebra to the chain subalgebra
yields the canonical example: the composite generators bridging level n+1
to each slot k.  Operators and generators are held as nonzeros
(`reps.Sparse`).  The ambient's generators below the top one are
block-diagonal over the restriction blocks (the Gel'fand-Tsetlin
restriction), so the q-commutator chain that makes the components runs on
the dense arrays of one block pair at a time and no d x d array is formed;
its BLAS products fix the printed digits, and each level is stored as
nonzeros as soon as the chain yields it.  Matrix elements of any vector
operator between two irreducible blocks factor into a block-pair constant
times a primed inverse coupling coefficient; the constant is extracted by a
weighted least-squares fit on the pair's nonzeros, whose two sums are
exactly rounded (`math.fsum`), so the value does not depend on the order
of the terms and no threaded BLAS reduction enters it; the factorisation
is certified by the spread of the individual ratios.  A block pair that
branching forbids must hold no stored nonzero, which is decided exactly.

The primed inverse coefficients of a block pair are the (target, source)
blocks of the "+" composite generators of an auxiliary next-rank irrep over
their normalising ratio.  Every generator obeys G.T == D G D, D the diagonal
of `gtbasis.pattern_parity`, so each "+" chain level is minus the gauged
transpose of a "-" one, and slot k is s (-1)^(n-k) D_t (F_k / mu).T D_s for
the blocks F_k and ratio mu of `cgc.admissible_aux`.  s = D_t[j] D_s[i] at
the entry (i, j) of mu is 1: D skips the top row, the rest is shared there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qarith import QContext, ValidationError
from .gtbasis import (NONCLASSICAL, BasisIndex, IrrepLabel, branch_rows,
                      enumerate_patterns, pattern_parity)
from .reps import (RelationReport, RelationResidual, Sparse,
                   build_all_generators, build_generator, combine,
                   composite_chain, max_entry, sparse_residual)
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

    @property
    def end(self) -> int:
        """One past the block's last index."""
        return self.offset + self.dim


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


def _place(d: int, parts) -> Sparse:
    """The d x d matrix whose nonzeros are the (row offset, column offset,
    nonzeros) parts, which lie on disjoint blocks; `combine` sorts them into
    row-major order and copies each value."""
    none = np.zeros(0, dtype=np.intp)
    return combine((1, Sparse((d, d), none, none, np.zeros(0, dtype=complex))),
                   *((1, Sparse((d, d), nz.rows + r0, nz.cols + c0, nz.vals))
                     for r0, c0, nz in parts))


def canonical_vector_operator(ambient: IrrepLabel, ctx: QContext) -> VectorOperator:
    """The vector operator carried by a next-rank irrep restricted to the
    chain subalgebra: component k is the composite generator from level n+1
    down to slot k, component n the plain top generator.

    Generators 1..n-1 of the ambient are block-diagonal over the restriction
    blocks, each block being that block's own rank-n generator, so the chain
    runs block pair by block pair on the pairs where the top generator has a
    nonzero, and no d x d array is formed.  The dense chain's products add
    only exact zeros outside a pair, so each entry gets the same nonzero
    terms in the same order; only the sign of an exact zero part may differ,
    and + 0.0 makes it +0.0, as the dense chain leaves it.  BLAS promises no
    order of summation, so the tests and the command-line sweep compare the
    bits with the dense chain."""
    if ambient.n < 3:
        raise ValidationError(f"an ambient needs rank >= 3, got n={ambient.n}")
    n = ambient.n - 1
    blocks = _restriction_blocks(ambient)
    top = build_generator(ambient, n, ctx).nonzeros
    gens = [[g.nonzeros for g in build_all_generators(b.label, ctx)]
            for b in blocks]
    starts = [b.offset for b in blocks]
    bt_of = np.searchsorted(starts, top.rows, side="right") - 1
    bs_of = np.searchsorted(starts, top.cols, side="right") - 1
    parts: dict[int, list] = {k: [] for k in range(1, n + 1)}
    # bincount, not np.unique, which imports numpy.ma (1.6 MB of RSS)
    touched = np.bincount(bt_of * len(blocks) + bs_of,
                          minlength=len(blocks) ** 2)
    for pair in np.flatnonzero(touched):
        t, s = divmod(int(pair), len(blocks))
        bt, bs = blocks[t], blocks[s]
        block = top.block(bt.offset, bt.end, bs.offset, bs.end)
        # a small product's edge kernel can leave -0.0 where the dense
        # product leaves +0.0
        for k, level in composite_chain(block, gens[t], gens[s], "+", ctx):
            parts[k].append((bt.offset, bs.offset, Sparse.of(level + 0.0)))
    d = top.shape[0]
    low = tuple(_place(d, [(b.offset, b.offset, g[k])
                           for b, g in zip(blocks, gens)])
                for k in range(n - 1))
    return VectorOperator(n, blocks, low,
                          tuple(_place(d, parts[k]) for k in range(1, n + 1)))


def _inverse_blocks(src_label: IrrepLabel, m_tgt: Row,
                    ctx: QContext) -> dict[int, np.ndarray]:
    """Slot k (1..n) -> target x source primed inverse coefficients; each
    forward block is dropped as soon as its table is made."""
    _, ((_, mu, blocks),) = admissible_aux(src_label, m_tgt, ctx)
    gauge = np.outer(pattern_parity(src_label.with_weight(m_tgt)),
                     pattern_parity(src_label))
    return {k: (-1) ** (src_label.n - k) * gauge * (blocks.pop(k) / mu).T
            for k in list(blocks)}


@dataclass(frozen=True)
class ReducedEntry:
    value: complex
    residual: float
    first_ratio: complex
    contributing: int


@dataclass(frozen=True)
class ReducedElements:
    """Block-pair constants of the factorisation, with per-pair residuals
    and the largest raw matrix element on each forbidden block pair (0.0:
    a stored nonzero there is a FactorizationError)."""

    entries: dict
    forbidden: dict


class FactorizationError(RuntimeError):
    """A block pair breaks the factorisation: a forbidden pair holds a
    nonzero, or the ratios of matrix elements to inverse coefficients fail
    to be constant on an admissible pair."""


def _pair_admissible(tgt: AmbientBlock, src: AmbientBlock) -> bool:
    if tgt.label.kind != src.label.kind or tgt.label.eps != src.label.eps:
        return False
    return tgt.label.m_top in branch_rows(src.label.m_top, src.label.n,
                                          src.label.kind)


# relative spread allowed between the ratios of one block pair
_RATIO_TOL = 1e-8


def _fsum(*terms: np.ndarray) -> float:
    """The exactly rounded sum of all `terms` (`math.fsum`), so it depends
    neither on their order nor on zero terms; NaN when a term is not finite
    or the sum overflows, where `math.fsum` would raise."""
    x = np.concatenate(terms)
    if not np.isfinite(x).all():
        return math.nan
    try:
        return math.fsum(x.tolist())
    except OverflowError:
        return math.nan


def _fit_pair(vop: VectorOperator, bt: AmbientBlock, bs: AmbientBlock,
              key: tuple, ctx: QContext) -> ReducedEntry:
    """The reduced matrix element of one admissible block pair, on the
    nonzeros: the primed inverse coefficients d and the raw elements r are
    keyed slot-major, then row-major, and a raw that is not stored is 0.
    The two sums of the least-squares value, sum |d|^2 and sum conj(d) r,
    run over the real products of the nonzero d only."""
    size = bt.dim * bs.dim

    def keys_of(parts):
        return np.concatenate([k * size + nz.rows * bs.dim + nz.cols
                               for k, nz in enumerate(parts)])

    tables = _inverse_blocks(bs.label, bt.label.m_top, ctx)
    coeffs = [Sparse.of(tables.pop(k)) for k in range(1, vop.n + 1)]
    keys, d = keys_of(coeffs), np.concatenate([nz.vals for nz in coeffs])
    total = _fsum(d.real * d.real, d.imag * d.imag)
    if total == 0.0:
        raise FactorizationError(
            f"all inverse coefficients vanish on pair {key}")
    stored = [v.part(bt.offset, bt.end, bs.offset, bs.end)
              for v in vop.components]
    raw, raw_keys = np.concatenate([nz.vals for nz in stored]), keys_of(stored)
    at = np.minimum(np.searchsorted(keys, raw_keys), keys.size - 1)
    hit = keys[at] == raw_keys
    r = np.zeros_like(d)
    r[at[hit]] = raw[hit]
    value = complex(math.nan, math.nan)
    if np.isfinite(raw).all():  # else some product is not, if only 0 * inf
        value = complex(_fsum(d.real * r.real, d.imag * r.imag) / total,
                        _fsum(d.real * r.imag, -d.imag * r.real) / total)
    absd = np.abs(d)
    dmax = float(absd.max())
    live = absd > _RATIO_TOL * dmax
    ratios = r[live] / d[live]
    ref = max(abs(value), float(np.abs(ratios).max()), 1e-300)
    residual = float(np.abs(ratios - value).max()) / ref
    silent_raw = max_entry(raw[~(hit & live[at])])
    tol = ctx.tolerance(max(max_entry(raw), 1.0))
    if not silent_raw <= tol:
        raise FactorizationError(
            f"matrix element {silent_raw:.3e} outside the inverse-"
            f"coefficient support on pair {key}")
    if not (residual <= _RATIO_TOL or abs(value) * dmax <= tol):
        raise FactorizationError(
            f"non-constant ratio on pair {key}: spread {residual:.3e}")
    first = complex(ratios[0]) if ratios.size else 0j
    return ReducedEntry(value, residual, first, int(live.sum()))


def reduced_matrix_elements(vop: VectorOperator, ctx: QContext) -> ReducedElements:
    """Extract the reduced matrix element of every admissible ordered block
    pair and certify the factorisation.

    Raises FactorizationError when a component stores a nonzero on a
    forbidden block pair (decided exactly, from the nonzeros, with no
    threshold), when the ratio of a raw matrix element to its primed inverse
    coefficient deviates from the fitted constant by more than `_RATIO_TOL`
    (relative), or when a value it reads is not finite.
    """
    entries: dict = {}
    forbidden: dict = {}
    for bt in vop.blocks:
        for bs in vop.blocks:
            key = (bt.label.m_top, bt.s, bs.label.m_top, bs.s)
            if _pair_admissible(bt, bs):
                entries[key] = _fit_pair(vop, bt, bs, key, ctx)
                continue
            raw = max_entry(np.concatenate(
                [v.part(bt.offset, bt.end, bs.offset, bs.end).vals
                 for v in vop.components]))
            forbidden[key] = raw
            if raw != 0.0:  # NaN too
                raise FactorizationError(
                    f"matrix element {raw:.3e} on forbidden pair {key}")
    return ReducedElements(entries, forbidden)
