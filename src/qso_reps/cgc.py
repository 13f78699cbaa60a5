"""Clebsch-Gordan coefficients of vector-representation tensor products.

The top coupling coefficient (vector slot n) has a closed product form in the
source weight, target weight and their shared next row.  Every other
coefficient is a ratio of one composite-generator matrix element to one plain
top-generator matrix element inside an auxiliary irrep of the next rank,
times that closed form.  The ratio is independent both of which next-row is
used to normalise (the top-generator element factorises through the closed
form) and of the auxiliary weight; both independences are exploited here and
re-verified numerically.

The auxiliary irrep is never built.  Its generators below level n keep the
level-n row, so they are block-diagonal with the rank-n generators of that
row as blocks (Gel'fand-Tsetlin restriction); the (source, target) block of
every composite generator thus follows from one top-generator block by the
q-commutator recursion (`aux_blocks`).  The aux-weight search
(`admissible_aux`) computes each candidate's blocks once and hands them
on; only the rank-n generators are cached.  The (target, source) blocks
with the other sign give the primed inverse coefficients used by `wigner`.

Each block's intertwiner is checked against the product-space generators
applied slot by slot (`tensorprod.tensor_action`); no product-space matrix
is formed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qarith import (HalfInt, QContext, ValidationError, q_bracket,
                     q_bracket_plus, q_power)
from .gtbasis import (CLASSICAL, NONCLASSICAL, HALF, GTPattern,
                      IrrepLabel, branch_rows, branching_set, covers,
                      enumerate_patterns, extend_pattern, first_completion,
                      l_coords, rows_above, rows_below)
from .reps import (GeneratorMatrix, RelationReport, build_all_generators,
                   composite_chain, generator_block, max_entry,
                   relation_residual)
from .tensorprod import tensor_action


class AuxSearchError(RuntimeError):
    """No auxiliary weight produced a usable denominator."""


class DecompositionError(RuntimeError):
    """An intertwiner failed its residual check."""


Row = tuple[HalfInt, ...]


def so2_coupled_vectors(m: HalfInt, kind: str, eps2: int,
                        ctx: QContext) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the weight-raising / weight-lowering combinations of
    the two vector slots over a rank-2 weight-m line.

    Classical raising/lowering vectors go to weights m+1 / m-1; the
    nonclassical lowering vector at m = 1/2 couples back to weight 1/2.
    """
    if kind == CLASSICAL:
        up, down = -1j, +1j
    elif m < HALF:
        raise ValidationError("nonclassical rank-2 weights start at 1/2")
    else:
        up = down = -eps2
    vp = np.array([up * q_power(m - HALF, ctx), 1.0], dtype=complex)
    vm = np.array([down * q_power(-m - HALF, ctx), 1.0], dtype=complex)
    return vp, vm


def top_cgc(m_src: Row, m_tgt: Row, m_below: Row, level: int, kind: str,
            ctx: QContext) -> complex:
    """Vector-slot-n coupling coefficient; depends only on the source weight,
    the target weight and the shared row below them.

    Returns 0 when the target is not a branch of the source, without raising.
    """
    if m_tgt not in branch_rows(m_src, level, kind):
        return 0j
    lsrc = l_coords(m_src, level)
    lbel = l_coords(m_below, level - 1) if m_below else ()
    diff = [(i, m_tgt[i].twice - m_src[i].twice)
            for i in range(len(m_src)) if m_tgt[i] != m_src[i]]
    if not diff:
        if level % 2 == 1:
            bracket = q_bracket_plus if kind == NONCLASSICAL else q_bracket
            value = 1.0
            for lr in lbel:
                value *= bracket(lr, ctx)
            return complex(value)
        if kind != NONCLASSICAL or m_src[-1] != HALF:
            return 0j
        value = 1.0
        for lr in lbel:
            value *= q_bracket(lr - HALF, ctx)
        return complex(value)
    if len(diff) != 1 or abs(diff[0][1]) != 2:
        return 0j
    j, step = diff[0]
    lj = lsrc[j]
    # raising reads [l+r][l-r], lowering shifts both arguments down by one;
    # at even levels the second argument sits one higher
    a = 0 if step > 0 else -1
    b = a + 1 - level % 2
    product = 1.0
    for lr in lbel:
        product *= q_bracket(lj + lr + a, ctx) * q_bracket(lj - lr + b, ctx)
    return cmath.sqrt(product)


def _level2_pairing_ok(k: str, m_src: HalfInt, m_tgt: HalfInt, kind: str) -> bool:
    if k == "+":
        return m_tgt == m_src + 1
    if kind == NONCLASSICAL and m_src == HALF:
        return m_tgt == HALF
    return m_tgt == m_src - 1


def cgc_is_zero(k: "int | str", src: GTPattern, tgt: GTPattern, kind: str) -> bool:
    """Selection rules: True when the coefficient is forced to vanish."""
    n = src.n
    if tgt.row(n) not in branch_rows(src.row(n), n, kind):
        return True
    if k in ("+", "-"):
        for s in range(n - 1, 2, -1):
            if tgt.row(s) not in branch_rows(src.row(s), s, kind):
                return True
        return not _level2_pairing_ok(k, src.m12, tgt.m12, kind)
    if src.prefix(k - 1) != tgt.prefix(k - 1):
        return True
    for s in range(n - 1, k - 1, -1):
        if tgt.row(s) not in branch_rows(src.row(s), s, kind):
            return True
    return False


@lru_cache(maxsize=64)
def _cached_generators(label: IrrepLabel, ctx: QContext) -> tuple[GeneratorMatrix, ...]:
    return tuple(build_all_generators(label, ctx))


# how far the first auxiliary entry may exceed that of the source weight
_AUX_MARGIN = 3


def aux_candidates(label: IrrepLabel, m_tgt: Row) -> list[IrrepLabel]:
    """Dominant next-rank weights admitting both the source and target
    weights below them, ordered by increasing entry sum then entries."""
    n, kind = label.n, label.kind
    cap = abs(label.m_top[0]) + _AUX_MARGIN
    rows = [u for u in rows_above(label.m_top, n + 1, kind, cap)
            if covers(u, m_tgt, n + 1, kind)]
    rows.sort(key=lambda u: (sum(e.twice for e in u),
                             tuple(e.twice for e in u)))
    eps = None
    if kind == NONCLASSICAL:
        eps = label.eps + (1,)
    return [IrrepLabel(n + 1, kind, u, eps) for u in rows]


def _require_restriction(aux: IrrepLabel, label: IrrepLabel) -> None:
    """`aux` must restrict to `label`: one rank up, same family, same signs
    below, and a top row admitting the weight of `label`."""
    signs = aux.eps[:label.n - 1] if aux.eps else None
    if aux.n != label.n + 1 or aux.kind != label.kind or signs != label.eps:
        raise ValidationError(f"{aux} is not an auxiliary weight for {label}")
    if not covers(aux.m_top, label.m_top, aux.n, aux.kind):
        raise AuxSearchError(f"auxiliary weight {aux} does not admit {label}")


def aux_blocks(rows: IrrepLabel, cols: IrrepLabel, aux: IrrepLabel, sign: str,
               ctx: QContext) -> dict[int, np.ndarray]:
    """Blocks of the composite generators I^sign(n+1, l) of the auxiliary
    irrep `aux`, rows under `rows` and columns under `cols`, for slots
    l = n down to 1.  Slot n is the plain top-generator block, evaluated
    from the coefficient formulas; the q-commutator pass with the cached
    rank-n generators of `rows` and `cols` gives the rest.  The blocks are
    not cached: `admissible_aux` hands those of the weights it accepts on."""
    for label in (rows, cols):
        _require_restriction(aux, label)
    index = {extend_pattern(aux.m_top, p): i
             for i, p in enumerate(enumerate_patterns(rows).patterns)}
    cols_ext = [extend_pattern(aux.m_top, p)
                for p in enumerate_patterns(cols).patterns]
    return composite_chain(generator_block(aux, aux.n - 1, index, cols_ext, ctx),
                           [g.mat for g in _cached_generators(rows, ctx)],
                           [g.mat for g in _cached_generators(cols, ctx)],
                           sign, ctx)


def _block_mu(source: IrrepLabel, m_tgt: Row, top: np.ndarray, forward: bool,
              ctx: QContext) -> complex | None:
    """Normalising ratio DEN/TOP of one block pair, or None when DEN is tiny
    against the largest entry of `top`, whose rows are the source tableaux
    when `forward` and the target tableaux otherwise; TOP, the closed form,
    keeps the source-to-target orientation either way."""
    n, kind = source.n, source.kind
    src_basis = enumerate_patterns(source)
    tgt_basis = enumerate_patterns(source.with_weight(m_tgt))
    scale = float(np.abs(top).max())
    for m_hat in rows_below(source.m_top, n, kind):
        if n - 1 >= 2 and not covers(m_tgt, m_hat, n, kind):
            continue
        third = top_cgc(source.m_top, m_tgt, m_hat, n, kind, ctx)
        if third == 0:
            continue
        tail = (m_hat,) + first_completion(m_hat, n - 1, kind) if n - 1 >= 2 else ()
        i_src = src_basis.position(GTPattern((source.m_top,) + tail))
        i_tgt = tgt_basis.position(GTPattern((m_tgt,) + tail))
        den = top[i_src, i_tgt] if forward else top[i_tgt, i_src]
        if abs(den) <= 1e-6 * scale:
            return None
        return den / third
    return None


def admissible_aux(source: IrrepLabel, m_tgt: Row, forward: bool, ctx: QContext,
                   want: int = 1, aux: IrrepLabel | None = None,
                   ) -> list[tuple[IrrepLabel, complex, dict[int, np.ndarray]]]:
    """Up to `want` usable auxiliary weights for the block pair source ->
    m_tgt, in candidate order, each with its normalising ratio and its
    `aux_blocks`; callers take the blocks from here.

    `forward` selects the orientation: (source, target) rows and columns
    with sign "-" for coupling coefficients, (target, source) with "+" for
    primed inverse ones.  A given `aux` is checked and used alone.
    """
    target = source.with_weight(m_tgt)
    rows, cols, sign = ((source, target, "-") if forward
                        else (target, source, "+"))
    found: list[tuple[IrrepLabel, complex, dict[int, np.ndarray]]] = []
    tried = [aux] if aux is not None else aux_candidates(source, m_tgt)
    for candidate in tried:
        blocks = aux_blocks(rows, cols, candidate, sign, ctx)
        mu = _block_mu(source, m_tgt, blocks[source.n], forward, ctx)
        if mu is not None:
            found.append((candidate, mu, blocks))
            if len(found) >= want:
                break
    if not found:
        what = "coupling" if forward else "primed inverse"
        raise AuxSearchError(
            f"no usable auxiliary weight for {what} coefficients {source} -> "
            f"{m_tgt}; tried " + ", ".join(repr(a) for a in tried))
    return found


def _slot_tables(blocks: dict[int, np.ndarray], mu: complex,
                 ctx: QContext) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Raw block and coefficient table q^(k-n) * block / mu of every slot k
    below n (slot 2 is shared by the "+" and "-" vectors)."""
    n = len(blocks)
    return {k: (blocks[k], ctx.q ** (k - n) * blocks[k] / mu)
            for k in range(2, max(n, 3))}


def recurse_cgc(k: "int | str", tgt: GTPattern, src: GTPattern, kind: str,
                eps: tuple[int, ...] | None, ctx: QContext,
                aux: IrrepLabel | None = None) -> complex:
    """One Clebsch-Gordan coefficient for vector slot k (an int 3..n, or one
    of "+"/"-"), target tableau against source tableau.

    When no auxiliary label is supplied the first admissible one is used;
    the value does not depend on the choice.
    """
    n = src.n
    label = IrrepLabel(n, kind, src.row(n), eps)
    if cgc_is_zero(k, src, tgt, kind):
        return 0j
    m_tgt = tgt.row(n)
    (_, mu, blocks), = admissible_aux(label, m_tgt, True, ctx, aux=aux)
    if k == n:
        return top_cgc(label.m_top, m_tgt, src.row(n - 1), n, kind, ctx)
    _, values = _slot_tables(blocks, mu, ctx)[2 if k in ("+", "-") else k]
    return values[enumerate_patterns(label).position(src),
                  enumerate_patterns(label.with_weight(m_tgt)).position(tgt)]


@dataclass(frozen=True)
class CGCTable:
    """All coupling coefficients feeding one target block: `slots` maps each
    vector slot ("+", "-", 3..n, in that order) to a source x target array
    of them."""

    source: IrrepLabel
    target: IrrepLabel
    aux: IrrepLabel
    replaced: bool
    slots: dict["int | str", np.ndarray]

    @property
    def entries(self) -> tuple[tuple[GTPattern, tuple[tuple[str, GTPattern, complex], ...]], ...]:
        """Per target tableau, its nonzero terms (slot, source tableau,
        coefficient) in slot order, each slot in source order."""
        src = enumerate_patterns(self.source).patterns
        return tuple(
            (t, tuple((str(k), src[i], values[i, j])
                      for k, values in self.slots.items()
                      for i in np.flatnonzero(values[:, j])))
            for j, t in enumerate(enumerate_patterns(self.target).patterns))

    def to_jsonable(self) -> dict:
        return {
            "source": self.source.to_jsonable(),
            "target": [e.twice for e in self.target.m_top],
            "entries": [
                {"target_pattern": t.to_jsonable(),
                 "terms": [{"k": k, "source_pattern": s.to_jsonable(),
                            "re": float(v.real), "im": float(v.imag)}
                           for k, s, v in terms]}
                for t, terms in self.entries
            ],
        }


@dataclass(frozen=True)
class Intertwiner:
    """Columns are coupled vectors of one target block, expanded over the
    product basis (vector slot outermost).  Entry k-1 of `residuals` is the
    intertwining residual of generator k; every entry passed."""

    target: IrrepLabel
    matrix: np.ndarray
    residuals: RelationReport
    table: CGCTable


def _compute_block_table(label: IrrepLabel, target: IrrepLabel, slots,
                         ctx: QContext) -> dict["int | str", np.ndarray]:
    """Unnormalised source x target coefficient arrays of one target block,
    one per slot "+", "-", 3..n.  At the nonzero block entries of slots
    below n the selection rules split slot 2 into "+" and "-", and every
    entry they force to vanish must be negligible against its block.  Slot
    n is the closed form at the source sharing the rows below level n."""
    n, kind = label.n, label.kind
    src_basis = enumerate_patterns(label)
    src, tgt = src_basis.patterns, enumerate_patterns(target).patterns
    table = {k: np.zeros((len(src), len(tgt)), dtype=complex)
             for k in ("+", "-", *range(3, n + 1))}
    for slot, (raw, values) in slots.items():
        names = ("+", "-") if slot == 2 else (slot,)
        bound = ctx.tolerance(float(np.abs(raw).max()))
        for j, i in zip(*np.nonzero(raw.T)):
            live = [k for k in names if not cgc_is_zero(k, src[i], tgt[j], kind)]
            if live:
                table[live[0]][i, j] = values[i, j]
            elif abs(raw[i, j]) > bound:
                raise DecompositionError(
                    f"slot {slot} element {abs(raw[i, j]):.3e} of "
                    f"{src[i]} -> {tgt[j]} breaks the selection rules "
                    f"(bound {bound:.3e})")
    if n > 2:
        for j, t in enumerate(tgt):
            i = src_basis.index.get(GTPattern((label.m_top,) + t.rows[1:]))
            if i is not None:
                table[n][i, j] = top_cgc(label.m_top, target.m_top,
                                         t.row(n - 1), n, kind, ctx)
    return table


def _normalise(table: dict) -> dict:
    """Divide every array by the first nonzero coefficient in target, slot,
    source order."""
    for j in range(table["+"].shape[1]):
        for values in table.values():
            nonzero = np.flatnonzero(values[:, j])
            if nonzero.size:
                first = values[nonzero[0], j]
                return {k: v / first for k, v in table.items()}
    raise DecompositionError("empty coefficient table")


def _build_matrix(label: IrrepLabel, table: dict, ctx: QContext) -> np.ndarray:
    """Intertwiner over the product basis: slot-1 and slot-2 rows are
    "+" * vp + "-" * vm per source row, slot-k rows are table k."""
    src = enumerate_patterns(label).patterns
    n, d = label.n, len(src)
    eps2 = label.eps[0] if label.kind == NONCLASSICAL else 0
    vp, vm = np.array([so2_coupled_vectors(p.m12, label.kind, eps2, ctx)
                       for p in src]).transpose(1, 0, 2)
    mat = np.zeros((n * d, table["+"].shape[1]), dtype=complex)
    for r in range(2):
        mat[r * d:(r + 1) * d] += (table["+"] * vp[:, r, None]
                                   + table["-"] * vm[:, r, None])
    for k in range(3, n + 1):
        mat[(k - 1) * d:k * d] += table[k]
    return mat


def assemble_decomposition(label: IrrepLabel, ctx: QContext) -> dict[Row, Intertwiner]:
    """Decompose the vector-representation tensor product of `label` into
    irreducible blocks with explicit intertwiners.

    Every block is normalised so its first nonzero coefficient is 1, checked
    against the block's own generator matrices (hard failure on residuals),
    and recomputed under a second auxiliary weight when one exists.  The
    generators of the product space act slot by slot (`tensor_action`);
    none of them is formed as a matrix.
    """
    n = label.n
    gens = _cached_generators(label, ctx)
    out: dict[Row, Intertwiner] = {}
    for branch in branching_set(label.m_top, n, label.kind):
        m_tgt = branch.row
        target_label = label.with_weight(m_tgt)
        scales = admissible_aux(label, m_tgt, True, ctx, want=2)
        aux, mu, blocks = scales[0]
        slots = _slot_tables(blocks, mu, ctx)
        coeffs = _compute_block_table(label, target_label, slots, ctx)
        if len(scales) > 1:
            aux2, mu2, blocks2 = scales[1]
            other = _slot_tables(blocks2, mu2, ctx)
            for slot, (_, values) in slots.items():
                check = other[slot][1]
                scale = np.maximum(np.maximum(np.abs(values), np.abs(check)), 1.0)
                bad = np.argwhere(np.abs(check - values) > 1e-8 * scale)
                if bad.size:
                    i, j = bad[0]
                    raise DecompositionError(
                        f"auxiliary weights {aux} and {aux2} disagree on slot "
                        f"{slot} at ({i}, {j}) of block {m_tgt}: "
                        f"{values[i, j]} vs {check[i, j]}")
        coeffs = _normalise(coeffs)
        matrix = _build_matrix(label, coeffs, ctx)
        block_mats = _cached_generators(target_label, ctx)
        residuals = []
        for k in range(1, n):
            lhs = tensor_action(gens[k - 1].mat, k, matrix, ctx)
            rhs = matrix @ block_mats[k - 1].mat
            entry = relation_residual(f"intertwine({k})", lhs - rhs,
                                      max(max_entry(lhs, rhs), 1.0), ctx)
            if not entry.passed:
                raise DecompositionError(
                    f"intertwiner residual {entry.residual:.3e} for block "
                    f"{m_tgt}, generator {k} (scale {entry.scale:.3e})")
            residuals.append(entry)
        table = CGCTable(label, target_label, aux, branch.tag == "replaced",
                         coeffs)
        out[m_tgt] = Intertwiner(target_label, matrix,
                                 RelationReport(tuple(residuals)), table)
    return out


def decomposition_rank(blocks: dict[Row, Intertwiner], ctx: QContext) -> int:
    """Numerical rank of the horizontally concatenated intertwiners."""
    stacked = np.hstack([it.matrix for it in blocks.values()])
    svals = np.linalg.svd(stacked, compute_uv=False)
    if svals.size == 0:
        return 0
    return int(np.sum(svals > ctx.tol_rel * svals[0] * max(stacked.shape)))


def so3_cgc(l: HalfInt, l_target: HalfInt, kind: str,
            eps: tuple[int, ...] | None, ctx: QContext) -> dict[HalfInt, tuple[complex, complex, complex]]:
    """Explicit rank-3 coupling table: weight m of the target block maps to
    (alpha, beta, gamma) = coefficients of the raising, middle and lowering
    product vectors.

    alpha pairs the source line m-1, beta the source line m, gamma the source
    line m+1.  One table serves both families; the nonclassical one differs
    in five places: m runs over 1/2..l_target only, the normalisation takes
    differences q^m - q^-m where the classical one takes sums, alpha on the
    self-coupled block changes sign, the middle self-coupling reads [m]+ for
    [m], and at m = 1/2 alpha instead pairs the source line 1/2 through the
    lowering vector.

    Written out from the closed forms, independently of `top_cgc` and the
    auxiliary-weight recursion, so it can serve as their reference.
    """
    targets = branch_rows((l,), 3, kind)
    if (l_target,) not in targets:
        raise ValidationError(f"target {l_target} not admissible for l={l}")
    plus = kind == NONCLASSICAL
    s = -1.0 if plus else 1.0

    def qp(a):
        return q_power(a, ctx)

    def br(a):
        return q_bracket(a, ctx)

    def dm(m):
        return ((qp(m) + s * qp(-m)) * (qp(m + 1) + s * qp(-m - 1))) ** -0.5

    out: dict[HalfInt, tuple[complex, complex, complex]] = {}
    m = HALF if plus else -l_target
    while m <= l_target:
        if plus and m == HALF:
            # lowering-vector coefficients paired with the source line 1/2
            e3, brp = eps[1], q_bracket_plus(HALF, ctx)
            if l_target == l + 1:
                a = -qp(l) * brp * e3 * cmath.sqrt(br(l + HALF) * br(l + HALF + 1))
            elif l_target == l:
                a = -qp(-1) * brp * e3 * br(l + HALF)
            else:
                a = qp(-l - 1) * brp * e3 * cmath.sqrt(br(l - HALF) * br(l + HALF))
        elif l_target == l + 1:
            a = qp(l - m + HALF) * dm(m - 1) * cmath.sqrt(br(l + m) * br(l + m + 1))
        elif l_target == l:
            a = -s * qp(-m - HALF) * dm(m - 1) * cmath.sqrt(br(l + m) * br(l - m + 1))
        else:
            a = -qp(-l - m - HALF) * dm(m - 1) * cmath.sqrt(br(l - m) * br(l - m + 1))
        if l_target == l + 1:
            b = cmath.sqrt(br(l - m + 1) * br(l + m + 1))
            g = -qp(l + m + HALF) * dm(m) * cmath.sqrt(br(l - m) * br(l - m + 1))
        elif l_target == l:
            b = complex(q_bracket_plus(m, ctx) if plus else br(m))
            g = -qp(m - HALF) * dm(m) * cmath.sqrt(br(l - m) * br(l + m + 1))
        else:
            b = cmath.sqrt(br(l - m) * br(l + m))
            g = qp(-l + m - HALF) * dm(m) * cmath.sqrt(br(l + m) * br(l + m + 1))
        out[m] = (a, b, g)
        m = m + 1
    return out
