"""Independent oracles used by the test suite.

The tableau oracle enumerates by generate-and-filter over raw integer
tuples with the interleaving inequalities transcribed directly; the
classical-limit oracle recomputes every generator coefficient with plain
arithmetic in place of q-brackets.  Neither shares evaluation code with the
package (the limit oracle reuses only pattern bookkeeping).  The dense
relation and covariance checks form every product as a dense matrix
product, the reference for the package's checks on the nonzeros; they
share only the report type, its residual rule and `max_entry`.

The dense generator block and the dense canonical chain are the package's
earlier dense code paths, kept as bit-identity references for its storage
as nonzeros: the block fills a zero matrix column by column from the
memoised column actions, and the chain keeps every generator and level as a
dense array.  `scaled` and `direct_sum` build vector operators for tests
from the dense forms, and `with_entry` and `with_forbidden_entry` corrupt
one.
`primed_inverse_cgc` reads one primed inverse coefficient from the
package's tables, and `recurse_cgc` one coupling coefficient.
`dense_fit_pair` is the earlier reduced-element fit on dense (slot, target,
source) arrays with BLAS dot products, the reference for the fit on the
nonzeros with exactly rounded sums.  `so3_cgc` is the explicit rank-3
coupling table, written out from the closed forms as a reference for
`top_cgc` and the auxiliary-weight recursion.

`vector_rep` is the vector representation on the coordinate basis, a
reference for the tableau build of the vector label and for `tensor_rep`;
`sl_generators` and `embedding_check` realise the orthogonal generators
inside quantum sl_n on that space (Noumi, Adv. Math. 123, 1996).
"""

import cmath
from dataclasses import dataclass
from itertools import product

import numpy as np

from qso_reps import (CLASSICAL, NONCLASSICAL, GeneratorMatrix, GTPattern,
                      HalfInt, IrrepLabel, QContext, RelationReport,
                      ValidationError, VectorOperator, check_relations,
                      enumerate_patterns, q_bracket, q_bracket_plus, q_power)
from qso_reps.cgc import _slot_tables, admissible_aux, cgc_is_zero
from qso_reps.gtbasis import HALF, branch_rows
from qso_reps.reps import Sparse, _column_action, max_entry, relation_residual
from qso_reps.wigner import (_RATIO_TOL, AmbientBlock, FactorizationError,
                             ReducedEntry, _inverse_blocks, _pair_admissible)

_EPS = 1e-12


def oracle_tableaux(label: IrrepLabel) -> set[tuple[tuple[int, ...], ...]]:
    """All tableaux under `label` as doubled-integer tuples, rows n..2."""
    top = tuple(e.twice for e in label.m_top)
    bound = max(abs(t) for t in top) if top else 0
    parity = top[0] % 2 if top else 0

    def candidates(size: int) -> list[tuple[int, ...]]:
        if label.kind == NONCLASSICAL:
            vals = [v for v in range(1, bound + 1, 2)]
        else:
            vals = [v for v in range(-bound, bound + 1) if (v - parity) % 2 == 0]
        return list(product(vals, repeat=size))

    def chain_ok(upper: tuple[int, ...], lower: tuple[int, ...],
                 upper_level: int) -> bool:
        p = upper_level // 2
        if upper_level % 2 == 1:
            if len(lower) != p:
                return False
            for j in range(p):
                if not upper[j] >= lower[j]:
                    return False
            for j in range(p - 1):
                if not lower[j] >= upper[j + 1]:
                    return False
            if label.kind == CLASSICAL:
                return lower[p - 1] >= -upper[p - 1]
            return lower[p - 1] >= 1
        if len(lower) != p - 1:
            return False
        for j in range(p - 1):
            if not upper[j] >= lower[j]:
                return False
        for j in range(p - 2):
            if not lower[j] >= upper[j + 1]:
                return False
        if p >= 2:
            if label.kind == CLASSICAL:
                return lower[p - 2] >= abs(upper[p - 1])
            return lower[p - 2] >= upper[p - 1]
        return True

    stacks = [(top,)]
    for level in range(label.n, 2, -1):
        size = (level - 1) // 2
        stacks = [s + (low,) for s in stacks for low in candidates(size)
                  if chain_ok(s[-1], low, level)]
    return set(stacks)


def _lvals(row, level: int) -> list[float]:
    p = level // 2
    if level % 2 == 1:
        return [float(row[i]) + (p - i) for i in range(p)]
    return [float(row[i]) + (p - i - 1) for i in range(p)]


def _prod(factors: list[float]) -> float:
    value = 1.0
    for f in factors:
        if abs(f) < _EPS:
            return 0.0
        value *= f
    return value


def _limit_a(xi: GTPattern, j: int, level: int) -> complex:
    p = level // 2
    la = _lvals(xi.row(level + 1), level + 1)
    lm = _lvals(xi.row(level), level)
    lb = _lvals(xi.row(level - 1), level - 1) if p > 1 else []
    lj = lm[j - 1]
    num = [x + lj for x in la] + [x - lj - 1 for x in la]
    num += [x + lj for x in lb] + [x - lj - 1 for x in lb]
    top = _prod(num)
    if top == 0.0:
        return 0j
    den = []
    for i in range(p):
        if i != j - 1:
            den += [lm[i] + lj, lm[i] - lj, lm[i] + lj + 1, lm[i] - lj - 1]
    return cmath.sqrt(top / _prod(den)) / 2.0


def _limit_b(xi: GTPattern, j: int, level: int) -> complex:
    p = (level + 1) // 2
    la = _lvals(xi.row(level + 1), level + 1)
    lm = _lvals(xi.row(level), level)
    lb = _lvals(xi.row(level - 1), level - 1) if level - 1 >= 2 else []
    lj = lm[j - 1]
    num = [x + lj for x in la] + [x - lj for x in la]
    num += [x + lj for x in lb] + [x - lj for x in lb]
    top = _prod(num)
    if top == 0.0:
        return 0j
    den = []
    for i in range(p - 1):
        if i != j - 1:
            den += [lm[i] + lj, lm[i] - lj, lm[i] + lj - 1, lm[i] - lj - 1]
    return cmath.sqrt(top / _prod(den)) / (lj * cmath.sqrt((2 * lj + 1) * (2 * lj - 1)))


def _limit_c(xi: GTPattern, level: int) -> float:
    p = (level + 1) // 2
    la = _lvals(xi.row(level + 1), level + 1)
    lm = _lvals(xi.row(level), level) if p > 1 else []
    lb = _lvals(xi.row(level - 1), level - 1) if level - 1 >= 2 else []
    num = _prod(la + lb)
    if num == 0.0:
        return 0.0
    den = []
    for i in range(p - 1):
        den += [lm[i], lm[i] - 1]
    return num / _prod(den)


def classical_limit_generator(label: IrrepLabel, k: int) -> np.ndarray:
    """Generator k of the undeformed orthogonal algebra in the same tableau
    basis, computed with plain arithmetic in place of q-brackets."""
    assert label.kind == CLASSICAL
    basis = enumerate_patterns(label)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    p = k // 2 if k % 2 == 0 else (k + 1) // 2
    n_shift = p if k % 2 == 0 else p - 1
    coeff = _limit_a if k % 2 == 0 else _limit_b
    for col, xi in enumerate(basis.patterns):
        for j in range(1, n_shift + 1):
            up = xi.replace(k, j, +1)
            if up.is_valid(label.kind):
                mat[basis.position(up), col] += coeff(xi, j, k)
            down = xi.replace(k, j, -1)
            if down.is_valid(label.kind):
                mat[basis.position(down), col] -= coeff(down, j, k)
        if k % 2 == 1:
            mat[col, col] += 1j * _limit_c(xi, k)
    return mat


def dense_check_relations(mats: list[GeneratorMatrix],
                          ctx: QContext) -> RelationReport:
    """`reps.check_relations` with every product a dense matrix product."""
    dims = {g.dim for g in mats}
    if len(dims) != 1:
        raise ValidationError(f"generator dimensions differ: {sorted(dims)}")
    two = ctx.q + 1.0 / ctx.q
    entries = []
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


def dense_check_vector_operator(vop: VectorOperator,
                                ctx: QContext) -> RelationReport:
    """`wigner.check_vector_operator` with every product a dense matrix
    product."""
    shapes = {m.shape for m in vop.gens} | {m.shape for m in vop.components}
    if len(shapes) != 1:
        raise ValidationError(f"inconsistent operator shapes: {shapes}")
    sq = ctx.q ** 0.5
    entries = []
    gens = [m.dense() for m in vop.gens]
    comps = [m.dense() for m in vop.components]

    def qcomm(x, y):
        return sq * (x @ y) - (y @ x) / sq

    for j in range(2, vop.n + 1):
        t = gens[j - 2]
        low, high = comps[j - 2], comps[j - 1]
        lhs = qcomm(low, t)
        entries.append(relation_residual(
            f"raise({j})", lhs - high, max(max_entry(lhs, high), 1.0), ctx))
        lhs = qcomm(t, high)
        entries.append(relation_residual(
            f"lower({j})", lhs - low, max(max_entry(lhs, low), 1.0), ctx))
    for j in range(2, vop.n + 1):
        t = gens[j - 2]
        for k in range(1, vop.n + 1):
            if k in (j - 1, j):
                continue
            ab, ba = t @ comps[k - 1], comps[k - 1] @ t
            entries.append(relation_residual(
                f"far({j},{k})", ab - ba, max(max_entry(ab, ba), 1.0), ctx))
    return RelationReport(tuple(entries))


def dense_generator_block(label: IrrepLabel, k: int,
                          rows: dict[GTPattern, int], cols,
                          ctx: QContext) -> np.ndarray:
    """`reps.generator_block` as a dense matrix: each column's memoised
    action added into a zero matrix."""
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


def dense_generator(label: IrrepLabel, k: int, ctx: QContext) -> np.ndarray:
    """Generator k of `label` as a dense matrix."""
    basis = enumerate_patterns(label)
    return dense_generator_block(label, k, basis.index, basis.patterns, ctx)


def dense_canonical_operator(ambient: IrrepLabel, ctx: QContext
                             ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Generators 1..n-1 and components 1..n of
    `wigner.canonical_vector_operator`, by the "+" q-commutator chain on
    dense generators with every level kept."""
    n = ambient.n - 1
    gens = [dense_generator(ambient, k, ctx) for k in range(1, ambient.n)]
    qs, qsi = ctx.q ** 0.5, ctx.q ** -0.5
    current = gens[n - 1]
    out = {n: current}
    for lv in range(n - 1, 0, -1):
        current = qs * (gens[lv - 1] @ current) - qsi * (current @ gens[lv - 1])
        out[lv] = current
    return gens[:n - 1], [out[k] for k in range(1, n + 1)]


def scaled(vop: VectorOperator, c: complex) -> VectorOperator:
    """`vop` with every component times c."""
    return VectorOperator(vop.n, vop.blocks, vop.gens,
                          tuple(Sparse.of(c * v.dense()) for v in vop.components))


def direct_sum(a: VectorOperator, b: VectorOperator) -> VectorOperator:
    """Block-diagonal sum; multiplicity indices are renumbered per label."""
    if a.n != b.n:
        raise ValidationError("direct sum needs equal ranks")
    da = a.dim

    def diag(x, y):
        x, y = x.dense(), y.dense()
        return Sparse.of(np.block([[x, np.zeros((da, y.shape[0]))],
                                   [np.zeros((y.shape[0], da)), y]]))

    gens = tuple(diag(ga, gb) for ga, gb in zip(a.gens, b.gens))
    comps = tuple(diag(va, vb) for va, vb in zip(a.components, b.components))
    seen: dict[IrrepLabel, int] = {}
    blocks: list[AmbientBlock] = []
    for blk in a.blocks + tuple(
            AmbientBlock(x.label, x.s, x.offset + da, x.basis) for x in b.blocks):
        s = seen.get(blk.label, 0)
        seen[blk.label] = s + 1
        blocks.append(AmbientBlock(blk.label, s, blk.offset, blk.basis))
    return VectorOperator(a.n, tuple(blocks), gens, comps)


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


def with_entry(vop: VectorOperator, i: int, j: int,
               value: complex) -> VectorOperator:
    """`vop` with entry (i, j) of component 1 set to `value`."""
    first = vop.components[0].dense()
    first[i, j] = value
    return VectorOperator(vop.n, vop.blocks, vop.gens,
                          (Sparse.of(first),) + vop.components[1:])


def with_forbidden_entry(vop: VectorOperator, value: complex):
    """`vop` with `value` added to component 1 at the first entry of its
    first forbidden block pair, and that pair's key."""
    bt, bs = next((bt, bs) for bt in vop.blocks for bs in vop.blocks
                  if not _pair_admissible(bt, bs))
    first = vop.components[0].dense()
    first[bt.offset, bs.offset] += value
    key = (bt.label.m_top, bt.s, bs.label.m_top, bs.s)
    return VectorOperator(vop.n, vop.blocks, vop.gens,
                          (Sparse.of(first),) + vop.components[1:]), key


def dense_fit_pair(vop: VectorOperator, bt: AmbientBlock, bs: AmbientBlock,
                   key: tuple, ctx: QContext) -> ReducedEntry:
    """`wigner._fit_pair` on dense arrays: the primed inverse coefficients
    and the raw elements each fill one (slot, target, source) array, and the
    two sums are BLAS dot products over every entry."""
    tables = _inverse_blocks(bs.label, bt.label.m_top, ctx)
    denoms = np.empty((vop.n, bt.dim, bs.dim), dtype=complex)
    for k in range(1, vop.n + 1):
        denoms[k - 1] = tables.pop(k)
    raws = np.empty_like(denoms)
    for k, v in enumerate(vop.components):
        raws[k] = v.block(bt.offset, bt.offset + bt.dim,
                          bs.offset, bs.offset + bs.dim)
    denoms, raws = denoms.ravel(), raws.ravel()
    absd = np.abs(denoms)
    total = float((absd ** 2).sum())
    if total == 0.0:
        raise FactorizationError(
            f"all inverse coefficients vanish on pair {key}")
    value = complex(np.vdot(denoms, raws) / total)
    dmax = float(absd.max())
    live = absd > _RATIO_TOL * dmax
    ratios = raws[live] / denoms[live]
    ref = max(abs(value), float(np.abs(ratios).max()), 1e-300)
    residual = float(np.abs(ratios - value).max()) / ref
    absr = np.abs(raws)
    silent = ~live
    silent_raw = float(absr[silent].max()) if silent.any() else 0.0
    tol = ctx.tolerance(max(float(absr.max()), 1.0))
    if not silent_raw <= tol:
        raise FactorizationError(
            f"matrix element {silent_raw:.3e} outside the inverse-"
            f"coefficient support on pair {key}")
    if not (residual <= _RATIO_TOL or abs(value) * dmax <= tol):
        raise FactorizationError(
            f"non-constant ratio on pair {key}: spread {residual:.3e}")
    first = complex(ratios[0]) if ratios.size else 0j
    return ReducedEntry(value, residual, first, int(live.sum()))


def recurse_cgc(k: "int | str", tgt: GTPattern, src: GTPattern, kind: str,
                eps: tuple[int, ...] | None, ctx: QContext) -> complex:
    """One Clebsch-Gordan coefficient for vector slot k (an int 3..n, or one
    of "+"/"-"), target tableau against source tableau, read from the table
    of the first admissible auxiliary weight (the value does not depend on
    the choice); slot n is the closed form.
    """
    n = src.n
    label = IrrepLabel(n, kind, src.row(n), eps)
    if cgc_is_zero(k, src, tgt, kind):
        return 0j
    closed, ((_, mu, blocks),) = admissible_aux(label, tgt.row(n), ctx)
    i = enumerate_patterns(label).position(src)
    j = enumerate_patterns(label.with_weight(tgt.row(n))).position(tgt)
    if k == n:
        return closed[i, j]
    _, values = _slot_tables(blocks, mu, ctx)[2 if k in ("+", "-") else k]
    return values[i, j]


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


def vector_label(n: int) -> IrrepLabel:
    """Label of the n-dimensional vector irrep, weight (1,0,...,0)."""
    return IrrepLabel(n, CLASSICAL,
                      tuple(HalfInt(2 if i == 0 else 0) for i in range(n // 2)))


def vector_rep(n: int, ctx: QContext) -> list[GeneratorMatrix]:
    """The n-dimensional vector representation on the coordinate basis:
    generator k sends e_k to -q^(1/2) e_{k+1} and e_{k+1} to q^(-1/2) e_k."""
    if n < 2:
        raise ValidationError(f"rank must be >= 2, got n={n}")
    label = vector_label(n)
    sq = ctx.q ** 0.5
    out = []
    for k in range(1, n):
        mat = np.zeros((n, n), dtype=complex)
        mat[k, k - 1] = -sq
        mat[k - 1, k] = 1.0 / sq
        out.append(GeneratorMatrix(label, Sparse.of(mat)))
    return out


@dataclass(frozen=True)
class SlnGenerators:
    """Chevalley generators of quantum sl_n on the n-dimensional space."""

    n: int
    e: tuple[np.ndarray, ...]
    f: tuple[np.ndarray, ...]
    k: tuple[np.ndarray, ...]
    kinv: tuple[np.ndarray, ...]


def sl_generators(n: int, ctx: QContext) -> SlnGenerators:
    """Vector representation of quantum sl_n: e_i lowers index i+1 -> i with
    weight -q^(-1/2), f_i raises i -> i+1 with -q^(1/2), k_i is diagonal."""
    es, fs, ks, kis = [], [], [], []
    for i in range(1, n):
        e = np.zeros((n, n), dtype=complex)
        e[i - 1, i] = -ctx.q ** -0.5
        f = np.zeros((n, n), dtype=complex)
        f[i, i - 1] = -ctx.q ** 0.5
        kd = np.ones(n, dtype=complex)
        kd[i - 1] = ctx.q
        kd[i] = 1.0 / ctx.q
        es.append(e)
        fs.append(f)
        ks.append(np.diag(kd))
        kis.append(np.diag(1.0 / kd))
    return SlnGenerators(n, tuple(es), tuple(fs), tuple(ks), tuple(kis))


@dataclass(frozen=True)
class EmbeddingReport:
    """Residuals of the quantum sl_n embedding cross-check."""

    relations: RelationReport
    hopf_residual: float       # k k^-1 = 1 and [e_i, f_i] = (k_i - k_i^-1)/(q - 1/q)
    vector_residual: float     # embedded generators match the vector representation

    @property
    def passed(self) -> bool:
        return (self.relations.all_passed and self.hopf_residual <= 1e-12
                and self.vector_residual <= 1e-12)


def embedding_check(n: int, ctx: QContext) -> EmbeddingReport:
    """Verify that f_i - q^-1 k_i e_i realises the orthogonal-algebra
    generators inside quantum sl_n on the vector representation.

    The embedded generators coincide entrywise with the closed form of
    `vector_rep`; `vector_residual` is the largest entry of the difference.
    """
    sl = sl_generators(n, ctx)
    hopf = 0.0
    for i in range(n - 1):
        hopf = max(hopf, float(np.abs(sl.k[i] @ sl.kinv[i] - np.eye(n)).max()))
        comm = sl.e[i] @ sl.f[i] - sl.f[i] @ sl.e[i]
        target = (sl.k[i] - sl.kinv[i]) / (ctx.q - 1.0 / ctx.q)
        hopf = max(hopf, float(np.abs(comm - target).max()))
    embedded = [sl.f[i] - (sl.k[i] @ sl.e[i]) / ctx.q for i in range(n - 1)]
    label = vector_label(n)
    gens = [GeneratorMatrix(label, Sparse.of(m)) for m in embedded]
    relations = check_relations(gens, ctx)
    vec = vector_rep(n, ctx)
    vector_residual = max(float(np.abs(embedded[i] - vec[i].mat).max())
                          for i in range(n - 1))
    return EmbeddingReport(relations, hopf, vector_residual)
