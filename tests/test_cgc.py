import cmath
import functools
import json

import numpy as np
import pytest

import qso_reps.cgc
import qso_reps.reps
import qso_reps.tensorprod
from qso_reps import (CLASSICAL, NONCLASSICAL, GTPattern, HalfInt, IrrepLabel,
                      QContext, RelationReport, ValidationError,
                      assemble_decomposition, branching_set,
                      build_all_generators, canonical_vector_operator,
                      composite_generator, dimension, enumerate_patterns,
                      q_bracket, recurse_cgc, reduced_matrix_elements,
                      so2_coupled_vectors, so3_cgc, tensor_rep, top_cgc)
from qso_reps.cgc import (AuxSearchError, admissible_aux, aux_blocks,
                          aux_candidates, cgc_is_zero, decomposition_rank)
from qso_reps.gtbasis import covers, first_completion, rows_below

H = HalfInt
CTX = QContext(1.3)


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(H(t) for t in twice_weight), eps)


def test_so2_coupled_vector_values():
    vp, vm = so2_coupled_vectors(H(0), CLASSICAL, 0, CTX)
    assert vp[0] == pytest.approx(-1j * CTX.q ** -0.5)
    assert vm[0] == pytest.approx(+1j * CTX.q ** -0.5)
    assert vp[1] == vm[1] == 1.0
    vp, vm = so2_coupled_vectors(H(1), NONCLASSICAL, -1, CTX)
    assert vp[0] == pytest.approx(CTX.q ** 0.0)
    assert vm[0] == pytest.approx(CTX.q ** -1.0)


def test_so3_cgc_block_structure():
    # coupled rank-3 line: three blocks for l = 1, total dimension 9
    targets = [t.row for t in branching_set((H(2),), 3, CLASSICAL)]
    assert targets == [(H(4),), (H(0),), (H(2),)]
    dims = [dimension(lab(3, (t[0].twice,))) for t in targets]
    assert sorted(dims) == [1, 3, 5] and sum(dims) == 9
    table = so3_cgc(H(2), H(4), CLASSICAL, None, CTX)
    # midline coefficient ([l-m+1][l+m+1])^(1/2) at m = 0
    assert table[H(0)][1] == pytest.approx(
        cmath.sqrt(q_bracket(2, CTX) * q_bracket(2, CTX)))


def test_so3_cgc_rejects_bad_target():
    with pytest.raises(ValidationError):
        so3_cgc(H(2), H(6), CLASSICAL, None, CTX)
    with pytest.raises(ValidationError):
        so3_cgc(H(1), H(5), NONCLASSICAL, (1, 1), CTX)


def test_nonclassical_halfline_targets():
    targets = [t.row for t in branching_set((H(1),), 3, NONCLASSICAL)]
    assert targets == [(H(3),), (H(1),)]


def test_top_cgc_matches_so3_midline():
    l = H(4)
    for lt in (l + 1, l, l - 1):
        table = so3_cgc(l, lt, CLASSICAL, None, CTX)
        for m, (_, beta, _) in table.items():
            got = top_cgc((l,), (lt,), (m,), 3, CLASSICAL, CTX)
            if abs(m.twice) <= l.twice:
                assert got == pytest.approx(beta, abs=1e-12)


def test_top_cgc_invalid_step_returns_zero():
    assert top_cgc((H(4), H(0)), (H(8), H(0)), (H(2),), 4, CLASSICAL, CTX) == 0
    assert top_cgc((H(4), H(0)), (H(6), H(2)), (H(2),), 4, CLASSICAL, CTX) == 0
    # no self coupling at even classical levels
    assert top_cgc((H(4), H(0)), (H(4), H(0)), (H(2),), 4, CLASSICAL, CTX) == 0


def _general_so3_entry(label, lt, k, src_m, tgt_m, ctx, aux=None):
    basis = enumerate_patterns(label)
    src = next(p for p in basis.patterns if p.m12 == src_m)
    tgt_label = label.with_weight((lt,))
    tgt = next(p for p in enumerate_patterns(tgt_label).patterns
               if p.m12 == tgt_m)
    return recurse_cgc(k, tgt, src, label.kind, label.eps, ctx, aux)


@pytest.mark.parametrize("twice_l", [2, 4])
def test_recursion_reproduces_classical_tables(twice_l):
    l = H(twice_l)
    label = lab(3, (twice_l,))
    for lt in (l + 1, l, l - 1):
        table = so3_cgc(l, lt, CLASSICAL, None, CTX)
        for m, (alpha, beta, gamma) in table.items():
            if abs((m - 1).twice) <= twice_l:
                got = _general_so3_entry(label, lt, "+", m - 1, m, CTX)
                assert got == pytest.approx(alpha, abs=1e-10)
            if abs((m + 1).twice) <= twice_l:
                got = _general_so3_entry(label, lt, "-", m + 1, m, CTX)
                assert got == pytest.approx(gamma, abs=1e-10)
            if abs(m.twice) <= twice_l:
                got = _general_so3_entry(label, lt, 3, m, m, CTX)
                assert got == pytest.approx(beta, abs=1e-10)


@pytest.mark.parametrize("eps", [(1, 1), (1, -1), (-1, 1)])
def test_recursion_reproduces_nonclassical_tables(eps):
    l = H(3)
    label = lab(3, (3,), NONCLASSICAL, eps)
    for lt in (l + 1, l, l - 1):
        table = so3_cgc(l, lt, NONCLASSICAL, eps, CTX)
        for m, (alpha, beta, gamma) in table.items():
            if m == H(1):
                got = _general_so3_entry(label, lt, "-", H(1), H(1), CTX)
            else:
                got = _general_so3_entry(label, lt, "+", m - 1, m, CTX)
            assert got == pytest.approx(alpha, abs=1e-10)
            if (m + 1).twice <= l.twice:
                got = _general_so3_entry(label, lt, "-", m + 1, m, CTX)
                assert got == pytest.approx(gamma, abs=1e-10)
            if m.twice <= l.twice:
                got = _general_so3_entry(label, lt, 3, m, m, CTX)
                assert got == pytest.approx(beta, abs=1e-10)


def test_recursion_aux_independence():
    label = lab(3, (4,))
    auxes = [a for a in aux_candidates(label, (H(4),))][:4]
    values = []
    for aux in auxes:
        try:
            values.append(_general_so3_entry(label, H(4), "+", H(0), H(2),
                                             CTX, aux))
        except AuxSearchError:
            continue
    assert len(values) >= 2
    assert max(abs(v - values[0]) for v in values) <= 1e-10


def test_recursion_zero_conditions():
    label = lab(4, (2, 2))
    basis = enumerate_patterns(label)
    tgt_label = label.with_weight((H(4), H(2)))
    tgt_basis = enumerate_patterns(tgt_label)
    src = basis.patterns[0]
    tgt = next(p for p in tgt_basis.patterns
               if p.row(3) == src.row(3) and p.m12 != src.m12)
    # slot-3 coupling requires identical rows below level 2
    assert cgc_is_zero(3, src, tgt, CLASSICAL)
    assert recurse_cgc(3, tgt, src, CLASSICAL, None, CTX) == 0j


def test_selection_rules_match_matrix_support():
    label = lab(4, (2, 2))
    src_basis = enumerate_patterns(label)
    for branch in branching_set(label.m_top, 4, CLASSICAL):
        target = label.with_weight(branch.row)
        (_, _, blocks), = admissible_aux(label, branch.row, True, CTX)
        tgt_basis = enumerate_patterns(target)
        for k in ("+", "-", 3, 4):
            mat = blocks[2 if k in ("+", "-") else k]
            assert mat.shape == (src_basis.dim, tgt_basis.dim)
            for i, src in enumerate(src_basis.patterns):
                for j, tgt in enumerate(tgt_basis.patterns):
                    if not cgc_is_zero(k, src, tgt, CLASSICAL):
                        continue
                    if k in ("+", "-"):
                        # the two rank-2 slots share one raw matrix element;
                        # only the pairing rule distinguishes them
                        other = "-" if k == "+" else "+"
                        if not cgc_is_zero(other, src, tgt, CLASSICAL):
                            continue
                    assert abs(mat[i, j]) <= 1e-10 * (1 + np.abs(mat).max())


def _dense_mu(source, m_tgt, top, aux_basis, aux, forward):
    """Normalising ratio read from the whole dense auxiliary top generator,
    with the usability threshold against its largest entry."""
    n, kind = source.n, source.kind
    scale = float(np.abs(top).max())
    for m_hat in rows_below(source.m_top, n, kind):
        if not covers(m_tgt, m_hat, n, kind):
            continue
        third = top_cgc(source.m_top, m_tgt, m_hat, n, kind, CTX)
        if abs(third) < 1e-12:
            continue
        tail = (m_hat,) + first_completion(m_hat, n - 1, kind)
        i_src = aux_basis.position(GTPattern((aux.m_top, source.m_top) + tail))
        i_tgt = aux_basis.position(GTPattern((aux.m_top, m_tgt) + tail))
        den = top[i_src, i_tgt] if forward else top[i_tgt, i_src]
        return None if abs(den) <= 1e-6 * scale else den / third
    return None


@functools.lru_cache(maxsize=None)
def _dense_generators(aux):
    return build_all_generators(aux, CTX)


@functools.lru_cache(maxsize=None)
def _dense_composite(aux, slot, sign):
    return composite_generator(aux, aux.n, slot, sign, CTX,
                               _dense_generators(aux)).mat


@pytest.mark.parametrize("label", [
    lab(5, (4, 2)),
    lab(4, (2, 2)),
    lab(4, (3, 1), NONCLASSICAL, (1, -1, 1)),
    lab(3, (3,), NONCLASSICAL, (1, -1)),
])
def test_aux_blocks_match_dense_auxiliary_irrep(label):
    n = label.n
    for branch in branching_set(label.m_top, n, label.kind):
        target = label.with_weight(branch.row)
        picked = {True: [], False: []}
        for aux in aux_candidates(label, branch.row):
            if min(len(v) for v in picked.values()) >= 2:
                break
            base = _dense_generators(aux)
            aux_basis = enumerate_patterns(aux)
            top = base[n - 1].mat
            for rows, cols in ((label, target), (target, label)):
                pos = [[aux_basis.position(GTPattern((aux.m_top,) + p.rows))
                        for p in enumerate_patterns(lbl).patterns]
                       for lbl in (rows, cols)]
                for sign in ("+", "-"):
                    blocks = aux_blocks(rows, cols, aux, sign, CTX)
                    assert sorted(blocks) == list(range(1, n + 1))
                    for slot, block in blocks.items():
                        dense = top if slot == n else _dense_composite(
                            aux, slot, sign)
                        want = dense[np.ix_(*pos)]
                        scale = max(1.0, float(np.abs(dense).max()))
                        assert np.abs(block - want).max() <= 1e-13 * scale
            for forward in (True, False):
                mu = _dense_mu(label, branch.row, top, aux_basis, aux, forward)
                if mu is not None:
                    picked[forward].append(aux)
        for forward, dense_pick in picked.items():
            assert dense_pick, (label, branch.row, forward)
            got = [a for a, _, _ in admissible_aux(label, branch.row, forward,
                                                   CTX, want=2)]
            assert got == dense_pick[:2]


def test_no_auxiliary_irrep_is_built(monkeypatch):
    built = []
    real = qso_reps.reps.build_generator

    def spy(label, k, ctx):
        built.append(label)
        return real(label, k, ctx)

    monkeypatch.setattr(qso_reps.reps, "build_generator", spy)
    # a q no other test uses, so no generator comes from a cache
    ctx = QContext(1.2345)
    for label in (lab(5, (4, 2)), lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))):
        built.clear()
        assemble_decomposition(label, ctx)
        assert built and {b.n for b in built} == {label.n}
    for ambient in (lab(5, (4, 2)), lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1))):
        vop = canonical_vector_operator(ambient, ctx)
        built.clear()
        reduced_matrix_elements(vop, ctx)
        assert built and {b.n for b in built} == {ambient.n - 1}


def test_decompose_forms_no_product_space_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense product-space generators requested")

    monkeypatch.setattr(qso_reps.tensorprod, "tensor_rep", refuse)
    monkeypatch.setattr(qso_reps.cgc, "tensor_rep", refuse, raising=False)
    for label in (lab(5, (4, 2)), lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))):
        blocks = assemble_decomposition(label, CTX)
        assert sum(it.matrix.shape[1] for it in blocks.values()) == (
            label.n * dimension(label))


def test_intertwiner_residuals_are_a_report():
    for label in (lab(5, (4, 2)), lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))):
        for it in assemble_decomposition(label, QContext(0.7)).values():
            report = it.residuals
            assert isinstance(report, RelationReport)
            assert len(report.entries) == label.n - 1
            assert report.all_passed and not report.failures()
            assert report.max_residual <= 1e-10


@pytest.mark.parametrize("label,expected_dims", [
    (lab(4, (2, 0)), {(H(4), H(0)): 9, (H(0), H(0)): 1,
                      (H(2), H(2)): 3, (H(2), H(-2)): 3}),
    (lab(5, (2, 0)), {(H(4), H(0)): 14, (H(0), H(0)): 1, (H(2), H(2)): 10}),
    (lab(3, (3,), NONCLASSICAL, (1, 1)),
     {(H(5),): 3, (H(3),): 2, (H(1),): 1}),
])
def test_assemble_block_dimensions(label, expected_dims):
    blocks = assemble_decomposition(label, CTX)
    got = {m: it.matrix.shape[1] for m, it in blocks.items()}
    assert got == expected_dims
    assert sum(got.values()) == label.n * dimension(label)
    assert decomposition_rank(blocks, CTX) == label.n * dimension(label)


def test_assemble_marks_replaced_block():
    label = lab(4, (3, 1), NONCLASSICAL, (1, 1, 1))
    blocks = assemble_decomposition(label, CTX)
    assert blocks[(H(3), H(1))].table.replaced
    assert not blocks[(H(5), H(1))].table.replaced


def test_assemble_normalisation_and_homogeneity():
    label = lab(4, (2, 0))
    blocks = assemble_decomposition(label, CTX)
    for it in blocks.values():
        first = next(v for _, terms in it.table.entries for _, _, v in terms
                     if v != 0j)
        assert first == 1.0 + 0j
    # intertwining is homogeneous: rescaling a block keeps it passing at the
    # rescaled tolerance scale
    big = tensor_rep(build_all_generators(label, CTX), CTX)
    it = blocks[(H(4), H(0))]
    tgt_mats = build_all_generators(it.target, CTX)
    for c in (7.0, 0.001):
        for k in range(1, 4):
            lhs = big[k - 1].mat @ (c * it.matrix)
            rhs = (c * it.matrix) @ tgt_mats[k - 1].mat
            scale = max(np.abs(lhs).max(), np.abs(rhs).max())
            assert np.linalg.norm(lhs - rhs) <= CTX.tolerance(scale)


def test_assemble_residuals_small():
    label = lab(5, (2, 2))
    blocks = assemble_decomposition(label, QContext(0.7))
    assert max(it.residuals.max_residual for it in blocks.values()) <= 1e-10


def test_cgc_table_json():
    label = lab(3, (2,))
    blocks = assemble_decomposition(label, CTX)
    data = blocks[(H(4),)].table.to_jsonable()
    text = json.dumps(data)
    assert json.loads(text)["target"] == [4]
    assert data["entries"][0]["terms"]
    term = data["entries"][0]["terms"][0]
    assert set(term) == {"k", "source_pattern", "re", "im"}


def test_recurse_cgc_rejects_unusable_aux():
    label = lab(3, (2,))
    # this auxiliary weight cannot normalise the middle target block
    bad = IrrepLabel(4, CLASSICAL, (H(4), H(0)))
    basis = enumerate_patterns(label)
    tgt = next(p for p in enumerate_patterns(label).patterns if p.m12 == H(2))
    src = next(p for p in basis.patterns if p.m12 == H(0))
    with pytest.raises(AuxSearchError):
        recurse_cgc("+", tgt, src, CLASSICAL, None, CTX, aux=bad)


def _per_term_matrix(label, entries, ctx):
    """Reference intertwiner: one scalar update per listed term, the slot-1
    and slot-2 rows from the source's rank-2 coupled vectors."""
    basis = enumerate_patterns(label)
    n, d = label.n, basis.dim
    eps2 = label.eps[0] if label.kind == NONCLASSICAL else 0
    mat = np.zeros((n * d, len(entries)), dtype=complex)
    for col, (_, terms) in enumerate(entries):
        for k, src, value in terms:
            i = basis.position(src)
            if k in ("+", "-"):
                vp, vm = so2_coupled_vectors(src.m12, label.kind, eps2, ctx)
                vec = vp if k == "+" else vm
                mat[i, col] += value * vec[0]
                mat[d + i, col] += value * vec[1]
            else:
                mat[(int(k) - 1) * d + i, col] += value
    return mat


@pytest.mark.parametrize("label", [
    lab(3, (2,)), lab(4, (2, 0)), lab(4, (1, 1)), lab(5, (4, 2)),
    lab(3, (3,), NONCLASSICAL, (1, -1)),
    lab(4, (3, 1), NONCLASSICAL, (1, -1, 1)),
    lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1)),
])
def test_matrix_matches_per_term_reference(label):
    for it in assemble_decomposition(label, CTX).values():
        table = it.table
        entries = table.entries
        want = _per_term_matrix(label, entries, CTX)
        assert it.matrix.shape == want.shape
        bound = 1e-15 * max(1.0, float(np.abs(want).max()))
        assert np.abs(it.matrix - want).max() <= bound
        # entries lists every nonzero of the slot arrays once, in target,
        # slot, source order, with the array's value
        names = list(table.slots)
        assert names == ["+", "-"] + list(range(3, label.n + 1))
        src_basis = enumerate_patterns(label)
        listed = []
        for j, (tgt, terms) in enumerate(entries):
            assert tgt == enumerate_patterns(it.target).patterns[j]
            for k, src, value in terms:
                slot = [str(name) for name in names].index(k)
                i = src_basis.position(src)
                assert value == table.slots[names[slot]][i, j] != 0
                listed.append((j, slot, i))
        nonzeros = [(j, slot, i) for slot, k in enumerate(names)
                    for i, j in np.argwhere(table.slots[k] != 0)]
        assert listed == sorted(nonzeros)


def test_each_aux_top_block_is_evaluated_once(monkeypatch):
    evaluated = []
    real = qso_reps.reps.generator_block

    def spy(label, k, rows, cols, ctx):
        evaluated.append((label, tuple(rows), tuple(cols)))
        return real(label, k, rows, cols, ctx)

    # the aux search reaches generator_block through cgc's binding
    monkeypatch.setattr(qso_reps.cgc, "generator_block", spy)
    # a q no other test uses, so nothing comes from a cache
    ctx = QContext(1.2468)
    for label in (lab(5, (4, 2)), lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))):
        evaluated.clear()
        assemble_decomposition(label, ctx)
        assert {aux.n for aux, _, _ in evaluated} == {label.n + 1}
        assert len(set(evaluated)) == len(evaluated)
    for ambient in (lab(5, (4, 2)), lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1))):
        vop = canonical_vector_operator(ambient, ctx)
        evaluated.clear()
        reduced_matrix_elements(vop, ctx)
        assert {aux.n for aux, _, _ in evaluated} == {ambient.n}
        assert len(set(evaluated)) == len(evaluated)
