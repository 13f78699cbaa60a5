import numpy as np
import pytest

from qso_reps import (CLASSICAL, NONCLASSICAL, GeneratorMatrix, HalfInt,
                      IrrepLabel, QContext, build_all_generators,
                      check_relations, dimension, embedding_check,
                      enumerate_patterns, q_bracket, q_bracket_plus,
                      sl_generators, tensor_rep, vector_rep)
from qso_reps.cgc import assemble_decomposition
from qso_reps.tensorprod import TensorBasis, vector_label

H = HalfInt
CTX = QContext(1.3)


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(H(t) for t in twice_weight), eps)


def test_vector_rep_entries():
    ctx = QContext(4.0)
    mats = vector_rep(3, ctx)
    first = mats[0].mat
    assert first[1, 0] == -2.0
    assert first[0, 1] == 0.5
    assert np.count_nonzero(first) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_vector_rep_relations(n):
    mats = vector_rep(n, CTX)
    report = check_relations(mats, CTX)
    assert report.all_passed


def test_vector_rep_equivalent_to_tableau_build():
    # same spectra generator by generator, and an explicit intertwiner from
    # coupling the trivial representation
    n = 4
    vec = vector_rep(n, CTX)
    gt = build_all_generators(vector_label(n), CTX)
    for a, b in zip(vec, gt):
        ea = np.sort_complex(np.round(np.linalg.eigvals(a.mat), 9))
        eb = np.sort_complex(np.round(np.linalg.eigvals(b.mat), 9))
        assert np.allclose(ea, eb, atol=1e-8)
    trivial = lab(n, (0, 0))
    blocks = assemble_decomposition(trivial, CTX)
    (m_tgt, it), = blocks.items()
    assert m_tgt == vector_label(n).m_top
    # columns intertwine the trivial tensor (= the vector rep) with the
    # tableau-built matrices
    for k in range(1, n):
        lhs = vec[k - 1].mat @ it.matrix
        rhs = it.matrix @ gt[k - 1].mat
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_tensor_of_trivial_is_vector_rep():
    n = 5
    trivial = GeneratorMatrix(lab(n, (0, 0)), "I", np.zeros((1, 1), dtype=complex))
    mats = tensor_rep([GeneratorMatrix(trivial.label, f"I({k+1},{k})",
                                       np.zeros((1, 1), dtype=complex))
                       for k in range(1, n)], CTX)
    vec = vector_rep(n, CTX)
    for a, b in zip(mats, vec):
        assert np.array_equal(a.mat, b.mat)


def test_rank2_coupled_eigenvectors():
    # tensor with a rank-2 line: the two displayed combinations diagonalise
    for twice_m in (-4, 0, 3):
        m = H(twice_m)
        label = IrrepLabel(2, CLASSICAL, (m,))
        t = build_all_generators(label, CTX)
        big = tensor_rep(t, CTX)[0].mat
        for sign in (+1, -1):
            v1 = -sign * 1j * CTX.q ** (float(m) * sign - 0.5)
            vec = np.array([v1, 1.0], dtype=complex)
            eig = 1j * q_bracket(m + sign, CTX)
            assert np.abs(big @ vec - eig * vec).max() <= 1e-12


def test_rank2_nonclassical_coupled_eigenvectors():
    for eps2 in (+1, -1):
        for twice_m in (1, 5):
            m = H(twice_m)
            label = IrrepLabel(2, NONCLASSICAL, (m,), (eps2,))
            t = build_all_generators(label, CTX)
            big = tensor_rep(t, CTX)[0].mat
            for sign in (+1, -1):
                vec = np.array([-eps2 * CTX.q ** (float(m) * sign - 0.5), 1.0],
                               dtype=complex)
                eig = eps2 * q_bracket_plus(m + sign, CTX)
                assert np.abs(big @ vec - eig * vec).max() <= 1e-12


def test_tensor_rep_relations_so4():
    label = lab(4, (2, 2))
    mats = tensor_rep(build_all_generators(label, CTX), CTX)
    assert mats[0].mat.shape == (12, 12)
    assert check_relations(mats, CTX).all_passed


def test_tensor_dimension():
    label = lab(5, (2, 2))
    mats = tensor_rep(build_all_generators(label, CTX), CTX)
    assert mats[0].dim == 5 * dimension(label)


def test_tensor_basis_positions():
    label = lab(4, (2, 0))
    basis = TensorBasis(4, enumerate_patterns(label))
    assert basis.dim == 16
    p = basis.inner.patterns[2]
    assert basis.position(3, p) == 2 * 4 + 2


def test_tensor_spectrum_is_union_of_branch_spectra():
    from qso_reps import branching_set
    label = lab(4, (2, 0))
    big = tensor_rep(build_all_generators(label, CTX), CTX)[0].mat
    got = np.sort(np.linalg.eigvals(big).imag)
    expected = []
    for t in branching_set(label.m_top, 4, CLASSICAL):
        sub = enumerate_patterns(label.with_weight(t.row))
        expected += [q_bracket(p.m12, CTX) for p in sub.patterns]
    assert np.allclose(got, np.sort(expected), atol=1e-9)


def test_sl_generator_defining_identities():
    n, ctx = 4, QContext(0.7)
    sl = sl_generators(n, ctx)
    for i in range(n - 1):
        assert np.allclose(sl.k[i] @ sl.kinv[i], np.eye(n))
        comm = sl.e[i] @ sl.f[i] - sl.f[i] @ sl.e[i]
        target = (sl.k[i] - sl.kinv[i]) / (ctx.q - 1.0 / ctx.q)
        assert np.abs(comm - target).max() <= 1e-12
    # diagonal weights: q on slot i, 1/q on slot i+1
    assert sl.k[0][0, 0] == ctx.q and sl.k[0][1, 1] == pytest.approx(1 / ctx.q)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_embedding_check(n, q):
    report = embedding_check(n, QContext(q))
    assert report.passed
    assert report.hopf_residual <= 1e-12
    assert report.vector_residual <= 1e-12
    assert report.relations.max_residual <= 1e-12
