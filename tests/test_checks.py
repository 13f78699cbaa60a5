"""The relation and covariance checks on the generators' nonzeros against
the dense oracles of `oracles.py`, and their verdicts on non-finite input."""

import math

import numpy as np
import pytest

from qso_reps import (CLASSICAL, NONCLASSICAL, GeneratorMatrix, HalfInt,
                      IrrepLabel, QContext, VectorOperator,
                      build_all_generators, canonical_vector_operator,
                      check_relations, check_vector_operator)
from qso_reps.reps import Sparse, combine
from oracles import dense_check_relations, dense_check_vector_operator

NC = NONCLASSICAL


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(HalfInt(t) for t in twice_weight), eps)


GENERATOR_LABELS = [
    lab(3, (4,)), lab(3, (5,), NC, (1, -1)),
    lab(4, (4, 2)), lab(4, (3, 1), NC, (1, -1, 1)),
    lab(5, (4, 2)), lab(5, (3, 1)), lab(5, (5, 1), NC, (1, -1, 1, -1)),
    lab(6, (4, 2, 0)), lab(6, (3, 3, 1), NC, (1, 1, -1, 1, 1)),
    lab(7, (4, 2, 2)), lab(7, (3, 1, 1), NC, (1, -1, 1, -1, 1, -1)),
]
AMBIENTS = [
    lab(4, (4, 2)), lab(4, (3, 1), NC, (1, -1, 1)),
    lab(5, (4, 2)), lab(5, (3, 1), NC, (1, 1, 1, 1)),
    lab(6, (6, 4, 2)), lab(6, (7, 3, 1), NC, (-1, -1, -1, -1, 1)),
]
QS = (0.7592, 1.3, 2.5)


def assert_reports_agree(sparse, dense):
    assert [e.relation for e in sparse.entries] == [
        e.relation for e in dense.entries]
    for s, d in zip(sparse.entries, dense.entries):
        assert s.passed == d.passed, s.relation
        bound = 2e-15 * max(1.0, d.scale)
        assert abs(s.residual - d.residual) <= bound, s.relation
        assert abs(s.scale - d.scale) <= bound, s.relation


def test_sparse_product_and_combination_match_dense():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.4)
    b = (rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))) * (
        rng.random((4, 6)) < 0.4)
    b[1] = 0.0  # a row with no entries
    prod = Sparse.of(a) @ Sparse.of(b)
    dense = np.zeros((5, 6), dtype=complex)
    dense[prod.rows, prod.cols] = prod.vals
    assert np.allclose(dense, a @ b, rtol=0, atol=1e-15)
    keys = prod.rows * 6 + prod.cols
    assert np.all(np.diff(keys) > 0)
    c = rng.normal(size=(5, 6))
    both = combine((2.0, prod), (-1, Sparse.of(c)))
    dense[:] = 0.0
    dense[both.rows, both.cols] = both.vals
    assert np.allclose(dense, 2.0 * (a @ b) - c, rtol=0, atol=1e-15)
    empty = Sparse.of(np.zeros((3, 3))) @ Sparse.of(np.eye(3))
    assert empty.vals.size == 0 and empty.shape == (3, 3)


@pytest.mark.parametrize("label", GENERATOR_LABELS, ids=str)
def test_relations_match_the_dense_oracle(label):
    for q in QS:
        ctx = QContext(q)
        gens = build_all_generators(label, ctx)
        sparse, dense = check_relations(gens, ctx), dense_check_relations(gens, ctx)
        assert sparse.all_passed and dense.all_passed
        assert_reports_agree(sparse, dense)
        # one generator off by a relative 1e-6 breaks a relation in both
        for k in (0, len(gens) - 1):
            bad = list(gens)
            bad[k] = GeneratorMatrix(gens[k].label,
                                     Sparse.of(gens[k].mat * (1 + 1e-6)))
            sparse, dense = check_relations(bad, ctx), dense_check_relations(bad, ctx)
            assert not sparse.all_passed and not dense.all_passed
            assert_reports_agree(sparse, dense)


@pytest.mark.parametrize("ambient", AMBIENTS, ids=str)
def test_covariance_matches_the_dense_oracle(ambient):
    ctx = QContext(1.3)
    vop = canonical_vector_operator(ambient, ctx)
    sparse = check_vector_operator(vop, ctx)
    dense = dense_check_vector_operator(vop, ctx)
    assert sparse.all_passed and dense.all_passed
    assert_reports_agree(sparse, dense)
    off = 1 + 1e-6
    components = (vop.components[0] * off,) + vop.components[1:]
    gens = (vop.gens[0] * off,) + vop.gens[1:]
    for bad in (VectorOperator(vop.n, vop.blocks, vop.gens, components),
                VectorOperator(vop.n, vop.blocks, gens, vop.components)):
        sparse = check_vector_operator(bad, ctx)
        dense = dense_check_vector_operator(bad, ctx)
        assert not sparse.all_passed and not dense.all_passed
        assert_reports_agree(sparse, dense)


def assert_no_pass_on_non_finite(report):
    assert not report.all_passed
    for e in report.entries:
        if not (math.isfinite(e.residual) and math.isfinite(e.scale)):
            assert not e.passed, e.relation


# Real matrices, so that no complex product makes a NaN of inf * 0 and some
# residuals come out inf rather than NaN.  Nonclassical values are real.
SO5_NC = lab(5, (3, 1), NC, (1, 1, 1, 1))


def test_inf_in_a_generator_fails_the_relations():
    ctx = QContext(1.3)
    gens = [GeneratorMatrix(g.label, Sparse.of(g.mat.real))
            for g in build_all_generators(SO5_NC, ctx)]
    infinite = 0
    with np.errstate(all="ignore"):
        for k, g in enumerate(gens):
            mat = g.mat.copy()
            mat[0, 0] = np.inf
            bad = gens[:k] + [GeneratorMatrix(g.label, Sparse.of(mat))] + gens[k + 1:]
            report = check_relations(bad, ctx)
            assert_no_pass_on_non_finite(report)
            assert not dense_check_relations(bad, ctx).all_passed
            infinite += sum(e.residual == np.inf for e in report.entries)
    assert infinite


def test_inf_in_a_component_fails_the_covariance():
    ctx = QContext(1.3)
    vop = canonical_vector_operator(SO5_NC, ctx)
    gens = tuple(Sparse.of(g.dense().real) for g in vop.gens)
    infinite = 0
    with np.errstate(all="ignore"):
        for k in range(vop.n):
            components = [v.dense().real for v in vop.components]
            components[k][0, 0] = np.inf
            bad = VectorOperator(vop.n, vop.blocks, gens,
                                 tuple(map(Sparse.of, components)))
            report = check_vector_operator(bad, ctx)
            assert_no_pass_on_non_finite(report)
            assert not dense_check_vector_operator(bad, ctx).all_passed
            infinite += sum(e.residual == np.inf for e in report.entries)
    assert infinite
