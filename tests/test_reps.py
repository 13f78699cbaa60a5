import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qso_reps import (CLASSICAL, NONCLASSICAL, GeneratorMatrix, HalfInt,
                      IrrepLabel, QContext, SingularCoefficientError,
                      build_all_generators,
                      ValidationError, build_generator, check_relations,
                      coeff_classical, coeff_nonclassical, composite_generator,
                      enumerate_patterns, q_bracket, q_bracket_plus, q_power)

H = HalfInt
CTX = QContext(1.3)


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(H(t) for t in twice_weight), eps)


def explicit_so3_raise(l, m, ctx):
    """d_m ([l-m][l+m+1])^(1/2) with d_m in product form."""
    dm = ((q_power(m, ctx) + q_power(-m, ctx))
          * (q_power(m + 1, ctx) + q_power(-m - 1, ctx))) ** -0.5
    return dm * cmath.sqrt(q_bracket(l - m, ctx) * q_bracket(l + m + 1, ctx))


def test_so3_raising_coefficient_matches_explicit_form():
    l = H(4)
    basis = enumerate_patterns(lab(3, (4,)))
    for xi in basis.patterns:
        m = xi.m12
        got = coeff_classical(xi, 1, 2, "A", CTX)
        assert got == pytest.approx(explicit_so3_raise(l, m, CTX), abs=1e-12)


def test_so3_boundary_raise_vanishes():
    basis = enumerate_patterns(lab(3, (2,)))
    top = basis.patterns[0]
    assert top.m12 == 1
    assert coeff_classical(top, 1, 2, "A", CTX) == 0


def test_so3_diagonal_eigenvalues():
    gen = build_generator(lab(3, (2,)), 1, CTX)
    expected = [1j * q_bracket(m, CTX) for m in (1, 0, -1)]
    assert np.allclose(np.diag(gen.mat), expected)
    assert np.allclose(gen.mat, np.diag(np.diag(gen.mat)))


def test_nonclassical_so3_matches_explicit_forms():
    label = lab(3, (5,), NONCLASSICAL, (1, -1))
    basis = enumerate_patterns(label)
    gen21 = build_generator(label, 1, CTX)
    for i, xi in enumerate(basis.patterns):
        assert gen21.mat[i, i] == pytest.approx(
            label.eps[0] * q_bracket_plus(xi.m12, CTX))
    gen32 = build_generator(label, 2, CTX)
    # weight-1/2 line carries the sign-bearing diagonal term
    idx = next(i for i, p in enumerate(basis.patterns) if p.m12 == H(1))
    expected = label.eps[1] * q_bracket_plus(H(1), CTX) * q_bracket(H(5) + H(1), CTX)
    assert gen32.mat[idx, idx] == pytest.approx(expected)
    # raising coefficient: d~_m ([l-m][l+m+1])^(1/2)
    xi = basis.patterns[idx]
    dm = ((q_power(H(1), CTX) - q_power(H(-1), CTX))
          * (q_power(H(3), CTX) - q_power(H(-3), CTX))) ** -0.5
    want = dm * cmath.sqrt(q_bracket(H(5) - H(1), CTX) * q_bracket(H(5) + H(3), CTX))
    assert coeff_nonclassical(xi, 1, 2, "A", CTX) == pytest.approx(want)


def test_unknown_coefficient_kind_rejected():
    xi = enumerate_patterns(lab(5, (4, 2))).patterns[0]
    eta = enumerate_patterns(lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1))).patterns[0]
    for coeff, tableau in ((coeff_classical, xi), (coeff_nonclassical, eta)):
        with pytest.raises(ValidationError, match="coefficient kind 'E'"):
            coeff(tableau, 1, 2, "E", CTX)
    with pytest.raises(ValidationError, match="classical coefficient kind 'D'"):
        coeff_classical(xi, 0, 2, "D", CTX)


def test_negative_radicand_rejected_for_nonclassical(monkeypatch):
    import qso_reps.reps as reps

    xi = enumerate_patterns(lab(5, (4, 2))).patterns[0]
    eta = enumerate_patterns(lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1))).patterns[0]
    for hat2 in (-1.0, -1e-30):
        monkeypatch.setattr(reps, "_hat_squared", lambda *args, v=hat2: v)
        for which, level in (("A", 2), ("B", 3)):
            with pytest.raises(SingularCoefficientError, match="came out complex"):
                coeff_nonclassical(eta, 1, level, which, CTX)
            # the classical family takes the imaginary root instead
            value = coeff_classical(xi, 1, level, which, CTX)
            assert value.real == 0.0 and value.imag != 0.0


def test_small_brackets_survive_large_q():
    # [1/2] is about 3e-14 at q = 1e27: small, but its argument is not 0
    ctx = QContext(1e27)
    mats = build_all_generators(lab(3, (1,)), ctx)
    peaks = [np.abs(g.mat).max() for g in mats]
    assert peaks[0] > 0.0 and peaks[0] == peaks[1]
    report = check_relations(mats, ctx)
    assert report.all_passed
    assert all(e.residual <= 1e-12 * e.scale for e in report.entries)


@st.composite
def dominant_labels(draw, max_dim=60):
    """Random dominant label of either family, every eps, dimension capped."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from([CLASSICAL, NONCLASSICAL]))
    entries = sorted(draw(st.lists(st.integers(0, 3), min_size=n // 2,
                                   max_size=n // 2)), reverse=True)
    if kind == NONCLASSICAL:
        twice = [2 * e + 1 for e in entries]
        eps = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=n - 1,
                                  max_size=n - 1)))
    else:
        offset = draw(st.integers(0, 1))  # one parity for the whole row
        twice = [2 * e + offset for e in entries]
        if n % 2 == 0 and draw(st.booleans()):
            twice[-1] = -twice[-1]
        eps = None
    label = lab(n, twice, kind, eps)
    assume(enumerate_patterns(label).dim <= max_dim)
    return label


@settings(max_examples=30, deadline=None)
@given(label=dominant_labels(),
       q=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)))
def test_random_labels_satisfy_relations(label, q):
    ctx = QContext(q)
    mats = build_all_generators(label, ctx)
    report = check_relations(mats, ctx)
    assert report.all_passed, report.failures()
    if label.kind == NONCLASSICAL:
        assert all(np.abs(g.mat.imag).max() == 0.0 for g in mats)


def test_nonclassical_matrices_are_real():
    label = lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))
    for gen in build_all_generators(label, CTX):
        assert np.abs(gen.mat.imag).max() == 0.0


@pytest.mark.parametrize("label,q", [
    (lab(4, (2, 0)), 1.3),
    (lab(5, (4, 2)), 0.7),
    (lab(6, (2, 2, 0)), 1.3),
    (lab(3, (1,)), 0.7),
    (lab(4, (1, 1), NONCLASSICAL, (1, 1, 1)), 1.3),
    (lab(5, (3, 1), NONCLASSICAL, (1, -1, 1, -1)), 0.7),
])
def test_defining_relations(label, q):
    ctx = QContext(q)
    report = check_relations(build_all_generators(label, ctx), ctx)
    assert report.all_passed, report.failures()
    assert report.max_residual <= 1e-12 * (
        1.0 + max(e.scale for e in report.entries))


def test_far_commutators_exactly_zero_for_vector_label():
    mats = build_all_generators(lab(4, (2, 0)), CTX)
    far = [e for e in check_relations(mats, CTX).entries
           if e.relation.startswith("far")]
    assert far and all(e.residual == 0.0 for e in far)


def test_relation_check_negative_control():
    mats = build_all_generators(lab(4, (2, 0)), CTX)
    corrupted = mats[0].mat.copy()
    corrupted[0, 0] += 0.01
    bad = [GeneratorMatrix(mats[0].label, mats[0].gen, corrupted)] + mats[1:]
    assert not check_relations(bad, CTX).all_passed


def test_relation_check_rejects_mixed_dims():
    a = build_generator(lab(3, (2,)), 1, CTX)
    b = build_generator(lab(3, (4,)), 1, CTX)
    with pytest.raises(Exception):
        check_relations([a, b], CTX)


def test_composite_base_case():
    label = lab(4, (2, 0))
    base = build_all_generators(label, CTX)
    comp = composite_generator(label, 3, 2, "+", CTX, base)
    assert np.array_equal(comp.mat, base[1].mat)


def test_composite_recursion_vs_explicit_products():
    label = lab(3, (2,))
    base = build_all_generators(label, CTX)
    i21, i32 = base[0].mat, base[1].mat
    sq = CTX.q ** 0.5
    explicit_minus = (i21 @ i32) / sq - sq * (i32 @ i21)
    got = composite_generator(label, 3, 1, "-", CTX, base)
    assert np.allclose(got.mat, explicit_minus, atol=1e-14)
    explicit_plus = sq * (i21 @ i32) - (i32 @ i21) / sq
    assert np.allclose(composite_generator(label, 3, 1, "+", CTX, base).mat,
                       explicit_plus, atol=1e-14)


def test_composite_classical_limit_is_commutator():
    ctx = QContext(1.0 + 1e-6)
    label = lab(3, (2,))
    base = build_all_generators(label, ctx)
    comm = base[0].mat @ base[1].mat - base[1].mat @ base[0].mat
    comp = composite_generator(label, 3, 1, "+", ctx, base)
    assert np.abs(comp.mat - comm).max() <= 1e-4


def test_classical_spectrum_multiplicities():
    label = lab(5, (2, 2))
    basis = enumerate_patterns(label)
    gen = build_generator(label, 1, CTX)
    eigs = sorted(np.linalg.eigvals(gen.mat).imag)
    expected = sorted(q_bracket(p.m12, CTX) for p in basis.patterns)
    assert np.allclose(eigs, expected, atol=1e-9)


def test_nonclassical_spectrum():
    label = lab(4, (3, 1), NONCLASSICAL, (-1, 1, 1))
    basis = enumerate_patterns(label)
    gen = build_generator(label, 1, CTX)
    eigs = sorted(np.linalg.eigvals(gen.mat).real)
    expected = sorted(-q_bracket_plus(p.m12, CTX) for p in basis.patterns)
    assert np.allclose(eigs, expected, atol=1e-9)


def test_coefficients_invariant_under_q_inversion():
    inv = QContext(1.0 / 1.3)
    for label in (lab(5, (4, 2)), lab(4, (2, 2))):
        for k in range(1, label.n):
            a = build_generator(label, k, CTX).mat
            b = build_generator(label, k, inv).mat
            assert np.allclose(np.abs(a), np.abs(b), atol=1e-10)


def test_generator_index_validation():
    with pytest.raises(Exception):
        build_generator(lab(3, (2,)), 3, CTX)
    with pytest.raises(Exception):
        composite_generator(lab(3, (2,)), 2, 2, "+", CTX)
    with pytest.raises(Exception):
        composite_generator(lab(3, (2,)), 3, 1, "x", CTX)


def test_generator_matrix_structure():
    # even index: real antisymmetric; odd index: real antisymmetric
    # off-diagonal part plus purely imaginary diagonal
    label = lab(5, (4, 2))
    for k in range(1, 5):
        m = build_generator(label, k, CTX).mat
        off = m - np.diag(np.diag(m))
        assert np.abs(off.imag).max() == 0.0
        assert np.abs(off + off.T).max() <= 1e-12
        if k % 2 == 0:
            assert np.abs(np.diag(m)).max() == 0.0
        else:
            assert np.abs(np.diag(m).real).max() == 0.0


def test_sparse_json_export():
    gen = build_generator(lab(3, (2,)), 2, CTX)
    data = gen.to_jsonable()
    assert data["dim"] == 3
    assert data["gen"] == "I(3,2)"
    rebuilt = np.zeros((3, 3), dtype=complex)
    for r, c, re, im in data["triplets"]:
        rebuilt[r, c] = re + 1j * im
    assert np.array_equal(rebuilt, gen.mat)
    rows_cols = [(r, c) for r, c, _, _ in data["triplets"]]
    assert rows_cols == sorted(rows_cols)


def reference_generator(label, k, ctx):
    """Generator k by a plain loop over every column and step that calls the
    public coefficient formulas directly, with no memo."""
    basis = enumerate_patterns(label)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    classical = label.kind == CLASSICAL
    coeff = coeff_classical if classical else coeff_nonclassical
    which = "A" if k % 2 == 0 else "B"
    p = (k + 1) // 2
    for col, xi in enumerate(basis.patterns):
        half_line = not classical and k % 2 == 0 and xi.m(k, p) == H(1)
        for j in range(1, k // 2 + 1):
            up = xi.replace(k, j, +1)
            if up in basis.index:
                mat[basis.position(up), col] += coeff(xi, j, k, which, ctx)
            down = xi.replace(k, j, -1)
            if down in basis.index and not (half_line and j == p):
                mat[basis.position(down), col] -= coeff(down, j, k, which, ctx)
        if k % 2 == 1:
            c = coeff(xi, 0, k, "C", ctx)
            mat[col, col] += 1j * c if classical else label.eps_for(k + 1) * c
        elif half_line:
            mat[col, col] += label.eps_for(k + 1) * coeff(xi, 0, k, "D", ctx) / (
                q_power(H(1), ctx) - q_power(H(-1), ctx))
    return mat


def test_memoised_generators_equal_plain_reference():
    # the second q runs with the memo already holding entries of the first;
    # each generator is built twice, so memo hits are compared as well
    labels = [lab(5, (4, 2)), lab(6, (4, 2, 0)),
              lab(4, (3, 1), NONCLASSICAL, (1, -1, 1)),
              lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1))]
    for q in (1.3, 0.7):
        ctx = QContext(q)
        for label in labels:
            for k in range(1, label.n):
                want = reference_generator(label, k, ctx)
                for _ in range(2):
                    assert np.array_equal(build_generator(label, k, ctx).mat, want)


@pytest.mark.parametrize("q", [1.37, 1.41])
def test_memo_shared_across_eps_applies_each_sign(q):
    # a fresh q per order, so the first label of each order fills the memo
    # and the second reads it
    first = lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))
    second = lab(4, (3, 1), NONCLASSICAL, (-1, 1, -1))
    if q == 1.41:
        first, second = second, first
    ctx = QContext(q)
    for label in (first, second):
        for k in range(1, label.n):
            assert np.array_equal(build_generator(label, k, ctx).mat,
                                  reference_generator(label, k, ctx))


def test_out_of_lattice_guard_survives_memo(monkeypatch):
    import qso_reps.reps as reps

    real = reps.coeff_classical
    # a leak far below any tolerance must still be caught: off the lattice
    # the coefficients are exactly 0; each tol_abs is a context not used
    # elsewhere, so the memo misses
    for leak, tol_abs in ((1.0, 3e-9), (1e-12, 4e-9)):
        def leaky(xi, j, level, which, ctx, leak=leak):
            if xi.is_valid(CLASSICAL) and xi.replace(level, j, +1).is_valid(CLASSICAL):
                return real(xi, j, level, which, ctx)
            return leak

        monkeypatch.setattr(reps, "coeff_classical", leaky)
        ctx = QContext(1.3, tol_abs=tol_abs)
        with pytest.raises(SingularCoefficientError, match=r"out-of-lattice step \|"):
            build_generator(lab(5, (4, 2)), 2, ctx)


def test_coefficients_evaluated_once_per_row_triple(monkeypatch):
    import qso_reps.reps as reps

    calls = [0]
    real = reps.coeff_classical

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(reps, "coeff_classical", counting)
    label = lab(6, (4, 2, 0))
    ctx = QContext(1.2345)  # not used elsewhere: every key is a miss
    build_all_generators(label, ctx)
    patterns = enumerate_patterns(label).patterns
    keys = {(k, xi.row(k + 1), xi.row(k) if k >= 2 else None,
             xi.row(k - 1) if k >= 3 else None)
            for k in range(1, label.n) for xi in patterns}
    # up and down for each entry of row k, plus the diagonal at odd k
    most_steps = max(2 * (k // 2) + k % 2 for k in range(1, label.n))
    assert 0 < calls[0] <= len(keys) * most_steps
