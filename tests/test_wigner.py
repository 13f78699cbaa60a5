import itertools
import json
import re

import numpy as np
import pytest

from qso_reps import (CLASSICAL, NONCLASSICAL, HalfInt, IrrepLabel, QContext,
                      ValidationError, canonical_vector_operator,
                      check_vector_operator, enumerate_patterns,
                      reduced_matrix_elements, top_cgc)
from qso_reps.cgc import admissible_aux, top_table
from qso_reps.cli import main as cli_main
from qso_reps.gtbasis import branch_rows, extend_pattern
from qso_reps.reps import (Sparse, build_all_generators, composite_chain,
                           generator_block)
import qso_reps.wigner as wigner
from qso_reps.wigner import (FactorizationError, VectorOperator,
                             _inverse_blocks, _pair_admissible)
from oracles import (dense_fit_pair, direct_sum, primed_inverse_cgc, scaled,
                     with_entry, with_forbidden_entry)

H = HalfInt
CTX = QContext(1.3)


def lab(n, twice_weight, kind=CLASSICAL, eps=None):
    return IrrepLabel(n, kind, tuple(H(t) for t in twice_weight), eps)


@pytest.fixture(scope="module")
def vop_so5_vec():
    return canonical_vector_operator(lab(5, (2, 0)), CTX)


@pytest.fixture(scope="module")
def vop_so5_21():
    return canonical_vector_operator(lab(5, (4, 2)), CTX)


def test_canonical_operator_covariance(vop_so5_21):
    report = check_vector_operator(vop_so5_21, CTX)
    assert report.all_passed
    assert report.max_residual <= 1e-10
    # the covariance scale has a floor of 1
    small = check_vector_operator(scaled(vop_so5_21, 1e-6), CTX)
    assert small.all_passed and {e.scale for e in small.entries} == {1.0}


def test_canonical_operator_last_component_is_top_generator(vop_so5_vec):
    from qso_reps import build_all_generators
    amb = lab(5, (2, 0))
    gens = build_all_generators(amb, CTX)
    assert np.array_equal(vop_so5_vec.components[3].dense(), gens[3].mat)


def test_block_sparsity_matches_branching(vop_so5_21):
    vop = vop_so5_21
    for bt in vop.blocks:
        for bs in vop.blocks:
            raw = max(float(np.abs(
                vop.components[k].dense()[bt.offset:bt.offset + bt.dim,
                                          bs.offset:bs.offset + bs.dim]).max())
                for k in range(vop.n))
            allowed = bt.label.m_top in branch_rows(bs.label.m_top, 4, CLASSICAL)
            if not allowed:
                assert raw <= 1e-12


def test_restriction_blocks_cover_space(vop_so5_21):
    vop = vop_so5_21
    assert sum(b.dim for b in vop.blocks) == vop.dim
    offsets = [b.offset for b in vop.blocks]
    assert offsets == sorted(offsets)


def test_primed_inverse_cgc_top_slot_reduces_to_closed_form():
    src_label = lab(4, (2, 0))
    basis = enumerate_patterns(src_label)
    tgt_label = src_label.with_weight((H(0), H(0)))
    tgt = enumerate_patterns(tgt_label).patterns[0]
    for src in basis.patterns:
        got = primed_inverse_cgc(4, tgt, src, CLASSICAL, None, CTX)
        if src.row(3) != tgt.row(3) or src.m12 != tgt.m12:
            assert got == 0j
        else:
            want = top_cgc(src_label.m_top, tgt_label.m_top, src.row(3), 4,
                           CLASSICAL, CTX)
            assert got == pytest.approx(want, rel=1e-10)


def test_primed_inverse_cgc_zero_outside_branching():
    src_label = lab(4, (2, 0))
    src = enumerate_patterns(src_label).patterns[0]
    far_label = src_label.with_weight((H(4), H(2)))
    far = enumerate_patterns(far_label).patterns[0]
    assert primed_inverse_cgc(4, far, src, CLASSICAL, None, CTX) == 0j


def _plus_chain_tables(src_label, m_tgt, aux, ctx):
    """Primed inverse tables of one usable auxiliary weight, computed in
    the (target, source) orientation: the "+" chain run on the transposed
    top-generator block, over its own normalising ratio."""
    target = src_label.with_weight(m_tgt)
    rows, cols = (enumerate_patterns(lbl).patterns
                  for lbl in (target, src_label))
    top = generator_block(aux, aux.n - 1,
                          {extend_pattern(aux.m_top, p): i
                           for i, p in enumerate(rows)},
                          [extend_pattern(aux.m_top, p) for p in cols],
                          ctx).dense()
    chain = dict(composite_chain(
        top, [g.nonzeros for g in build_all_generators(target, ctx)],
        [g.nonzeros for g in build_all_generators(src_label, ctx)], "+", ctx))
    closed = top_table(src_label, target, ctx)
    j, i = np.argwhere(closed.T)[0]
    mu = top[j, i] / closed[i, j]
    return {k: block / mu for k, block in chain.items()}


def test_primed_inverse_cgc_aux_independence():
    # every usable auxiliary weight's "+" chain gives the primed inverse
    # tables `_inverse_blocks` takes from the forward blocks, and
    # primed_inverse_cgc reads them
    for src_label in (lab(4, (2, 0)), lab(5, (4, 2)),
                      lab(4, (3, 1), NONCLASSICAL, (1, -1, 1))):
        basis = enumerate_patterns(src_label)
        for q in (1.3, 0.7, 2.5):
            ctx = QContext(q)
            for m_tgt in branch_rows(src_label.m_top, src_label.n,
                                     src_label.kind):
                _, found = admissible_aux(src_label, m_tgt, ctx, want=3)
                assert len(found) >= 2
                tables = _inverse_blocks(src_label, m_tgt, ctx)
                for aux, _, _ in found:
                    ref = _plus_chain_tables(src_label, m_tgt, aux, ctx)
                    assert sorted(ref) == sorted(tables)
                    for k, table in tables.items():
                        assert np.abs(table - ref[k]).max() <= 1e-10, (aux, k)
                if q != CTX.q:
                    continue
                tgt_basis = enumerate_patterns(src_label.with_weight(m_tgt))
                for k, table in tables.items():
                    for (i, tgt), (j, src) in itertools.product(
                            enumerate(tgt_basis.patterns[:2]),
                            enumerate(basis.patterns[:2])):
                        assert primed_inverse_cgc(
                            k, tgt, src, src_label.kind, src_label.eps,
                            ctx) == table[i, j]


def test_reduced_elements_so5_vector(vop_so5_vec):
    red = reduced_matrix_elements(vop_so5_vec, CTX)
    keys = set(red.entries)
    assert ((H(2), H(0)), 0, (H(0), H(0)), 0) in keys
    assert ((H(0), H(0)), 0, (H(2), H(0)), 0) in keys
    assert all(e.residual <= 1e-8 for e in red.entries.values())
    assert all(v <= 1e-10 for v in red.forbidden.values())
    for entry in red.entries.values():
        assert entry.first_ratio == pytest.approx(entry.value, rel=1e-8)


def test_reduced_elements_scaling_covariance(vop_so5_vec):
    red = reduced_matrix_elements(vop_so5_vec, CTX)
    red3 = reduced_matrix_elements(scaled(vop_so5_vec, 3.0), CTX)
    for key, entry in red.entries.items():
        assert red3.entries[key].value == pytest.approx(3.0 * entry.value)
        assert red3.entries[key].residual <= 1e-10


def test_reduced_elements_nonclassical():
    for eps in ((1, 1, 1, 1), (1, -1, 1, -1)):
        vop = canonical_vector_operator(
            lab(5, (3, 1), NONCLASSICAL, eps), CTX)
        assert check_vector_operator(vop, CTX).all_passed
        red = reduced_matrix_elements(vop, CTX)
        assert red.entries
        assert all(e.residual <= 1e-8 for e in red.entries.values())
        # diagonal pairs exist through the sign-flip-free branch
        assert ((H(3), H(1)), 0, (H(3), H(1)), 0) in red.entries


def test_multiplicity_direct_sum(vop_so5_vec):
    combined = direct_sum(vop_so5_vec, vop_so5_vec)
    assert check_vector_operator(combined, CTX).all_passed
    svals = {(b.label.m_top, b.s) for b in combined.blocks}
    assert ((H(2), H(0)), 0) in svals and ((H(2), H(0)), 1) in svals
    red = reduced_matrix_elements(combined, CTX)
    base = reduced_matrix_elements(vop_so5_vec, CTX)
    # block-diagonal sums have no cross-multiplicity coupling
    for key, entry in red.entries.items():
        m_t, s_t, m_s, s_s = key
        if s_t != s_s:
            assert abs(entry.value) <= 1e-12
        else:
            assert entry.value == pytest.approx(
                base.entries[(m_t, 0, m_s, 0)].value, rel=1e-10)


def test_multiplicity_mixing_matrix(vop_so5_vec):
    # V = M (x) V0 on two copies of the same space realises a vector
    # operator whose reduced elements factor through M
    base = vop_so5_vec
    mix = np.array([[1.0, 2.0], [0.0, 1.0]])
    eye = np.eye(2)
    gens = tuple(np.kron(eye, g.dense()) for g in base.gens)
    comps = tuple(np.kron(mix, v.dense()) for v in base.components)
    doubled = direct_sum(base, base)
    vop = VectorOperator(base.n, doubled.blocks, tuple(map(Sparse.of, gens)),
                         tuple(map(Sparse.of, comps)))
    assert check_vector_operator(vop, CTX).all_passed
    red = reduced_matrix_elements(vop, CTX)
    base_red = reduced_matrix_elements(base, CTX)
    for key, entry in red.entries.items():
        m_t, s_t, m_s, s_s = key
        want = mix[s_t, s_s] * base_red.entries[(m_t, 0, m_s, 0)].value
        assert entry.value == pytest.approx(want, abs=1e-10)


def test_cross_kind_direct_sum_is_silent():
    classical = canonical_vector_operator(lab(5, (2, 0)), CTX)
    nonclassical = canonical_vector_operator(
        lab(5, (3, 1), NONCLASSICAL, (1, 1, 1, 1)), CTX)
    combined = direct_sum(classical, nonclassical)
    red = reduced_matrix_elements(combined, CTX)
    for key, raw in red.forbidden.items():
        m_t, s_t, m_s, s_s = key
        assert raw <= 1e-10
    # at least one forbidden pair spans the two sectors
    kinds = {(b.label.kind, b.label.m_top) for b in combined.blocks}
    assert len({k for k, _ in kinds}) == 2


def test_trivial_ambient_chain_closes_on_zero():
    # with vanishing ambient generators the covariance chain forces every
    # component to zero, and the zero family passes
    label = lab(2, (0,))
    basis = enumerate_patterns(label)
    z = np.zeros((1, 1), dtype=complex)
    z = Sparse.of(z)
    vop = VectorOperator(2, (), (z,), (z, z))
    assert check_vector_operator(vop, CTX).all_passed


def test_canonical_operator_needs_ambient_rank_three():
    for ambient in (lab(2, (2,)), lab(2, (0,))):
        with pytest.raises(ValidationError, match="rank >= 3"):
            canonical_vector_operator(ambient, CTX)


def test_covariance_degenerates_to_commutator_near_one():
    ctx = QContext(1.0 + 1e-6)
    vop = canonical_vector_operator(lab(4, (2, 0)), ctx)
    for j in range(2, vop.n + 1):
        t, low, high = (m.dense() for m in (vop.gens[j - 2],
                                            *vop.components[j - 2:j]))
        plain = low @ t - t @ low
        assert np.abs(plain - high).max() <= 1e-4


def test_distinct_eps_sectors_are_silent():
    a = canonical_vector_operator(
        lab(5, (3, 1), NONCLASSICAL, (1, 1, 1, 1)), CTX)
    b = canonical_vector_operator(
        lab(5, (3, 1), NONCLASSICAL, (1, 1, -1, 1)), CTX)
    combined = direct_sum(a, b)
    red = reduced_matrix_elements(combined, CTX)
    cross = [(k, v) for k, v in red.forbidden.items()]
    assert cross and all(v <= 1e-10 for _, v in cross)
    eps_seen = {b.label.eps for b in combined.blocks}
    assert len(eps_seen) == 2


def test_factorization_error_on_broken_operator(vop_so5_vec):
    comps = [v.dense() for v in vop_so5_vec.components]
    broken = comps[0].copy()
    broken[0, -1] += 0.5
    broken_vop = VectorOperator(vop_so5_vec.n, vop_so5_vec.blocks,
                                vop_so5_vec.gens,
                                tuple(map(Sparse.of, [broken] + comps[1:])))
    with pytest.raises(FactorizationError):
        reduced_matrix_elements(broken_vop, CTX)


def test_forbidden_pair_entry_is_a_factorization_error(vop_so5_21):
    # decided from the stored nonzeros: an entry far below every float
    # tolerance still fails, and the covariance check does not see it
    red = reduced_matrix_elements(vop_so5_21, CTX)
    assert red.forbidden and set(red.forbidden.values()) == {0.0}
    broken, key = with_forbidden_entry(vop_so5_21, 1e-30)
    assert key in red.forbidden
    assert check_vector_operator(broken, CTX).all_passed
    with pytest.raises(FactorizationError) as exc:
        reduced_matrix_elements(broken, CTX)
    assert str(exc.value) == f"matrix element 1.000e-30 on forbidden pair {key}"
    broken, _ = with_forbidden_entry(vop_so5_21, np.nan)
    with pytest.raises(FactorizationError, match="nan on forbidden pair"):
        reduced_matrix_elements(broken, CTX)


def test_reduced_json_shape(capsys):
    # the CLI's JSON for the ambient of vop_so5_vec
    assert cli_main(["reduced", "--algebra", "4", "--ambient-weight", "1,0",
                     "--q", "1.3"]) == 0
    pairs = json.loads(capsys.readouterr().out)["results"][0]["pairs"]
    red = reduced_matrix_elements(canonical_vector_operator(lab(5, (2, 0)),
                                                            CTX), CTX)
    assert len(pairs) == len(red.entries)
    assert set(pairs[0]) == {"m_target", "s_target", "m_source",
                             "s_source", "re", "im", "residual"}


def test_nan_matrix_element_fails_the_factorisation():
    vop = canonical_vector_operator(lab(4, (4, 2)), CTX)
    components = [c.dense() for c in vop.components]
    components[0][0, 0] = np.nan
    broken = VectorOperator(vop.n, vop.blocks, vop.gens,
                            tuple(map(Sparse.of, components)))
    with pytest.raises(FactorizationError):
        reduced_matrix_elements(broken, CTX)


def test_vanishing_inverse_coefficients_are_a_factorization_error(monkeypatch):
    import qso_reps.wigner as wigner

    real = wigner._inverse_blocks
    monkeypatch.setattr(wigner, "_inverse_blocks", lambda *args: {
        k: 0.0 * block for k, block in real(*args).items()})
    ctx = QContext(1.3)
    vop = canonical_vector_operator(lab(4, (2, 0)), ctx)
    with pytest.raises(FactorizationError,
                       match="all inverse coefficients vanish on pair"):
        reduced_matrix_elements(vop, ctx)


NC = NONCLASSICAL
FIT_AMBIENTS = [
    lab(4, (4, 2)), lab(4, (3, 1), NC, (1, -1, 1)),
    lab(5, (4, 2)), lab(5, (5, 1), NC, (1, -1, 1, -1)),
    lab(6, (6, 4, 2)), lab(6, (7, 3, 1), NC, (-1, -1, -1, -1, 1)),
]


def _bits(z: complex) -> bytes:
    return np.array([z], dtype=complex).tobytes()


def _admissible_pairs(vop):
    for bt in vop.blocks:
        for bs in vop.blocks:
            if _pair_admissible(bt, bs):
                yield bt, bs, (bt.label.m_top, bt.s, bs.label.m_top, bs.s)


@pytest.mark.parametrize("ambient", FIT_AMBIENTS, ids=repr)
def test_fit_matches_the_dense_oracle(ambient):
    for q in (0.7592, 1.3, 2.5):
        ctx = QContext(q)
        vop = canonical_vector_operator(ambient, ctx)
        red = reduced_matrix_elements(vop, ctx)
        want = {key: dense_fit_pair(vop, bt, bs, key, ctx)
                for bt, bs, key in _admissible_pairs(vop)}
        assert list(red.entries) == list(want)
        for key, got in red.entries.items():
            ref = want[key]
            assert got.contributing == ref.contributing, (q, key)
            assert _bits(got.first_ratio) == _bits(ref.first_ratio), (q, key)
            assert abs(got.value - ref.value) <= 1e-15 * abs(ref.value), (q, key)
            # the residual is already relative to the pair's largest ratio
            assert abs(got.residual - ref.residual) <= 1e-15, (q, key)


@pytest.mark.parametrize("ambient", FIT_AMBIENTS[4:], ids=repr)
def test_fit_value_does_not_depend_on_the_order_of_the_terms(ambient,
                                                             monkeypatch):
    # shuffle the basis of both blocks of the largest pair, in the operator
    # and in the coefficient tables: the fit meets the same nonzeros in
    # another order, and the exactly rounded sums give the same bits
    ctx = QContext(1.3)
    vop = canonical_vector_operator(ambient, ctx)
    bt, bs, key = max(_admissible_pairs(vop),
                      key=lambda p: p[0].dim * p[1].dim)
    value = wigner._fit_pair(vop, bt, bs, key, ctx).value
    rng = np.random.default_rng(0)
    perm_t, perm_s = rng.permutation(bt.dim), rng.permutation(bs.dim)
    rows, cols = np.arange(vop.dim), np.arange(vop.dim)
    rows[bt.offset:bt.offset + bt.dim] = bt.offset + perm_t
    cols[bs.offset:bs.offset + bs.dim] = bs.offset + perm_s
    shuffled = VectorOperator(vop.n, vop.blocks, vop.gens, tuple(
        Sparse.of(v.dense()[rows][:, cols]) for v in vop.components))
    real = wigner._inverse_blocks
    monkeypatch.setattr(wigner, "_inverse_blocks", lambda *args: {
        k: table[perm_t][:, perm_s] for k, table in real(*args).items()})
    got = wigner._fit_pair(shuffled, bt, bs, key, ctx)
    assert _bits(got.value) == _bits(value)


def _admissible_entries(vop, ctx):
    """The first admissible pair, and one position of component 1 on it
    where its slot-1 coefficient is nonzero and one where it is 0."""
    bt, bs, key = next(_admissible_pairs(vop))
    table = _inverse_blocks(bs.label, bt.label.m_top, ctx)[1]
    live, silent = (np.argwhere(mask)[0] + (bt.offset, bs.offset)
                    for mask in (table != 0, table == 0))
    return key, live, silent


@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(np.inf, np.inf),
                                   np.nan])
def test_non_finite_raw_element_is_a_factorization_error(vop_so5_21, value):
    key, *positions = _admissible_entries(vop_so5_21, CTX)
    for i, j in positions:
        broken = with_entry(vop_so5_21, i, j, value)
        # as the command line runs its checks
        with np.errstate(all="ignore"), pytest.raises(
                FactorizationError, match=re.escape(str(key))):
            reduced_matrix_elements(broken, CTX)


def test_overflowing_sum_is_a_factorization_error(vop_so5_21):
    # finite products whose exact sum overflows: math.fsum would raise
    # OverflowError, the fit fails as on any value that is not finite
    bt, bs, key = next(_admissible_pairs(vop_so5_21))
    table = _inverse_blocks(bs.label, bt.label.m_top, CTX)[1]
    broken = vop_so5_21
    big = np.argwhere(np.abs(table) >= np.abs(table).max() / 2)[:2]
    for i, j in big:  # each product conj(d) r is |d| * 1e308
        d = table[i, j]
        broken = with_entry(broken, bt.offset + i, bs.offset + j,
                            1e308 * d / abs(d))
    assert abs(table[tuple(big[0])]) + abs(table[tuple(big[1])]) > 1.8
    with np.errstate(all="ignore"), pytest.raises(
            FactorizationError, match=re.escape(str(key))):
        reduced_matrix_elements(broken, CTX)


def test_infinite_raw_element_in_reduced_exits_one(capsys, monkeypatch):
    # the covariance check is bypassed, so the fit meets the inf
    import qso_reps.cli as cli

    real = cli.canonical_vector_operator
    keys = []

    def corrupt(ambient, ctx):
        vop = real(ambient, ctx)
        key, live, _ = _admissible_entries(vop, ctx)
        keys.append(key)
        return with_entry(vop, *live, np.inf)

    monkeypatch.setattr(cli, "canonical_vector_operator", corrupt)
    monkeypatch.setattr(cli, "check_vector_operator",
                        lambda vop, ctx: check_vector_operator(
                            canonical_vector_operator(lab(5, (4, 2)), ctx), ctx))
    code = cli_main(["reduced", "--algebra", "4", "--ambient-weight", "2,1",
                     "--q", "1.3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and len(keys) == 1
    assert err == ("numerical check failed: non-constant ratio on pair "
                   f"{keys[0]}: spread nan\n")
