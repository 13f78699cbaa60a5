import json

import numpy as np
import pytest

from qso_reps import (CLASSICAL, NONCLASSICAL, HalfInt, IrrepLabel, QContext,
                      ValidationError, canonical_vector_operator,
                      check_vector_operator, direct_sum, enumerate_patterns,
                      primed_inverse_cgc, reduced_matrix_elements, top_cgc)
from qso_reps.cli import main as cli_main
from qso_reps.gtbasis import branch_rows
from qso_reps.wigner import FactorizationError, VectorOperator

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
    small = check_vector_operator(vop_so5_21.scaled(1e-6), CTX)
    assert small.all_passed and {e.scale for e in small.entries} == {1.0}


def test_canonical_operator_last_component_is_top_generator(vop_so5_vec):
    from qso_reps import build_all_generators
    amb = lab(5, (2, 0))
    gens = build_all_generators(amb, CTX)
    assert np.array_equal(vop_so5_vec.components[3], gens[3].mat)


def test_block_sparsity_matches_branching(vop_so5_21):
    vop = vop_so5_21
    for bt in vop.blocks:
        for bs in vop.blocks:
            raw = max(float(np.abs(
                vop.components[k][bt.offset:bt.offset + bt.dim,
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


def test_primed_inverse_cgc_aux_independence():
    from qso_reps.cgc import aux_candidates
    src_label = lab(4, (2, 0))
    basis = enumerate_patterns(src_label)
    tgt_label = src_label.with_weight((H(2), H(2)))
    tgt_basis = enumerate_patterns(tgt_label)
    values = {}
    count = 0
    for aux in aux_candidates(src_label, tgt_label.m_top)[:4]:
        try:
            vals = [primed_inverse_cgc(k, tgt, src, CLASSICAL, None, CTX, aux)
                    for k in (1, 2, 3)
                    for tgt in tgt_basis.patterns[:2]
                    for src in basis.patterns[:3]]
        except Exception:
            continue
        values[aux] = np.array(vals)
        count += 1
    assert count >= 2
    ref = next(iter(values.values()))
    for vals in values.values():
        assert np.allclose(vals, ref, atol=1e-10)


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
    red3 = reduced_matrix_elements(vop_so5_vec.scaled(3.0), CTX)
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
    gens = tuple(np.kron(eye, g) for g in base.gens)
    comps = tuple(np.kron(mix, v) for v in base.components)
    doubled = direct_sum(base, base)
    vop = VectorOperator(base.n, doubled.blocks, gens, comps)
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
        t = vop.gens[j - 2]
        plain = vop.components[j - 2] @ t - t @ vop.components[j - 2]
        assert np.abs(plain - vop.components[j - 1]).max() <= 1e-4


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
    comps = list(vop_so5_vec.components)
    broken = comps[0].copy()
    broken[0, -1] += 0.5
    broken_vop = VectorOperator(vop_so5_vec.n, vop_so5_vec.blocks,
                                vop_so5_vec.gens,
                                tuple([broken] + comps[1:]))
    with pytest.raises(FactorizationError):
        reduced_matrix_elements(broken_vop, CTX)


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
    components = [c.copy() for c in vop.components]
    components[0][0, 0] = np.nan
    broken = VectorOperator(vop.n, vop.blocks, vop.gens, tuple(components))
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
