import math

import pytest
from hypothesis import given, strategies as st

from qso_reps import (HalfInt, QContext, ValidationError, q_bracket,
                      q_bracket_plus, q_power)

halfints = st.integers(min_value=-40, max_value=40).map(HalfInt)


def test_halfint_parse_and_repr():
    assert HalfInt.parse("3/2").twice == 3
    assert HalfInt.parse("-1/2").twice == -1
    assert HalfInt.parse("2").twice == 4
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(-4)) == "-2"
    with pytest.raises(ValidationError):
        HalfInt.parse("1/3")


def test_halfint_arithmetic():
    a = HalfInt(3)  # 3/2
    assert a + 1 == HalfInt(5)
    assert a - HalfInt(1) == 1
    assert -a == HalfInt(-3)
    assert abs(HalfInt(-3)) == a
    assert 2 * a == 3
    assert a < 2 and a > 1
    assert float(a) == 1.5
    assert HalfInt(4).is_integral and not a.is_integral


def test_halfint_hashes_as_the_int_it_equals():
    assert HalfInt(2) == 1 and hash(HalfInt(2)) == hash(1)
    assert {1: "a"}.get(HalfInt(2)) == "a"
    assert len({HalfInt(2), 1}) == 1
    assert hash(HalfInt(-2)) == hash(-1) == -2
    huge = 10 ** 400
    assert hash(HalfInt(2 * huge)) == hash(huge)
    assert hash(HalfInt(2 * huge + 1)) == hash(2 * huge + 1)
    assert {HalfInt(2 * huge): 0}.get(huge) == 0
    assert HalfInt(3) != 1 and HalfInt(3) != 2


def test_qcontext_validation():
    QContext(1.3)
    with pytest.raises(ValidationError):
        QContext(-2.0)
    with pytest.raises(ValidationError):
        QContext(1.0)
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValidationError, match="tol must be positive"):
            QContext(1.3, tol)


def test_bracket_values():
    assert q_bracket(2, QContext(2.0)) == pytest.approx(2.5)
    assert q_bracket(0, QContext(1.7)) == 0.0
    assert q_bracket(1, QContext(1.7)) == pytest.approx(1.0)
    assert q_bracket_plus(HalfInt(1), QContext(4.0)) == pytest.approx(2.0 / 3.0)


def test_power_values():
    ctx = QContext(4.0)
    assert q_power(0, ctx) == 1.0
    assert q_power(HalfInt(1), ctx) == pytest.approx(2.0)


@given(a=halfints, q=st.sampled_from([0.7, 1.3, 2.0]))
def test_antisymmetry_and_inverse_power(a, q):
    ctx = QContext(q)
    assert q_bracket(-a, ctx) == pytest.approx(-q_bracket(a, ctx), abs=1e-9)
    assert q_power(a, ctx) * q_power(-a, ctx) == pytest.approx(1.0)


@given(a=halfints, q=st.sampled_from([0.7, 1.3]))
def test_plus_bracket_even(a, q):
    ctx = QContext(q)
    assert q_bracket_plus(-a, ctx) == pytest.approx(q_bracket_plus(a, ctx))


@given(a=st.integers(min_value=-20, max_value=20).map(HalfInt),
       q=st.sampled_from([0.7, 1.3]))
def test_doubling_identity(a, q):
    ctx = QContext(q)
    lhs = q_bracket(2 * a, ctx)
    rhs = q_bracket(a, ctx) * q_bracket_plus(a, ctx) * (q - 1.0 / q)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("twice", range(1, 11))
def test_doubling_identity_at_samples(twice):
    ctx = QContext(1.3)
    a = HalfInt(twice)
    lhs = q_bracket(2 * a, ctx)
    rhs = q_bracket(a, ctx) * q_bracket_plus(a, ctx) * (ctx.q - 1.0 / ctx.q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_classical_limit():
    ctx = QContext(1.0 + 1e-6)
    for twice in range(-20, 21):
        a = HalfInt(twice)
        if twice == 0:
            assert q_bracket(a, ctx) == 0.0
        else:
            assert abs(q_bracket(a, ctx) - float(a)) <= 1e-4 * abs(float(a))


def test_bracket_symmetric_under_q_inversion():
    a = HalfInt(7)
    assert q_bracket(a, QContext(1.3)) == pytest.approx(
        q_bracket(a, QContext(1.0 / 1.3)), rel=1e-12)


def test_tolerance_helper():
    ctx = QContext(1.3, tol=1e-6)
    assert ctx.tolerance(100.0) == 1e-6 + 1e-6 * 100.0
    with pytest.raises(TypeError):  # every check states its scale
        ctx.tolerance()
