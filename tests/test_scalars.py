from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.scalars import (
    FORMAL,
    ExactDivisionError,
    FormalScalar,
    ModeError,
    SpecScalar,
    SpecializedMode,
    qbinom,
    qpow,
    specialize,
)

scalars = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(
    FormalScalar
)


def test_qpow_identity():
    assert qpow(0) == FormalScalar.from_int(1)
    assert qpow(2) == FormalScalar({2: 1})
    assert qpow(3) * qpow(-5) == qpow(-2)


def test_specialize_examples():
    s = specialize(qpow(1), 3)
    assert (s.a, s.b) == (0, 1)
    s = specialize(FormalScalar.from_int(1), 5)
    assert (s.a, s.b) == (1, 0)
    s = specialize(qpow(2) + qpow(-2), 3)
    assert (s.a, s.b) == (Fraction(10, 3), 0)
    s = specialize(qpow(1) - qpow(-1), 3)
    assert (s.a, s.b) == (0, Fraction(2, 3))


@given(scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_specialize_is_multiplicative(x, y):
    for p in (3, 5, 7):
        assert specialize(x * y, p) == specialize(x, p) * specialize(y, p)
        assert specialize(x + y, p) == specialize(x, p) + specialize(y, p)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)


def test_qbinom_base_cases():
    assert qbinom(5, 0, 3) == FormalScalar.from_int(1)
    assert qbinom(2, 1, 2) == qpow(2) + qpow(-2)


def test_qbinom_derived_value():
    # [4 2] at q^{d/2} with d=2: evaluate the defining rational expression
    expected = FormalScalar({8: 1, 4: 1, 0: 2, -4: 1, -8: 1})
    assert qbinom(4, 2, 2) == expected


@pytest.mark.parametrize("d", [1, 2])
def test_qbinom_symmetry_and_bar(d):
    for n in range(9):
        for k in range(n + 1):
            b = qbinom(n, k, d)
            assert b == qbinom(n, n - k, d)
            assert b == b.bar()


@pytest.mark.parametrize("d", [1, 2])
def test_qbinom_pascal(d):
    # [n k] = q^{dk/2} [n-1 k] + q^{-d(n-k)/2} [n-1 k-1]
    for n in range(1, 9):
        for k in range(1, n):
            lhs = qbinom(n, k, d)
            rhs = qpow(d * k) * qbinom(n - 1, k, d) + qpow(-d * (n - k)) * qbinom(
                n - 1, k - 1, d
            )
            assert lhs == rhs


def test_exact_division_failure():
    with pytest.raises(ExactDivisionError):
        (qpow(2) + 1).exact_div(FormalScalar.from_int(2))


def test_render_formal():
    s = qpow(2) + 2 - qpow(-2)
    assert s.render() == "q + 2 - q^{-1}"
    assert qpow(1).render() == "q^{1/2}"
    assert (qpow(4) * 3).render() == "3*q^{2}"


def test_spec_scalar_field_ops():
    x = SpecScalar(3, Fraction(1, 3), 2)
    y = x.inverse()
    assert x * y == SpecScalar(3, 1, 0)
    assert x.is_p_integral()
    assert not SpecScalar(3, Fraction(1, 2), 0).is_p_integral()


def test_spec_scalar_mul_rule():
    p = 5
    x = SpecScalar(p, 2, 3)
    y = SpecScalar(p, -1, 4)
    z = x * y
    assert z == SpecScalar(p, 2 * -1 + 3 * 4 * p, 2 * 4 + 3 * -1)


def test_bar_not_defined_specialized():
    with pytest.raises(ModeError):
        SpecScalar(3, 1, 1).bar()


def test_monomial_recognition():
    mode = SpecializedMode(3)
    assert mode.qpow(3).monomial_data() == (3, 1)
    assert mode.qpow(-4).monomial_data() == (-4, 1)
    assert (-1 * mode.qpow(2)).monomial_data() == (2, -1)
    assert (mode.from_int(2)).monomial_data() is None
    assert FORMAL.qpow(5).monomial_data() == (5, 1)


@pytest.mark.parametrize("p", [4, 1, 0, 9])
def test_specialized_mode_refuses_non_prime(p):
    with pytest.raises(ValueError, match="not a prime"):
        SpecializedMode(p)
