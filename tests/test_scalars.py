from fractions import Fraction
from math import gcd

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


# Reference for SpecScalar: a + b*sqrt(p) held as two Fractions, with the
# arithmetic the class had before it moved to integer forms (A + B*sqrt(p))/D.

def ref_mul(p, x, y):
    return (x[0] * y[0] + x[1] * y[1] * p, x[0] * y[1] + x[1] * y[0])


def ref_inverse(p, x):
    norm = x[0] * x[0] - p * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def ref_monomial_data(p, x):
    for part, off in ((x[0], 0), (x[1], 1)):
        if part == 0:
            continue
        if x[1 - off] != 0:
            return None
        num, den = abs(part.numerator), part.denominator
        k = 0
        if den > 1:
            while den % p == 0 and den > 1:
                den //= p
                k -= 2
            if den != 1 or num != 1:
                return None
        else:
            while num % p == 0:
                num //= p
                k += 2
            if num != 1:
                return None
        return (k + off, 1 if part > 0 else -1)
    return None


def ref_is_p_integral(p, x):
    for part in x:
        den = part.denominator
        while den % p == 0:
            den //= p
        if den != 1:
            return False
    return True


def ref_render(p, x):
    a, b = x
    if not a and not b:
        return "0"
    parts = [str(a)] if a else []
    if b:
        mag = abs(b)
        body = "sqrt(%d)" % p if mag == 1 else "%s*sqrt(%d)" % (mag, p)
        if not parts:
            parts.append(body if b > 0 else "-" + body)
        else:
            parts.append(("+ " if b > 0 else "- ") + body)
    return " ".join(parts)


def rationals(p):
    """General rationals, and signed powers of p (where monomials live)."""
    return st.one_of(
        st.fractions(min_value=-200, max_value=200, max_denominator=60),
        st.builds(lambda s, k: s * Fraction(p) ** k,
                  st.sampled_from([-1, 0, 1]), st.integers(-4, 4)))


@st.composite
def spec_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    pair = st.tuples(rationals(p), rationals(p))
    return p, draw(pair), draw(pair), draw(st.integers(-9, 9)), draw(st.integers(-3, 3))


def assert_matches(s, p, x):
    assert (s.p, s.a, s.b) == (p, x[0], x[1])
    assert type(s.A) is type(s.B) is type(s.D) is int
    assert s.D > 0 and gcd(s.A, s.B, s.D) == 1


@given(spec_cases())
@settings(max_examples=400, deadline=None)
def test_spec_scalar_matches_fraction_reference(case):
    p, x, y, m, n = case
    X, Y = SpecScalar(p, *x), SpecScalar(p, *y)
    mm = (Fraction(m), Fraction(0))
    assert_matches(X, p, x)
    assert_matches(X + Y, p, (x[0] + y[0], x[1] + y[1]))
    assert_matches(X - Y, p, (x[0] - y[0], x[1] - y[1]))
    assert_matches(-X, p, (-x[0], -x[1]))
    assert_matches(X * Y, p, ref_mul(p, x, y))
    assert_matches(X + m, p, (x[0] + m, x[1]))
    assert_matches(m + X, p, (x[0] + m, x[1]))
    assert_matches(m - X, p, (m - x[0], -x[1]))
    assert_matches(X * m, p, ref_mul(p, x, mm))
    assert_matches(m * X, p, ref_mul(p, x, mm))
    if any(y):
        assert_matches(Y.inverse(), p, ref_inverse(p, y))
        assert_matches(X.exact_div(Y), p, ref_mul(p, x, ref_inverse(p, y)))
        power, base = (Fraction(1), Fraction(0)), y if n >= 0 else ref_inverse(p, y)
        for _ in range(abs(n)):
            power = ref_mul(p, power, base)
        assert_matches(Y**n, p, power)
    else:
        with pytest.raises(ExactDivisionError):
            Y.inverse()
        with pytest.raises(ExactDivisionError):
            X.exact_div(Y)
    assert (X == Y) == (x == y)
    assert (X == m) == (x == mm)
    if X == Y:
        assert hash(X) == hash(Y)
    if X == m:
        assert hash(X) == hash(m)
    assert hash(SpecScalar(p, m, 0)) == hash(m)
    assert bool(X) == any(x)
    assert X.monomial_data() == ref_monomial_data(p, x)
    assert X.is_p_integral() == ref_is_p_integral(p, x)
    assert X.render() == ref_render(p, x)


def test_spec_scalar_form_is_reduced():
    s = SpecScalar(3, Fraction(1, 6), Fraction(1, 4))
    assert (s.A, s.B, s.D) == (2, 3, 12)
    s = SpecScalar(3, 1, 1).inverse()  # (1 - sqrt(3)) / (1 - 3)
    assert (s.A, s.B, s.D) == (-1, 1, 2)
    s = SpecScalar(5, Fraction(1, 2), Fraction(1, 2)) + SpecScalar(5, Fraction(1, 2), 0)
    assert (s.A, s.B, s.D) == (2, 1, 2)
    assert specialize(qpow(-3) * 9, 3) == SpecScalar(3, 0, 1)
