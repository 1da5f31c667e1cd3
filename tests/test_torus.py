import random
from fractions import Fraction

import pytest

from qcluster import catalog
from qcluster.scalars import FORMAL, ModeError, SpecializedMode, SpecScalar, qpow
from qcluster.seeds import QuantumSeed
from qcluster.torus import (
    NonLaurentError,
    Torus,
    ToricElement,
    div_right,
    monomial_mul,
    pairing,
)

# the Kronecker skew form used throughout the golden tests
KRON_LAM = (
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, 0, -2),
    (0, 1, 2, 0),
)


@pytest.fixture
def T():
    return Torus(KRON_LAM, FORMAL)


def test_monomial_mul_kronecker(T):
    c, e = monomial_mul(T, (1, 0, 0, 0), (0, 0, 1, 0))
    assert c == qpow(-1)  # q^{-1/2}
    assert e == (1, 0, 1, 0)


def test_monomial_mul_identity_and_inverse(T):
    c, e = monomial_mul(T, (2, -1, 0, 3), (0, 0, 0, 0))
    assert c == qpow(0) and e == (2, -1, 0, 3)
    c, e = monomial_mul(T, (2, -1, 0, 3), (-2, 1, 0, -3))
    assert c == qpow(0) and e == (0, 0, 0, 0)


def test_unit_and_linearity(T):
    x = T.monomial((1, 0, 0, 0)) + T.monomial((0, 1, 0, 0))
    assert x * T.one() == x
    assert T.one() * x == x


def test_four_term_product(T):
    # product of the two cluster-variable expansions on the Kronecker model
    s1 = T.monomial((-1, 0, 1, 0)) + T.monomial((-1, 2, 0, 0))
    s2 = T.monomial((0, -1, 0, 0)) + T.monomial((2, -1, 0, 1))
    prod = s1 * s2
    expected = (
        T.monomial((-1, -1, 1, 0))
        + T.monomial((1, -1, 1, 1))
        + T.monomial((-1, 1, 0, 0))
        + T.monomial((1, 1, 0, 1), qpow(-2))
    )
    assert prod == expected


def test_commutation_rule(T):
    rng = random.Random(7)
    for _ in range(50):
        e = tuple(rng.randint(-3, 3) for _ in range(4))
        f = tuple(rng.randint(-3, 3) for _ in range(4))
        lhs = T.monomial(e) * T.monomial(f)
        rhs = T.q(2 * pairing(T.lam, e, f)) * (T.monomial(f) * T.monomial(e))
        assert lhs == rhs


def test_associativity_random(T):
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(3))
        lhs = (T.monomial(a) * T.monomial(b)) * T.monomial(c)
        rhs = T.monomial(a) * (T.monomial(b) * T.monomial(c))
        assert lhs == rhs


def test_bar_involution(T):
    x = T.monomial((1, 1, 0, 1), qpow(1))
    assert x.bar() == T.monomial((1, 1, 0, 1), qpow(-1))
    assert x.bar().bar() == x
    assert T.monomial((2, 0, 1, 0)).bar() == T.monomial((2, 0, 1, 0))


def test_bar_antiautomorphism(T):
    rng = random.Random(3)
    for _ in range(40):
        e = tuple(rng.randint(-2, 2) for _ in range(4))
        f = tuple(rng.randint(-2, 2) for _ in range(4))
        x = T.monomial(e, qpow(rng.randint(-2, 2)))
        y = T.monomial(f, qpow(rng.randint(-2, 2)))
        assert (x * y).bar() == y.bar() * x.bar()


def test_bar_specialized_errors():
    Ts = Torus(KRON_LAM, SpecializedMode(3))
    with pytest.raises(ModeError):
        Ts.monomial((1, 0, 0, 0)).bar()


def test_div_right_specialized_errors():
    Ts = Torus(KRON_LAM, SpecializedMode(3))
    x = Ts.monomial((1, 0, 0, 0))
    with pytest.raises(ModeError):
        div_right(x, x)


def test_specialize_specialized_errors(T):
    x = T.monomial((1, 0, 0, 0), qpow(1)).specialize(3)
    assert x == Torus(KRON_LAM, SpecializedMode(3)).monomial(
        (1, 0, 0, 0), SpecializedMode(3).qpow(1))
    with pytest.raises(ModeError):
        x.specialize(3)


def test_normal_order(T):
    # the normal-ordered frame monomials of the initial seed are the based
    # monomials X^c: the q-power prefactor cancels the ordering twist
    seed = QuantumSeed.initial(catalog.get("kronecker").model)
    assert seed.model.lam == KRON_LAM
    assert seed.frame_monomial((0, 0, 0, 0)) == T.one()
    assert seed.frame_monomial((0, 0, 1, 0)) == T.monomial((0, 0, 1, 0))
    for c in [(1, 1, 0, 1), (2, -1, 3, 0), (-1, 2, 0, 2)]:
        assert seed.frame_monomial(c) == T.monomial(c)


def test_normal_order_prefactor_matches_product(T):
    # X1*X2*X4 = q^{-1/2} X^{(1,1,0,1)} on the Kronecker form
    x = T.monomial((1, 0, 0, 0)) * T.monomial((0, 1, 0, 0)) * T.monomial((0, 0, 0, 1))
    assert x == T.monomial((1, 1, 0, 1), qpow(-1))


def test_inverse_monomial(T):
    x = T.monomial((1, 2, -1, 0), qpow(3))
    assert x * x.inverse() == T.one()
    assert x.inverse() * x == T.one()
    with pytest.raises(NonLaurentError):
        (T.one() + T.monomial((1, 0, 0, 0))).inverse()


def test_div_right_exact(T):
    a = T.monomial((-1, 0, 1, 0)) + T.monomial((-1, 2, 0, 0))
    b = T.monomial((0, -1, 0, 0)) + T.monomial((2, -1, 0, 1))
    prod = a * b
    assert div_right(prod, b) == a
    # division is side-sensitive: b*a is divisible by a on the right instead
    assert b * a != prod
    assert div_right(b * a, a) == b


def test_div_right_nonlaurent(T):
    a = T.one()
    b = T.one() + T.monomial((1, 0, 0, 0))
    with pytest.raises(NonLaurentError):
        div_right(a, b)


def test_div_right_leading_not_divisible(T):
    with pytest.raises(NonLaurentError, match="leading coefficient not divisible"):
        div_right(T.one(), 2 * T.one())


def general_loop(x, y):
    """x*y at q = p term by term: one monomial_mul and two scalar products
    per pair of terms, as the product does when neither factor is a single
    term."""
    out = {}
    for e, ce in x.terms.items():
        for f, cf in y.terms.items():
            tw, g = monomial_mul(x.torus, e, f)
            c = ce * cf * tw
            out[g] = out[g] + c if g in out else c
    return {g: c for g, c in out.items() if c}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_specialized_single_term_factor_is_relabelled(monkeypatch, p):
    """At q = p a product with a single-term factor c*X^e relabels the other
    factor: one scalar product per term once c*q^(tw/2) is formed for each
    twist tw, and the same element as the general loop."""
    Ts = Torus(KRON_LAM, SpecializedMode(p))
    for k in range(-30, 31):
        Ts.mode.qpow(k)    # warm the shared q-power cache
    rng = random.Random(p)

    def scalar():
        return SpecScalar(p, Fraction(rng.randint(-9, 9), rng.choice([1, 2, p])),
                          rng.choice([0, rng.randint(-3, 3)])) or Ts.mode.one()

    def exponent():
        return tuple(rng.randint(-2, 2) for _ in range(4))

    products = []
    real_mul = SpecScalar.__mul__

    def counting_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    for _ in range(40):
        x = ToricElement(Ts, {exponent(): scalar() for _ in range(rng.randint(0, 6))})
        term = Ts.monomial(exponent(), scalar())
        twists = {pairing(KRON_LAM, f, term.support()[0]) for f in x.terms}
        for left, right in ((x, term), (term, x)):
            monkeypatch.setattr(SpecScalar, "__mul__", counting_mul)
            product = left * right
            monkeypatch.setattr(SpecScalar, "__mul__", real_mul)
            assert product.terms == general_loop(left, right)
            assert len(products) == len(x.terms) + len(twists)
            products.clear()


def test_render_canonical(T):
    x = T.monomial((1, 1, 0, 1), qpow(-1)) + T.monomial((-1, 0, 1, 0))
    assert x.render() == "1 * X^(-1,0,1,0) + q^{-1/2} * X^(1,1,0,1)"
