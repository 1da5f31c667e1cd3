"""The formal torus product and right division on packed integers, checked
against the term-by-term reference (monomial_mul plus dict FormalScalar
arithmetic) and against the specialized torus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import catalog
from qcluster import torus as torus_mod
from qcluster.scalars import (FORMAL, ExactDivisionError, FormalScalar, SpecializedMode, pack,
                              specialize, unpack)
from qcluster.torus import Torus, ToricElement, div_right, monomial_mul

KRON_LAM = (
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, 0, -2),
    (0, 1, 2, 0),
)
TORI = {
    "kronecker": Torus(KRON_LAM, FORMAL),
    "a3": catalog.get("a3").model.torus(FORMAL),
}
BIG = 2 ** 200

coeffs = st.dictionaries(st.integers(-40, 40), st.integers(-BIG, BIG),
                         min_size=1, max_size=4).map(FormalScalar).filter(bool)


small = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                        min_size=1, max_size=3).map(FormalScalar).filter(bool)


def elements(T, max_terms=4):
    exps = st.tuples(*[st.integers(-2, 2)] * T.m)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: ToricElement(T, terms))


def reference_mul(x, y):
    """x*y term by term: one monomial_mul and dict FormalScalar products per
    pair of terms."""
    out = {}
    for e, ce in x.terms.items():
        for f, cf in y.terms.items():
            tw, g = monomial_mul(x.torus, e, f)
            c = ce * cf * tw
            out[g] = out[g] + c if g in out else c
    return {g: c for g, c in out.items() if c}


@given(st.integers(-40, 40),
       st.lists(st.one_of(st.just(0), st.integers(-BIG, BIG)), max_size=30),
       st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_pack_round_trip(lo, digits, extra):
    """Round trip, also across runs of zero digits, which unpack skips in
    one step."""
    s = FormalScalar({lo + i: c for i, c in enumerate(digits)})
    if not s:
        return
    width = max(abs(c) for c in digits).bit_length() + 1
    for w in (width, width + extra):
        assert unpack(*pack(s, w), w) == s


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_matches_reference(name, data):
    T = TORI[name]
    x = data.draw(elements(T))
    y = data.draw(elements(T))
    assert (x * y).terms == reference_mul(x, y)


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_square_matches_general_product(name, data):
    """x*x on one object takes the unordered-pair square; a copy of x takes
    the general product."""
    T = TORI[name]
    x = data.draw(elements(T))
    assert (x * x).terms == (x * ToricElement(T, dict(x.terms))).terms == reference_mul(x, x)


def test_merged_square_pairs():
    """The square adds each unordered pair {X^e, X^f} once, as
    n + (n << W*|L(e, f)|) at the lower twist.  Pairs with L(e, f) = 0, odd
    and even L(e, f), both parities in one coefficient, and a cross pair
    that partly cancels the diagonal pair landing on the same exponent."""
    T = TORI["kronecker"]
    e0, e1, e2, e3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (2, 0, 0, 0)
    assert monomial_mul(T, e0, e1)[0] == FormalScalar({0: 1})      # L = 0
    assert monomial_mul(T, e0, e2)[0] == FormalScalar({-1: 1})     # L odd
    h, d = e0, e2    # (h + d) + (h - d) = 2h, with L(h + d, h - d) = 2L(d, h) = 2
    plus, minus = tuple(map(sum, zip(h, d))), tuple(a - b for a, b in zip(h, d))
    assert monomial_mul(T, plus, minus)[0] == FormalScalar({2: 1})
    t = FormalScalar
    cases = [
        {e0: t({0: 1, 1: -2}), e1: t({3: 5})},
        {e0: t({0: 1}), e2: t({-1: 3, 2: -1})},
        {e0: t({0: 1, 1: 1}), e2: t({0: -1, 1: 1}), e3: t({4: 2})},
        # ab(t^2 + t^-2) at X^(2h) partly cancels c^2 = t^-2 + 2 + t^2
        {plus: t({0: 1}), minus: t({0: -1}), h: t({-1: 1, 1: 1})},
    ]
    for terms in cases:
        x = ToricElement(T, terms)
        assert (x * x).terms == reference_mul(x, x)
    x = ToricElement(T, cases[-1])
    assert (x * x).terms[tuple(2 * a for a in h)] == FormalScalar({0: 2})


def reference_power(x, n):
    out = x.torus.one()
    for _ in range(n):
        out = ToricElement(x.torus, reference_mul(out, x))
    return out


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_power_matches_repeated_product(name, data):
    T = TORI[name]
    x = data.draw(elements(T, max_terms=3))
    for n in range(5):
        assert x ** n == reference_power(x, n)


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(-9, 9), sign=st.sampled_from([1, -1]),
       n=st.integers(1, 4))
def test_negative_power_of_monomial(name, data, k, sign, n):
    T = TORI[name]
    e = data.draw(st.tuples(*[st.integers(-2, 2)] * T.m))
    x = T.monomial(e, FormalScalar({k: sign}))
    assert x ** -n == reference_power(x.inverse(), n)
    assert x ** -n * x ** n == T.one()


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_div_right_inverts_product(name, data):
    T = TORI[name]
    c = data.draw(elements(T))
    b = data.draw(elements(T).filter(bool))
    assert div_right(c * b, b) == c


def reference_product(T, half, factors):
    """q^(half/2) * x_1^p_1 * ... by reference_mul, one factor at a time."""
    out = T.q(half)
    for x, power in factors:
        for _ in range(abs(power)):
            out = ToricElement(T, reference_mul(out, x if power > 0 else x.inverse()))
    return out


def reference_numerator(T, products):
    out = T.zero()
    for half, factors in products:
        out = out + reference_product(T, half, factors)
    return out


def single_terms(T):
    return st.builds(lambda e, k, c: T.monomial(e, FormalScalar({k: c})),
                     st.tuples(*[st.integers(-2, 2)] * T.m), st.integers(-9, 9),
                     st.sampled_from([1, -1, 2, -3]))


def numerator_products(T, b):
    """Pairs (product, quotient) with product = quotient * b: products
    (half, factors) ending in b or b^2, whose other factors are single terms
    (unit ones also to the power -1) and general elements to a power from 0
    to 3 (a square, then a product); and plain elements c*b with mixed
    signs, whose l1 can cancel, as the one product (0, ((c*b, 1),))."""
    factor = st.one_of(
        st.tuples(single_terms(T), st.integers(1, 2)),
        st.tuples(single_terms(T).filter(_is_unit), st.just(-1)),
        st.tuples(elements(T, max_terms=3).filter(bool), st.integers(0, 3)))
    general = st.builds(
        lambda half, fs, p: ((half, (*fs, (b, p))), reference_product(T, half, (*fs, (b, p - 1)))),
        st.integers(-6, 6), st.lists(factor, max_size=3), st.integers(1, 2))
    plain = elements(T, max_terms=3).map(
        lambda c: ((0, ((ToricElement(T, reference_mul(c, b)), 1),)), c))
    return st.lists(st.one_of(general, plain), min_size=1, max_size=3)


def _is_unit(x):
    (s,) = x.terms.values()
    return abs(next(iter(s.terms.values()))) == 1


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_list_numerator_matches_reference(name, data):
    """div_right of a numerator given as products builds it packed, at one
    width for the whole division; the same numerator built term by term
    divides to the same quotient, the sum of the known quotients."""
    T = TORI[name]
    b = data.draw(elements(T, max_terms=3).filter(bool))
    pairs = data.draw(numerator_products(T, b))
    products = [product for product, _quotient in pairs]
    expected = T.zero()
    for _product, quotient in pairs:
        expected = expected + quotient
    assert div_right(products, b) == div_right(reference_numerator(T, products), b) == expected


def long_div(s, d):
    """s/d in Z[t, t^-1] by long division from the top, or None when it is
    inexact: an exact quotient's lowest power is min(s) - min(d)."""
    quot, rem = {}, dict(s.terms)
    top, low = max(d.terms), min(s.terms) - min(d.terms)
    while rem:
        k = max(rem) - top
        if k < low or rem[k + top] % d.terms[top]:
            return None
        c = quot[k] = rem[k + top] // d.terms[top]
        for j, v in d.terms.items():
            r = rem.pop(k + j, 0) - c * v
            if r:
                rem[k + j] = r
    return FormalScalar(quot)


@settings(max_examples=100, deadline=None)
@given(s=coeffs, k=st.integers(-40, 40), sign=st.sampled_from([1, -1]))
def test_exact_div_by_unit_matches_long_division(s, k, sign):
    assert s.exact_div(FormalScalar({k: sign})) == long_div(s, FormalScalar({k: sign}))


@settings(max_examples=100, deadline=None)
@given(s=small, d=small.filter(lambda d: d.monomial_data() is None
                                or d.monomial_data()[1] not in (1, -1)), exact=st.booleans())
def test_exact_div_by_non_unit(s, d, exact):
    if exact:
        s = s * d
    q = long_div(s, d)
    if q is None:
        with pytest.raises(ExactDivisionError):
            s.exact_div(d)
    else:
        assert s.exact_div(d) == q and q * d == s


def test_division_widens_partway(monkeypatch):
    """With x = X^(0,1,0,0), b = x^2 - x and c = x^6 + M(1 + x + x^2)^2, the
    product a = c*b has digits of size at most M and l1(a) = 6M + 2, so W
    starts at bit_length(M + ceil(l1(a)/l1(b))*1) + 1 = bit_length(4M + 1) + 1.
    That covers l1(c) only for nonnegative operands: here signs cancel in a,
    and l1(c) = 9M + 1.  The guard holds through x^6, M x^4 and 2M x^3 and
    fires at 3M x^2, when the quotient's l1 reaches 6M + 1 and the bound
    7M + 1 needs one more bit; the remainder M(1 + 2x + 3x^2)*b still has
    four entries then.  Given as a product list with q*y*b added, for
    y = X^(0,0,1,0), a keeps its exact bounds: W starts at
    bit_length((M + 1) + ceil((6M + 4)/2)) + 1 and doubles once."""
    T = TORI["kronecker"]
    calls = []
    repack = torus_mod._repack

    def spy(rem, width, new_width):
        calls.append((len(rem), width, new_width))
        repack(rem, width, new_width)

    monkeypatch.setattr(torus_mod, "_repack", spy)
    M = BIG - 2

    def poly(*cs):
        return ToricElement(T, {(0, k, 0, 0): FormalScalar({0: c}) for k, c in enumerate(cs)})

    b = poly(0, -1, 1)
    c = poly(M, 2 * M, 3 * M, 2 * M, M, 0, 1)
    a = c * b
    assert a == poly(0, -M, -M, -M, M, M, M, -1, 1)
    assert div_right(a, b) == c
    assert len(calls) == 1
    left, width, new_width = calls[0]
    assert width == (4 * M + 1).bit_length() + 1 < new_width == 2 * width
    assert (7 * M + 1).bit_length() + 1 > width
    assert left == 4   # a less (x^6 + M x^4 + 2M x^3)*b
    calls.clear()
    y = T.monomial((0, 0, 1, 0))
    assert div_right([(0, ((a, 1),)), (2, ((y, 1), (b, 1)))], b) == c + T.q(2) * y
    width = (4 * M + 3).bit_length() + 1
    assert [call[1:] for call in calls] == [(width, 2 * width)]


def small_elements(T):
    exps = st.tuples(*[st.integers(-2, 2)] * T.m)
    return st.dictionaries(exps, small, max_size=4).map(lambda terms: ToricElement(T, terms))


@pytest.mark.parametrize("p", [3, 5])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_specialize_commutes_with_product(p, data):
    T = TORI["kronecker"]
    Ts = Torus(KRON_LAM, SpecializedMode(p))
    x = data.draw(small_elements(T))
    y = data.draw(small_elements(T))

    def spec(z):
        return ToricElement(Ts, {e: specialize(c, p) for e, c in z.terms.items()})

    assert spec(x * y) == spec(x) * spec(y)


def test_both_parities_meet_and_partly_cancel():
    """x*y at g = X^(0,0,1,1) sums two products, (t^4 + 2t^5)(1 - t)t^(-2)
    and (-1 + t + t^2)t^2: t^2 cancels, t^4 partly cancels and t^3 doubles,
    so both parity parts of g are accumulated from two contributions."""
    T = TORI["kronecker"]
    e1, e2 = (0, 0, 1, 0), (0, 0, 0, 1)
    x = ToricElement(T, {e1: FormalScalar({4: 1, 5: 2}), e2: FormalScalar({0: -1, 1: 1, 2: 1})})
    y = ToricElement(T, {e2: FormalScalar({0: 1, 1: -1}), e1: FormalScalar({0: 1})})
    g = (0, 0, 1, 1)
    c1 = x.terms[e1] * y.terms[e2] * monomial_mul(T, e1, e2)[0]
    c2 = x.terms[e2] * y.terms[e1] * monomial_mul(T, e2, e1)[0]
    assert c1 == FormalScalar({2: 1, 3: 1, 4: -2})
    assert c2 == FormalScalar({2: -1, 3: 1, 4: 1})
    product = x * y
    assert product.terms == reference_mul(x, y)
    assert product.terms[g] == FormalScalar({3: 2, 4: -1})
    assert div_right(product, y) == x


def _count_calls(monkeypatch):
    """A list that records each call of the packing codec made through the
    torus module."""
    calls = []
    for name in ("pack", "unpack"):
        fn = getattr(torus_mod, name)

        def spy(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(torus_mod, name, spy)
    return calls


@pytest.mark.parametrize("name", sorted(TORI))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), h=st.integers(-9, 9))
def test_single_term_factor_is_relabelled(name, data, h):
    T = TORI[name]
    x = data.draw(elements(T))
    e = data.draw(st.tuples(*[st.integers(-2, 2)] * T.m))
    c = data.draw(st.integers(-5, 5).filter(bool))
    term = T.monomial(e, FormalScalar({h: c}))
    with pytest.MonkeyPatch.context() as m:
        calls = _count_calls(m)
        products = [(T.q(h), x, T.q(h) * x), (x, T.q(h), x * T.q(h)),
                    (T.one(), x, T.one() * x), (term, x, term * x), (x, term, x * term)]
    assert calls == []
    for left, right, product in products:
        assert product.terms == reference_mul(left, right)


@pytest.mark.parametrize("parity", [0, 1])
@given(lo=st.integers(-20, 20), digits=st.lists(st.integers(-BIG, BIG), min_size=1, max_size=30),
       extra=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_parity_uniform_coefficient_packs_in_q(parity, lo, digits, extra):
    """A coefficient of one parity spanning 2D half powers packs as one part
    of at most D + 1 digits at q = 2^W."""
    s = FormalScalar({2 * (lo + j) + parity: c for j, c in enumerate(digits)})
    if not s:
        return
    span = max(s.terms) - min(s.terms)
    width = max(map(abs, digits)).bit_length() + 1 + extra
    (part_parity, part_lo, n), = pack(s, width)
    assert part_parity == parity and 2 * part_lo + parity == min(s.terms)
    assert abs(n).bit_length() <= width * (span // 2 + 1)
    assert unpack((part_parity, part_lo, n), width) == s
