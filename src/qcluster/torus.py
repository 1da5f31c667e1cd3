"""Based quantum torus: Z[q^(1/2),q^(-1/2)]-combinations of lattice monomials
X^e multiplied through a skew-symmetric integer form, X^e X^f = q^(L(e,f)/2) X^(e+f).

Right division is formal-only: t -> sqrt(p) is a ring homomorphism
(``ToricElement.specialize``), so a quotient at q = p is the specialization
of the formal one.

In formal mode the product and right division work on coefficients split
by parity, c = c_0(q) + t*c_1(q) with t = q^(1/2), each nonzero part
packed as an integer at q = 2^W (``scalars.pack``): an element becomes the
entries (g, parity) -> [lo, n].  Two entries (e, p1) -> [lo1, x] and
(f, p2) -> [lo2, y] multiply to the entry of parity (p1 + p2 + L(e,f)) mod 2
at X^(e+f), with lowest q power lo1 + lo2 + floor((p1 + p2 + L(e,f))/2) and
packed value x*y; sums are accumulated per (exponent, parity).  A factor
that is a single term c*t^k*X^e needs no product: it relabels the other
factor's exponents and half powers, before packing (``x * term``) or
after (a single term inside a product).  A square x*x (one object on both
sides, as in ``x ** 2``) multiplies each unordered pair of packed values
{(e, x), (f, y)} once: x*y at L(e,f) and y*x at L(f,e) = -L(e,f) have one
parity, so it adds n + (n << W*|L(e,f)|) once, at the lower twist.

The width W keeps every digit of every packed value strictly below
2^(W-1) in absolute value, so packed sums and products never carry
between digits; the digits of a part are a subset of the coefficient's,
so the bounds are those of the coefficients.  With l1 the
sum of the absolute values of all integer coefficients and linf the
largest of them:

- a product x*y has digits within min(l1(x)*linf(y), linf(x)*l1(y)), since
  each output digit takes at most one digit of x per digit of y and one of
  y per digit of x; over several factors, l1 of all but one factor times
  linf of that one.  The merged square adds the same contributions as the
  two ordered pairs, so its bound is l1(x)*linf(x);
- right division a/b keeps every remainder digit within
  linf(a) + l1(quotient so far) * linf(b).

One exchange step is one width.  ``div_right`` takes the numerator as a
list of products, bounds l1(a) and linf(a) by the sums of the products'
bounds, and starts at W = bit_length(linf(a) + ceil(l1(a)/l1(b)) * linf(b))
+ 1; it builds every product, square and relabelling straight into the
packed remainder at that W and decodes nothing but quotient coefficients.
It widens W (decode, re-encode) before the remainder bound reaches
2^(W-1).  When the factors and b have nonnegative coefficients, as exchange
numerators and quantum cluster variables do (positivity), nothing cancels,
so l1(a) = l1(c) * l1(b) and the start width covers the whole quotient;
with mixed signs the division may still widen partway.  Each division
step decodes the leading remainder coefficient and divides it by b's
leading one (``FormalScalar.exact_div``).  When that is a unit s*t^j, the
quotient coefficient is s*t^(-j) times the leading entries, so its packed
negative is those entries moved j half powers down and negated: nothing is
packed.
"""

from __future__ import annotations

from operator import add, mul, sub

from .scalars import FORMAL, ExactDivisionError, ModeError, SpecializedMode, pack, unpack

MAX_DIV_STEPS = 20000


class TorusError(ValueError):
    pass


class NonLaurentError(ArithmeticError):
    """A quotient that had to be a torus element is not one."""


def check_skew(lam):
    m = len(lam)
    for row in lam:
        if len(row) != m:
            raise TorusError("skew form must be square")
    for i in range(m):
        for j in range(m):
            if lam[i][j] != -lam[j][i]:
                raise TorusError("form is not skew-symmetric at (%d,%d)" % (i, j))


def pairing(lam, e, f) -> int:
    """The skew form e^T lam f."""
    total = 0
    for i, ei in enumerate(e):
        if not ei:
            continue
        row = lam[i]
        total += ei * sum(row[j] * fj for j, fj in enumerate(f) if fj)
    return total


class Torus:
    """Ambient data shared by toric elements: rank, skew form, scalar mode."""

    def __init__(self, lam, mode=FORMAL):
        lam = tuple(tuple(int(x) for x in row) for row in lam)
        check_skew(lam)
        self.lam = lam
        self.m = len(lam)
        self.mode = mode

    def zero(self) -> "ToricElement":
        return ToricElement(self, {})

    def one(self) -> "ToricElement":
        return self.monomial((0,) * self.m)

    def monomial(self, e, coeff=None) -> "ToricElement":
        e = tuple(int(x) for x in e)
        if len(e) != self.m:
            raise TorusError("exponent length %d != rank %d" % (len(e), self.m))
        if coeff is None:
            coeff = self.mode.one()
        return ToricElement(self, {e: coeff} if coeff else {})

    def q(self, halfpow: int) -> "ToricElement":
        """The scalar q^(halfpow/2) as a torus element."""
        return self.monomial((0,) * self.m, self.mode.qpow(halfpow))

    def compatible(self, other) -> bool:
        return self.m == other.m and self.lam == other.lam and self.mode == other.mode

    def __repr__(self):
        return "Torus(m=%d, mode=%s)" % (self.m, self.mode)


def monomial_mul(torus: Torus, e, f):
    """Product of two basis monomials: the scalar q^(L(e,f)/2) and e+f."""
    e = tuple(e)
    f = tuple(f)
    if len(e) != torus.m or len(f) != torus.m:
        raise TorusError("exponent length mismatch")
    tw = pairing(torus.lam, e, f)
    return torus.mode.qpow(tw), tuple(a + b for a, b in zip(e, f))


class ToricElement:
    """Finite formal sum of monomials X^e with exact scalar coefficients."""

    __slots__ = ("torus", "terms")

    def __init__(self, torus: Torus, terms):
        self.torus = torus
        self.terms = {e: c for e, c in terms.items() if c}

    def _check(self, other):
        if not isinstance(other, ToricElement):
            raise TorusError("expected a toric element, got %r" % (other,))
        if other.torus is not self.torus and not self.torus.compatible(other.torus):
            raise TorusError("elements live in different tori")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ToricElement):
            return NotImplemented
        return self.torus.compatible(other.torus) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return ToricElement(self.torus, terms)

    def __neg__(self):
        return ToricElement(self.torus, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.torus.mode.from_int(other))
        self._check(other)
        torus = self.torus
        if torus.mode.formal:
            return _formal_mul(self, other)
        if len(other.terms) == 1:
            return _spec_relabel(self, *next(iter(other.terms.items())), -1)
        if len(self.terms) == 1:
            return _spec_relabel(other, *next(iter(self.terms.items())), 1)
        mode_qpow = torus.mode.qpow
        terms: dict[tuple, object] = {}
        for e, ce in self.terms.items():
            row = _twist_row(torus.lam, e)
            for f, cf in other.terms.items():
                g = tuple(map(add, e, f))
                c = ce * cf * mode_qpow(sum(map(mul, row, f)))
                s = terms.get(g)
                terms[g] = c if s is None else s + c
        return ToricElement(torus, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.torus.mode.from_int(other))
        return NotImplemented

    def scale(self, scalar):
        return ToricElement(self.torus, {e: scalar * c for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.torus.one()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def inverse(self) -> "ToricElement":
        """Inverse of an invertible monomial c*X^e."""
        if len(self.terms) != 1:
            raise NonLaurentError("only monomials are invertible in the torus")
        e, c = next(iter(self.terms.items()))
        ne = tuple(-x for x in e)
        tw = pairing(self.torus.lam, e, ne)
        if isinstance(c, int):
            c = self.torus.mode.from_int(c)
        cinv = c.inverse() if hasattr(c, "inverse") else None
        if cinv is None:
            raise NonLaurentError("coefficient %r is not invertible" % (c,))
        return ToricElement(self.torus, {ne: cinv * self.torus.mode.qpow(-tw)})

    def bar(self) -> "ToricElement":
        """Coefficientwise t -> t^(-1); basis monomials are fixed."""
        if not self.torus.mode.formal:
            raise ModeError("bar involution is only available in formal mode")
        return ToricElement(self.torus, {e: c.bar() for e, c in self.terms.items()})

    def specialize(self, p: int) -> "ToricElement":
        """Coefficientwise t -> sqrt(p), into the torus at q = p on the same form."""
        if not self.torus.mode.formal:
            raise ModeError("only a formal element can be specialized")
        torus = Torus(self.torus.lam, SpecializedMode(p))
        return ToricElement(torus, {e: c.specialize(p) for e, c in self.terms.items()})

    def support(self):
        return sorted(self.terms)

    def leading(self):
        """Lex-maximal term (exponent, coefficient)."""
        if not self.terms:
            raise TorusError("zero element has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def render(self) -> str:
        """Canonical serialization: lex-sorted exponents, '<scalar> * X^(...)'."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            cs = c.render()
            if ("+" in cs or "- " in cs) and not cs.startswith("-"):
                cs = "(%s)" % cs
            elif cs.count(" ") > 0:
                cs = "(%s)" % cs
            parts.append("%s * X^(%s)" % (cs, ",".join(str(x) for x in e)))
        return " + ".join(parts)

    def __repr__(self):
        return self.render()


def _l1(s) -> int:
    return sum(map(abs, s.terms.values()))


def _linf(x: ToricElement) -> int:
    return max((max(map(abs, s.terms.values())) for s in x.terms.values()), default=0)


def _twist_row(lam, e):
    """The row e*lam, so that L(e, f) is its dot product with f."""
    row = [0] * len(lam)
    for i, ei in enumerate(e):
        if ei:
            for j, x in enumerate(lam[i]):
                row[j] += ei * x
    return row


def _single_term(x: ToricElement):
    """(e, k, c) when x is the single term c*t^k*X^e, else None."""
    if len(x.terms) != 1:
        return None
    (e, s), = x.terms.items()
    if len(s.terms) != 1:
        return None
    (k, c), = s.terms.items()
    return e, k, c


def _relabel(x: ToricElement, e, k: int, c: int, sign: int) -> ToricElement:
    """c*t^k*X^e times x (sign 1) or x times c*t^k*X^e (sign -1): each term
    v*X^f moves to X^(e+f) with its half powers shifted by k + sign*L(e, f),
    since L(f, e) = -L(e, f); nothing is packed."""
    row = _twist_row(x.torus.lam, e)
    return ToricElement(x.torus, {
        tuple(map(add, e, f)): v.times_term(k + sign * sum(map(mul, row, f)), c)
        for f, v in x.terms.items()})


def _spec_relabel(x: ToricElement, e, c, sign: int) -> ToricElement:
    """c*X^e times x (sign 1) or x times c*X^e (sign -1) at q = p: each term
    v*X^f moves to X^(e+f) times c*q^(sign*L(e, f)/2), one scalar product
    per term once c*q^(tw/2) is formed for each twist tw that occurs."""
    row = _twist_row(x.torus.lam, e)
    qpow = x.torus.mode.qpow
    scaled: dict[int, object] = {}
    terms = {}
    for f, v in x.terms.items():
        tw = sign * sum(map(mul, row, f))
        s = scaled.get(tw)
        if s is None:
            s = scaled[tw] = c * qpow(tw)
        terms[tuple(map(add, e, f))] = s * v
    return ToricElement(x.torus, terms)


def _add_packed(acc: dict, g, h: int, lo: int, n: int, width: int) -> None:
    """Add n*t^h*q^lo at X^g to the entry acc[(g, h mod 2)] = [lowest q
    power, packed value], aligning the two at the lower q power; an entry
    that cancels is dropped."""
    key = g, h & 1
    lo += h >> 1
    cur = acc.get(key)
    if cur is None:
        acc[key] = [lo, n]
        return
    if lo >= cur[0]:
        n = cur[1] + (n << width * (lo - cur[0]))
    else:
        n = (cur[1] << width * (cur[0] - lo)) + n
        cur[0] = lo
    if n:
        cur[1] = n
    else:
        del acc[key]


def _pack(x: ToricElement, width: int) -> dict:
    """x as packed entries (g, parity) -> [lo, n]."""
    return {(e, parity): [lo, n] for e, c in x.terms.items()
            for parity, lo, n in pack(c, width)}


def _decode(acc: dict, width: int) -> dict:
    """g -> FormalScalar from the entries (g, parity) -> [lo, n]; both
    parity parts of a g decode into one scalar."""
    parts: dict[tuple, list] = {}
    for (g, parity), (lo, n) in acc.items():
        parts.setdefault(g, []).append((parity, lo, n))
    return {g: unpack(*ps, width) for g, ps in parts.items()}


def _compose(lam, s, t):
    """The single term s*t of two single terms (e, k, c)."""
    (e1, k1, c1), (e2, k2, c2) = s, t
    return tuple(map(add, e1, e2)), k1 + k2 + pairing(lam, e1, e2), c1 * c2


def _shift(src: dict, lam, left, right, width: int, out: dict) -> None:
    """Add left*src*right into out, for single terms left and right: an
    entry at X^g moves to X^(e1+e2+g) with its half powers shifted by
    k1 + k2 + L(e1, e2) + L(e1 - e2, g), since L(g, e2) = -L(e2, g)."""
    (e1, k1, c1), (e2, k2, c2) = left, right
    d = tuple(map(add, e1, e2))
    row = _twist_row(lam, tuple(map(sub, e1, e2)))
    k = k1 + k2 + pairing(lam, e1, e2)
    c = c1 * c2
    for (g, parity), (lo, n) in src.items():
        _add_packed(out, tuple(map(add, d, g)), parity + k + sum(map(mul, row, g)), lo,
                    c * n, width)


def _square(src: dict, lam, width: int, out: dict) -> None:
    """Add the square of src into out, one big-int product per unordered
    pair of entries: x*y at L(e, f) and y*x at L(f, e) = -L(e, f) have one
    parity and one packed sum, n + (n << W*|L(e, f)|) at the lower twist."""
    vals = [(g, _twist_row(lam, g), parity, lo, n) for (g, parity), (lo, n) in src.items()]
    for i, (e, row, pe, lo_e, x) in enumerate(vals):
        _add_packed(out, tuple(map(add, e, e)), 2 * pe, 2 * lo_e, x * x, width)
        for f, _row, pf, lo_f, y in vals[i + 1:]:
            tw = abs(sum(map(mul, row, f)))
            n = x * y
            _add_packed(out, tuple(map(add, e, f)), pe + pf - tw, lo_e + lo_f,
                        n + (n << width * tw), width)


def _product(left: dict, right: dict, lam, width: int, out: dict) -> None:
    """Add left*right into out, one big-int product per pair of entries."""
    rights = list(right.items())
    for (e, pe), (lo_e, x) in left.items():
        row = _twist_row(lam, e)
        for (f, pf), (lo_f, y) in rights:
            _add_packed(out, tuple(map(add, e, f)), pe + pf + sum(map(mul, row, f)),
                        lo_e + lo_f, x * y, width)


def _plan(torus: Torus, half: int, factors):
    """The product q^(half/2) * x_1^p_1 * ... as (steps, l1, linf), or None
    when it is zero.  A step is a single term (e, k, c), for q^(half/2) and
    for each x^p that is one (only these may have p < 0), or (x, p) for x of
    several terms.  l1 and linf bound the integer coefficients of the
    product:
    l1(x*y) <= l1(x)*l1(y) and linf(x*y) <= min(l1(x)*linf(y), linf(x)*l1(y))
    (each output digit takes one digit of x per digit of y and vice versa),
    so linf is at most l1 with one factor's l1 replaced by its linf."""
    steps = [((0,) * torus.m, half, 1)]
    l1, norms = 1, []
    for x, p in factors:
        if not p:
            continue
        if not x:
            return None
        if p < 0 or _single_term(x) is not None:
            one = _single_term(x ** p)
            steps.append(one)
            l1 *= abs(one[2])
        else:
            steps.append((x, p))
            norm = sum(map(_l1, x.terms.values())), _linf(x)
            norms.append(norm)
            l1 *= norm[0] ** p
    return steps, l1, min((l1 // n1 * ninf for n1, ninf in norms), default=l1)


def _build(steps, lam, width: int, out: dict) -> None:
    """Add the planned product into the packed accumulator out.  Single
    terms gather on the left until the first packed factor, and between
    packed factors on the right; the outermost ones shift the packed product
    once, on its way into out."""
    one = ((0,) * len(lam), 0, 1)
    pre, mid, post = steps[0], None, one
    for step in steps[1:]:
        if not isinstance(step[0], ToricElement):
            if mid is None:
                pre = _compose(lam, pre, step)
            else:
                post = _compose(lam, post, step)
            continue
        x, p = step
        y = _pack(x, width)
        if p > 1:
            acc = {}
            _square(y, lam, width, acc)
            for _ in range(p - 2):
                acc, prev = {}, acc
                _product(prev, y, lam, width, acc)
            y = acc
        if mid is not None:
            if post != one:
                acc = {}
                _shift(mid, lam, one, post, width, acc)
                mid, post = acc, one
            acc = {}
            _product(mid, y, lam, width, acc)
            y = acc
        mid = y
    if mid is None:
        e, k, c = pre
        _add_packed(out, e, k, 0, c, width)
    elif pre == post == one and not out:
        out.update(mid)
    else:
        _shift(mid, lam, pre, post, width, out)


def _formal_mul(a: ToricElement, b: ToricElement) -> ToricElement:
    """a*b in formal mode: a relabelling when a factor is a single term,
    else the packed square (a is b) or general product, decoded."""
    one = _single_term(a)
    if one is not None:
        return _relabel(b, *one, 1)
    one = _single_term(b)
    if one is not None:
        return _relabel(a, *one, -1)
    torus = a.torus
    plan = _plan(torus, 0, ((a, 2),) if a is b else ((a, 1), (b, 1)))
    if plan is None:
        return torus.zero()
    steps, _l1_ab, linf = plan
    width = linf.bit_length() + 1
    acc: dict[tuple, list] = {}
    _build(steps, torus.lam, width, acc)
    return ToricElement(torus, _decode(acc, width))


def _repack(rem: dict, width: int, new_width: int) -> None:
    """Re-encode every packed remainder entry at a larger width, in place."""
    for (_g, parity), cur in rem.items():
        (_p, lo, n), = pack(unpack((parity, cur[0], cur[1]), width), new_width)
        cur[:] = lo, n


def div_right(a, b: ToricElement) -> ToricElement:
    """The unique c with c*b = a, when it exists in the formal torus.

    a is a toric element or a list of products (half, ((x, power), ...))
    standing for the sum of q^(half/2) * x_1^power_1 * ...; an element a is
    the one product [(0, ((a, 1),))].  The products are built straight into
    a packed remainder keyed by (g, parity), at the one width of the step.
    Each step of the division decodes the leading coefficient, divides it
    by b's, and updates the entries of the |b| exponents it touches in
    place; only quotient coefficients are decoded.  Raises NonLaurentError
    when the quotient does not stay a finite Laurent combination.
    """
    if isinstance(a, ToricElement):
        a = [(0, ((a, 1),))]
    if not isinstance(b, ToricElement):
        raise TorusError("expected a toric element, got %r" % (b,))
    for _half, factors in a:
        for x, _power in factors:
            b._check(x)
    torus = b.torus
    if not torus.mode.formal:
        raise ModeError("right division is only available in formal mode")
    if not b:
        raise ZeroDivisionError("division by zero toric element")
    lam = torus.lam
    plans = [plan for half, factors in a
             if (plan := _plan(torus, half, factors)) is not None]
    eb, cb = b.leading()
    linf_a, linf_b = sum(plan[2] for plan in plans), _linf(b)
    l1_a, l1_b = sum(plan[1] for plan in plans), sum(map(_l1, b.terms.values()))
    quot_l1 = 0
    width = (linf_a + -(-l1_a // l1_b) * linf_b).bit_length() + 1
    rem: dict[tuple, list] = {}
    for plan in plans:
        _build(plan[0], lam, width, rem)
    packed_b = _pack(b, width)
    quot_terms: dict[tuple, object] = {}
    steps = 0
    prev = None
    while rem:
        steps += 1
        if steps > MAX_DIV_STEPS:
            raise NonLaurentError("division did not terminate")
        ea = max(rem)[0]
        if prev is not None and ea >= prev:
            raise NonLaurentError("division failed to reduce")
        prev = ea
        ca = unpack(*[(parity, *rem[ea, parity]) for parity in (0, 1)
                      if (ea, parity) in rem], width)
        ec = tuple(x - y for x, y in zip(ea, eb))
        lead = cb * torus.mode.qpow(pairing(lam, ec, eb))
        try:
            cc = ca.exact_div(lead)
        except ExactDivisionError as exc:
            raise NonLaurentError("leading coefficient not divisible") from exc
        quot_terms[ec] = cc
        quot_l1 += _l1(cc)
        bound = linf_a + quot_l1 * linf_b
        if bound.bit_length() + 1 > width:
            new_width = max(bound.bit_length() + 1, 2 * width)
            _repack(rem, width, new_width)
            width = new_width
            packed_b = _pack(b, width)
        unit = lead.monomial_data()
        if unit is not None and unit[1] in (1, -1):
            # cc = s*t^(-j)*ca: -cc is the leading entries shifted, negated
            j, s = unit
            neg_c = {(ec, (parity - j) & 1): [rem[ea, parity][0] + ((parity - j) >> 1),
                                             -s * rem[ea, parity][1]]
                     for parity in (0, 1) if (ea, parity) in rem}
        else:
            neg_c = {(ec, parity): [lo, n] for parity, lo, n in pack(-cc, width)}
        _product(neg_c, packed_b, lam, width, rem)
    return ToricElement(torus, quot_terms)
