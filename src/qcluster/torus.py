"""Based quantum torus: Z[q^(1/2),q^(-1/2)]-combinations of lattice monomials
X^e multiplied through a skew-symmetric integer form, X^e X^f = q^(L(e,f)/2) X^(e+f).

Right division is formal-only: t -> sqrt(p) is a ring homomorphism
(``ToricElement.specialize``), so a quotient at q = p is the specialization
of the formal one.

In formal mode the product and right division work on coefficients split
by parity, c = c_0(q) + t*c_1(q) with t = q^(1/2), each nonzero part
packed as an integer at q = 2^W (``scalars.pack``).  Two parts
(p1, lo1, x) and (p2, lo2, y) at X^e and X^f multiply to the part of
parity (p1 + p2 + L(e,f)) mod 2 at X^(e+f), with lowest q power
lo1 + lo2 + floor((p1 + p2 + L(e,f))/2) and packed value x*y; products and
remainders are accumulated per (exponent, parity).  A factor that is a
single term c*t^k*X^e needs no packing: the product relabels the other
factor's exponents and half powers.  A square x*x (one object on both
sides, as in ``x ** 2``) multiplies each unordered pair of packed values
{(e, x), (f, y)} once and adds x*y at both twists, L(e,f) for x*y and
L(f,e) = -L(e,f) for y*x.  The width W keeps every digit of every packed
value strictly below 2^(W-1) in absolute value, so packed sums and
products never carry between digits; the digits of a part are a subset of
the coefficient's, so the bounds are those of the coefficients:

- a product a*b uses W = bit_length(l1(a) * linf(b)) + 1, where l1(a) sums
  the absolute values of all integer coefficients of a and linf(b) is the
  largest of those of b; each result digit is a sum of at most one product
  per integer coefficient of a;
- right division a/b keeps every remainder digit within
  linf(a) + l1(quotient so far) * linf(b).  It starts at
  W = bit_length(linf(a) + ceil(l1(a)/l1(b)) * linf(b)) + 1 and widens W
  (decode, re-encode) before that bound reaches 2^(W-1).  When a and b
  have nonnegative coefficients, as exchange numerators and quantum
  cluster variables do (positivity), nothing cancels in c*b, so
  l1(a) = l1(c) * l1(b) and the start width already covers the whole
  quotient; with mixed signs the division may still widen partway.
"""

from __future__ import annotations

from operator import add, mul

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

    def coefficient(self, e) -> object:
        return self.terms.get(tuple(e), self.torus.mode.zero())

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


def _decode(acc: dict, width: int) -> dict:
    """g -> FormalScalar from the entries (g, parity) -> [lo, n]; both
    parity parts of a g decode into one scalar."""
    parts: dict[tuple, list] = {}
    for (g, parity), (lo, n) in acc.items():
        parts.setdefault(g, []).append((parity, lo, n))
    return {g: unpack(*ps, width) for g, ps in parts.items()}


def _formal_mul(a: ToricElement, b: ToricElement) -> ToricElement:
    """a*b in formal mode: a relabelling when a factor is a single term,
    else one big-int product per pair of packed parity parts, or per
    unordered pair of them when a is b."""
    one = _single_term(a)
    if one is not None:
        return _relabel(b, *one, 1)
    one = _single_term(b)
    if one is not None:
        return _relabel(a, *one, -1)
    torus = a.torus
    width = (sum(map(_l1, a.terms.values())) * _linf(b)).bit_length() + 1
    acc: dict[tuple, list] = {}
    if a is b:
        # x*y at L(e, f) and y*x at L(f, e) = -L(e, f) share the product
        vals = [(e, _twist_row(torus.lam, e), pe, lo_e, x)
                for e, ce in a.terms.items() for pe, lo_e, x in pack(ce, width)]
        for i, (e, row, pe, lo_e, x) in enumerate(vals):
            _add_packed(acc, tuple(map(add, e, e)), 2 * pe, 2 * lo_e, x * x, width)
            for f, _row, pf, lo_f, y in vals[i + 1:]:
                tw = sum(map(mul, row, f))
                g = tuple(map(add, e, f))
                n = x * y
                _add_packed(acc, g, pe + pf + tw, lo_e + lo_f, n, width)
                _add_packed(acc, g, pe + pf - tw, lo_e + lo_f, n, width)
        return ToricElement(torus, _decode(acc, width))
    packed_b = [(f, pack(c, width)) for f, c in b.terms.items()]
    for e, ce in a.terms.items():
        parts_e = pack(ce, width)
        row = _twist_row(torus.lam, e)
        for f, parts_f in packed_b:
            tw = sum(map(mul, row, f))
            g = tuple(map(add, e, f))
            for pe, lo_e, x in parts_e:
                for pf, lo_f, y in parts_f:
                    _add_packed(acc, g, pe + pf + tw, lo_e + lo_f, x * y, width)
    return ToricElement(torus, _decode(acc, width))


def _repack(rem: dict, width: int, new_width: int) -> None:
    """Re-encode every packed remainder entry at a larger width, in place."""
    for (_g, parity), cur in rem.items():
        (_p, lo, n), = pack(unpack((parity, cur[0], cur[1]), width), new_width)
        cur[:] = lo, n


def div_right(a: ToricElement, b: ToricElement) -> ToricElement:
    """The unique c with c*b = a, when it exists in the formal torus.

    Peels lex-leading terms off a packed remainder keyed by (g, parity):
    each step decodes the leading coefficient and updates the entries of the
    |b| exponents it touches in place.  Raises NonLaurentError when the
    quotient does not stay a finite Laurent combination.
    """
    a._check(b)
    if not a.torus.mode.formal:
        raise ModeError("right division is only available in formal mode")
    if not b:
        raise ZeroDivisionError("division by zero toric element")
    torus = a.torus
    eb, cb = b.leading()
    linf_a, linf_b = _linf(a), _linf(b)
    l1_a, l1_b = (sum(map(_l1, x.terms.values())) for x in (a, b))
    quot_l1 = 0
    width = (linf_a + -(-l1_a // l1_b) * linf_b).bit_length() + 1
    rem = {(e, parity): [lo, n] for e, c in a.terms.items()
           for parity, lo, n in pack(c, width)}
    packed_b = [(f, pack(c, width)) for f, c in b.terms.items()]
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
        row = _twist_row(torus.lam, ec)
        try:
            cc = ca.exact_div(cb * torus.mode.qpow(sum(map(mul, row, eb))))
        except ExactDivisionError as exc:
            raise NonLaurentError("leading coefficient not divisible") from exc
        quot_terms[ec] = cc
        quot_l1 += _l1(cc)
        bound = linf_a + quot_l1 * linf_b
        if bound.bit_length() + 1 > width:
            new_width = max(bound.bit_length() + 1, 2 * width)
            _repack(rem, width, new_width)
            width = new_width
            packed_b = [(f, pack(c, width)) for f, c in b.terms.items()]
        parts_c = pack(-cc, width)
        for f, parts_f in packed_b:
            tw = sum(map(mul, row, f))
            g = tuple(map(add, ec, f))
            for pc, lo_c, z in parts_c:
                for pf, lo_f, y in parts_f:
                    _add_packed(rem, g, pc + pf + tw, lo_c + lo_f, z * y, width)
    return ToricElement(torus, quot_terms)
