"""Exact coefficient arithmetic.

Two coefficient rings are supported: Laurent polynomials in the half power
t (with t*t = q) over the integers, and the specialization t -> sqrt(p) for
a prime p, whose elements are kept on plain integers in the normal form
(A + B*sqrt(p))/D with D > 0 and gcd(A, B, D) = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .modp import is_prime


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact is not."""


class ModeError(TypeError):
    """Raised when an operation is not defined in the current scalar mode."""


class FormalScalar:
    """Laurent polynomial in t = q^(1/2) with integer coefficients.

    Stored as a map from the half-power index k (meaning t^k) to a nonzero
    integer coefficient, so equality is equality of term maps.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {int(k): int(c) for k, c in terms.items() if c}
        else:
            self.terms = {}

    @staticmethod
    def from_int(n: int) -> "FormalScalar":
        return FormalScalar({0: n})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = FormalScalar.from_int(other)
        if not isinstance(other, FormalScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = FormalScalar.from_int(other)
        if not isinstance(other, FormalScalar):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return FormalScalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return FormalScalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = FormalScalar.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = FormalScalar.from_int(other)
        if not isinstance(other, FormalScalar):
            return NotImplemented
        terms: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                terms[k] = terms.get(k, 0) + c1 * c2
        return FormalScalar(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only for invertible monomials")
        out = FormalScalar.from_int(1)
        for _ in range(n):
            out = out * self
        return out

    def bar(self) -> "FormalScalar":
        """The involution t -> t^(-1)."""
        return FormalScalar({-k: c for k, c in self.terms.items()})

    def monomial_data(self):
        """Return (k, c) if this is the single term c*t^k, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def times_term(self, k: int, c: int) -> "FormalScalar":
        """The product c*t^k*self, by relabelling the half powers."""
        out = FormalScalar.__new__(FormalScalar)
        out.terms = {j + k: c * v for j, v in self.terms.items()}
        return out

    def inverse(self) -> "FormalScalar":
        md = self.monomial_data()
        if md is None or md[1] not in (1, -1):
            raise ExactDivisionError("scalar %s is not invertible" % self)
        k, c = md
        return FormalScalar({-k: c})

    def exact_div(self, other: "FormalScalar") -> "FormalScalar":
        """Exact division in Z[t, t^-1]; raises if the quotient is not there."""
        if not isinstance(other, FormalScalar) or not other:
            raise ExactDivisionError("division by zero scalar")
        if not self:
            return FormalScalar()
        md = other.monomial_data()
        if md is not None and md[1] in (1, -1):
            return self.times_term(-md[0], md[1])
        # shift both to honest polynomials and run long division from the top
        lo_s, lo_o = min(self.terms), min(other.terms)
        a = _dense(self, lo_s)
        b = _dense(other, lo_o)
        quot = [0] * (len(a) - len(b) + 1)
        if len(a) < len(b):
            raise ExactDivisionError("inexact Laurent division")
        for i in range(len(a) - len(b), -1, -1):
            lead = a[i + len(b) - 1]
            if lead % b[-1]:
                raise ExactDivisionError("inexact Laurent division")
            q = lead // b[-1]
            quot[i] = q
            if q:
                for j, bc in enumerate(b):
                    a[i + j] -= q * bc
        if any(a):
            raise ExactDivisionError("inexact Laurent division")
        shift = lo_s - lo_o
        return FormalScalar({shift + i: c for i, c in enumerate(quot) if c})

    def specialize(self, p: int) -> "SpecScalar":
        return specialize(self, p)

    def render(self) -> str:
        """Canonical text form, terms by descending half power."""
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            body = _power_str(k)
            if body is None:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = "%d*%s" % (abs(c), body)
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)

    def __repr__(self):
        return self.render()


def pack(s: FormalScalar, width: int) -> tuple:
    """s = c_0(q) + t*c_1(q), q = t^2, packed per parity at q = 2^width.

    One part (parity, lo, n) per nonzero c_parity: lo is the lowest power
    of q in the part and n = sum_j c_(2j+parity) * 2^(width*(j - lo)), the
    part evaluated at q = 2^width and shifted to start at q^0 (Kronecker
    substitution).  Sums and products of packed parts are sums and products
    of the polynomials, so they stay exact; :func:`unpack` reads them back
    as long as every coefficient has absolute value below 2^(width-1).
    """
    parts = []
    terms = s.terms
    while terms:
        lo = min(terms)
        parity, base = lo & 1, lo >> 1
        n = 0
        rest = {}
        for k, c in terms.items():
            if k & 1 == parity:
                n += c << width * ((k >> 1) - base)
            else:
                rest[k] = c
        parts.append((parity, base, n))
        terms = rest
    return tuple(parts)


def unpack(*parts_and_width) -> FormalScalar:
    """The scalar whose parts at a width are the given (parity, lo, n), read
    as balanced digits in (-2^(width-1), 2^(width-1)): called as
    ``unpack(*parts, width)``, so that ``unpack(*pack(s, w), w) == s``."""
    *parts, width = parts_and_width
    terms = {}
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    for parity, lo, n in parts:
        k = 2 * lo + parity
        while n:
            d = n & mask
            if not d:
                # a run of zero digits: skip to the lowest set bit
                z = ((n & -n).bit_length() - 1) // width
                n >>= width * z
                k += 2 * z
                continue
            if d >= half:
                d -= mask + 1
            terms[k] = d
            n = (n - d) >> width
            k += 2
    out = FormalScalar.__new__(FormalScalar)
    out.terms = terms
    return out


def _dense(s: FormalScalar, lo: int) -> list[int]:
    hi = max(s.terms)
    out = [0] * (hi - lo + 1)
    for k, c in s.terms.items():
        out[k - lo] = c
    return out


def _power_str(k: int):
    if k == 0:
        return None
    if k % 2 == 0:
        j = k // 2
        return "q" if j == 1 else "q^{%d}" % j
    return "q^{%d/2}" % k


class SpecScalar:
    """An element (A + B*sqrt(p))/D of Z[p^(1/2), p^(-1/2)] tensored up to Q.

    A, B and D are plain integers with D > 0 and gcd(A, B, D) = 1, so each
    value has exactly one form (sqrt(p) is irrational), and equality is
    equality of the triples.  Membership in the half-integer ring itself (D
    a power of p) is checked by :meth:`is_p_integral` rather than enforced,
    since intermediate basis computations may pass through general
    rationals.  The rational parts a = A/D and b = B/D are read-only
    properties, returned as Fractions.
    """

    __slots__ = ("p", "A", "B", "D")

    def __init__(self, p: int, a, b):
        if type(a) is int and type(b) is int:
            A, B, D = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            # D is the lcm of two reduced denominators, so gcd(A, B, D) = 1
            D = lcm(a.denominator, b.denominator)
            A = a.numerator * (D // a.denominator)
            B = b.numerator * (D // b.denominator)
        self.p, self.A, self.B, self.D = p, A, B, D

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    def __bool__(self):
        return bool(self.A or self.B)

    def _coerce(self, other):
        if isinstance(other, SpecScalar):
            if other.p != self.p:
                raise ModeError("mixed primes %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return _spec(self.p, other, 0, 1)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.D == o.D

    def __hash__(self):
        # a value equal to an int hashes like that int
        if self.B == 0 and self.D == 1:
            return hash(self.A)
        return hash((self.p, self.A, self.B, self.D))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D, Do = self.D, o.D
        if D == Do:
            return _reduced(self.p, self.A + o.A, self.B + o.B, D)
        return _reduced(self.p, self.A * Do + o.A * D, self.B * Do + o.B * D, D * Do)

    __radd__ = __add__

    def __neg__(self):
        return _spec(self.p, -self.A, -self.B, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        A1, B1, A2, B2 = self.A, self.B, o.A, o.B
        return _reduced(self.p, A1 * A2 + self.p * B1 * B2, A1 * B2 + A2 * B1,
                        self.D * o.D)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = _spec(self.p, 1, 0, 1)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def inverse(self) -> "SpecScalar":
        """D/(A + B*sqrt(p)) = D*(A - B*sqrt(p))/N with N = A^2 - p*B^2."""
        A, B, D = self.A, self.B, self.D
        norm = A * A - self.p * B * B
        if norm == 0:
            raise ExactDivisionError("inverse of zero")
        if norm < 0:
            return _reduced(self.p, -D * A, D * B, -norm)
        return _reduced(self.p, D * A, -D * B, norm)

    def exact_div(self, other) -> "SpecScalar":
        o = self._coerce(other)
        return self * o.inverse()

    def bar(self):
        raise ModeError("bar involution is only defined in formal mode")

    def monomial_data(self):
        """Return (k, sign) if this equals sign * p^(k/2), else None."""
        if self.A and self.B:
            return None
        part, off = (self.A, 0) if self.A else (self.B, 1)
        if not part:
            return None
        # gcd(part, D) = 1, so |part| or D is 1 and the other must be p^k
        if self.D == 1:
            mag, up = abs(part), 1
        elif abs(part) == 1:
            mag, up = self.D, -1
        else:
            return None
        k = _p_valuation(mag, self.p)
        if mag != self.p**k:
            return None
        return (2 * up * k + off, 1 if part > 0 else -1)

    def is_q_monomial(self):
        return self.monomial_data() is not None

    def is_p_integral(self):
        """D, the common denominator of both parts, is a power of p."""
        return self.D == self.p**_p_valuation(self.D, self.p)

    def render(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.A:
            parts.append(_ratio_str(self.A, self.D))
        if self.B:
            mag = _ratio_str(abs(self.B), self.D)
            body = "sqrt(%d)" % self.p if mag == "1" else "%s*sqrt(%d)" % (mag, self.p)
            if not parts:
                parts.append(body if self.B > 0 else "-" + body)
            else:
                parts.append(("+ " if self.B > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return self.render()


def _spec(p: int, A: int, B: int, D: int) -> SpecScalar:
    """The scalar (A + B*sqrt(p))/D from a form already reduced."""
    s = object.__new__(SpecScalar)
    s.p, s.A, s.B, s.D = p, A, B, D
    return s


def _reduced(p: int, A: int, B: int, D: int) -> SpecScalar:
    """The scalar (A + B*sqrt(p))/D for D > 0, divided through by gcd(A, B, D)."""
    if D != 1:
        g = gcd(A, B, D)
        if g != 1:
            A, B, D = A // g, B // g, D // g
    return _spec(p, A, B, D)


def _p_valuation(n: int, p: int) -> int:
    """The exponent of p in the nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms as str(Fraction(n, d)) prints it, for d > 0."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else "%d/%d" % (n, d)


def qpow(k: int) -> FormalScalar:
    """t^k, i.e. q^(k/2) indexed by the half power k."""
    return FormalScalar({k: 1})


def specialize(s: FormalScalar, p: int) -> SpecScalar:
    """Ring homomorphism sending t to sqrt(p).

    t^k = p^(k//2) * sqrt(p)^(k%2), so with lo the least k//2 (at most 0)
    every term is an integer over the common denominator p^(-lo)."""
    terms = s.terms
    lo = min(min(terms, default=0) >> 1, 0)
    A = B = 0
    for k, c in terms.items():
        if k & 1:
            B += c * p ** ((k >> 1) - lo)
        else:
            A += c * p ** ((k >> 1) - lo)
    return _reduced(p, A, B, p**-lo)


def qbinom(n: int, k: int, d: int = 1) -> FormalScalar:
    """Quantum binomial [n over k] evaluated at q^(d/2).

    Computed from the defining product of differences by exact polynomial
    division; a division failure indicates an arithmetic bug.
    """
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n, got n=%d k=%d" % (n, k))
    if d < 1:
        raise ValueError("d must be >= 1")
    num = FormalScalar.from_int(1)
    den = FormalScalar.from_int(1)
    for j in range(k):
        num = num * (qpow(d * (n - j)) - qpow(-d * (n - j)))
        den = den * (qpow(d * (j + 1)) - qpow(-d * (j + 1)))
    try:
        return num.exact_div(den)
    except ExactDivisionError as exc:  # pragma: no cover - would be a bug
        raise ExactDivisionError("quantum binomial division failed") from exc


class FormalMode:
    """Coefficient mode tag for the formal ring Z[q^(1/2), q^(-1/2)]."""

    name = "formal"
    formal = True

    def qpow(self, k: int):
        return qpow(k)

    def from_int(self, n: int):
        return FormalScalar.from_int(n)

    def one(self):
        return FormalScalar.from_int(1)

    def zero(self):
        return FormalScalar()

    def __eq__(self, other):
        return isinstance(other, FormalMode)

    def __hash__(self):
        return hash("formal")

    def __repr__(self):
        return "formal"


@lru_cache(maxsize=None)
def _spec_qpow(p: int, k: int) -> SpecScalar:
    """q^(k/2) at q = p, shared by every SpecializedMode(p); callers must not
    mutate the result."""
    return specialize(qpow(k), p)


class SpecializedMode:
    """Coefficient mode tag for the specialization at a prime p."""

    formal = False

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("p=%d is not a prime" % p)
        self.p = p
        self.name = "specialized(%d)" % p

    def qpow(self, k: int):
        return _spec_qpow(self.p, k)

    def from_int(self, n: int):
        return _spec(self.p, n, 0, 1)

    def one(self):
        return _spec(self.p, 1, 0, 1)

    def zero(self):
        return _spec(self.p, 0, 0, 1)

    def __eq__(self, other):
        return isinstance(other, SpecializedMode) and other.p == self.p

    def __hash__(self):
        return hash(("specialized", self.p))

    def __repr__(self):
        return self.name


FORMAL = FormalMode()
