"""Exact coefficient arithmetic.

Two coefficient rings are supported: Laurent polynomials in the half power
t (with t*t = q) over the integers, and the specialization t -> sqrt(p) for
a prime p, whose elements are kept in the normal form a + b*sqrt(p) with
rational a, b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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
            if d >= half:
                d -= mask + 1
            if d:
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
    """An element a + b*sqrt(p) of Z[p^(1/2), p^(-1/2)] tensored up to Q.

    The representation is unique because sqrt(p) is irrational.  Membership
    in the half-integer ring itself (denominators a power of p) is checked
    by :meth:`is_p_integral` rather than enforced, since intermediate basis
    computations may pass through general rationals.
    """

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a, b):
        self.p = p
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def _coerce(self, other):
        if isinstance(other, int):
            return SpecScalar(self.p, other, 0)
        if isinstance(other, SpecScalar):
            if other.p != self.p:
                raise ModeError("mixed primes %d and %d" % (self.p, other.p))
            return other
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SpecScalar(self.p, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return SpecScalar(self.p, -self.a, -self.b)

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
        return SpecScalar(
            self.p,
            self.a * o.a + self.b * o.b * self.p,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = SpecScalar(self.p, 1, 0)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def inverse(self) -> "SpecScalar":
        norm = self.a * self.a - self.p * self.b * self.b
        if norm == 0:
            raise ExactDivisionError("inverse of zero")
        return SpecScalar(self.p, self.a / norm, -self.b / norm)

    def exact_div(self, other) -> "SpecScalar":
        o = self._coerce(other)
        return self * o.inverse()

    def bar(self):
        raise ModeError("bar involution is only defined in formal mode")

    def monomial_data(self):
        """Return (k, sign) if this equals sign * p^(k/2), else None."""
        for part, off in ((self.a, 0), (self.b, 1)):
            if part == 0:
                continue
            if (self.b if off == 0 else self.a) != 0:
                return None
            num, den = part.numerator, part.denominator
            sign = 1 if num > 0 else -1
            num = abs(num)
            k = 0
            if den > 1:
                while den % self.p == 0 and den > 1:
                    den //= self.p
                    k -= 2
                if den != 1 or num != 1:
                    return None
            else:
                while num % self.p == 0:
                    num //= self.p
                    k += 2
                if num != 1:
                    return None
            return (k + off, sign)
        return None

    def is_q_monomial(self):
        return self.monomial_data() is not None

    def is_p_integral(self):
        """Denominators of both parts are powers of p."""
        for part in (self.a, self.b):
            den = part.denominator
            while den % self.p == 0:
                den //= self.p
            if den != 1:
                return False
        return True

    def render(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            mag = abs(self.b)
            body = "sqrt(%d)" % self.p if mag == 1 else "%s*sqrt(%d)" % (mag, self.p)
            if not parts:
                parts.append(body if self.b > 0 else "-" + body)
            else:
                parts.append(("+ " if self.b > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return self.render()


def qpow(k: int) -> FormalScalar:
    """t^k, i.e. q^(k/2) indexed by the half power k."""
    return FormalScalar({k: 1})


def specialize(s: FormalScalar, p: int) -> SpecScalar:
    """Ring homomorphism sending t to sqrt(p)."""
    a = Fraction(0)
    b = Fraction(0)
    for k, c in s.terms.items():
        if k % 2 == 0:
            a += c * Fraction(p) ** (k // 2)
        else:
            b += c * Fraction(p) ** ((k - 1) // 2)
    return SpecScalar(p, a, b)


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
        return SpecScalar(self.p, n, 0)

    def one(self):
        return SpecScalar(self.p, 1, 0)

    def zero(self):
        return SpecScalar(self.p, 0, 0)

    def __eq__(self, other):
        return isinstance(other, SpecializedMode) and other.p == self.p

    def __hash__(self):
        return hash(("specialized", self.p))

    def __repr__(self):
        return self.name


FORMAL = FormalMode()
