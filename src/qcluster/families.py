"""Representation families over the integers and their counting polynomials.

A family is an integer matrix template, optionally containing the symbol L
for a field parameter; reducing mod p (with L at p - 1) gives an honest
representation.  Submodule counts of such families are polynomials in the
field size, recovered by exact Lagrange interpolation over several primes
and re-checked against a direct count at a held-out prime.
"""

from __future__ import annotations

from fractions import Fraction

from .rep import QuiverRep, RepError, grassmannian_count
from .scalars import FormalScalar

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InterpolationError(ValueError):
    pass


class RepFamily:
    """Matrix template over Z with an optional symbol 'L' for the parameter."""

    def __init__(self, quiver, dims, mats, bad_primes=(), name=None):
        self.quiver = quiver
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.m or any(d < 0 for d in self.dims):
            raise RepError("bad dimension vector %r" % (self.dims,))
        self.mats = {}
        for idx in range(len(quiver.arrows)):
            mat = mats.get(idx) if isinstance(mats, dict) else mats[idx]
            if mat is None:
                s, t = quiver.arrows[idx]
                mat = tuple((0,) * self.dims[s - 1] for _ in range(self.dims[t - 1]))
            self.mats[idx] = tuple(tuple(x for x in row) for row in mat)
        self.bad_primes = frozenset(bad_primes)
        self.name = name

    def instantiate(self, p: int) -> QuiverRep:
        """The representation mod p, with the parameter L at p - 1."""
        if p in self.bad_primes:
            raise ValueError("prime %d is declared bad for this family" % p)
        mats = {}
        for idx, mat in self.mats.items():
            mats[idx] = tuple(tuple((p - 1 if x == "L" else x) % p for x in row)
                              for row in mat)
        return QuiverRep(self.quiver, p, self.dims, mats)

    def __repr__(self):
        return "RepFamily(%s, dims=%s)" % (self.name or "?", list(self.dims))


def lagrange_interpolate(points):
    """Exact interpolation through (x, y) pairs; coefficients as Fractions."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - xj), then scale
        poly = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            poly = [Fraction(0)] + poly
            for k in range(len(poly) - 1):
                poly[k] -= xj * poly[k + 1]
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k in range(len(poly)):
            coeffs[k] += scale * poly[k]
    return coeffs


def grassmannian_poly(family: RepFamily, e):
    """Integer coefficients (ascending) of |Gr_e| as a polynomial in the field
    size, interpolated at D+1 primes and verified at a held-out prime."""
    e = tuple(e)
    degree = sum(ei * (mi - ei) for ei, mi in zip(e, family.dims))
    usable = [p for p in PRIMES if p not in family.bad_primes]
    need = degree + 1
    if len(usable) < need + 1:
        raise InterpolationError("not enough primes for degree %d" % degree)
    sample, holdout = usable[:need], usable[need]
    points = []
    for p in sample:
        rep = family.instantiate(p)
        points.append((p, grassmannian_count(rep, e)))
    coeffs = lagrange_interpolate(points)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise InterpolationError(
                "non-integer coefficient %s; family is not polynomial-count" % c)
        out.append(int(c))
    while out and out[-1] == 0:
        out.pop()
    check = eval_poly(out, holdout)
    direct = grassmannian_count(family.instantiate(holdout), e)
    if check != direct:
        raise InterpolationError(
            "held-out prime %d mismatch: %d vs %d" % (holdout, check, direct))
    return out


def poly_to_scalar(coeffs) -> FormalScalar:
    """View an integer polynomial in the field size as a formal scalar in q."""
    return FormalScalar({2 * k: c for k, c in enumerate(coeffs)})


def eval_poly(coeffs, x: int) -> int:
    return sum(c * x**k for k, c in enumerate(coeffs))
