from fractions import Fraction

import pytest

from qcluster import catalog
from qcluster.families import (InterpolationError, RepFamily, eval_poly,
                               grassmannian_poly, lagrange_interpolate,
                               poly_to_scalar)
from qcluster.quiver import IceQuiver
from qcluster.rep import RepError, grassmannian_count
from qcluster.scalars import FormalScalar


def test_lagrange_exact():
    pts = [(1, 1), (2, 4), (3, 9)]
    assert lagrange_interpolate(pts) == [Fraction(0), Fraction(0), Fraction(1)]


def test_full_grassmannian_is_q_plus_one():
    q1 = IceQuiver(1, 1, [])
    fam = RepFamily(q1, (2,), {})
    assert grassmannian_poly(fam, (1,)) == [1, 1]
    assert grassmannian_poly(fam, (0,)) == [1]
    assert grassmannian_poly(fam, (2,)) == [1]


def test_kronecker_family_counts_constant():
    fam = catalog.family_for("kronecker", "r1")
    assert grassmannian_poly(fam, (0, 0)) == [1]
    assert grassmannian_poly(fam, (1, 0)) == [1]
    assert grassmannian_poly(fam, (1, 1)) == [1]
    assert grassmannian_poly(fam, (0, 1)) == []


def test_r2_family_heldout():
    fam = catalog.family_for("kronecker", "r2")
    coeffs = grassmannian_poly(fam, (1, 0))
    assert coeffs == [1, 1]  # lines meeting the socle condition
    # explicit held-out check beyond the one built into grassmannian_poly
    for p in (11, 13):
        assert eval_poly(coeffs, p) == grassmannian_count(fam.instantiate(p), (1, 0))


def test_poly_to_scalar():
    assert poly_to_scalar([1, 1]) == FormalScalar({0: 1, 2: 1})


def test_bad_prime_excluded():
    fam = catalog.family_for("kronecker", "r1")
    with pytest.raises(ValueError):
        fam.instantiate(2)


def test_family_instantiation_parameter():
    fam = catalog.family_for("kronecker", "r1")
    for p in (3, 5, 7):
        assert fam.instantiate(p).mats[1] == ((p - 1,),)  # L is p - 1


@pytest.mark.parametrize("dims", [(-1, 1), (1,), (1, 1, 1)])
def test_family_rejects_a_bad_dimension_vector(dims):
    q = catalog.get("kronecker").principal
    with pytest.raises(RepError, match=r"bad dimension vector \(%s" % dims[0]):
        RepFamily(q, dims, {})
