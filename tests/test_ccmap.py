from itertools import product

import pytest

from qcluster import catalog
from qcluster import rep as R
from qcluster.ccmap import (ClusterObject, cc_delta, cc_map, cc_map_formal,
                            extended_coreflect, extended_reflect,
                            generic_variable)
from qcluster.scalars import SpecializedMode


@pytest.fixture(scope="module")
def kron():
    return catalog.get("kronecker")


def test_zero_object_maps_to_one(kron):
    assert cc_map(ClusterObject(None), kron.model, 3) == \
        kron.model.torus(SpecializedMode(3)).one()


def test_shifted_projectives_are_units(kron):
    for i in range(1, 5):
        val = cc_map(ClusterObject(None, {i: 1}), kron.model, 3)
        e = tuple(1 if k == i - 1 else 0 for k in range(4))
        assert val == kron.model.torus(SpecializedMode(3)).monomial(e)


def test_kronecker_golden_expansions(kron):
    torus = kron.model.torus(SpecializedMode(3))
    xs1 = cc_map(ClusterObject(R.simple(kron.principal, 3, 1)), kron.model, 3)
    assert xs1 == torus.monomial((-1, 0, 1, 0)) + torus.monomial((-1, 2, 0, 0))
    point = catalog.homogeneous_points("kronecker", 3)[0]
    xr = cc_map(ClusterObject(point), kron.model, 3)
    want = (torus.monomial((1, -1, 1, 1)) + torus.monomial((-1, 1, 0, 0))
            + torus.monomial((-1, -1, 1, 0)))
    assert xr == want


def test_exponents_live_in_predicted_span(kron):
    # every exponent is btilde*e - (itilde-rtilde)*m + shift with 0 <= e <= m
    model = kron.model
    point = catalog.homogeneous_points("kronecker", 3)[0]
    for module, shifts in [
        (R.nonsplit_middle(point, point), {}),   # regular of dimension (2, 2)
        (R.simple(kron.principal, 3, 2), {1: 1}),
    ]:
        val = cc_map(ClusterObject(module, shifts), model, 3)
        mv = module.dims
        allowed = set()
        for e in product(*[range(x + 1) for x in mv]):
            allowed.add(model.cc_exponent(e, mv, shifts))
        assert set(val.terms) <= allowed


def test_cc_delta_well_defined(kron):
    xd = cc_delta("kronecker", 3)
    for point in catalog.homogeneous_points("kronecker", 3):
        assert cc_map(ClusterObject(point), kron.model, 3) == xd


def test_specialization_commutes():
    model = catalog.get("kronecker").model
    for fam_name in ("s1", "s2", "r1", "r2"):
        fam = catalog.family_for("kronecker", fam_name)
        formal = cc_map_formal(fam, {}, model)
        for p in (3, 5):
            assert formal.specialize(p) == cc_map(ClusterObject(fam.instantiate(p)), model, p)


def test_generic_variable_routes(kron):
    point = catalog.homogeneous_points("kronecker", 3)[-1]
    xr = cc_map(ClusterObject(point), kron.model, 3)
    assert generic_variable("kronecker", (1, 1), 3) == xr      # tube route
    assert generic_variable("kronecker", (2, 2), 3) == xr * xr
    e1 = generic_variable("kronecker", (-1, 0), 3)
    assert e1 == kron.model.torus(SpecializedMode(3)).monomial((1, 0, 0, 0))
    rigid = generic_variable("kronecker", (2, 1), 3)  # rigid preprojective
    assert len(rigid.terms) == 4


def test_generic_variable_errors():
    from qcluster.ccmap import GenericVariableError
    with pytest.raises(GenericVariableError):
        generic_variable("kronecker", (1, 1, 1), 3)


def test_extended_reflect_cases():
    entry = catalog.get("a2")
    q = entry.principal
    p = 3
    # sink side: the simple at the sink becomes a shifted projective
    obj, refl = extended_reflect(q, p, ClusterObject(R.simple(q, p, 1)), 1)
    assert obj.module is None or obj.module.is_zero()
    assert obj.shifts == {1: 1}
    # and the shifted projective comes back as the simple
    obj2, _ = extended_reflect(q, p, ClusterObject(None, {1: 1}), 1)
    assert obj2.shifts == {}
    assert obj2.module.dims == (1, 0)
    # source side
    obj3, _ = extended_coreflect(q, p, ClusterObject(R.simple(q, p, 2)), 2)
    assert obj3.module is None or obj3.module.is_zero()
    assert obj3.shifts == {2: 1}


def test_extended_reflect_module_away_from_vertex():
    entry = catalog.get("a3")
    q = entry.principal
    p = 3
    m = R.simple(q, p, 3)
    obj, refl = extended_reflect(q, p, ClusterObject(m), 1)
    assert obj.module.dims == (0, 0, 1)
    assert obj.shifts == {}
