import time

import pytest

from qcluster import catalog
from qcluster import rep as R
from qcluster.ccmap import generic_variable
from qcluster.hall import dim_vectors_upto
from qcluster.modp import Budget
from qcluster.quiver import IceQuiver, check_compatible, solve_lambda


@pytest.mark.parametrize("name", catalog.NAMES)
def test_models_compatible_with_unit_diagonal(name):
    model = catalog.get(name).model
    assert check_compatible(model.lam, model.exch.btilde) == (1,) * model.n
    assert model.d == (1,) * model.n


# an entry without frozen vertices (a2bare) names its own skew form
@pytest.mark.parametrize("name", [name for name in catalog.NAMES
                                  if catalog.get(name).framed.n < catalog.get(name).framed.m])
def test_standard_framings_pass_lam_only_when_it_differs(name):
    """No standard-framed entry names a skew form: each takes solve_lambda's
    closed form."""
    entry = catalog.get(name)
    assert entry._lam is None
    assert entry.model.lam == solve_lambda(entry.model.exch.btilde)


@pytest.mark.parametrize("name", ["atilde21", "atilde12", "atilde22", "atilde31",
                                  "dtilde4"])
def test_tube_translate_cyclic(name):
    entry = catalog.get(name)
    p = 3
    for t in range(len(entry.tubes)):
        simples = entry.tube_simples(p, t)
        r = len(simples)
        for i, s in enumerate(simples):
            assert R.is_rigid(s)
            assert R.iso_test(R.tau(s), simples[(i - 1) % r])


# the regular simples of each non-homogeneous tube along tau^-1, as derived
# from delta (Dlab-Ringel): sum(rank - 1) = n - 2 on each quiver
DERIVED_TUBES = {
    "kronecker": [],
    "atilde21": [[(0, 1, 0), (1, 0, 1)]],
    "atilde12": [[(0, 0, 1), (1, 1, 0)]],
    "atilde22": [[(0, 0, 0, 1), (1, 1, 1, 0)], [(0, 1, 0, 0), (1, 0, 1, 1)]],
    "atilde31": [[(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1)]],
    "dtilde4": [[(0, 0, 1, 0, 0), (1, 1, 1, 1, 1)],
                [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)],
                [(0, 1, 1, 1, 0), (1, 0, 1, 0, 1)]],
}


def test_derived_tubes_are_pinned():
    assert {name: catalog.get(name).tubes for name in catalog.NAMES
            if catalog.get(name).delta is not None} == DERIVED_TUBES


@pytest.mark.parametrize("delta", [(2, 2, 2), (1, 1, 0), (1, 0, 1)])
def test_tubes_reject_a_delta_that_is_not_the_null_root(delta):
    q = catalog.get("atilde21").principal
    start = time.perf_counter()
    with pytest.raises(catalog.CatalogError, match="not those of a Euclidean"):
        catalog._tubes(q, delta)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name, dims", [
    ("atilde21", (0, 2, 0)),            # not a 0/1 vector
    ("atilde21", (1, 1, 1)),            # the support spans a cycle
    ("kronecker", (1, 1)),              # two parallel arrows
    ("dtilde4", (1, 1, 0, 1, 1)),       # the support is not connected
    ("a2", (0, 0)),                     # empty support
])
def test_thin_module_needs_a_tree(name, dims):
    with pytest.raises(catalog.CatalogError, match="not a 0/1 vector on a tree"):
        catalog._thin_module(catalog.get(name).principal, 3, dims)



def test_tube_simple_dims_sum_to_delta():
    for name in ("atilde21", "atilde12", "atilde22", "atilde31", "dtilde4"):
        entry = catalog.get(name)
        for t in range(len(entry.tubes)):
            simples = entry.tube_simples(3, t)
            total = [0] * entry.principal.n
            for s in simples:
                total = [a + b for a, b in zip(total, s.dims)]
            assert tuple(total) == entry.delta


@pytest.mark.parametrize("name,t", [("kronecker", 0), ("atilde21", 1),
                                    ("atilde12", 1), ("atilde31", 1),
                                    ("atilde22", 2)])
def test_homogeneous_point_counts(name, t):
    for p in (3, 5):
        pts = catalog.homogeneous_points(name, p)
        assert len(pts) == p + 1 - t
        for M in pts:
            assert R.hom_dim(M, M) == 1
            assert R.iso_test(R.tau(M), M)


def test_dtilde4_single_homogeneous_point():
    pts = catalog.homogeneous_points("dtilde4", 3)
    assert len(pts) == 3 + 1 - 3


def _enumerated_homogeneous_points(name, p):
    """The degree-one homogeneous points by enumeration: every iso class of
    dimension delta with End = F_p that tau fixes."""
    store = catalog.store_for(name, p)
    return [M for M in store.iso_classes(catalog.get(name).delta)
            if R.hom_dim(M, M) == 1 and R.iso_test(R.tau(M), M)]


TAME = [name for name in catalog.NAMES if catalog.get(name).delta is not None]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", TAME)
def test_built_homogeneous_points_match_enumeration(name, p):
    with Budget():
        store = catalog.store_for(name, p)
        built = catalog.homogeneous_points(name, p)
        ref = _enumerated_homogeneous_points(name, p)
        assert len(built) == len(ref) == p + 1 - len(catalog.get(name).tubes)
        assert {store.classify(M) for M in built} == {store.classify(M) for M in ref}


def test_homogeneous_points_enumerate_nothing():
    with Budget(matrix_tuples=0):
        for name in TAME:
            assert catalog.homogeneous_points(name, 3)


@pytest.mark.parametrize("complement", [None, "zero"])
def test_homogeneous_points_need_a_two_dimensional_ext(monkeypatch, complement):
    # no rigid complement I, or one with Ext^1(I, P_e) = 0
    q = catalog.get("kronecker").principal
    found = None if complement is None else R.zero_rep(q, 3)
    monkeypatch.setattr(catalog, "find_rigid_module", lambda name, p, dims: found)
    with Budget(), pytest.raises(R.RepError, match="2-dimensional Ext"):
        catalog.homogeneous_points("kronecker", 3)


def test_homogeneous_points_need_a_tame_quiver():
    with pytest.raises(ValueError, match="not tame"):
        catalog.homogeneous_points("a3", 3)


# (Coxeter period, null root) derived from each quiver; a Dynkin quiver has
# c^h = 1 and no null root
PERIODS = {
    "kronecker": (1, (1, 1)),
    "atilde21": (2, (1, 1, 1)),
    "atilde12": (2, (1, 1, 1)),
    "atilde22": (2, (1, 1, 1, 1)),
    "atilde31": (3, (1, 1, 1, 1)),
    "dtilde4": (2, (1, 1, 2, 1, 1)),
    "a2": (3, None),
    "a2bare": (3, None),
    "a3": (4, None),
}


def test_period_and_null_root_are_pinned():
    assert {name: (catalog.get(name).period, catalog.get(name).delta)
            for name in catalog.NAMES} == PERIODS


def test_coxeter_period_rejects_a_line_that_is_not_a_null_root():
    # on A_1 the Coxeter transform is -1, so c - 1 maps onto the line of
    # the simple root, whose Tits form is 1
    with pytest.raises(catalog.CatalogError, match="not a null root"):
        catalog._coxeter_period(IceQuiver(1, 1, []))


def test_tube_module_boundaries():
    z = catalog.tube_module("atilde21", 3, 0, 1, 0)
    assert z.is_zero()
    e1 = catalog.tube_module("atilde21", 3, 0, 1, 1)
    assert e1.dims == (0, 1, 0)
    e12 = catalog.tube_module("atilde21", 3, 0, 1, 2)
    assert e12.dims == catalog.get("atilde21").delta
    assert R.is_indecomposable(e12)


def test_tube_module_rank3():
    e13 = catalog.tube_module("atilde31", 3, 0, 1, 3)
    assert e13.dims == (1, 1, 1, 1)
    assert R.is_indecomposable(e13)
    # quasi-socle really is the first simple
    simples = catalog.get("atilde31").tube_simples(3, 0)
    subs = R.submodules(e13, simples[0].dims)
    assert any(R.iso_test(R.sub_rep(e13, b), simples[0]) for b in subs)


TUBE_STARTS = [pytest.param(name, t, i, id="%s-%d-%d" % (name, t, i))
               for name in catalog.NAMES
               for t, tube in enumerate(catalog.get(name).tubes)
               for i in range(1, len(tube) + 1)]


@pytest.mark.parametrize("name, t, i", TUBE_STARTS)
def test_tube_module_past_the_enumeration_cap(name, t, i):
    # quasi-length 6 is past what iso-class enumeration reaches; the tube
    # module is built from Ext^1 cocycles and enumerates no matrix tuple
    rank = len(catalog.get(name).tubes[t])
    with Budget(matrix_tuples=0):
        E = catalog.tube_module(name, 3, t, i, 6)
        before = catalog.tube_module(name, 3, t, (i - 2) % rank + 1, 6)
        assert R.is_indecomposable(E)
        assert R.hom_dim(E, E) == -(-6 // rank)
        assert R.iso_test(R.tau(E), before)


def test_rigid_search():
    m = catalog.find_rigid_module("kronecker", 3, (2, 1))
    assert m is not None and R.is_rigid(m)
    assert catalog.find_rigid_module("kronecker", 3, (1, 1)) is None
    n, reg = catalog.find_delta_decomposition("kronecker", 3, (2, 2))
    assert n == 2 and reg.is_zero()
    n, reg = catalog.find_delta_decomposition("atilde21", 3, (2, 1, 2))
    assert n == 1 and reg.dims == (1, 0, 1)
    # the regular part is a rank-3 tube module of quasi-length 2, not a sum
    # of tube simples
    assert generic_variable("atilde31", (1, 2, 2, 1), 3)
    n, reg = catalog.find_delta_decomposition("atilde31", 3, (1, 2, 2, 1))
    assert n == 1 and reg.dims == (0, 1, 1, 0)


def _enumerated_rigid_indecomposables(name, p, bound):
    """dims -> the rigid indecomposable classes of those dims, by
    enumerating and filtering every iso class under the bound."""
    store = catalog.store_for(name, p)
    out = {}
    for dims in dim_vectors_upto(len(bound), bound_vec=bound):
        for M in store.iso_classes(dims):
            if R.is_rigid(M) and R.is_indecomposable(M):
                out.setdefault(dims, []).append(M)
    return out


@pytest.mark.parametrize("name, bound, count", [
    ("a2", (2, 2), 3),
    ("a3", (1, 2, 1), 6),
    ("kronecker", (3, 2), 5),
    ("atilde21", (2, 2, 2), 10),
    ("atilde12", (2, 2, 2), 10),
    ("atilde31", (1, 2, 2, 1), 12),
    # orbits whose vectors do not grow at every step: P_1 = (1, 0, 1, 1, 1)
    # exceeds the second bound, but tau^-1 P_1 = (0, 1, 2, 1, 1) fits it
    ("dtilde4", (1, 1, 2, 1, 1), 24),
    ("dtilde4", (0, 1, 2, 1, 1), 12),
])
@pytest.mark.parametrize("p", [2, 3])
def test_constructed_rigid_indecomposables_match_enumeration(name, bound, count, p):
    with Budget():
        built = catalog.rigid_indecomposables(name, p, bound)
        ref = _enumerated_rigid_indecomposables(name, p, bound)
    by_dims = {M.dims: M for M in built}
    assert len(by_dims) == len(built) == count
    assert all(len(classes) == 1 for classes in ref.values())
    assert set(by_dims) == set(ref)
    assert all(R.iso_test(M, ref[dims][0]) for dims, M in by_dims.items())


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
def test_rigid_indecomposables_enumerate_nothing_without_tubes(name):
    bound = (4,) * catalog.get(name).principal.n
    with Budget(matrix_tuples=0, hom_elements=0):
        built = catalog.rigid_indecomposables(name, 3, bound)
    assert all(R.is_rigid(M) and R.is_indecomposable(M) for M in built)


def test_delta_isotropic():
    for name in ("kronecker", "atilde21", "atilde22", "dtilde4"):
        entry = catalog.get(name)
        assert entry.model.euler(entry.delta, entry.delta) == 0


def test_graded_epsilons():
    from qcluster.harness import is_graded
    for name in catalog.NAMES:
        entry = catalog.get(name)
        if entry.epsilon is not None:
            assert is_graded(entry.model.exch.b, entry.epsilon), name
