import pytest

from qcluster import catalog
from qcluster.ccmap import ClusterObject, cc_map
from qcluster.quiver import check_compatible
from qcluster.rep import simple
from qcluster.scalars import FORMAL, SpecializedMode
from qcluster.seeds import QuantumSeed, SeedError, mutate_matrices, standard_monomial


@pytest.fixture(scope="module")
def kron_seed():
    return QuantumSeed.initial(catalog.get("kronecker").model)


def test_matrix_mutation_involution():
    model = catalog.get("kronecker").model
    lam1, bt1 = mutate_matrices(model.lam, model.exch.btilde, 1)
    lam2, bt2 = mutate_matrices(lam1, bt1, 1)
    assert bt2 == model.exch.btilde
    assert lam2 == model.lam
    assert check_compatible(lam1, bt1) == (1, 1)


def test_matrix_mutation_sign_pattern():
    model = catalog.get("kronecker").model
    _lam, bt = mutate_matrices(model.lam, model.exch.btilde, 1)
    for i in range(4):
        assert bt[i][0] == -model.exch.btilde[i][0]


def test_frozen_direction_rejected(kron_seed):
    with pytest.raises(SeedError):
        kron_seed.mutate(3)


def test_seed_mutation_involution(kron_seed):
    for k in (1, 2):
        assert kron_seed.mutate(k).mutate(k) == kron_seed


def test_mutated_variable_is_simple_image():
    p = 3
    entry = catalog.get("kronecker")
    seed = QuantumSeed.initial(entry.model)
    for k in (1, 2):
        var = seed.mutate(k).vars[k - 1].specialize(p)
        want = cc_map(ClusterObject(simple(entry.principal, p, k)), entry.model, p)
        assert var == want


def test_bar_invariance_along_walk(kron_seed):
    seed = kron_seed
    for k in (1, 2, 1, 2):
        seed = seed.mutate(k)
        for v in seed.vars:
            assert v.bar() == v


def test_laurent_property_depth8():
    # every mutated variable stays a finite toric element along long walks
    for name in ("a2", "a3", "kronecker"):
        model = catalog.get(name).model
        seed = QuantumSeed.initial(model)
        walk = [1, 2, 1, 2, 1, 2, 1, 2] if model.n == 2 else [1, 2, 3, 1, 2, 3, 1, 2]
        for k in walk:
            seed = seed.mutate(k)
            assert all(len(v.terms) >= 1 for v in seed.vars)
            assert seed.d == model.d


def test_pentagon():
    model = catalog.get("a2").model
    init = QuantumSeed.initial(model)
    seed = init
    for k in (1, 2, 1, 2, 1):
        seed = seed.mutate(k)
    assert seed != init  # labels swapped
    assert seed.relabel_principal({1: 2, 2: 1}) == init
    ten = init
    for k in (1, 2) * 5:
        ten = ten.mutate(k)
    assert ten == init


def test_frame_monomial_and_cluster_monomial(kron_seed):
    model = catalog.get("kronecker").model
    torus = model.torus(FORMAL)
    # single variables come back unchanged
    for i in range(4):
        c = tuple(1 if k == i else 0 for k in range(4))
        assert kron_seed.frame_monomial(c) == kron_seed.vars[i]
    # ordered two-factor products are the based monomials on the initial seed
    assert kron_seed.frame_monomial((1, 1, 0, 1)) == torus.monomial((1, 1, 0, 1))
    with pytest.raises(SeedError):
        kron_seed.cluster_monomial((-1, 0, 0, 0))
    # frozen coordinates may be negative
    assert kron_seed.cluster_monomial((1, 0, -1, 0)) == torus.monomial((1, 0, -1, 0))


def test_binomial_exchange_general_exponent(kron_seed):
    s1 = kron_seed.mutate(1)
    val = kron_seed.mutated_value(1, (2, 0, 0, 0))
    assert val == s1.vars[0] * s1.vars[0]
    val1 = kron_seed.mutated_value(1, (1, 0, 0, 0))
    assert val1 == s1.vars[0]


def test_standard_monomial_values():
    torus = catalog.get("kronecker").model.torus(SpecializedMode(3))
    assert standard_monomial("kronecker", (0, 0), 3) == torus.one()
    assert standard_monomial("kronecker", (-1, 0), 3) == torus.monomial((1, 0, 0, 0))
    # d = (1,1): the ordered product X_{S1} X_{S2}
    entry = catalog.get("kronecker")
    xs1 = cc_map(ClusterObject(simple(entry.principal, 3, 1)), entry.model, 3)
    xs2 = cc_map(ClusterObject(simple(entry.principal, 3, 2)), entry.model, 3)
    assert standard_monomial("kronecker", (1, 1), 3) == xs1 * xs2
