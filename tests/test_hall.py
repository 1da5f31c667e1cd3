import pytest

from qcluster.hall import ClassStore, dim_vectors_upto
from qcluster.modp import Budget
from qcluster.quiver import IceQuiver
from qcluster.rep import RepError, direct_sum, simple, from_dict, nonsplit_middle
from qcluster import modp

KRON = IceQuiver(2, 2, [(2, 1), (2, 1)])
A2 = IceQuiver(2, 2, [(2, 1)])


def kron_reg(p, lam):
    return from_dict(KRON, p, {1: 1, 2: 1}, {(2, 1, 0): ((1,),), (2, 1, 1): ((lam % p,),)})


@pytest.fixture(scope="module")
def store():
    return ClassStore(KRON, 3)


def test_iso_classes_dim_10(store):
    classes = store.iso_classes((1, 0))
    assert len(classes) == 1
    assert classes[0].dims == (1, 0)


def test_iso_classes_dim_11(store):
    # split class plus one regular class per point of the projective line:
    # S1+S2, R_0, R_1, R_2, R_inf at p=3, i.e. p + 2 in total
    classes = store.iso_classes((1, 1))
    assert len(classes) == store.p + 2 == 5


def test_filtration_trivial(store):
    p = 3
    s1, s2 = simple(KRON, p, 1), simple(KRON, p, 2)
    m = store.canonical(direct_sum(s1, s2))
    z = store.canonical(simple(KRON, p, 1).__class__(KRON, p, (0, 0), {}))
    assert store.filtration_count(m, z, m) == 1  # whole module as submodule
    assert store.filtration_count(m, m, z) == 1


def test_eps_counts_kronecker(store):
    p = 3
    s1, s2 = store.canonical(simple(KRON, p, 1)), store.canonical(simple(KRON, p, 2))
    # p+1 regular classes each carry p-1 extension classes; the split class 1
    middles = store.middle_terms(s2, s1)
    eps = {E.key(): store.ext_count(E, s2, s1) for E in middles}
    split = store.canonical(direct_sum(s2, s1))
    assert eps[split.key()] == 1
    nonzero = [v for k, v in eps.items() if k != split.key() and v]
    assert sorted(nonzero) == [p - 1] * (p + 1)
    assert store.ext_sum_check(s2, s1)


def test_ext_sum_sweep_small(store):
    p = 3
    reps = [store.canonical(simple(KRON, p, 1)),
            store.canonical(simple(KRON, p, 2)),
            store.canonical(kron_reg(p, 1))]
    for m in reps:
        for n in reps:
            if sum(m.dims) + sum(n.dims) <= 3:
                assert store.ext_sum_check(m, n)


def test_nonsplit_middle_unique(store):
    p = 3
    s1 = store.canonical(simple(KRON, p, 1))
    r1 = store.canonical(kron_reg(p, 1))
    # ext(R, S1) = 1 and the middle is the projective of dimension (2,1)
    E = nonsplit_middle(r1, s1)
    assert E.dims == (2, 1)
    assert store.ext(E, E) == 0


def test_a2_counts():
    st = ClassStore(A2, 3)
    s1 = st.canonical(simple(A2, 3, 1))
    s2 = st.canonical(simple(A2, 3, 2))
    E = nonsplit_middle(s2, s1)
    assert E.dims == (1, 1)
    assert st.ext_count(E, s2, s1) == 2  # p - 1 classes
    assert st.ext_sum_check(s2, s1)
    with pytest.raises(RepError, match="one-dimensional"):
        nonsplit_middle(s1, s2)  # Ext^1(S1, S2) = 0


def test_budget_guard():
    st = ClassStore(KRON, 3)
    with Budget(matrix_tuples=5) as meter, pytest.raises(modp.BudgetExceededError):
        st.iso_classes((1, 1))  # needs p**2 = 9 matrix tuples
    assert meter.used["matrix_tuples"] == 6


def test_entry_budget_guard():
    st = ClassStore(KRON, 3)
    from qcluster.rep import RepError
    with pytest.raises(RepError):
        st.iso_classes((3, 3))  # 18 matrix entries > 12


def test_dim_vectors_upto():
    vs = dim_vectors_upto(2, bound_total=2)
    assert (1, 0) in vs and (1, 1) in vs and (0, 2) in vs
    assert (2, 2) not in vs
    assert all(any(v) for v in vs)


def test_primitive_root_needs_a_prime():
    from qcluster.hall import _primitive_root
    assert [_primitive_root(p) for p in (2, 3, 5, 7)] == [1, 2, 2, 3]
    for n in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="%d is not a prime" % n):
            _primitive_root(n)
    assert [n for n in range(30) if modp.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
