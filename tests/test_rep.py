from itertools import product

import pytest

from qcluster import catalog, modp
from qcluster.hall import ClassStore, dim_vectors_upto
from qcluster.modp import Budget
from qcluster.quiver import IceQuiver, standard_framing
from qcluster.rep import (
    ProjectiveSummandError,
    QuiverRep,
    RepError,
    all_grassmannian_counts,
    aut_count,
    bgp_reflect,
    coxeter_transform,
    direct_sum,
    ext_dim,
    extend_to,
    from_dict,
    grassmannian_count,
    hom_dim,
    injective,
    is_indecomposable,
    is_rigid,
    iso_test,
    proj_dim_vector,
    projective,
    quotient_rep,
    simple,
    sub_rep,
    submodules,
    tau,
    tau_inverse,
    tau_split,
    zero_rep,
)

KRON = IceQuiver(2, 2, [(2, 1), (2, 1)])
KRON_FRAMED = standard_framing(KRON)
A2 = IceQuiver(2, 2, [(2, 1)])
A2_FRAMED = standard_framing(A2)


def kron_reg(p, lam, n=1):
    """Regular module with parameter lam; the two arrow maps are I and J(lam)."""
    ident = modp.identity(n)
    jord = tuple(tuple((lam if i == j else (1 if j == i + 1 else 0)) % p
                       for j in range(n)) for i in range(n))
    return from_dict(KRON, p, {1: n, 2: n}, {(2, 1, 0): ident, (2, 1, 1): jord})


def test_modp_subspace_counts():
    # number of k-subspaces of F_p^d is the Gaussian binomial
    assert len(list(modp.subspaces(2, 1, 3))) == 4
    assert len(list(modp.subspaces(4, 2, 3))) == 130
    assert len(list(modp.subspaces(3, 1, 5))) == 31


def test_modp_subspaces_containing():
    w = ((1, 0, 0),)
    subs = list(modp.subspaces_containing(w, 3, 2, 3))
    assert len(subs) == 4  # lines in the 2-dim quotient
    for s in subs:
        assert modp.span_contains(s, (1, 0, 0), 3, 3)


def test_hom_ext_simples():
    p = 3
    s1, s2 = simple(KRON, p, 1), simple(KRON, p, 2)
    assert hom_dim(s1, s1) == 1
    assert ext_dim(s1, s1) == 0
    assert hom_dim(s2, s1) == 0
    assert ext_dim(s2, s1) == 2  # two arrows 2 -> 1
    assert ext_dim(s1, s2) == 0


def test_hom_regular_endo():
    m = kron_reg(3, 1)
    assert hom_dim(m, m) == 1
    assert ext_dim(m, m) == 1  # delta is isotropic


def test_grassmannian_golden_counts():
    m = kron_reg(3, 1)
    counts = all_grassmannian_counts(m)
    assert counts == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert grassmannian_count(m, (0, 1)) == 0
    assert grassmannian_count(m, (5, 5)) == 0


def test_grassmannian_trivial_cases():
    p = 5
    s = simple(KRON, p, 1)
    assert grassmannian_count(s, (0, 0)) == 1
    assert grassmannian_count(s, (1, 0)) == 1


def test_grassmannian_partition():
    # sum over e of |Gr_e| equals the total number of submodules
    m = direct_sum(kron_reg(3, 1), simple(KRON, 3, 1))
    total = sum(all_grassmannian_counts(m).values())
    count = 0
    for e1 in range(3):
        for e2 in range(2):
            count += grassmannian_count(m, (e1, e2))
    assert total == count


def test_iso_and_aut():
    p = 3
    r1 = kron_reg(p, 1)
    r2 = kron_reg(p, 2)
    assert iso_test(r1, r1)
    assert not iso_test(r1, r2)
    s1 = simple(KRON, p, 1)
    assert aut_count(s1) == p - 1
    assert aut_count(direct_sum(s1, s1)) == (p**2 - 1) * (p**2 - p)
    assert aut_count(r1) == p - 1


def test_indecomposable_and_rigid():
    p = 3
    r = kron_reg(p, 1)
    assert is_indecomposable(r)
    assert not is_rigid(r)
    s1 = simple(KRON, p, 1)
    assert is_rigid(s1)
    assert not is_indecomposable(direct_sum(s1, s1))


def test_sub_quotient():
    p = 3
    r = kron_reg(p, 1, 2)  # quasi-length two over the point lam=1
    subs = submodules(r, (1, 1))
    assert len(subs) == 1  # unique regular submodule of that shape
    sr = sub_rep(r, subs[0])
    assert iso_test(sr, kron_reg(p, 1))
    qr = quotient_rep(r, subs[0])
    assert iso_test(qr, kron_reg(p, 1))


def inclusion_and_projection(M, bases):
    """Per vertex, the inclusion U -> M (the basis rows as columns) and the
    projection M -> M/U onto the unit vectors off the pivots, which sends
    each basis row to zero: its pivot column is minus the row off them."""
    p = M.p
    incl, proj = [], []
    for d, rows in zip(M.dims, bases):
        pivots = [row.index(1) for row in rows]
        off = [c for c in range(d) if c not in pivots]
        incl.append(modp.transpose(rows) if rows else modp.zeros(d, 0))
        cols = [None] * d
        for c in off:
            cols[c] = tuple(int(j == c) for j in off)
        for row, c in zip(rows, pivots):
            cols[c] = tuple(-row[j] % p for j in off)
        proj.append(modp.transpose(cols) if cols else ())
    return incl, proj


# every submodule of every class of the pinned iso-class sweep's quivers
@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
@pytest.mark.parametrize("p", [2, 3])
def test_sub_and_quotient_maps_commute_with_every_arrow(name, p):
    shaped = modp.mat_mul_shaped
    with Budget():
        store = ClassStore(catalog.get(name).principal, p)
        for dims in dim_vectors_upto(store.quiver.m, bound_total=4):
            if store.matrix_entry_count(dims) > 8:
                continue
            for M in store.iso_classes(dims):
                for e in product(*(range(d + 1) for d in dims)):
                    for bases in submodules(M, e):
                        U, Q = sub_rep(M, bases), quotient_rep(M, bases)
                        assert U.dims == e
                        assert tuple(map(sum, zip(U.dims, Q.dims))) == M.dims
                        incl, proj = inclusion_and_projection(M, bases)
                        for idx, (s, t) in enumerate(M.quiver.arrows):
                            m, d = M.dims, Q.dims
                            assert (shaped(M.mats[idx], incl[s - 1], p, m[t - 1], e[s - 1])
                                    == shaped(incl[t - 1], U.mats[idx], p, m[t - 1], e[s - 1]))
                            assert (shaped(Q.mats[idx], proj[s - 1], p, d[t - 1], m[s - 1])
                                    == shaped(proj[t - 1], M.mats[idx], p, d[t - 1], m[s - 1]))


def test_sub_rep_rejects_a_basis_that_is_not_arrow_closed():
    with pytest.raises(RepError, match="not arrow-closed"):
        sub_rep(kron_reg(3, 1), ((), ((1,),)))
    # the image of vertex 2 is e_1 at vertex 1, outside the span of e_2
    M = from_dict(A2, 3, {1: 2, 2: 1}, {(2, 1): ((1,), (0,))})
    with pytest.raises(RepError, match="not arrow-closed"):
        sub_rep(M, (((0, 1),), ((1,),)))


def test_radical_top():
    p = 3
    proj2 = projective(KRON_FRAMED, p, 2)
    assert proj2.dims == (2, 1, 2, 1)
    # a projective is its top's copies of the P_v, which tau_split reads off
    assert tau_split(proj2) == (zero_rep(KRON_FRAMED, p), {2: 1})
    assert tau_split(simple(KRON, p, 1)) == (zero_rep(KRON, p), {1: 1})


def test_projective_injective_shapes():
    p = 3
    assert projective(KRON_FRAMED, p, 1).dims == (1, 0, 1, 0)
    assert injective(KRON_FRAMED, p, 1).dims == (1, 2, 0, 0)
    assert injective(KRON_FRAMED, p, 3).dims == (1, 2, 1, 0)
    assert simple(A2, p, 1) == projective(A2, p, 1)


def test_tau_a2():
    p = 3
    s2 = simple(A2, p, 2)
    t = tau(s2)
    assert iso_test(t, simple(A2, p, 1))
    # tau errors on projectives and tau_inverse on injectives, naming the
    # summands' vertices once
    with pytest.raises(ProjectiveSummandError,
                       match=r"^module has projective summand\(s\) \[1\]$"):
        tau(simple(A2, p, 1))
    with pytest.raises(ProjectiveSummandError,
                       match=r"^module has injective summand\(s\) \[1\]$"):
        tau_inverse(projective(A2, p, 2))


def test_tau_inverse_roundtrip():
    p = 3
    s2 = simple(A2, p, 2)
    assert iso_test(tau_inverse(tau(s2)), s2)
    s1 = simple(A2, p, 1)
    assert iso_test(tau(tau_inverse(s1)), s1)


def test_tau_homogeneous_fixed():
    p = 3
    for lam in (1, 2):
        r = kron_reg(p, lam)
        assert iso_test(tau(r), r)


def test_coxeter_matches_tau():
    p = 3
    s2 = simple(A2, p, 2)
    assert coxeter_transform(A2, s2.dims) == tau(s2).dims
    r = kron_reg(p, 1)
    assert coxeter_transform(KRON, r.dims) == tau(r).dims


@pytest.mark.parametrize("name", catalog.NAMES)
def test_coxeter_sends_projectives_to_negative_injectives(name):
    # -C^T C^-1 maps column i of C, dim P_i, to minus row i, -dim I_i; the
    # P_i span, so this pins the transform on every vector
    entry = catalog.get(name)
    for q in (entry.principal, entry.framed):
        for i in range(1, q.m + 1):
            want = tuple(-d for d in proj_dim_vector(q.op(), i))
            assert coxeter_transform(q, proj_dim_vector(q, i)) == want


# (M, N) pairs per quiver and prime; 3,710 in all
AR_PAIRS = {("a2", 2): 36, ("a2", 3): 36, ("a3", 2): 196, ("a3", 3): 196,
            ("kronecker", 2): 200, ("kronecker", 3): 276, ("atilde21", 2): 665,
            ("atilde21", 3): 720, ("atilde12", 2): 665, ("atilde12", 3): 720}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["a2", "a3", "kronecker", "atilde21", "atilde12"])
def test_auslander_reiten_formula(name, p):
    # Ext^1(M, N) is dual to Hom(N, tau M) when M has no projective summand,
    # for every pair of iso classes of total dimension <= 3
    q = catalog.get(name).principal
    store = ClassStore(q, p)
    classes = [M for d in dim_vectors_upto(q.m, bound_total=3)
               for M in store.iso_classes(d)]
    pairs = 0
    for M in classes:
        try:
            tau_m = tau(M)
        except ProjectiveSummandError:
            continue
        for N in classes:
            assert ext_dim(M, N) == hom_dim(N, tau_m), (M, N)
            pairs += 1
    assert pairs == AR_PAIRS[name, p]


def test_bgp_reflection():
    p = 3
    # vertex 1 is a sink of A2 (arrow 2 -> 1)
    refl, mult = bgp_reflect(simple(A2, p, 1), 1)
    assert refl.is_zero() and mult == 1
    proj2 = projective(A2, p, 2)  # dims (1,1)
    out, mult = bgp_reflect(proj2, 1)
    assert mult == 0
    assert out.dims == (0, 1)


def test_bgp_reflect_dim_follows_simple_reflection():
    p = 3
    s2 = simple(A2, p, 2)
    out, mult = bgp_reflect(s2, 1)
    # s_1 applied to (0,1) for the A2 Cartan gives (1,1)
    assert mult == 0 and out.dims == (1, 1)


def test_zero_rep_and_extend():
    z = zero_rep(KRON, 3)
    assert z.is_zero()
    ext = extend_to(kron_reg(3, 1), KRON_FRAMED)
    assert ext.dims == (1, 1, 0, 0)
    assert hom_dim(ext, ext) == 1


def test_iso_test_across_arrow_orders():
    # the module S2 -> S1, written over two orderings of the same arrows
    q1 = IceQuiver(3, 3, [(2, 1), (3, 2)])
    q2 = IceQuiver(3, 3, [(3, 2), (2, 1)])
    m1 = from_dict(q1, 3, {1: 1, 2: 1}, {(2, 1, 0): ((1,),)})
    m2 = from_dict(q2, 3, {1: 1, 2: 1}, {(2, 1, 0): ((1,),)})
    assert m1.mats != m2.mats
    assert not iso_test(m1, m2)
    assert iso_test(m1, m1)


@pytest.mark.parametrize("p", [4, 1])
def test_rep_refuses_non_prime(p):
    # modp.inv inverts by Fermat, which is wrong modulo a composite
    with pytest.raises(RepError, match="not a prime"):
        QuiverRep(A2, p, (1, 1), {0: ((1,),)})
