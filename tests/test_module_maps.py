"""Module maps and splitting: kernels and cokernels of Hom-space elements, and
the projective and injective summands that tau_split and tau_inverse_split
read off small indecomposables plus random copies of the P_j and I_j."""

import random

import pytest

from qcluster import catalog, harness, modp
from qcluster.hall import dim_vectors_upto
from qcluster.modp import Budget, mat_vec, rank
from qcluster.rep import (
    ProjectiveSummandError,
    QuiverRep,
    RepError,
    cokernel,
    combine,
    direct_sum,
    extend_to,
    hom_basis,
    injective,
    iso_test,
    kernel,
    projective,
    simple,
    tau,
    tau_inverse,
    tau_inverse_split,
    tau_split,
)


def small_classes(name, p=3, total=2):
    """The nonzero iso classes of total dimension at most total."""
    with Budget():
        store = catalog.store_for(name, p)
        n = catalog.get(name).principal.n
        return [M for d in dim_vectors_upto(n, bound_total=total) if any(d)
                for M in store.iso_classes(d)]


def random_change_of_basis(M, rng):
    """M with each arrow map A: M_s -> M_t replaced by g_t A g_s^-1 for
    seeded random invertible g_v, so that no summand sits in a block."""
    p = M.p
    gs, invs = [], []
    for d in M.dims:
        g = None
        while g is None or not modp.is_invertible(g, p):
            g = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
        gs.append(g)
        # the reduced form of (g | I) is (I | g^-1)
        aug = [row + unit for row, unit in zip(g, modp.identity(d))]
        invs.append(tuple(row[d:] for row in modp.rref(aug, p, 2 * d)[0]))
    mats = {}
    for idx, (s, t) in enumerate(M.quiver.arrows):
        ds, dt = M.dims[s - 1], M.dims[t - 1]
        moved = modp.mat_mul_shaped(gs[t - 1], M.mats[idx], p, dt, ds)
        mats[idx] = modp.mat_mul_shaped(moved, invs[s - 1], p, dt, ds)
    return QuiverRep(M.quiver, p, M.dims, mats)


def split_sweep():
    """(quiver, indecomposable X) over the indecomposables of total dimension
    at most 3 of a2, a3, kronecker and atilde21 at p = 3, each over the
    principal and the framed quiver."""
    for name in ("a2", "a3", "kronecker", "atilde21"):
        entry = catalog.get(name)
        with Budget():
            store = catalog.store_for(name, 3)
            indecs = store.indecomposables(
                dim_vectors_upto(entry.principal.n, bound_total=3))
        for X in indecs:
            yield entry.principal, X
            yield entry.framed, extend_to(X, entry.framed)


@pytest.mark.parametrize("kind", ["projective", "injective"])
def test_tau_split_counts_added_copies(kind):
    # X + sum of random copies of P_j (I_j), in a random basis: the split
    # reads off the copies, and the translate is tau X (tau^-1 X)
    build, split, translate, decompose = {
        "projective": (projective, tau_split, tau, harness.decompose_projective),
        "injective": (injective, tau_inverse_split, tau_inverse,
                      harness.decompose_injective),
    }[kind]
    rng = random.Random(20)
    checked = 0
    for q, X in split_sweep():
        try:
            want = translate(X)
        except ProjectiveSummandError:
            continue
        copies = {j: rng.randrange(3) for j in range(1, q.m + 1)}
        added = [build(q, 3, j) for j, c in copies.items() for _ in range(c)]
        M = random_change_of_basis(direct_sum(X, *added), rng)
        rest, mults = split(M)
        assert mults == {j: c for j, c in copies.items() if c}, (q, X)
        assert iso_test(rest, want), (q, X)
        with pytest.raises(RepError):
            decompose(M)
        checked += 1
    assert checked == {"projective": 47, "injective": 38}[kind]


def module_maps(name):
    """Every hom_basis element between small classes, plus the sum of each
    basis with more than one element."""
    classes = small_classes(name)
    for M in classes:
        for N in classes:
            basis = hom_basis(M, N)
            yield from ((f, M, N) for f in basis)
            if len(basis) > 1:
                yield combine([1] * len(basis), basis, M, N), M, N


@pytest.mark.parametrize("name", ["a2", "kronecker"])
def test_kernel_and_cokernel_dimensions(name):
    seen = 0
    for f, M, N in module_maps(name):
        K, bases = kernel(f, M)
        Q = cokernel(f, N)
        for v in range(M.quiver.m):
            image = N.dims[v] - Q.dims[v]
            assert K.dims[v] + image == M.dims[v]
            assert image == rank(f[v], M.p)
            assert all(not any(mat_vec(f[v], b, M.p)) for b in bases[v])
        seen += 1
    assert seen > 10


def test_direct_sum_of_several_summands():
    q = catalog.get("kronecker").principal
    A, B, C = (small_classes("kronecker")[k] for k in (0, 3, 5))
    assert direct_sum(A, B, C) == direct_sum(direct_sum(A, B), C)
    assert direct_sum(A) == A
    assert direct_sum(simple(q, 3, 1), simple(q, 3, 1)).dims == (2, 0)
