"""Module maps and splitting: kernels and cokernels of Hom-space elements, and
split_complement / split_summands on direct sums of small iso classes."""

import pytest

from qcluster import catalog
from qcluster.hall import dim_vectors_upto
from qcluster.modp import Budget, mat_vec, rank
from qcluster.rep import (
    cokernel,
    combine,
    direct_sum,
    from_dict,
    hom_basis,
    iso_test,
    kernel,
    projective,
    simple,
    split_complement,
    split_summands,
)


def small_classes(name, p=3, total=2):
    """The nonzero iso classes of total dimension at most total."""
    with Budget():
        store = catalog.store_for(name, p)
        n = catalog.get(name).principal.n
        return [M for d in dim_vectors_upto(n, bound_total=total) if any(d)
                for M in store.iso_classes(d)]


@pytest.mark.parametrize("name", ["a2", "kronecker"])
def test_split_complement_of_a_direct_sum(name):
    classes = small_classes(name)
    for A in classes:
        for B in classes:
            comp = split_complement(direct_sum(A, B), A)
            assert comp is not None and iso_test(comp, B), (A.dims, B.dims)


def test_split_complement_of_a_non_summand():
    q = catalog.get("a2").principal
    (s, t), = q.arrows
    M = from_dict(q, 3, {1: 1, 2: 1}, {(s, t): ((1,),)})
    assert split_complement(M, simple(q, 3, 1)) is None
    assert split_complement(M, simple(q, 3, 2)) is None
    assert split_complement(simple(q, 3, 1), M) is None


def test_split_summands_counts_copies():
    q = catalog.get("a2").principal
    s1, s2 = simple(q, 3, 1), simple(q, 3, 2)
    P = projective(q, 3, q.arrows[0][0])
    counts, rest = split_summands(direct_sum(direct_sum(s1, P), s1), [s1, s2])
    assert counts == [2, 0]
    assert iso_test(rest, P)


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
