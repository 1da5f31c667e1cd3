"""The odometer walks of Hom spaces and G_d block tables against per-element
references: every count, class test, yielded element and Budget tick agrees,
and the enumeration work of the hall-sweep units is pinned."""

import random
from itertools import product

import pytest

from qcluster import catalog, harness, modp
from qcluster import rep as R
from qcluster.hall import ClassStore, _block_table, _gl_generators, dim_vectors_upto
from qcluster.modp import Budget

NAMES = ("a2", "a3", "kronecker", "atilde21")
PRIMES = (2, 3)
MAX_ENTRIES = 8
MAX_ELEMENTS = 3 ** 6


@pytest.mark.parametrize("p", (2, 3))
def test_odometer_follows_product_order(p):
    for n in range(5):
        vec = [0] * n
        walked = [tuple(vec)]
        for i in modp.odometer(n, p):
            vec[i] += 1
            vec[i + 1:] = [0] * (n - i - 1)
            walked.append(tuple(vec))
        assert walked == list(product(range(p), repeat=n))


def reference_elements(basis, M, N):
    """Each nonzero coefficient vector in product order, rebuilt by combine,
    with one hom_elements tick."""
    budget = modp.meter()
    for coeffs in product(range(M.p), repeat=len(basis)):
        if any(coeffs):
            budget.tick("hom_elements")
            yield R.combine(coeffs, basis, M, N)


def reference_walk(basis, M, N):
    """reference_elements flattened vertex by vertex, each block row-major,
    as _hom_walk lays an element out."""
    for blocks in reference_elements(basis, M, N):
        yield [x for block in blocks for row in block for x in row]


def is_automorphism(blocks, M):
    return all(modp.is_invertible(b, M.p) for b, d in zip(blocks, M.dims) if d)


def reference_aut_count(M):
    if M.is_zero():
        return 1
    return sum(is_automorphism(f, M)
               for f in reference_elements(R.hom_basis(M, M), M, M))


def reference_is_indecomposable(M):
    if M.is_zero():
        return False
    ident = tuple(modp.identity(d) for d in M.dims)
    for f in reference_elements(R.hom_basis(M, M), M, M):
        sq = tuple(modp.mat_mul_shaped(b, b, M.p, d, d) for b, d in zip(f, M.dims))
        if sq == f and f != ident:
            return False
    return True


def reference_iso_test(M, N):
    if M.dims != N.dims:
        return False
    if M.key() == N.key():
        return True
    if (sorted(modp.rank(M.mats[i], M.p) for i in M.mats)
            != sorted(modp.rank(N.mats[i], N.p) for i in N.mats)):
        return False
    basis = R.hom_basis(M, N)
    if len(basis) != R.hom_dim(N, M) or len(basis) != R.hom_dim(M, M):
        return False
    return any(is_automorphism(f, M) for f in reference_elements(basis, M, N))


def metered(fn, *args):
    """fn(*args) under a fresh Budget, with the Budget's counts."""
    with Budget() as meter:
        out = fn(*args)
    return out, meter.used


def sweep_classes():
    """(name, p, dims, classes) over the iso-class sweep, with the classes
    of p^dim End at most MAX_ELEMENTS."""
    for name in NAMES:
        for p in PRIMES:
            store = ClassStore(catalog.get(name).principal, p)
            for dims in dim_vectors_upto(store.quiver.m, bound_total=4):
                if store.matrix_entry_count(dims) > MAX_ENTRIES:
                    continue
                with Budget():
                    reps = store.iso_classes(dims)
                yield name, p, dims, [M for M in reps
                                      if p ** R.hom_dim(M, M) <= MAX_ELEMENTS]


def conjugate_by_generator(M):
    """M with each arrow map moved by the last GL generator at its ends
    (the identity where GL_d(F_p) is trivial)."""
    p = M.p
    gens = [(_gl_generators(d, p) or [(modp.identity(d),) * 2])[-1]
            for d in M.dims]
    mats = {}
    for idx, (s, t) in enumerate(M.quiver.arrows):
        mat = M.mats[idx]
        if M.dims[s - 1] and M.dims[t - 1]:
            mat = modp.mat_mul(modp.mat_mul(gens[t - 1][0], mat, p),
                               gens[s - 1][1], p)
        mats[idx] = mat
    return R.QuiverRep(M.quiver, p, M.dims, mats)


def test_walk_matches_per_element_reference():
    classes = walked = 0
    for name, p, dims, reps in sweep_classes():
        for M in reps:
            where = (name, p, dims, M.key())
            assert metered(R.aut_count, M) == metered(reference_aut_count, M), where
            assert metered(R.is_indecomposable, M) == \
                metered(reference_is_indecomposable, M), where
            N = conjugate_by_generator(M)
            assert metered(R.iso_test, M, N) == metered(reference_iso_test, M, N)
            assert R.iso_test(M, N)
            for N in reps:
                assert metered(R.iso_test, M, N) == \
                    metered(reference_iso_test, M, N), (where, N.key())
                basis = R.hom_basis(M, N)
                walk = metered(lambda: list(R._hom_walk(basis, M, N)))
                assert walk == metered(
                    lambda: list(reference_walk(basis, M, N))), where
                walked += len(walk[0])
            classes += 1
    assert (classes, walked) == (365, 58_663)


def test_hom_walk_between_dimension_vectors():
    # rectangular blocks, zero spaces included
    q = catalog.get("a3").principal
    mods = [R.projective(q, 3, i) for i in (1, 2, 3)] + \
        [R.simple(q, 3, i) for i in (1, 2, 3)] + \
        [R.injective(q, 3, i) for i in (1, 2, 3)]
    walked = 0
    for M in mods:
        for N in mods:
            basis = R.hom_basis(M, N)
            walk = metered(lambda: list(R._hom_walk(basis, M, N)))
            assert walk == metered(lambda: list(reference_walk(basis, M, N)))
            walked += len(walk[0])
    assert walked > 0


def test_walk_stops_at_the_budget():
    M = R.direct_sum(*[R.simple(catalog.get("a2").principal, 3, 1)] * 2)
    with Budget(hom_elements=10) as meter:
        with pytest.raises(modp.BudgetExceededError):
            R.aut_count(M)
    assert meter.used["hom_elements"] == 11


def reference_block_table(rows, cols, left, right, p):
    table = []
    for values in product(range(p), repeat=rows * cols):
        X = tuple(values[i * cols:(i + 1) * cols] for i in range(rows))
        if left is not None:
            X = modp.mat_mul(left, X, p)
        if right is not None:
            X = modp.mat_mul(X, right, p)
        index = 0
        for row in X:
            for x in row:
                index = index * p + x
        table.append(index)
    return table


def shapes(p):
    return [(rows, cols) for rows in range(4) for cols in range(4)
            if rows * cols and p ** (rows * cols) <= MAX_ELEMENTS]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_block_table_of_gl_generators(p):
    checked = 0
    for rows, cols in shapes(p):
        for g, _ in _gl_generators(rows, p):
            assert _block_table(rows, cols, g, None, p) == \
                reference_block_table(rows, cols, g, None, p)
            checked += 1
        for _, g_inv in _gl_generators(cols, p):
            assert _block_table(rows, cols, None, g_inv, p) == \
                reference_block_table(rows, cols, None, g_inv, p)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("p", (2, 3, 5))
def test_block_table_of_any_matrices(p):
    rng = random.Random(p)
    for rows, cols in shapes(p):
        left = tuple(tuple(rng.randrange(p) for _ in range(rows)) for _ in range(rows))
        right = tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(cols))
        for lr in ((left, None), (None, right), (left, right), (None, None)):
            assert _block_table(rows, cols, *lr, p) == \
                reference_block_table(rows, cols, *lr, p), (rows, cols, lr)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_block_table_of_zero_entry_shapes(p):
    for rows, cols in [(0, 0), (0, 1), (2, 0), (0, 3), (3, 0)]:
        left = modp.identity(rows) if rows else None
        right = modp.identity(cols) if cols else None
        assert _block_table(rows, cols, left, right, p) == [0]
        assert reference_block_table(rows, cols, left, right, p) == [0]


# (subspace_tuples, matrix_tuples, hom_elements) of one all-pairs unit at p = 3
ENUMERATION_PINS = {
    ("thm3.3", "a2"): (19, 108, 15),
    ("thm3.3", "a3"): (47, 360, 34),
    ("thm3.3", "kronecker"): (136, 6736, 29),
    ("green", "a2"): (61, 26, 719),
    ("green", "a3"): (153, 59, 1406),
    ("green", "kronecker"): (18, 12, 24),
}


@pytest.mark.parametrize("statement, name", sorted(ENUMERATION_PINS))
def test_hall_sweep_enumeration_is_pinned(statement, name):
    with Budget() as meter:
        harness.STATEMENTS[statement].unit(name, 3, True)
    assert tuple(meter.used[k] for k in ("subspace_tuples", "matrix_tuples",
                                         "hom_elements")) == \
        ENUMERATION_PINS[statement, name]
