"""Certificates for the one-walk Grassmannian counts: the walk equals the
per-e submodule lister on the pinned iso-class sweep, the counts at e = 0 and
e = dim M are 1, semisimple modules give Galois numbers, and a large Kronecker
preprojective has its known total."""

from itertools import product

import pytest

from qcluster import catalog, cli, modp
from qcluster import rep as R
from qcluster.hall import ClassStore, dim_vectors_upto
from qcluster.modp import Budget

NAMES = ("a2", "a3", "kronecker", "atilde21")
PRIMES = (2, 3)
MAX_ENTRIES = 8


@pytest.fixture(autouse=True)
def meter():
    with Budget() as meter:
        yield meter


def sweep_modules():
    """Every class of the pinned sweep of test_iso_classes: dimension vectors
    of total at most 4 with at most 8 matrix entries, at p = 2 and 3."""
    out = []
    for name in NAMES:
        for p in PRIMES:
            store = ClassStore(catalog.get(name).principal, p)
            for dims in dim_vectors_upto(store.quiver.m, bound_total=4):
                if store.matrix_entry_count(dims) <= MAX_ENTRIES:
                    out += store.iso_classes(dims)
    return out


def listed_counts(M):
    """{e: |Gr_e(M)|} by listing the submodules of each e."""
    out = {}
    for e in product(*[range(d + 1) for d in M.dims]):
        count = len(R.submodules(M, e))
        if count:
            out[e] = count
    return out


def galois_number(n, p):
    """The number of subspaces of F_p^n, by G_(k+1) = 2 G_k + (p^k - 1) G_(k-1)."""
    prev, cur = 1, 2
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, 2 * cur + (p ** k - 1) * prev
    return cur


def kronecker_preprojective(i, steps, p=3):
    M = R.projective(catalog.get("kronecker").principal, p, i)
    for _ in range(steps):
        M = R.tau_inverse(M)
    return M


def test_walk_equals_lister_on_the_pinned_sweep():
    modules = sweep_modules()
    assert len(modules) == 455
    for M in modules:
        assert R.all_grassmannian_counts(M) == listed_counts(M), M


def test_zero_and_whole_module_counts_are_one():
    modules = sweep_modules() + [kronecker_preprojective(i, k)
                                 for i in (1, 2) for k in range(3)]
    for M in modules:
        counts = R.all_grassmannian_counts(M)
        assert counts[(0,) * len(M.dims)] == 1, M
        assert counts[M.dims] == 1, M


def test_gaussian_binomial_counts_subspaces():
    for p in (2, 3, 5):
        for d in range(5):
            for k in range(-1, d + 2):
                assert modp.gaussian_binomial(d, k, p) == \
                    len(list(modp.subspaces(d, k, p))), (d, k, p)


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker", "atilde21"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_semisimple_totals_are_galois_numbers(name, p):
    q = catalog.get(name).principal
    for mult in product(range(4), repeat=q.m):
        if sum(mult) > 5:
            continue
        simples = [R.simple(q, p, v + 1) for v, k in enumerate(mult) for _ in range(k)]
        M = R.direct_sum(*simples) if simples else R.zero_rep(q, p)
        counts = R.all_grassmannian_counts(M)
        total = 1
        for k in mult:
            total *= galois_number(k, p)
        assert sum(counts.values()) == total, mult
        for e, count in counts.items():
            want = 1
            for k, x in zip(mult, e):
                want *= modp.gaussian_binomial(k, x, p)
            assert count == want, (mult, e)


def test_kronecker_preprojective_6_5_total():
    M = kronecker_preprojective(2, 2)
    assert M.dims == (6, 5)
    counts = R.all_grassmannian_counts(M)
    assert len(counts) == 22
    assert sum(counts.values()) == 92_293


def test_walk_ticks_only_the_non_sink_subspaces(meter):
    # kronecker's sink is vertex 1; the walk lists the subspaces of the
    # 5-dimensional space at the source and closes the sink in closed form
    R.all_grassmannian_counts(kronecker_preprojective(2, 2))
    assert meter.used["subspace_tuples"] == galois_number(5, 3) - 1


def test_grassmannian_count_reads_the_walk():
    M = kronecker_preprojective(1, 1)
    counts = R.all_grassmannian_counts(M)
    for e in product(*[range(d + 2) for d in M.dims]):
        assert R.grassmannian_count(M, e) == counts.get(e, 0)
    assert R.grassmannian_count(M, (-1, 0)) == 0
    with pytest.raises(R.RepError, match="wrong length"):
        R.grassmannian_count(M, (1, 0, 0))


@pytest.mark.parametrize("rep", ["r1.rep", "r1.family"])
def test_grass_cli_rejects_a_wrong_length(capsys, rep):
    rc = cli.main(["grass", "--quiver", "kronecker", "--rep", rep, "--e=1,0,0"])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        "error: dimension vector has wrong length"
