"""Class-labelled filtration tables: each (E, e) table splits |Gr_e(E)| over
the (quotient, submodule) class pairs, a wrong class label is caught by the
iso_test check, and the extension counts read from the tables add up to
|Ext^1| and match the middle terms built from the Ext^1 cocycles."""

from collections import Counter
from itertools import product

import pytest

from qcluster import catalog
from qcluster import rep as R
from qcluster.hall import ClassStore, dim_vectors_upto
from qcluster.modp import Budget

P = 3
BOUND = (2, 2)


@pytest.fixture(autouse=True)
def meter():
    with Budget() as meter:
        yield meter


def kronecker_store():
    return ClassStore(catalog.get("kronecker").principal, P)


def sweep_classes(store):
    """Every Kronecker class of dimension vector at most (2, 2)."""
    return [M for dims in dim_vectors_upto(2, bound_vec=BOUND)
            for M in store.iso_classes(dims)]


def test_tables_split_the_grassmannian_counts():
    store = kronecker_store()
    classes = sweep_classes(store)
    cells = 0
    for E in classes:
        counts = R.all_grassmannian_counts(E)
        for e in product(*[range(d + 1) for d in E.dims]):
            quot = tuple(d - x for d, x in zip(E.dims, e))
            total = sum(store.filtration_count(E, A, B)
                        for A in store.iso_classes(quot)
                        for B in store.iso_classes(e))
            assert total == counts.get(e, 0), (E, e)
            table = store.filtration_table(E, e)
            assert sum(table.values()) == total
            cells += len(table)
    assert len(classes) == 45
    assert cells == 322


def test_wrong_class_label_raises(monkeypatch):
    store = kronecker_store()
    split = store.canonical(R.direct_sum(*store.iso_classes((1, 0)) * 2,
                                         *store.iso_classes((0, 1)) * 2))
    right = store.classify

    def shifted(M):
        return (right(M) + 1) % len(store.iso_classes(M.dims))

    monkeypatch.setattr(store, "classify", shifted)
    A, B = store.iso_classes((1, 1))[:2]
    with pytest.raises(R.RepError, match="class representative"):
        store.filtration_count(split, A, B)


def test_ext_sum_check_on_every_sweep_pair():
    store = kronecker_store()
    classes = sweep_classes(store)
    pairs = [(M, N) for M in classes for N in classes
             if all(m + n <= b for m, n, b in zip(M.dims, N.dims, BOUND))]
    assert len(pairs) == 79
    for M, N in pairs:
        assert store.ext_sum_check(M, N), (M, N)
        # the cocycles of Ext^1(M, N) land in each middle class E as often
        # as Riedtmann-Peng counts the extensions with middle term E
        basis = R.ext_basis(M, N)
        assert len(basis) == store.ext(M, N), (M, N)
        size = sum(N.dims[t - 1] * M.dims[s - 1] for s, t in M.quiver.arrows)
        built = Counter()
        for coeffs in product(range(P), repeat=len(basis)):
            eta = [sum(c * b[k] for c, b in zip(coeffs, basis)) % P
                   for k in range(size)]
            built[store.classify(R.extension(M, N, eta))] += 1
        counted = {store.classify(E): store.ext_count(E, M, N)
                   for E in store.middle_terms(M, N)}
        assert built == {k: v for k, v in counted.items() if v}, (M, N)
