"""Class-labelled filtration tables: each (E, e) table splits |Gr_e(E)| over
the (quotient, submodule) class pairs, a wrong class label is caught by the
iso_test check, the extension counts read from the tables add up to
|Ext^1|, and they match the counts that ext_table reads off the Ext^1
cocycles, which thm3.3 uses without any filtration table."""

from itertools import product

import pytest

from qcluster import catalog, harness
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


# all classes within the green bounds, and on the Kronecker quiver within its
# sweep bounds (2, 2)
CLASS_BOUNDS = dict(harness.GREEN_BOUNDS, kronecker=harness.SWEEP_BOUNDS["kronecker"])
# (name, p): the number of pairs the test checks
SWEEP_PAIRS = {("a2", 2): 21, ("a2", 3): 21, ("a2bare", 2): 21,
               ("a2bare", 3): 21, ("a3", 2): 67, ("a3", 3): 67,
               ("kronecker", 2): 62, ("kronecker", 3): 79}


@pytest.mark.parametrize("name", ["a2", "a2bare", "a3", "kronecker"])
@pytest.mark.parametrize("p", [2, 3])
def test_ext_sum_check_on_every_sweep_pair(name, p):
    """On every ordered pair of classes within CLASS_BOUNDS and every
    hall_pairs pair of indecomposables within the thm3.3 sweep bounds, the
    Riedtmann-Peng counts add up to |Ext^1| and ext_table finds the same
    counts on the Ext^1 cocycles."""
    store = catalog.store_for(name, p)
    bounds = CLASS_BOUNDS[name]
    classes = [M for dims in harness._sweep_dims(name, **bounds)
               for M in store.iso_classes(dims)]
    pairs = {(M.key(), N.key()): (M, N)
             for M, N in harness._bounded_pairs(classes, **bounds)
             + harness.hall_pairs(name, p, **harness.SWEEP_BOUNDS[name])}
    assert len(pairs) == SWEEP_PAIRS[name, p]
    for M, N in pairs.values():
        assert store.ext_sum_check(M, N), (M, N)
        counted = {store.classify(E): store.ext_count(E, M, N)
                   for E in store.middle_terms(M, N)}
        assert store.ext_table(M, N) == {k: v for k, v in counted.items() if v}, \
            (M, N)


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
def test_thm33_unit_takes_no_riedtmann_peng_route(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("thm3.3 reached the Riedtmann-Peng route")

    monkeypatch.setattr(ClassStore, "filtration_table", refuse)
    monkeypatch.setattr(R, "aut_count", refuse)
    reports = harness.STATEMENTS["thm3.3"].unit(name, P, True)
    assert reports and all(r.verdict == "pass" for r in reports)


@pytest.mark.parametrize("doctor", ["coboundary", "dropped"])
def test_ext_table_certificates(monkeypatch, doctor):
    """A regular (1, 1) module R has Ext^1(R, R) = F_p and a nonzero
    coboundary.  Swapping the cocycle for a coboundary puts the split class
    on all p cocycles; dropping it leaves fewer cocycles than the Euler form
    counts.  Both raise."""
    store = kronecker_store()
    M = next(X for X in store.iso_classes((1, 1)) if store.ext(X, X) == 1)
    split = store.classify(R.direct_sum(M, M))
    table = store.ext_table(M, M)
    assert table[split] == 1 and sum(table.values()) == P
    rows, _ = R._delta(M, M)
    coboundary = next(col for col in zip(*rows) if any(col))
    right = R.ext_basis
    if doctor == "coboundary":
        monkeypatch.setattr(R, "ext_basis",
                            lambda M, N: [coboundary] + right(M, N)[1:])
        match = "reached by %d cocycles" % P
    else:
        monkeypatch.setattr(R, "ext_basis", lambda M, N: right(M, N)[1:])
        match = "0 Ext.1 cocycles against an Euler-form dimension of 1"
    with pytest.raises(R.RepError, match=match):
        store.ext_table(M, M)


def rep_of(store, key):
    """The representation over the store's quiver whose key() is key."""
    dims, mats = key
    return R.QuiverRep(store.quiver, store.p, dims, dict(mats))


@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
@pytest.mark.parametrize("p", [2, 3])
def test_memoized_counts_match_a_fresh_store(name, p):
    """After a thm3.3 unit and a green unit on one class store, every
    memoized filtration and Riedtmann-Peng count is the one a fresh store
    computes, and the counts of every green pair add up to |Ext^1|."""
    harness.STATEMENTS["thm3.3"].unit(name, p, True)
    harness.STATEMENTS["green"].unit(name, p, True)
    store = catalog.store_for(name, p)
    fresh = ClassStore(store.quiver, p)
    assert any(store._filt_count.values()) and any(store._eps.values())
    for key, count in store._filt_count.items():
        assert fresh.filtration_count(*(rep_of(store, k) for k in key)) == count, key
    for key, count in store._eps.items():
        assert fresh.ext_count(*(rep_of(store, k) for k in key)) == count, key
    pairs = harness.hall_pairs(name, p, **harness._pair_bounds(name, False))
    assert pairs
    for M, N in pairs:
        assert store.ext_sum_check(M, N), (M, N)
