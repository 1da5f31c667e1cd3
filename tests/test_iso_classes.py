"""Iso-class enumeration by G_d-orbit labelling: the same representatives as
the brute-force method, the same labels as block arithmetic on the tuple
indices, the orbit mass formula, and classify by lookup."""

import hashlib
import random
from array import array
from fractions import Fraction
from itertools import product

import pytest

from qcluster import catalog, hall, harness, modp
from qcluster import rep as R
from qcluster.hall import ClassStore, _block_table, _gl_generators, dim_vectors_upto
from qcluster.modp import Budget
from qcluster.quiver import IceQuiver

NAMES = ("a2", "a3", "kronecker", "atilde21")
PRIMES = (2, 3)
MAX_ENTRIES = 8


@pytest.fixture(autouse=True)
def meter():
    """A fresh meter for each test, so the module's enumerations stay off
    the process-wide default."""
    with Budget() as meter:
        yield meter


def sweep_dims(store):
    return [dims for dims in dim_vectors_upto(store.quiver.m, bound_total=4)
            if store.matrix_entry_count(dims) <= MAX_ENTRIES]


def brute_force_classes(store, dims):
    """The first tuple, in product order, not iso_test-isomorphic to an
    earlier class representative."""
    q, p = store.quiver, store.p
    shapes = [(dims[t - 1], dims[s - 1]) for s, t in q.arrows]
    reps = []
    for values in product(range(p), repeat=store.matrix_entry_count(dims)):
        mats, pos = {}, 0
        for idx, (rows, cols) in enumerate(shapes):
            mats[idx] = [values[pos + i * cols:pos + (i + 1) * cols]
                         for i in range(rows)]
            pos += rows * cols
        cand = R.QuiverRep(q, p, dims, mats)
        if not any(R.iso_test(cand, known) for known in reps):
            reps.append(cand)
    return reps


def fresh_store(name, p):
    return ClassStore(catalog.get(name).principal, p)


def test_sweep_representatives_are_pinned():
    rows = []
    for name in NAMES:
        for p in PRIMES:
            store = fresh_store(name, p)
            rows += [(name, p, dims, [r.key() for r in store.iso_classes(dims)])
                     for dims in sweep_dims(store)]
    assert len(rows) == 192
    assert sum(len(keys) for *_, keys in rows) == 455
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "1fbecdf29df990e34a560687afcdce4650527ef599049c39e0b940fcdea1e464"


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("p", PRIMES)
def test_same_representatives_as_brute_force(name, p):
    store = fresh_store(name, p)
    for dims in sweep_dims(store):
        expected = brute_force_classes(fresh_store(name, p), dims)
        assert [r.key() for r in store.iso_classes(dims)] == \
            [r.key() for r in expected], dims


def test_orbit_mass_formula():
    # sum_[M] |G_d| / |Aut M| = p^entries, with |Aut M| from aut_count;
    # aut_count walks all of End M, so classes with more than 3^10
    # endomorphisms (End M_4(F_p) has p^16) are left to the other tests
    checked = 0
    for name in NAMES:
        for p in PRIMES:
            store = fresh_store(name, p)
            for dims in sweep_dims(store):
                reps = store.iso_classes(dims)
                if any(p ** R.hom_dim(M, M) > 3 ** 10 for M in reps):
                    continue
                mass = sum(Fraction(store.group_order(dims),
                                    R.aut_count(M)) for M in reps)
                assert mass == p ** store.matrix_entry_count(dims), (name, p, dims)
                checked += 1
    assert checked == 172


def test_aut_checks_orbit_stabiliser():
    store = fresh_store("kronecker", 3)
    reps = store.iso_classes((1, 1))
    for M in reps:
        assert store.aut(M) * store._orbit[M.key()] == store.group_order((1, 1))
    fresh = fresh_store("kronecker", 3)
    M = fresh.iso_classes((1, 1))[0]
    fresh._orbit[M.key()] += 1
    with pytest.raises(R.RepError, match="orbit-stabiliser"):
        fresh.aut(M)


def random_invertible(rng, n, p):
    while True:
        g = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if modp.is_invertible(g, p):
            return g


def inverse(g, p):
    power, prev = g, modp.identity(len(g))
    while power != modp.identity(len(g)):
        power, prev = modp.mat_mul(power, g, p), power
    return prev


def conjugate(M, gs):
    p = M.p
    mats = {}
    for idx, (s, t) in enumerate(M.quiver.arrows):
        mat = M.mats[idx]
        if M.dims[s - 1] and M.dims[t - 1]:
            mat = modp.mat_mul(modp.mat_mul(gs[t - 1], mat, p),
                               inverse(gs[s - 1], p), p)
        mats[idx] = mat
    return R.QuiverRep(M.quiver, p, M.dims, mats)


@pytest.mark.parametrize("name, dims", [("kronecker", (2, 2)), ("a3", (1, 1, 1))])
def test_classify_random_conjugates(name, dims):
    rng = random.Random(7)
    store = fresh_store(name, 3)
    for i, M in enumerate(store.iso_classes(dims)):
        gs = [random_invertible(rng, d, 3) if d else () for d in dims]
        N = conjugate(M, gs)
        assert store.classify(N) == i
        assert store.canonical(N) is M


def test_classify_rejects_reordered_quiver():
    q = catalog.get("a3").principal
    store = ClassStore(q, 3)
    other = IceQuiver(q.m, q.n, reversed(q.arrows))
    M = R.simple(other, 3, 1)
    with pytest.raises(R.RepError):
        store.classify(M)


def test_matrix_tuples_ticked_once_per_tuple(meter):
    store = fresh_store("kronecker", 3)
    store.iso_classes((2, 2))
    assert meter.used["matrix_tuples"] == 3 ** 8


def reference_moves(store, dims):
    """Per generator of G_d, the (weight, p^block size, table) of each arrow
    block it moves; a tuple's index is sum(block index * weight)."""
    q, p = store.quiver, store.p
    sizes = [dims[s - 1] * dims[t - 1] for s, t in q.arrows]
    weights = []
    rest = sum(sizes)
    for size in sizes:
        rest -= size
        weights.append(p ** rest)
    moves = []
    for v in range(1, q.m + 1):
        for g, g_inv in _gl_generators(dims[v - 1], p):
            acts = []
            for (s, t), size, weight in zip(q.arrows, sizes, weights):
                if size and t == v:
                    table = _block_table(dims[t - 1], dims[s - 1], g, None, p)
                elif size and s == v:
                    table = _block_table(dims[t - 1], dims[s - 1], None, g_inv, p)
                else:
                    continue
                acts.append((weight, p ** size, table))
            if acts:
                moves.append(acts)
    return moves


def reference_labelling(store, dims):
    """(representative keys, labels, orbit sizes) of the orbit labelling
    walk with each move done by block arithmetic on the tuple index, one
    matrix_tuples tick per tuple."""
    p = store.p
    entries = store.matrix_entry_count(dims)
    shapes = [(dims[t - 1], dims[s - 1]) for s, t in store.quiver.arrows]
    moves = reference_moves(store, dims)
    labels = array("I", [0]) * p ** entries
    keys, orbits = [], []
    budget = modp.meter()
    for index, values in enumerate(product(range(p), repeat=entries)):
        budget.tick("matrix_tuples")
        if labels[index]:
            continue
        mats, pos = {}, 0
        for idx, (rows, cols) in enumerate(shapes):
            mats[idx] = [values[pos + i * cols:pos + (i + 1) * cols]
                         for i in range(rows)]
            pos += rows * cols
        keys.append(R.QuiverRep(store.quiver, p, dims, mats).key())
        labels[index] = label = len(keys)
        stack, size = [index], 1
        while stack:
            cur = stack.pop()
            for acts in moves:
                nxt = cur
                for weight, radix, table in acts:
                    block = cur // weight % radix
                    nxt += (table[block] - block) * weight
                if not labels[nxt]:
                    labels[nxt] = label
                    size += 1
                    stack.append(nxt)
        orbits.append(size)
    return keys, labels, orbits


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("p", (2, 3, 5))
def test_labels_match_block_arithmetic(name, p):
    """Every dimension vector of the all-pairs sweep box within the entry
    cap: the permutation walk of iso_classes finds the representatives,
    labels, orbit sizes and matrix_tuples ticks of the reference walk."""
    store = fresh_store(name, p)
    cap = hall.MAX_ENTRIES if p <= 3 else hall.MAX_ENTRIES_P5
    checked = 0
    for dims in harness._sweep_dims(name, **harness._pair_bounds(name, True)):
        if store.matrix_entry_count(dims) > cap:
            continue
        with Budget() as ref_meter:
            keys, labels, orbits = reference_labelling(store, dims)
        with Budget() as meter:
            reps = store.iso_classes(dims)
        assert [M.key() for M in reps] == keys, dims
        assert store._labels[dims] == labels, dims
        assert [store._orbit[k] for k in keys] == orbits, dims
        assert meter.used == ref_meter.used, dims
        checked += 1
    assert checked > 0
