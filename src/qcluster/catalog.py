"""Desk catalog: the bundled quivers, their cluster models, tube data,
the degree-one homogeneous points, and rigid-object search.

All bundled quivers are stored in the orientation module maps act (see
quiver.py).  An entry holds its quiver, a grading form, and a skew form
only where it has no framing.  Its Coxeter period, the null root delta of
a tame one and the non-homogeneous tubes are derived when the module is
imported, each tube simple is the thin module on its tree support, and the
homogeneous points are built from Ext^1 cocycles, not enumerated.
"""

from __future__ import annotations

import weakref
from functools import partial
from itertools import count, product
from math import gcd

from . import modp
from . import rep as R
from .families import RepFamily
from .hall import ClassStore
from .quiver import ClusterModel, IceQuiver, euler_form_full, standard_framing

class CatalogError(KeyError):
    """A name that the catalog does not hold.  Its str() is the message
    itself, not the repr that KeyError gives."""

    def __str__(self):
        return self.args[0]


class CatalogEntry:
    """A bundled quiver: its principal part, a grading form, and a skew form
    lam only where there is no framing (the exchange matrix then has full
    rank).  The Coxeter period, the null root delta of a tame quiver and its
    non-homogeneous tubes are derived from the quiver."""

    def __init__(self, name, principal, epsilon=None, lam=None):
        self.name = name
        self.principal = principal
        self.framed = principal if lam is not None else standard_framing(principal)
        self.period, self.delta = _coxeter_period(principal)
        self.tubes = _tubes(principal, self.delta) if self.delta else []  # lists of dims
        self.epsilon = epsilon          # grading form or None
        self._lam = lam
        self._model = None

    @property
    def model(self) -> ClusterModel:
        if self._model is None:
            self._model = ClusterModel(self.framed, self._lam, name=self.name)
        return self._model

    def tube_simples(self, p, tube_index):
        return [_thin_module(self.principal, p, x) for x in self.tubes[tube_index]]


def _coxeter_period(q):
    """(h, delta): the least h >= 1 for which c^h - 1 maps every unit vector
    onto one line, c the Coxeter transform, and that line's positive
    primitive vector, None where c^h = 1 (Dynkin).  On a Euclidean quiver
    the line spans the radical of the Tits form (Dlab-Ringel).  Raises
    CatalogError unless delta >= 0 and <delta, delta> = 0."""
    xs = units = [tuple(int(u == v) for u in range(q.m)) for v in range(q.m)]
    for h in count(1):
        xs = [R.coxeter_transform(q, x) for x in xs]
        diffs = [tuple(a - b for a, b in zip(x, u)) for x, u in zip(xs, units)]
        line = max(diffs, key=any)      # a nonzero difference if there is one
        if not any(line):
            return h, None
        if all(d[i] * line[j] == d[j] * line[i] for d in diffs for i in range(q.m)
               for j in range(i)):
            g = gcd(*line) if max(line) > 0 else -gcd(*line)
            delta = tuple(a // g for a in line)
            if min(delta) < 0 or euler_form_full(q, delta, delta):
                raise CatalogError("c^%d - 1 maps onto %s, not a null root" % (h, delta))
            return h, delta


def _tubes(q, delta):
    """The non-homogeneous tubes of a Euclidean quiver, each the list of its
    regular simples' dimension vectors along tau^-1 (Dlab-Ringel).

    A regular simple of a tube of rank r > 1 has a real root 0 < x < delta
    of defect <delta, x> = 0 as its vector, and the tau^-1 orbit of x, read
    off the Coxeter transform, closes after r steps and sums to delta.  The
    walk stops where it leaves those candidates, so a wrong delta cannot
    run it on.  Each tube starts at its member least by (sum(x), x[::-1]),
    and the tubes are in the order their members first appear in the box.
    Raises CatalogError unless the ranks satisfy sum(r - 1) = n - 2.
    """
    cands = [x for x in product(*(range(d + 1) for d in delta))
             if any(x) and x != delta and euler_form_full(q, x, x) == 1
             and euler_form_full(q, delta, x) == 0]
    left, qop, tubes = set(cands), q.op(), []
    for x in cands:
        orbit, y = [], x
        while y in left:
            left.remove(y)
            orbit.append(y)
            y = R.coxeter_transform(qop, y)
        if y == x and tuple(map(sum, zip(*orbit))) == delta:
            k = orbit.index(min(orbit, key=lambda v: (sum(v), v[::-1])))
            tubes.append(orbit[k:] + orbit[:k])
    if sum(len(tube) - 1 for tube in tubes) != q.n - 2:
        raise CatalogError("delta=%s gives tubes %s, not those of a Euclidean "
                           "quiver on %d vertices" % (delta, tubes, q.n))
    return tubes


def _thin_module(q, p, dims):
    """The indecomposable of a 0/1 vector whose support spans a tree: F_p at
    each vertex of the support and the identity on every arrow inside it."""
    support = {v for v, d in enumerate(dims, 1) if d}
    inside = [(s, t) for s, t in q.arrows if s in support and t in support]
    reached, todo = set(), [min(support)] if support else []
    while todo:
        v = todo.pop()
        reached.add(v)
        todo += [w for a in inside if v in a for w in a if w not in reached]
    if set(dims) - {0, 1} or reached != support or len(inside) != len(support) - 1:
        raise CatalogError("%s is not a 0/1 vector on a tree" % (dims,))
    return R.from_dict(q, p, dict.fromkeys(support, 1), dict.fromkeys(inside, ((1,),)))


def _build_entries():
    a2 = IceQuiver(2, 2, [(2, 1)])
    entries = [
        CatalogEntry("kronecker", IceQuiver(2, 2, [(2, 1), (2, 1)]), epsilon=(-1, 1)),
        CatalogEntry("a2", a2, epsilon=(-1, 1)),
        # the same quiver with its own full-rank exchange matrix, no coefficients
        CatalogEntry("a2bare", a2, epsilon=(-1, 1), lam=((0, 1), (-1, 0))),
        CatalogEntry("a3", IceQuiver(3, 3, [(2, 1), (2, 3)]), epsilon=(-1, 1, -1)),
        CatalogEntry("atilde21", IceQuiver(3, 3, [(2, 1), (3, 2), (3, 1)]), epsilon=(-3, 1, 2)),
        CatalogEntry("atilde12", IceQuiver(3, 3, [(2, 1), (3, 1), (2, 3)]), epsilon=(-2, 1, 1)),
        CatalogEntry("atilde31", IceQuiver(4, 4, [(2, 1), (3, 2), (4, 3), (4, 1)]),
                     epsilon=(-3, 1, 2, 3)),
        CatalogEntry("atilde22", IceQuiver(4, 4, [(2, 1), (3, 2), (4, 1), (3, 4)])),
        CatalogEntry("dtilde4", IceQuiver(5, 5, [(1, 3), (2, 3), (3, 4), (3, 5)])),
    ]
    return {entry.name: entry for entry in entries}


ENTRIES = _build_entries()
NAMES = tuple(sorted(ENTRIES))


def get(name: str) -> CatalogEntry:
    if name not in ENTRIES:
        raise CatalogError("unknown catalog quiver %r (have %s)" % (name, ", ".join(NAMES)))
    return ENTRIES[name]


# active meter -> {(name, p): store}; a store is freed with its meter
_STORES = weakref.WeakKeyDictionary()


def store_for(name: str, p: int) -> ClassStore:
    """The class store of (name, p) that belongs to the active meter."""
    stores = _STORES.setdefault(modp.meter(), {})
    if (name, p) not in stores:
        stores[name, p] = ClassStore(get(name).principal, p)
    return stores[name, p]


def delta_pair(name: str, p: int):
    """(P_e, I): the simple projective at the first principal sink e with
    delta_e = 1 and the rigid module of dimension delta - e_e, or None; on a
    Euclidean quiver I is preinjective and Ext^1(I, P_e) is 2-dimensional."""
    entry = get(name)
    if entry.delta is None:
        raise ValueError("%s is not tame" % name)
    q, delta = entry.principal, entry.delta
    sink = next(v for v in range(1, q.n + 1) if q.is_sink(v) and delta[v - 1] == 1)
    pe = R.simple(q, p, sink)
    return pe, find_rigid_module(name, p, tuple(d - x for d, x in zip(delta, pe.dims)))


def homogeneous_points(name: str, p: int):
    """The tau-fixed regular simples of dimension delta with End = F_p: the
    middle terms of the p + 1 lines of Ext^1(I, P_e) (delta_pair) that tau
    fixes; the other t lines give the full-rank tube modules (Crawley-Boevey,
    Lectures on representations of quivers)."""
    store = store_for(name, p)
    if "homogeneous_points" not in store.derived:
        pe, inj = delta_pair(name, p)
        basis = () if inj is None else R.ext_basis(inj, pe)
        if len(basis) != 2:
            raise R.RepError("%s at p=%d: no rigid I of dimension delta - dim P_e "
                             "with a 2-dimensional Ext^1(I, P_e)" % (name, p))
        lines = [basis[1]] + [tuple((a + lam * b) % p for a, b in zip(*basis))
                              for lam in range(p)]
        store.derived["homogeneous_points"] = tuple(
            M for M in (R.extension(inj, pe, eta) for eta in lines)
            if R.iso_test(R.tau(M), M))
    return store.derived["homogeneous_points"]


def tube_module(name: str, p: int, tube_index: int, i: int, length: int):
    """The regular module with quasi-socle the i-th tube simple (1-based) and
    the given quasi-length: the middle term of the nonsplit extension of the
    top tube simple by the module one shorter, built from the one Ext^1
    cocycle, so no iso class is enumerated."""
    entry = get(name)
    simples = entry.tube_simples(p, tube_index)
    r = len(simples)
    if length < 0:
        raise ValueError("negative quasi-length")
    if length == 0:
        return R.zero_rep(entry.principal, p)
    if length == 1:
        return simples[(i - 1) % r]
    below = tube_module(name, p, tube_index, i, length - 1)
    top = simples[(i - 1 + length - 1) % r]
    return R.nonsplit_middle(top, below)


def rigid_indecomposables(name: str, p: int, bound_vec):
    """The rigid indecomposables with dimension vector under the bound, one
    per dimension vector, built rather than enumerated: the preprojectives
    tau^-k P_i, the preinjectives tau^k I_i and the tube modules of
    quasi-length 1..rank-1 (Crawley-Boevey, Lectures on representations of
    quivers), each walked as an orbit of the translate.

    An orbit's dimension vectors are read off the Coxeter transform first,
    and no member after the last new one under the bound is built.  A Dynkin
    orbit ends where its vector turns negative.  On a Euclidean quiver
    c^h x = x + m delta with m >= 1 along a preprojective or preinjective
    orbit, so no member past h * (1 + min_v bound_v // delta_v) steps fits.
    The members and vectors walked stay on the store and are freed with its
    meter.
    """
    entry = get(name)
    q = entry.principal
    built = store_for(name, p).derived.setdefault("rigid_indecomposables", {})
    found = {}

    def fits(dims):
        return any(dims) and all(0 <= d <= b for d, b in zip(dims, bound_vec))

    def walk(key, first_dims, first, translate, step_quiver, steps):
        if key not in built:
            built[key] = ([first_dims()], [])
        dims, orbit = built[key]
        while (steps is None or len(dims) < steps) and min(dims[-1]) >= 0:
            dims.append(R.coxeter_transform(step_quiver, dims[-1]))
        keep = [k for k, d in enumerate(dims[:steps]) if fits(d) and d not in found]
        while keep and len(orbit) <= keep[-1]:
            orbit.append(translate(orbit[-1]) if orbit else first())
        found.update((dims[k], orbit[k]) for k in keep)

    steps = None if entry.delta is None else entry.period * (
        1 + min(b // dv for b, dv in zip(bound_vec, entry.delta)))
    qop = q.op()
    # on a Dynkin quiver the preinjective orbits are the preprojective ones
    # read backwards, so they add nothing once those are walked
    for i in range(1, q.m + 1):
        walk(("preprojective", i), partial(R.proj_dim_vector, q, i),
             partial(R.projective, q, p, i), R.tau_inverse, qop, steps)
    for i in range(1, q.m + 1):
        walk(("preinjective", i), partial(R.proj_dim_vector, qop, i),
             partial(R.injective, q, p, i), R.tau, q, steps)
    for t, tube in enumerate(entry.tubes):
        for length in range(1, len(tube)):
            walk(("tube", t, length),
                 lambda: tuple(map(sum, zip(*tube[:length]))),
                 partial(tube_module, name, p, t, 1, length), R.tau, q, len(tube))
    return list(found.values())


def find_rigid_module(name: str, p: int, dims):
    """A rigid module with the given dimension vector, or None.

    Searches sums of the rigid indecomposables under dims with vanishing
    extensions between summands in both directions.  A rigid module is
    determined by its dimension vector, so the hit does not depend on the
    search order.
    """
    return _rigid_sum(store_for(name, p), rigid_indecomposables(name, p, dims), dims)


def find_delta_decomposition(name: str, p: int, dims):
    """(n, regular rigid R) with dims = n*delta + dim R and n >= 1 least, or
    None.  The parts of R are the rigid indecomposables of defect
    <delta, dim> = 0, that is, the tube modules below the rank."""
    entry = get(name)
    if entry.delta is None:
        return None
    dims = tuple(dims)
    if any(d < 0 for d in dims):
        return None
    store = store_for(name, p)
    regular = [M for M in rigid_indecomposables(name, p, dims)
               if euler_form_full(entry.principal, entry.delta, M.dims) == 0]
    n = 1
    while True:
        rest = tuple(d - n * dv for d, dv in zip(dims, entry.delta))
        if any(r < 0 for r in rest):
            return None
        reg = _rigid_sum(store, regular, rest)
        if reg is not None:
            return n, reg
        n += 1


def _rigid_sum(store, cands, dims):
    """A direct sum of candidates with the given dimension vector and no
    extensions between summands in either direction, or None; a candidate
    may be used more than once, and the first hit in candidate order wins."""

    def search(remaining, start, chosen):
        if not any(remaining):
            return list(chosen)
        for k in range(start, len(cands)):
            M = cands[k]
            if any(md > rd for md, rd in zip(M.dims, remaining)):
                continue
            if any(store.ext(M, X) or store.ext(X, M) for X in chosen):
                continue
            chosen.append(M)
            got = search(tuple(r - m for r, m in zip(remaining, M.dims)), k, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    parts = search(tuple(dims), 0, [])
    if parts is None:
        return None
    return R.direct_sum(R.zero_rep(store.quiver, store.p), *parts)


def family_for(name: str, module_name: str) -> RepFamily:
    """Integer families for the bundled modules used in formal mode."""
    entry = get(name)
    q = entry.principal
    if name == "kronecker":
        if module_name == "s1":
            return RepFamily(q, (1, 0), {}, name="s1")
        if module_name == "s2":
            return RepFamily(q, (0, 1), {}, name="s2")
        if module_name == "r1":
            return RepFamily(q, (1, 1), {0: ((1,),), 1: (("L",),)},
                             bad_primes=(2,), name="r1")
        if module_name == "r2":
            return RepFamily(q, (2, 2),
                             {0: ((1, 0), (0, 1)), 1: (("L", 1), (0, "L"))},
                             bad_primes=(2,), name="r2")
    raise CatalogError("no bundled family %s/%s" % (name, module_name))
