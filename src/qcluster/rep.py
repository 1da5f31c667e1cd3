"""Quiver representations over a prime field: Hom/Ext, submodule enumeration,
isomorphism and automorphism counting, AR translate, BGP reflection.
"""

from __future__ import annotations

from itertools import product

from . import modp
from .quiver import IceQuiver, QuiverError, euler_form_full


class RepError(ValueError):
    pass


class ProjectiveSummandError(ValueError):
    pass


class QuiverRep:
    """A representation: one d_tgt x d_src matrix over F_p per arrow."""

    __slots__ = ("quiver", "p", "dims", "mats", "_key")

    def __init__(self, quiver: IceQuiver, p: int, dims, mats):
        if not modp.is_prime(p):
            raise RepError("p=%d is not a prime" % p)
        self.quiver = quiver
        self.p = p
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.m or any(d < 0 for d in self.dims):
            raise RepError("bad dimension vector %r" % (dims,))
        norm = {}
        for idx, (s, t) in enumerate(quiver.arrows):
            mat = mats.get(idx) if isinstance(mats, dict) else mats[idx]
            rows = self.dims[t - 1]
            cols = self.dims[s - 1]
            if mat is None:
                mat = modp.zeros(rows, cols)
            mat = tuple(tuple(int(x) % p for x in row) for row in mat)
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise RepError("matrix on arrow %d->%d has wrong shape" % (s, t))
            norm[idx] = mat
        self.mats = norm
        self._key = (self.dims, tuple(sorted(self.mats.items())))

    def key(self):
        return self._key

    def __eq__(self, other):
        return (isinstance(other, QuiverRep) and self.p == other.p
                and self.quiver == other.quiver and self._key == other._key)

    def __hash__(self):
        return hash((self.p, self._key))

    def is_zero(self):
        return not any(self.dims)

    def __repr__(self):
        return "QuiverRep(p=%d, dims=%s)" % (self.p, list(self.dims))


def zero_rep(quiver, p):
    return QuiverRep(quiver, p, (0,) * quiver.m, {})


def from_dict(quiver, p, dims_by_vertex, mats_by_arrow):
    """Build a rep from vertex->dim and (src,tgt,occurrence)->matrix dicts."""
    dims = [dims_by_vertex.get(v, 0) for v in range(1, quiver.m + 1)]
    mats = {idx: mats_by_arrow.get(key, mats_by_arrow.get(key[:2]))
            for key, idx in quiver.arrow_slots().items()}
    return QuiverRep(quiver, p, dims, mats)


def extend_to(rep: QuiverRep, framed: IceQuiver) -> QuiverRep:
    """View a representation of the principal part as one of the framed quiver."""
    if rep.quiver.m == framed.m:
        return rep
    if rep.quiver != framed.principal():
        raise RepError("representation does not match the principal part")
    dims = rep.dims + (0,) * (framed.m - rep.quiver.m)
    slots = framed.arrow_slots()
    mats = {slots[key]: rep.mats[idx]
            for key, idx in rep.quiver.arrow_slots().items()}
    return QuiverRep(framed, rep.p, dims, mats)


def restrict_principal(rep: QuiverRep) -> QuiverRep:
    """Inverse of extend_to for reps supported on principal vertices."""
    q = rep.quiver
    if q.m == q.n:
        return rep
    if any(rep.dims[i] for i in range(q.n, q.m)):
        raise RepError("representation has frozen support")
    pr = q.principal()
    slots = q.arrow_slots()
    mats = {j: rep.mats[slots[key]] for key, j in pr.arrow_slots().items()}
    return QuiverRep(pr, rep.p, rep.dims[:q.n], mats)


# ---------------------------------------------------------------------------
# Hom and Ext


def _vertex_slices(M, N):
    """(start, rows, cols) of each vertex block N_v x M_v inside a module
    map that is flattened vertex by vertex, each block row-major."""
    out = []
    start = 0
    for r, c in zip(N.dims, M.dims):
        out.append((start, r, c))
        start += r * c
    return out


def _delta(M: QuiverRep, N: QuiverRep):
    """(rows, total): the matrix of the map
    delta: (+)_v Hom(M_v, N_v) -> (+)_a Hom(M_s, N_t), delta(f)_a = N_a f_s - f_t M_a.

    Its kernel is Hom(M, N) and its cokernel Ext^1(M, N) (Ringel,
    Representations of K-species and bimodules; Crawley-Boevey, Lectures on
    representations of quivers).  A module map is flattened over total
    coordinates as _vertex_slices lays it out; a cocycle is flattened arrow by
    arrow, each N_t x M_s block row-major, with one row of delta per entry."""
    if M.quiver != N.quiver or M.p != N.p:
        raise RepError("Hom needs matching quiver and prime")
    p = M.p
    slices = _vertex_slices(M, N)
    total = sum(r * c for _, r, c in slices)
    rows = []
    for idx, (s, t) in enumerate(M.quiver.arrows):
        (off_s, ns, ms), (off_t, nt, mt) = slices[s - 1], slices[t - 1]
        A = M.mats[idx]   # mt x ms
        B = N.mats[idx]   # nt x ns
        for i in range(nt):
            for j in range(ms):
                row = [0] * total
                for k in range(ns):   # (N_a f_s)[i][j] = sum_k B[i][k] f_s[k][j]
                    row[off_s + k * ms + j] += B[i][k]
                for k in range(mt):   # (f_t M_a)[i][j] = sum_k f_t[i][k] A[k][j]
                    row[off_t + i * mt + k] -= A[k][j]
                rows.append(tuple(x % p for x in row))
    return rows, total


def hom_basis(M: QuiverRep, N: QuiverRep):
    """Basis of the intertwiner space, each element a tuple of vertex blocks."""
    rows, total = _delta(M, N)
    if total == 0:
        return []
    basis = modp.nullspace([row for row in rows if any(row)], M.p, total)
    return [tuple(tuple(tuple(vec[start + i * c:start + (i + 1) * c])
                        for i in range(r))
                  for start, r, c in _vertex_slices(M, N))
            for vec in basis]


def hom_dim(M, N) -> int:
    """dim Hom(M, N), the nullity of delta."""
    rows, total = _delta(M, N)
    return total - modp.rank(rows, M.p)


def ext_dim(M, N) -> int:
    """dim Ext^1 for a hereditary path algebra: hom minus Euler form."""
    val = hom_dim(M, N) - euler_form_full(M.quiver, M.dims, N.dims)
    if val < 0:
        raise RepError("negative ext dimension; arithmetic bug")
    return val


def ext_basis(M, N):
    """Cocycles whose classes form a basis of Ext^1(M, N), flattened as in
    _delta: the unit vectors at the coordinates that are not pivots of the
    reduced image of delta."""
    rows, _ = _delta(M, N)
    pivots = set(modp.rref(modp.transpose(rows), M.p, len(rows))[1])
    return [tuple(int(k == c) for k in range(len(rows)))
            for c in range(len(rows)) if c not in pivots]


def extension(M, N, eta) -> QuiverRep:
    """The middle term E of the extension 0 -> N -> E -> M -> 0 with cocycle
    eta (flattened as in _delta): E_v = N_v + M_v and E_a = [[N_a, eta_a],
    [0, M_a]]."""
    mats = {}
    pos = 0
    for idx, (s, t) in enumerate(M.quiver.arrows):
        ms, ns = M.dims[s - 1], N.dims[s - 1]
        top = [tuple(row) + tuple(eta[pos + i * ms:pos + (i + 1) * ms])
               for i, row in enumerate(N.mats[idx])]
        pos += len(top) * ms
        mats[idx] = top + [(0,) * ns + tuple(row) for row in M.mats[idx]]
    return QuiverRep(M.quiver, M.p, [n + m for n, m in zip(N.dims, M.dims)], mats)


def nonsplit_middle(M, N) -> QuiverRep:
    """The middle term of a nonsplit extension of M by N, which is one
    module up to isomorphism when Ext^1(M, N) is one-dimensional."""
    basis = ext_basis(M, N)
    if len(basis) != ext_dim(M, N):
        raise RepError("%d Ext^1 cocycles against an Euler-form dimension of %d"
                       % (len(basis), ext_dim(M, N)))
    if len(basis) != 1:
        raise RepError("nonsplit middle requires a one-dimensional ext")
    return extension(M, N, basis[0])


def _hom_walk(basis, M, N):
    """Every nonzero element of the span of basis in Hom(M, N), flattened
    as _vertex_slices lays it out, in the itertools.product order of the
    coefficient vectors.

    The coefficients step by modp.odometer, and the step that raises digit
    i adds the sum of basis elements i onwards, formed when digit i first
    moves.  Each element ticks hom_elements once and is a new list, which
    the caller may keep."""
    p = M.p
    last = len(basis) - 1
    steps = [None] * len(basis)
    acc = [0] * sum(r * c for r, c in zip(N.dims, M.dims))
    budget = modp.meter()
    for i in modp.odometer(len(basis), p):
        step = steps[i]
        if step is None:
            step = [x for block in basis[i] for row in block for x in row]
            if i < last:
                step = [(a + x) % p for a, x in zip(step, steps[i + 1])]
            steps[i] = step
        acc = [(a + x) % p for a, x in zip(acc, step)]
        budget.tick("hom_elements")
        yield acc


def _is_unit(flat, d, p):
    """Whether the d x d matrix with row-major entries flat (reduced mod p)
    is invertible: a closed-form determinant up to 3 x 3, a rank beyond."""
    if d == 1:
        return flat[0] != 0
    if d == 2:
        a, b, u, v = flat
        return (a * v - b * u) % p != 0
    if d == 3:
        a, b, c, u, v, w, x, y, z = flat
        return (a * (v * z - w * y) - b * (u * z - w * x)
                + c * (u * y - v * x)) % p != 0
    return modp.rank([flat[i * d:(i + 1) * d] for i in range(d)], p) == d


def _automorphisms(walk, M):
    """The elements of walk, a walk of Hom(M, M), that are invertible."""
    p = M.p
    blocks = [(start, start + d * d, d)
              for start, d, _ in _vertex_slices(M, M) if d]
    for flat in walk:
        for start, stop, d in blocks:
            if not _is_unit(flat[start:stop], d, p):
                break
        else:
            yield flat


def iso_test(M: QuiverRep, N: QuiverRep) -> bool:
    if M.quiver != N.quiver or M.p != N.p:
        return False
    if M.dims != N.dims:
        return False
    if M._key == N._key:
        return True
    # cheap invariants before enumerating intertwiners
    ranks_m = sorted(modp.rank(M.mats[i], M.p) for i in M.mats)
    ranks_n = sorted(modp.rank(N.mats[i], N.p) for i in N.mats)
    if ranks_m != ranks_n:
        return False
    basis = hom_basis(M, N)
    if len(basis) != hom_dim(N, M):
        return False
    if len(basis) != hom_dim(M, M):
        return False
    return next(_automorphisms(_hom_walk(basis, M, N), M), None) is not None


def aut_count(M: QuiverRep) -> int:
    if M.is_zero():
        return 1
    return sum(1 for _ in _automorphisms(_hom_walk(hom_basis(M, M), M, M), M))


def is_indecomposable(M: QuiverRep) -> bool:
    """True iff End(M) has no idempotents besides 0 and 1."""
    if M.is_zero():
        return False
    p = M.p
    entries = [(start + i * d + j, [(start + i * d + k, start + k * d + j)
                                    for k in range(d)])
               for start, d, _ in _vertex_slices(M, M)
               for i in range(d) for j in range(d)]
    ident = [int(i == j) for d in M.dims for i in range(d) for j in range(d)]
    for flat in _hom_walk(hom_basis(M, M), M, M):
        if flat != ident and all(
                sum(flat[a] * flat[b] for a, b in terms) % p == flat[pos]
                for pos, terms in entries):
            return False
    return True


def is_rigid(M):
    return M.is_zero() or ext_dim(M, M) == 0


# ---------------------------------------------------------------------------
# Submodules and quotients


def submodules(M: QuiverRep, e):
    """All submodules with dimension vector e, as tuples of canonical bases.

    Vertices are filled in topological order so arrow closure prunes early.
    """
    q = M.quiver
    e = tuple(int(x) for x in e)
    if len(e) != q.m:
        raise RepError("dimension vector has wrong length")
    if any(x < 0 or x > d for x, d in zip(e, M.dims)):
        return []
    order = q.topo
    results = []
    chosen = {}

    def fill(pos):
        if pos == len(order):
            results.append(tuple(chosen[v] for v in range(1, q.m + 1)))
            return
        v = order[pos]
        w = _image_span(M, v, chosen)
        if len(w) > e[v - 1]:
            return
        for cand in modp.subspaces_containing(w, M.dims[v - 1], e[v - 1], M.p):
            chosen[v] = cand
            fill(pos + 1)
        del chosen[v]

    fill(0)
    return results


def _image_span(M: QuiverRep, v: int, chosen) -> tuple:
    """RREF basis of the span at v of the images of the subspaces chosen at
    the tails of the arrows into v."""
    rows = [modp.mat_vec(M.mats[idx], row, M.p)
            for idx, (s, _t) in M.quiver.arrows_into(v) for row in chosen[s]]
    return modp.row_span(rows, M.p, M.dims[v - 1])


def all_grassmannian_counts(M: QuiverRep) -> dict:
    """{e: |Gr_e(M)|} over every e with a nonzero count, from one walk.

    The walk fills the non-sink vertices in topological order, as submodules
    does for one e, but tries every dimension at each of them.  A sink
    constrains nothing after it: once the rest is fixed, its k-dimensional
    choices are the subspaces containing the image span, [d - w, k - w]_p of
    them for an image span of rank w.  Leaves with the same dimensions and
    sink ranks are merged before the sink binomials are multiplied out.
    """
    q = M.quiver
    p = M.p
    inner = [v for v in q.topo if not q.is_sink(v)]
    sinks = [v for v in q.topo if q.is_sink(v)]
    leaves: dict = {}   # (dims at inner, image ranks at sinks) -> leaf count
    chosen = {}

    def walk(pos):
        if pos == len(inner):
            key = (tuple(len(chosen[v]) for v in inner),
                   tuple(len(_image_span(M, v, chosen)) for v in sinks))
            leaves[key] = leaves.get(key, 0) + 1
            return
        v = inner[pos]
        d = M.dims[v - 1]
        w = _image_span(M, v, chosen)
        for k in range(len(w), d + 1):
            for cand in modp.subspaces_containing(w, d, k, p):
                chosen[v] = cand
                walk(pos + 1)
        del chosen[v]

    walk(0)
    counts: dict = {}
    for (inner_dims, ranks), leaf_count in leaves.items():
        per_sink = [[(k, modp.gaussian_binomial(M.dims[v - 1] - w, k - w, p))
                     for k in range(w, M.dims[v - 1] + 1)]
                    for v, w in zip(sinks, ranks)]
        for choice in product(*per_sink):
            e = [0] * q.m
            for v, k in zip(inner, inner_dims):
                e[v - 1] = k
            count = leaf_count
            for v, (k, ways) in zip(sinks, choice):
                e[v - 1] = k
                count *= ways
            e = tuple(e)
            counts[e] = counts.get(e, 0) + count
    return dict(sorted(counts.items()))


def grassmannian_count(M: QuiverRep, e) -> int:
    """|Gr_e(M)|, read off the one-walk table of all_grassmannian_counts."""
    e = tuple(int(x) for x in e)
    if len(e) != M.quiver.m:
        raise RepError("dimension vector has wrong length")
    return all_grassmannian_counts(M).get(e, 0)


def _reduce(vec, basis, p):
    """(coords, rest) of vec against an RREF basis: the entries of vec at the
    basis pivots, which are the coordinates of its part in the span, and vec
    minus that part, which is zero at every pivot."""
    coords = tuple(vec[row.index(1)] for row in basis)
    rest = list(vec)
    for f, row in zip(coords, basis):
        if f:
            rest = [(x - f * y) % p for x, y in zip(rest, row)]
    return coords, rest


def sub_rep(M: QuiverRep, bases) -> QuiverRep:
    """The submodule spanned by the given vertexwise RREF bases as its own
    rep, in the coordinates of those bases."""
    p = M.p
    dims = tuple(len(b) for b in bases)
    mats = {}
    for idx, (s, t) in enumerate(M.quiver.arrows):
        cols = []
        for row in bases[s - 1]:
            coords, rest = _reduce(modp.mat_vec(M.mats[idx], row, p), bases[t - 1], p)
            if any(rest):
                raise RepError("given subspaces are not arrow-closed")
            cols.append(coords)
        mats[idx] = modp.transpose(cols) if cols else modp.zeros(dims[t - 1], 0)
    return QuiverRep(M.quiver, p, dims, mats)


def quotient_rep(M: QuiverRep, bases) -> QuiverRep:
    """The quotient of M by the submodule spanned by the given vertexwise RREF
    bases, on the unit vectors off their pivots."""
    p = M.p
    off = [sorted(set(range(d)) - {row.index(1) for row in b})
           for d, b in zip(M.dims, bases)]
    dims = tuple(map(len, off))
    mats = {}
    for idx, (s, t) in enumerate(M.quiver.arrows):
        cols = []
        for c in off[s - 1]:
            _, rest = _reduce([row[c] for row in M.mats[idx]], bases[t - 1], p)
            cols.append(tuple(rest[j] for j in off[t - 1]))
        mats[idx] = modp.transpose(cols) if cols else modp.zeros(dims[t - 1], 0)
    return QuiverRep(M.quiver, p, dims, mats)


# ---------------------------------------------------------------------------
# Module maps and direct sums.  A module map f: M -> N is the tuple of vertex
# blocks that hom_basis returns, f[v] the N_v x M_v matrix at vertex v + 1.


def combine(coeffs, basis, M, N):
    """The module map sum_k coeffs[k] * basis[k]: M -> N."""
    p = M.p
    blocks = []
    for v in range(M.quiver.m):
        r, c = N.dims[v], M.dims[v]
        acc = [[0] * c for _ in range(r)]
        for cf, elem in zip(coeffs, basis):
            if cf:
                blk = elem[v]
                for i in range(r):
                    for j in range(c):
                        acc[i][j] += cf * blk[i][j]
        blocks.append(tuple(tuple(x % p for x in row) for row in acc))
    return tuple(blocks)


def kernel(f, M: QuiverRep):
    """(ker f as a subrep of M, its vertexwise canonical bases) for f: M -> N."""
    bases = tuple(modp.row_span(modp.nullspace(f[v], M.p, d), M.p, d)
                  for v, d in enumerate(M.dims))
    return sub_rep(M, bases), bases


def cokernel(f, N: QuiverRep) -> QuiverRep:
    """coker f as a quotient of N for f: M -> N."""
    bases = tuple(modp.row_span(modp.transpose(f[v]), N.p, d)
                  for v, d in enumerate(N.dims))
    return quotient_rep(N, bases)


def direct_sum(first: QuiverRep, *rest: QuiverRep) -> QuiverRep:
    """The direct sum of the summands in order, block diagonal on every arrow."""
    summands = (first,) + rest
    if any(X.quiver != first.quiver or X.p != first.p for X in rest):
        raise RepError("direct sum needs matching quiver and prime")
    dims = tuple(map(sum, zip(*(X.dims for X in summands))))
    mats = {}
    for idx, (s, _t) in enumerate(first.quiver.arrows):
        rows = []
        before = 0
        for X in summands:
            width = X.dims[s - 1]
            after = dims[s - 1] - before - width
            rows.extend((0,) * before + tuple(r) + (0,) * after
                        for r in X.mats[idx])
            before += width
        mats[idx] = tuple(rows)
    return QuiverRep(first.quiver, first.p, dims, mats)


# ---------------------------------------------------------------------------
# Paths, projectives, injectives


def all_paths(quiver: IceQuiver):
    """All paths as (src, tgt, arrow index tuple), including the trivial ones."""
    paths = [(v, v, ()) for v in range(1, quiver.m + 1)]
    frontier = list(paths)
    while frontier:
        new = []
        for src, tgt, seq in frontier:
            for idx, (s, t) in quiver.arrows_out_of(tgt):
                new.append((src, t, seq + (idx,)))
        paths.extend(new)
        frontier = new
    return paths


def simple(quiver, p, i) -> QuiverRep:
    dims = tuple(1 if v == i else 0 for v in range(1, quiver.m + 1))
    return QuiverRep(quiver, p, dims, {})


def projective(quiver, p, i) -> QuiverRep:
    """P_i: its basis at v is the paths i -> v, and an arrow appends itself."""
    basis = {v: [] for v in range(1, quiver.m + 1)}
    for src, tgt, seq in all_paths(quiver):
        if src == i:
            basis[tgt].append(seq)
    mats = {}
    for idx, (s, t) in enumerate(quiver.arrows):
        mat = [[0] * len(basis[s]) for _ in basis[t]]
        for j, seq in enumerate(basis[s]):
            mat[basis[t].index(seq + (idx,))][j] = 1
        mats[idx] = mat
    return QuiverRep(quiver, p, [len(basis[v]) for v in basis], mats)


def injective(quiver, p, j) -> QuiverRep:
    """The injective at j: the dual of the projective at j over quiver.op()."""
    return op_rep(projective(quiver.op(), p, j))


def proj_dim_vector(quiver, i):
    return tuple(sum(1 for src, tgt, _ in all_paths(quiver) if src == i and tgt == v)
                 for v in range(1, quiver.m + 1))


def coxeter_transform(quiver, dvec):
    """-C^T C^{-1} applied to an integer vector: the simple reflections
    x -> x - (x, e_v) e_v, for the symmetrized Euler form (a, b) = <a, b> +
    <b, a>, applied sinks first.  It maps dim M to dim tau M when M has no
    projective summand; over quiver.op() it gives dim tau^-1 M."""
    x = list(dvec)
    for v in reversed(quiver.topo):
        unit = tuple(int(u == v) for u in range(1, quiver.m + 1))
        x[v - 1] -= euler_form_full(quiver, x, unit) + euler_form_full(quiver, unit, x)
    return tuple(x)


# ---------------------------------------------------------------------------
# The AR translate


def tau_split(M: QuiverRep):
    """(tau M', {v: copies of P_v in M}) for M = M' + projectives.

    tau is the Coxeter functor: the sink reflections in reversed topological
    order, then every arrow map negated, which turns the composite of
    bgp_reflect's kernel projections into tau.  The reflections before v
    carry P_v to the simple at v, so the simple that bgp_reflect splits off
    at v counts the copies of P_v in M (Bernstein-Gelfand-Ponomarev).
    """
    if M.is_zero():
        return M, {}
    out = M
    mults = {}
    for v in reversed(M.quiver.topo):
        out, mult = bgp_reflect(out, v)
        if mult:
            mults[v] = mult
    mats = {idx: [[-x for x in row] for row in mat] for idx, mat in out.mats.items()}
    return QuiverRep(M.quiver, M.p, out.dims, mats), dict(sorted(mults.items()))


def op_rep(M: QuiverRep) -> QuiverRep:
    """The dual representation over the opposite quiver (matrices transposed)."""
    q = M.quiver
    mats = {}
    for idx, (s, t) in enumerate(q.arrows):
        old = M.mats[idx]
        rows, cols = M.dims[s - 1], M.dims[t - 1]  # transposed shape
        mats[idx] = tuple(tuple(old[c][r] for c in range(cols)) for r in range(rows))
    return QuiverRep(q.op(), M.p, M.dims, mats)


def tau_inverse_split(M: QuiverRep):
    """(tau^-1 M', {v: copies of I_v in M}) for M = M' + injectives: the
    dual of tau_split over the opposite quiver, where I_v is the dual of P_v."""
    out, mults = tau_split(op_rep(M))
    out = op_rep(out)
    # rebuild over the original quiver object (op of op keeps arrow order)
    return QuiverRep(M.quiver, M.p, out.dims, out.mats), mults


def _without_summands(split, kind):
    out, mults = split
    if mults:
        raise ProjectiveSummandError(
            "module has %s summand(s) %s" % (kind, list(mults)))
    return out


def tau(M: QuiverRep) -> QuiverRep:
    """Auslander-Reiten translate of a module with no projective summand."""
    return _without_summands(tau_split(M), "projective")


def tau_inverse(M: QuiverRep) -> QuiverRep:
    """Inverse translate of a module with no injective summand."""
    return _without_summands(tau_inverse_split(M), "injective")


# ---------------------------------------------------------------------------
# BGP reflection


def bgp_reflect(M: QuiverRep, v: int):
    """Reflection functor at a sink v; returns (rep over reflected quiver,
    multiplicity of the simple at v split off)."""
    q = M.quiver
    if not q.is_sink(v):
        raise QuiverError("vertex %d is not a sink" % v)
    p = M.p
    refl = q.reflect(v)
    into = q.arrows_into(v)
    src_dims = [M.dims[s - 1] for _, (s, _) in into]
    total = sum(src_dims)
    # combined map: (+)_alpha M_src -> M_v
    rows = []
    for i in range(M.dims[v - 1]):
        row = []
        for (idx, (s, _t)), d in zip(into, src_dims):
            A = M.mats[idx]
            row.extend(A[i][j] for j in range(d))
        rows.append(tuple(row))
    ker = modp.nullspace(rows, p, total) if rows else [
        tuple(1 if i == j else 0 for i in range(total)) for j in range(total)]
    ker = modp.row_span(ker, p, total)
    rk = modp.rank(rows, p) if rows else 0
    simple_mult = M.dims[v - 1] - rk
    new_dims = list(M.dims)
    new_dims[v - 1] = len(ker)
    # build matrices over the reflected quiver
    mats = {}
    offsets = {}
    off = 0
    for (idx, (s, _t)), d in zip(into, src_dims):
        offsets[idx] = off
        off += d
    for jdx, (s, t) in enumerate(refl.arrows):
        orig = q.arrows[jdx]
        if orig == (s, t):
            mats[jdx] = M.mats[jdx]
        else:
            # reversed arrow: v -> old source; map = projection of kernel
            assert s == v and orig == (t, v)
            d = M.dims[t - 1]
            o = offsets[jdx]
            mat = [[ker[r][o + i] for r in range(len(ker))] for i in range(d)]
            mats[jdx] = tuple(tuple(x % p for x in row) for row in mat)
    return QuiverRep(refl, p, new_dims, mats), simple_mult


def bgp_coreflect(M: QuiverRep, v: int):
    """Dual reflection functor at a source v; returns (rep over
    M.quiver.reflect(v), multiplicity of the simple at v split off).

    Computed as the sink reflection of the dual over the opposite quiver, so
    the space at v is the dual of the cokernel of the combined map out of v.
    """
    q = M.quiver
    if not q.is_source(v):
        raise QuiverError("vertex %d is not a source" % v)
    out, simple_mult = bgp_reflect(op_rep(M), v)
    out = op_rep(out)
    return QuiverRep(q.reflect(v), M.p, out.dims, out.mats), simple_mult
