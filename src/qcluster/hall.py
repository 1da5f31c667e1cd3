"""Counting layer: isomorphism classes of representations of a fixed dimension
vector, submodule filtration numbers, and extension-class counts.

The extension counts eps^E_{M,N} = |Ext^1(M,N)_E| of one pair (M, N) are
read off the cocycles of Ext^1(M, N) by ``ext_table``: each of the p^ext
cocycles eta in the span of ``rep.ext_basis(M, N)`` gives the middle term
``rep.extension(M, N, eta)``, whose class is counted.  Green's formula
alone takes its counts from ``ext_count``, one at a time, from the
filtration number F^E_{M,N} through the Riedtmann-Peng identity

    eps^E_{M,N} = F^E_{M,N} * |Hom(M,N)| * |Aut M| * |Aut N| / |Aut E|,

whose exactness is asserted.  The test suite checks the two routes against
each other, and ``ext_count`` against sum_E eps^E_{M,N} = |Ext^1(M,N)|.
"""

from __future__ import annotations

from array import array
from itertools import product

from . import modp
from . import rep as R

# iso_classes walks all p^entries matrix tuples, so it refuses more entries
MAX_ENTRIES = 12        # for p <= 3
MAX_ENTRIES_P5 = 8      # for p >= 5


def _primitive_root(p):
    if not modp.is_prime(p):
        raise ValueError("%d is not a prime" % p)
    return next(g for g in range(1, p)
                if len({pow(g, k, p) for k in range(1, p)}) == p - 1)


def _gl_generators(n, p):
    """(g, g^-1) pairs generating GL_n(F_p): diag(g,1,...,1) for a primitive
    root g, and for n >= 2 the transvection I+E_12 and the cyclic
    permutation matrix.  Conjugating I+E_12 by the cycle gives every
    I+E_{i,i+1} and I+E_{n,1}; their commutators give every elementary
    transvection, hence SL_n, and the diagonal one reaches every
    determinant."""
    def identity_but(i, j, x):
        return tuple(tuple(x if (r, c) == (i, j) else int(r == c)
                           for c in range(n)) for r in range(n))
    gens = []
    g = _primitive_root(p)
    if g != 1:
        gens.append((identity_but(0, 0, g), identity_but(0, 0, modp.inv(g, p))))
    if n >= 2:
        gens.append((identity_but(0, 1, 1), identity_but(0, 1, p - 1)))
        cycle = tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                      for i in range(n))
        gens.append((cycle, modp.transpose(cycle)))
    return gens


def _block_table(rows, cols, left, right, p):
    """X -> left X right as a permutation of the base-p indices of the
    row-major rows x cols matrices X.

    modp.odometer walks the matrices X in index order.  The map is linear,
    so the step that raises entry k adds the images of the unit matrices
    E_k, E_k+1, ... to the current image.  That sum is formed once per k,
    and each step updates the image's index by the image digits it
    changes, with no matrix product."""
    n = rows * cols
    weights = [p ** (n - 1 - k) for k in range(n)]
    steps = []
    tail = [0] * n
    for k in reversed(range(n)):
        X = tuple(tuple(int(i * cols + j == k) for j in range(cols))
                  for i in range(rows))
        if left is not None:
            X = modp.mat_mul(left, X, p)
        if right is not None:
            X = modp.mat_mul(X, right, p)
        tail = [(a + x) % p for a, x in zip(tail, (x for row in X for x in row))]
        steps.append([(pos, delta, weights[pos])
                      for pos, delta in enumerate(tail) if delta])
    steps.reverse()
    table = [0]
    image = [0] * n
    index = 0
    for k in modp.odometer(n, p):
        for pos, delta, weight in steps[k]:
            old = image[pos]
            new = (old + delta) % p
            image[pos] = new
            index += (new - old) * weight
        table.append(index)
    return table


class ClassStore:
    """Memoized per-(quiver, p) tables: iso classes, counts, hall numbers.

    Enumerations tick the active ``modp`` meter of the call that runs them,
    and a store lives as long as that meter (``catalog.store_for``), so its
    memos are freed with the unit.  Kept per store: the iso classes, labels
    and orbit sizes of each dimension vector, |Aut|, hom and ext of each
    module or pair, the filtration tables, and every ``filtration_count``
    and Riedtmann-Peng ``ext_count``, keyed by the three modules' keys.

    Labelling the classes of d holds one permutation of the p^entries tuple
    indices per generator of G_d that moves a block, next to the labels:
    (generators + 1) * 4 bytes * p^entries.  The permutations are dropped
    once d is labelled; the labels stay, and the GL generators and block
    tables they are built from are kept in ``derived``.  The pair sweeps
    (``harness.hall_pairs``) test indecomposability only on the dimension
    vectors that can be part of a pair within their bounds."""

    def __init__(self, quiver, p):
        self.quiver = quiver
        self.p = p
        self.derived: dict = {}   # tables that callers build from these ones
        self._classes: dict[tuple, list] = {}
        self._labels: dict[tuple, array] = {}
        self._orbit: dict[tuple, int] = {}
        self._aut: dict[tuple, int] = {}
        self._hom: dict[tuple, int] = {}
        self._ext: dict[tuple, int] = {}
        self._filt: dict[tuple, dict] = {}
        self._filt_count: dict[tuple, int] = {}
        self._eps: dict[tuple, int] = {}

    # -- iso classes ------------------------------------------------------

    def matrix_entry_count(self, dims):
        q = self.quiver
        return sum(dims[s - 1] * dims[t - 1] for s, t in q.arrows)

    def group_order(self, dims):
        """|G_d| for G_d = prod_v GL_{d_v}(F_p), with
        |GL_n(F_p)| = prod_{i<n} (p^n - p^i)."""
        out = 1
        for d in dims:
            for i in range(d):
                out *= self.p ** d - self.p ** i
        return out

    def _orbit_perms(self, dims):
        """Per generator of G_d that moves some arrow block, its action on the
        matrix tuples as a permutation of their base-p indices, in an
        array('I') of p^entries slots.

        A tuple's index is its arrow blocks' base-p indices side by side, the
        first arrow's most significant.  The permutation is built up from the
        last block: each block index j prepends a copy of the permutation of
        the later blocks, shifted by the image of j times their index range.
        The GL generators and block tables are memoized on the store."""
        q = self.quiver
        p = self.p
        gl = self.derived.setdefault("gl_generators", {})
        tables = self.derived.setdefault("block_tables", {})

        def block_table(rows, cols, left, right):
            key = (rows, cols, left, right)
            if key not in tables:
                tables[key] = _block_table(rows, cols, left, right, p)
            return tables[key]

        perms = []
        for v in range(1, q.m + 1):
            if dims[v - 1] not in gl:
                gl[dims[v - 1]] = _gl_generators(dims[v - 1], p)
            for g, g_inv in gl[dims[v - 1]]:
                blocks = []   # (p^block size, table or None for the identity)
                for s, t in q.arrows:
                    rows, cols = dims[t - 1], dims[s - 1]
                    table = None
                    if rows * cols and t == v:
                        table = block_table(rows, cols, g, None)
                    elif rows * cols and s == v:
                        table = block_table(rows, cols, None, g_inv)
                    blocks.append((p ** (rows * cols), table))
                if all(table is None for _, table in blocks):
                    continue
                perm = None   # the identity on the first `span` indices
                span = 1
                for radix, table in reversed(blocks):
                    if table is None and perm is None:
                        span *= radix
                        continue
                    out = array("I")
                    for j in range(radix):
                        shift = (j if table is None else table[j]) * span
                        out.extend(range(shift, shift + span) if perm is None
                                   else map(shift.__add__, perm))
                    perm = out
                    span *= radix
                perms.append(perm)
        return perms

    def iso_classes(self, dims):
        """Representatives of all iso classes with the given dimension vector,
        in deterministic enumeration order.

        The matrix tuples are walked in product order, so each tuple's
        position is its base-p index.  An unlabelled tuple is the first of
        its G_d-orbit; it becomes the next representative and its whole
        orbit, closed under the generators of each GL_{d_v}(F_p) acting by
        M_a -> g_t(a) M_a g_s(a)^-1, gets its label, one lookup in a
        generator's permutation (_orbit_perms) per move."""
        dims = tuple(dims)
        if dims in self._classes:
            return self._classes[dims]
        q = self.quiver
        p = self.p
        entries = self.matrix_entry_count(dims)
        cap = MAX_ENTRIES if p <= 3 else MAX_ENTRIES_P5
        if entries > cap:
            raise R.RepError(
                "orbit enumeration over %d matrix entries exceeds the budget "
                "(%d at p=%d)" % (entries, cap, p))
        shapes = [(dims[t - 1], dims[s - 1]) for s, t in q.arrows]
        perms = self._orbit_perms(dims)
        labels = array("I", [0]) * p ** entries   # class number + 1; 0 = unseen
        reps = []
        orbits = []
        budget = modp.meter()
        for index, values in enumerate(product(range(p), repeat=entries)):
            budget.tick("matrix_tuples")
            if labels[index]:
                continue
            mats = {}
            pos = 0
            for idx, (rws, cls_) in enumerate(shapes):
                mat = tuple(tuple(values[pos + i * cls_ + j] for j in range(cls_))
                            for i in range(rws))
                pos += rws * cls_
                mats[idx] = mat
            reps.append(R.QuiverRep(q, p, dims, mats))
            label = len(reps)
            labels[index] = label
            stack = [index]
            size = 1
            while stack:
                cur = stack.pop()
                for perm in perms:
                    nxt = perm[cur]
                    if not labels[nxt]:
                        labels[nxt] = label
                        size += 1
                        stack.append(nxt)
            orbits.append(size)
        self._classes[dims] = reps
        self._labels[dims] = labels
        for rp, size in zip(reps, orbits):
            self._orbit[rp.key()] = size
        return reps

    def classify(self, M) -> int:
        """Index of M's class inside iso_classes(M.dims)."""
        if M.quiver != self.quiver or M.p != self.p:
            raise R.RepError("classify needs a representation over this "
                             "store's quiver and prime")
        if M.dims not in self._labels:
            self.iso_classes(M.dims)
        index = 0
        for idx in range(len(self.quiver.arrows)):
            for row in M.mats[idx]:
                for x in row:
                    index = index * self.p + x
        return self._labels[M.dims][index] - 1

    def canonical(self, M):
        return self.iso_classes(M.dims)[self.classify(M)]

    # -- counts -----------------------------------------------------------

    def aut(self, M) -> int:
        """|Aut M|; for a class representative, certified by the
        orbit-stabiliser identity |orbit| * |Aut M| = |G_d|."""
        key = M.key()
        if key not in self._aut:
            count = R.aut_count(M)
            orbit = (self._orbit.get(key)
                     if M.quiver == self.quiver and M.p == self.p else None)
            if orbit is not None and orbit * count != self.group_order(M.dims):
                raise R.RepError(
                    "orbit-stabiliser check failed for dims %s: |orbit| %d * "
                    "|Aut| %d != |G_d| %d" % (list(M.dims), orbit, count,
                                              self.group_order(M.dims)))
            self._aut[key] = count
        return self._aut[key]

    def hom(self, M, N) -> int:
        key = (M.key(), N.key())
        if key not in self._hom:
            self._hom[key] = R.hom_dim(M, N)
        return self._hom[key]

    def ext(self, M, N) -> int:
        key = (M.key(), N.key())
        if key not in self._ext:
            self._ext[key] = R.ext_dim(M, N)
        return self._ext[key]

    def filtration_table(self, M, e) -> dict:
        """{(quotient class, submodule class): count} over the submodules of
        M with dimension vector e, from one walk of submodules(M, e).

        Each submodule and its quotient are labelled by classify.  The first
        submodule to land in a cell is iso_test-checked against both class
        representatives, an independent check on the labels."""
        e = tuple(e)
        key = (M.key(), e)
        if key in self._filt:
            return self._filt[key]
        table: dict = {}
        for bases in R.submodules(M, e):
            sub = R.sub_rep(M, bases)
            quot = R.quotient_rep(M, bases)
            cell = (self.classify(quot), self.classify(sub))
            if cell not in table:
                if not (R.iso_test(sub, self.iso_classes(sub.dims)[cell[1]])
                        and R.iso_test(quot, self.iso_classes(quot.dims)[cell[0]])):
                    raise R.RepError(
                        "filtration table of dims %s at e=%s: a submodule or "
                        "quotient is not isomorphic to its class representative"
                        % (list(M.dims), list(e)))
            table[cell] = table.get(cell, 0) + 1
        self._filt[key] = table
        return table

    def filtration_count(self, M, A, B) -> int:
        """F^M_{A,B}: submodules of M isomorphic to B with quotient A."""
        key = (M.key(), A.key(), B.key())
        if key not in self._filt_count:
            count = 0
            if tuple(a + b for a, b in zip(A.dims, B.dims)) == M.dims:
                table = self.filtration_table(M, B.dims)
                count = table.get((self.classify(A), self.classify(B)), 0)
            self._filt_count[key] = count
        return self._filt_count[key]

    def ext_count(self, E, M, N) -> int:
        """eps^E_{M,N} via the Riedtmann-Peng identity (exact division)."""
        key = (E.key(), M.key(), N.key())
        if key not in self._eps:
            count = 0
            f = self.filtration_count(E, M, N)
            if f:
                num = f * self.p ** self.hom(M, N) * self.aut(M) * self.aut(N)
                aE = self.aut(E)
                if num % aE:
                    raise R.RepError("Riedtmann-Peng division is not exact")
                count = num // aE
            self._eps[key] = count
        return self._eps[key]

    def ext_table(self, M, N) -> dict:
        """{class index in middle_terms(M, N): eps^E_{M,N}} with the zero
        counts left out, from one walk of the p^ext cocycles eta in the span
        of rep.ext_basis(M, N), a complement of the coboundaries: each eta
        counts the class of its middle term rep.extension(M, N, eta).

        Two certificates: the basis has the Euler-form ext many cocycles,
        and the split class (eta = 0) is reached once, since no other eta
        of a complement is a coboundary and an extension whose middle term
        is isomorphic to M + N splits (Miyata)."""
        basis = R.ext_basis(M, N)
        if len(basis) != self.ext(M, N):
            raise R.RepError("%d Ext^1 cocycles against an Euler-form "
                             "dimension of %d" % (len(basis), self.ext(M, N)))
        p = self.p
        size = sum(N.dims[t - 1] * M.dims[s - 1] for s, t in self.quiver.arrows)
        # modp.odometer raises digit i and wraps every later one, which adds
        # the sum of basis[i:] to eta
        tails = []
        tail = [0] * size
        for cocycle in reversed(basis):
            tail = [(x + y) % p for x, y in zip(tail, cocycle)]
            tails.append(tail)
        tails.reverse()
        eta = [0] * size
        split = self.classify(R.extension(M, N, eta))
        table = {split: 1}
        for i in modp.odometer(len(basis), p):
            eta = [(x + y) % p for x, y in zip(eta, tails[i])]
            cls = self.classify(R.extension(M, N, eta))
            table[cls] = table.get(cls, 0) + 1
        if table[split] != 1:
            raise R.RepError("the split class of dims %s is reached by %d "
                             "cocycles, not 1" % (list(M.dims), table[split]))
        return table

    def middle_terms(self, M, N):
        """Iso classes of dimension dim M + dim N (the index set of sum_E)."""
        dims = tuple(m + n for m, n in zip(M.dims, N.dims))
        return self.iso_classes(dims)

    def ext_sum_check(self, M, N) -> bool:
        total = sum(self.ext_count(E, M, N) for E in self.middle_terms(M, N))
        return total == self.p ** self.ext(M, N)

    def indecomposables(self, dims_list):
        """Indecomposable classes among all classes of the listed dims."""
        out = []
        for dims in dims_list:
            for M in self.iso_classes(dims):
                if R.is_indecomposable(M):
                    out.append(M)
        return out


def dim_vectors_upto(n, bound_total=None, bound_vec=None):
    """All nonzero dimension vectors of length n under the given bounds."""
    if bound_vec is not None:
        ranges = [range(b + 1) for b in bound_vec]
    else:
        ranges = [range(bound_total + 1)] * n
    out = []
    for v in product(*ranges):
        if not any(v):
            continue
        if bound_total is not None and sum(v) > bound_total:
            continue
        out.append(tuple(v))
    return out
