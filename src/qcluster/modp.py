"""Small dense linear algebra over a prime field F_p.

Matrices are tuples/lists of row tuples with entries in range(p).  Sizes in
this project stay tiny (dimensions below ten), so everything is plain
Python integer arithmetic.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import combinations, product
from math import isqrt


class BudgetExceededError(RuntimeError):
    """An enumeration hit its configured resource budget."""


class Budget:
    """Countdown counters for the enumeration-heavy operations.

    ``with Budget(...) as meter:`` makes it the active meter inside the
    block, so every enumeration there ticks it; outside any block the work
    is counted on DEFAULT_BUDGET, which lives as long as the process.
    """

    def __init__(self, subspace_tuples=10_000_000, matrix_tuples=2_000_000,
                 hom_elements=2_000_000):
        self.limits = {
            "subspace_tuples": subspace_tuples,
            "matrix_tuples": matrix_tuples,
            "hom_elements": hom_elements,
        }
        self.used = {k: 0 for k in self.limits}

    def tick(self, key, amount=1):
        self.used[key] += amount
        if self.used[key] > self.limits[key]:
            raise BudgetExceededError(
                "budget %s exceeded (%d > %d)" % (key, self.used[key], self.limits[key])
            )

    def __enter__(self):
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._token)


DEFAULT_BUDGET = Budget()
_ACTIVE: ContextVar[Budget] = ContextVar("qcluster_budget", default=DEFAULT_BUDGET)


def meter() -> Budget:
    """The active Budget: that of the innermost ``with`` block, else
    DEFAULT_BUDGET."""
    return _ACTIVE.get()


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def inv(a: int, p: int) -> int:
    """a^(-1) mod p by Fermat, so p must be prime: SpecializedMode and
    QuiverRep refuse any other p."""
    return pow(a, p - 2, p)


def mat_mul(A, B, p):
    if not A or not B:
        return ()
    rb = len(B)
    cb = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * cb
        for k in range(rb):
            a = row[k]
            if a:
                brow = B[k]
                for j in range(cb):
                    acc[j] += a * brow[j]
        out.append(tuple(x % p for x in acc))
    return tuple(out)


def mat_mul_shaped(A, B, p, rows, cols):
    """Product of a rows x k and a k x cols matrix, degenerate shapes included.

    Plain mat_mul cannot represent a zero-row matrix's column count, so any
    composition that may pass through a zero space must come through here.
    """
    if rows == 0 or cols == 0 or not A or not B:
        return zeros(rows, cols)
    return mat_mul(A, B, p)


def mat_vec(A, v, p):
    return tuple(sum(a * x for a, x in zip(row, v)) % p for row in A)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(r, c):
    return tuple((0,) * c for _ in range(r))


def transpose(A):
    return tuple(zip(*A)) if A else ()


def rref(rows, p, ncols=None):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mat = [list(r) for r in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        s = inv(mat[r][c] % p, p)
        mat[r] = [(x * s) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c] % p
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = [tuple(x % p for x in row) for row in mat[:r]]
    return tuple(out), pivots


def rank(A, p):
    return len(rref(A, p)[0])


def nullspace(A, p, ncols):
    """Basis (row tuples) of the right kernel of A acting on F_p^ncols."""
    R, pivots = rref(A, p, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r][fc]) % p
        basis.append(tuple(v))
    return basis


def is_invertible(A, p):
    n = len(A)
    if n == 0:
        return True
    if any(len(row) != n for row in A):
        return False
    return rank(A, p) == n


def row_span(rows, p, ncols):
    """Canonical form (RREF rows) of the span of the given rows."""
    if not rows:
        return ()
    return rref(rows, p, ncols)[0]


def span_contains(span_rref, v, p, ncols):
    v = list(v)
    for row in span_rref:
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is not None and v[lead]:
            f = v[lead]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def odometer(n, p):
    """The walk of F_p^n in itertools.product order after the zero vector:
    at each step, the position of the digit that goes up by one.  Every
    later digit wraps from p - 1 to 0 in the same step, so with the zero
    vector at the start, a linear image of the walk gains the images of the
    unit vectors at that position and after it, whether a digit goes up or
    wraps."""
    digits = [0] * n
    top = p - 1
    while True:
        i = n - 1
        while i >= 0 and digits[i] == top:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        yield i


def gaussian_binomial(d, k, p):
    """[d, k]_p, the number of k-dimensional subspaces of F_p^d."""
    if k < 0 or k > d:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspaces(d, k, p):
    """All k-dimensional subspaces of F_p^d as canonical RREF row tuples."""
    if k < 0 or k > d:
        return
    if k == 0:
        yield ()
        return
    budget = meter()
    for pivots in combinations(range(d), k):
        pivset = set(pivots)
        free_slots = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, d):
                if c not in pivset:
                    free_slots.append((r, c))
        for vals in product(range(p), repeat=len(free_slots)):
            budget.tick("subspace_tuples")
            mat = [[0] * d for _ in range(k)]
            for r, pc in enumerate(pivots):
                mat[r][pc] = 1
            for (r, c), v in zip(free_slots, vals):
                mat[r][c] = v
            yield tuple(tuple(row) for row in mat)


def subspaces_containing(w_rows, d, k, p):
    """Canonical k-dim subspaces of F_p^d containing the span of w_rows."""
    w_rref, w_pivots = rref(w_rows, p, d) if w_rows else ((), [])
    w = len(w_rref)
    if k < w or k > d:
        return
    if k == w:
        yield w_rref
        return
    if w == 0:
        yield from subspaces(d, k, p)   # already canonical
        return
    complement = [c for c in range(d) if c not in w_pivots]
    dq = len(complement)
    for qs in subspaces(dq, k - w, p):
        lifted = []
        for qrow in qs:
            v = [0] * d
            for j, c in enumerate(complement):
                v[c] = qrow[j]
            lifted.append(tuple(v))
        yield row_span(list(w_rref) + lifted, p, d)
