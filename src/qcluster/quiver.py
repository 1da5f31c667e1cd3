"""Ice quivers, their exchange matrices, compatible skew forms and Euler forms.

Orientation convention: arrows are stored in the direction that module maps
act, so a representation places a d_tgt x d_src matrix on each arrow and
submodules are the tuples of subspaces closed under those maps.  With this
convention ext^1(S_i, S_j) counts the arrows i -> j, and the exchange matrix
entry b_ij is ext^1(S_j, S_i) - ext^1(S_i, S_j).  The bundled fixtures are
oriented so that the golden exchange data below comes out exactly.

A standard framing's compatible skew form is the closed form ((0, -I), (I, -B))
of `solve_lambda`; other framings pass their own lam to ClusterModel.
"""

from __future__ import annotations

import warnings
from operator import mul

from .torus import Torus, pairing


class QuiverError(ValueError):
    pass


class CompatibilityError(ValueError):
    pass


class IceQuiver:
    """Acyclic quiver on vertices 1..m with frozen vertices n+1..m."""

    def __init__(self, m: int, n: int, arrows):
        if not (1 <= n <= m):
            raise QuiverError("need 1 <= n <= m")
        self.m = m
        self.n = n
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (1 <= s <= m and 1 <= t <= m):
                raise QuiverError("arrow (%d,%d) out of range" % (s, t))
            if s == t:
                raise QuiverError("loops are not allowed")
        self.arrows = arrows
        self.topo = self._topological_order()
        if any(s > n and t > n for s, t in arrows):
            warnings.warn("arrows between frozen vertices do not affect the "
                          "exchange matrix", stacklevel=2)

    def _topological_order(self):
        out = {v: [] for v in range(1, self.m + 1)}
        indeg = {v: 0 for v in range(1, self.m + 1)}
        for s, t in self.arrows:
            out[s].append(t)
            indeg[t] += 1
        ready = sorted(v for v in indeg if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in sorted(out[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != self.m:
            raise QuiverError("quiver has an oriented cycle")
        return tuple(order)

    def arrow_count(self, s: int, t: int) -> int:
        return sum(1 for a, b in self.arrows if a == s and b == t)

    def arrows_into(self, v: int):
        return [(i, st) for i, st in enumerate(self.arrows) if st[1] == v]

    def arrows_out_of(self, v: int):
        return [(i, st) for i, st in enumerate(self.arrows) if st[0] == v]

    def arrow_slots(self):
        """(src, tgt, occurrence) -> arrow index; the occurrence of an arrow
        counts the parallel arrows before it."""
        return {(s, t, self.arrows[:idx].count((s, t))): idx
                for idx, (s, t) in enumerate(self.arrows)}

    def _check_vertex(self, v: int):
        if not 1 <= v <= self.m:
            raise QuiverError("vertex %d out of range 1..%d" % (v, self.m))

    def is_sink(self, v: int) -> bool:
        self._check_vertex(v)
        return not any(s == v for s, _ in self.arrows)

    def is_source(self, v: int) -> bool:
        self._check_vertex(v)
        return not any(t == v for _, t in self.arrows)

    def op(self) -> "IceQuiver":
        """The opposite quiver; its arrow idx is arrow idx reversed."""
        return IceQuiver(self.m, self.n, [(t, s) for s, t in self.arrows])

    def principal(self) -> "IceQuiver":
        arr = [(s, t) for s, t in self.arrows if s <= self.n and t <= self.n]
        return IceQuiver(self.n, self.n, arr)

    def reflect(self, v: int) -> "IceQuiver":
        """Reverse every arrow incident to v (v must be a sink or a source)."""
        if not (self.is_sink(v) or self.is_source(v)):
            raise QuiverError("vertex %d is neither a sink nor a source" % v)
        arr = [(t, s) if s == v or t == v else (s, t) for s, t in self.arrows]
        return IceQuiver(self.m, self.n, arr)

    # arrows compare in their listed order: a representation's matrices are
    # indexed by arrow position
    def __eq__(self, other):
        return (isinstance(other, IceQuiver) and self.m == other.m
                and self.n == other.n and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.m, self.n, self.arrows))

    def to_text(self) -> str:
        lines = ["vertices %d %d" % (self.m, self.n)]
        lines += ["arrow %d %d" % (s, t) for s, t in self.arrows]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "IceQuiver":
        m = n = None
        arrows = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "vertices":
                if len(parts) != 3:
                    raise QuiverError("line %d: expected 'vertices m n'" % lineno)
                m, n = int(parts[1]), int(parts[2])
            elif parts[0] == "arrow":
                if len(parts) != 3:
                    raise QuiverError("line %d: expected 'arrow src tgt'" % lineno)
                arrows.append((int(parts[1]), int(parts[2])))
            else:
                raise QuiverError("line %d: unknown directive %r" % (lineno, parts[0]))
        if m is None:
            raise QuiverError("missing 'vertices' line")
        return IceQuiver(m, n, arrows)

    def __repr__(self):
        return "IceQuiver(m=%d, n=%d, arrows=%s)" % (self.m, self.n, list(self.arrows))


class ExchangeData:
    """The matrices attached to an ice quiver: btilde, rtilde and friends."""

    def __init__(self, quiver: IceQuiver):
        m, n = quiver.m, quiver.n
        rt = [[0] * n for _ in range(m)]
        rtt = [[0] * n for _ in range(m)]
        for s, t in quiver.arrows:
            if t <= n:
                rt[s - 1][t - 1] += 1  # ext^1(S_s, S_t)
            if s <= n:
                rtt[t - 1][s - 1] += 1
        self.rtilde = tuple(tuple(r) for r in rt)
        self.rtilde_tr = tuple(tuple(r) for r in rtt)
        self.btilde = tuple(tuple(a - b for a, b in zip(r1, r2))
                            for r1, r2 in zip(rtt, rt))
        self.itilde = tuple(tuple(1 if i == j else 0 for j in range(n))
                            for i in range(m))
        self.ir = tuple(tuple(a - b for a, b in zip(r1, r2))
                        for r1, r2 in zip(self.itilde, self.rtilde))
        self.b = tuple(row[:n] for row in self.btilde[:n])
        self.r = tuple(row[:n] for row in self.rtilde[:n])
        self.m = m
        self.n = n

    def btilde_vec(self, e):
        """btilde * e for a principal vector e of length n."""
        return tuple(sum(map(mul, row, e)) for row in self.btilde)

    def ir_vec(self, mv):
        """(itilde - rtilde) * mv for a principal vector of length n."""
        return tuple(sum(map(mul, row, mv)) for row in self.ir)


def standard_framing(principal: IceQuiver) -> IceQuiver:
    """Attach one frozen vertex n+i to each principal vertex i."""
    if principal.m != principal.n:
        raise QuiverError("expected a quiver without frozen vertices")
    n = principal.n
    arrows = list(principal.arrows) + [(i, n + i) for i in range(1, n + 1)]
    return IceQuiver(2 * n, n, arrows)


def euler_form_full(quiver: IceQuiver, a, b) -> int:
    """Euler form over the whole (framed) quiver, length-m vectors:
    sum_v a_v b_v minus a_s b_t for each arrow s -> t."""
    return (sum(x * y for x, y in zip(a, b))
            - sum(a[s - 1] * b[t - 1] for s, t in quiver.arrows))


def check_compatible(lam, btilde):
    """Return the diagonal of B^T Lam = (D|0) or raise CompatibilityError."""
    m = len(btilde)
    n = len(btilde[0]) if btilde else 0
    prod = [[sum(btilde[k][i] * lam[k][j] for k in range(m)) for j in range(m)]
            for i in range(n)]
    d = []
    for i in range(n):
        for j in range(m):
            if j < n and i != j:
                if prod[i][j]:
                    raise CompatibilityError("left block not diagonal at (%d,%d)" % (i, j))
            elif j >= n:
                if prod[i][j]:
                    raise CompatibilityError("right block nonzero at (%d,%d)" % (i, j))
        if prod[i][i] <= 0:
            raise CompatibilityError("diagonal entry d_%d = %d not positive" % (i + 1, prod[i][i]))
        d.append(prod[i][i])
    return tuple(d)


def solve_lambda(btilde):
    """The skew form lam = ((0, -I), (I, -B)) of a standard framing btilde =
    (B over I), so that btilde^T lam = (I | 0); any other btilde (m != 2n, or
    frozen rows other than I) raises CompatibilityError."""
    m = len(btilde)
    n = len(btilde[0]) if btilde else 0
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if m != 2 * n or tuple(map(tuple, btilde[n:])) != ident:
        raise CompatibilityError("btilde is not a standard framing; pass lam")
    zero = (0,) * n
    return (tuple(zero + tuple(-x for x in row) for row in ident)
            + tuple(row + tuple(-x for x in brow)
                    for row, brow in zip(ident, btilde)))


class ClusterModel:
    """A framed quiver together with its exchange data and skew form."""

    def __init__(self, framed: IceQuiver, lam=None, name=None):
        self.quiver = framed
        self.principal = framed.principal()
        self.exch = ExchangeData(framed)
        self.lam = tuple(tuple(r) for r in lam) if lam is not None \
            else solve_lambda(self.exch.btilde)
        self.d = check_compatible(self.lam, self.exch.btilde)
        self.name = name
        self._tori = {}

    @property
    def m(self):
        return self.quiver.m

    @property
    def n(self):
        return self.quiver.n

    def torus(self, mode) -> Torus:
        key = mode
        if key not in self._tori:
            self._tori[key] = Torus(self.lam, mode)
        return self._tori[key]

    def euler(self, a, b) -> int:
        return euler_form_full(self.principal, a, b)

    def pairing(self, u, v) -> int:
        return pairing(self.lam, u, v)

    def cc_exponent(self, e, mv, shift=None):
        """btilde*e - (itilde - rtilde)*mv + shift, as a length-m tuple."""
        be = self.exch.btilde_vec(e)
        ir = self.exch.ir_vec(mv)
        out = [a - b for a, b in zip(be, ir)]
        if shift:
            for i, s in shift.items():
                out[i - 1] += s
        return tuple(out)

    def __repr__(self):
        return "ClusterModel(%s, m=%d, n=%d)" % (self.name or "?", self.m, self.n)


def verify_lemma_bilinear(model: ClusterModel, mv, e, f, lv):
    """Check the two skew-form/Euler-form identities and their corollary.

    Returns a list of (name, lhs, rhs) triples; callers compare the sides.
    """
    ex = model.exch
    ir_m = ex.ir_vec(mv)
    ir_l = ex.ir_vec(lv)
    be = ex.btilde_vec(e)
    bf = ex.btilde_vec(f)
    ee = model.euler
    out = [
        ("skew(ir(m), b(e)) = -<e,m>", model.pairing(ir_m, be), -ee(e, mv)),
        ("skew(b(e), b(f)) = <e,f>-<f,e>", model.pairing(be, bf),
         ee(e, f) - ee(f, e)),
    ]
    lhs = model.pairing(tuple(x - y for x, y in zip(be, ir_m)),
                        tuple(x - y for x, y in zip(bf, ir_l)))
    rhs = (model.pairing(ir_m, ir_l) + ee(e, f) - ee(f, e)
           - ee(e, lv) + ee(f, mv))
    out.append(("corollary expansion", lhs, rhs))
    return out
