"""Quantum seeds and their mutation.

A seed stores the current skew form, the current exchange matrix and the
expansion of every frame variable inside the initial formal torus.
Mutation in direction k replaces the k-th variable through the two-term
exchange relation; the division by the outgoing variable is exact in the
torus, which is itself a check of the Laurent property.  A seed is read at
q = p by specializing its variables (``ToricElement.specialize``).
"""

from __future__ import annotations

from . import catalog
from .ccmap import ClusterObject, cc_map
from .quiver import ClusterModel, check_compatible
from .rep import simple
from .scalars import FORMAL, SpecializedMode, qbinom
from .torus import ToricElement, div_right, pairing


class SeedError(ValueError):
    pass


def mutation_matrix(btilde, k0: int):
    """The m x m matrix driving the frame change in direction k (0-based)."""
    m = len(btilde)
    E = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        if i == k0:
            E[i][k0] = -1
        else:
            E[i][k0] = max(0, -btilde[i][k0])
    return tuple(tuple(r) for r in E)


def mutate_matrices(lam, btilde, k: int):
    """(lam', btilde') for mutation in direction k (1-based)."""
    m = len(btilde)
    n = len(btilde[0])
    if not (1 <= k <= n):
        raise SeedError("mutation direction %d is frozen or out of range" % k)
    k0 = k - 1
    E = mutation_matrix(btilde, k0)
    lam2 = tuple(
        tuple(sum(E[a][i] * lam[a][b] * E[b][j] for a in range(m) for b in range(m))
              for j in range(m))
        for i in range(m)
    )
    bt2 = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == k0 or j == k0:
                bt2[i][j] = -btilde[i][j]
            else:
                bik = btilde[i][k0]
                bkj = btilde[k0][j]
                bt2[i][j] = btilde[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2
    return lam2, tuple(tuple(r) for r in bt2)


class QuantumSeed:
    def __init__(self, model: ClusterModel, lam, btilde, variables, d):
        self.model = model
        self.lam = lam
        self.btilde = btilde
        self.vars = list(variables)
        self.d = d

    @classmethod
    def initial(cls, model: ClusterModel) -> "QuantumSeed":
        torus = model.torus(FORMAL)
        unit = [0] * model.m
        variables = []
        for i in range(model.m):
            e = list(unit)
            e[i] = 1
            variables.append(torus.monomial(tuple(e)))
        return cls(model, model.lam, model.exch.btilde, variables, model.d)

    @property
    def torus(self):
        return self.model.torus(FORMAL)

    def pairing(self, u, v) -> int:
        return pairing(self.lam, u, v)

    def frame_monomial(self, c) -> ToricElement:
        """The bar-invariant normal-ordered product of frame variables.

        Negative exponents are allowed exactly where the variable is an
        invertible torus monomial (always true for frozen variables).
        """
        c = tuple(int(x) for x in c)
        if len(c) != self.model.m:
            raise SeedError("exponent length mismatch")
        half, factors = self._frame_factors(c, 0)
        out = self.torus.q(half)
        for x, ci in factors:
            out = out * (x ** ci)
        return out

    def _frame_factors(self, c, half: int):
        """q^(half/2) times the frame monomial at c as one product
        (half', ((x_i, c_i), ...)) in the form ``div_right`` takes: the
        central power joins the normal-ordering power."""
        for i in range(len(c)):
            if not c[i]:
                continue
            for j in range(i + 1, len(c)):
                if c[j]:
                    half += c[i] * c[j] * self.lam[j][i]
        return half, tuple((self.vars[i], ci) for i, ci in enumerate(c) if ci)

    def cluster_monomial(self, c) -> ToricElement:
        """frame_monomial restricted to the quantum cluster monomial cone."""
        if any(c[i] < 0 for i in range(self.model.n)):
            raise SeedError("cluster monomials need nonnegative principal exponents")
        return self.frame_monomial(c)

    def mutate(self, k: int) -> "QuantumSeed":
        """Mutation in direction k (1-based, principal)."""
        model = self.model
        n, m = model.n, model.m
        if not (1 <= k <= n):
            raise SeedError("direction %d is frozen or out of range" % k)
        k0 = k - 1
        bcol = [self.btilde[i][k0] for i in range(m)]
        vpos = tuple(max(0, -b) if i != k0 else 0 for i, b in enumerate(bcol))
        wpos = tuple(max(0, b) if i != k0 else 0 for i, b in enumerate(bcol))
        ek = tuple(1 if i == k0 else 0 for i in range(m))
        # the exchange numerator goes to the division as its two products
        new_var = div_right([self._frame_factors(vpos, self.pairing(vpos, ek)),
                             self._frame_factors(wpos, self.pairing(wpos, ek))],
                            self.vars[k0])
        lam2, bt2 = mutate_matrices(self.lam, self.btilde, k)
        if check_compatible(lam2, bt2) != self.d:
            raise SeedError("mutation broke the compatible pair")
        new_vars = list(self.vars)
        new_vars[k0] = new_var
        return QuantumSeed(self.model, lam2, bt2, new_vars, self.d)

    def mutated_value(self, k: int, c) -> ToricElement:
        """The mutated frame evaluated at c (needs c_k >= 0), computed from
        this seed by the binomial exchange expansion."""
        model = self.model
        m = model.m
        k0 = k - 1
        c = tuple(int(x) for x in c)
        ck = c[k0]
        if ck < 0:
            raise SeedError("mutated_value needs a nonnegative k-th entry")
        E = mutation_matrix(self.btilde, k0)
        Ec = tuple(sum(E[i][j] * c[j] for j in range(m)) for i in range(m))
        bcol = tuple(self.btilde[i][k0] for i in range(m))
        out = self.torus.zero()
        dk = self.d[k0]
        for t in range(ck + 1):
            arg = tuple(Ec[i] + t * bcol[i] for i in range(m))
            out = out + self.frame_monomial(arg).scale(qbinom(ck, t, dk))
        return out

    def canonical_key(self):
        return (self.lam, self.btilde,
                tuple(tuple(sorted(v.terms.items())) for v in self.vars))

    def __eq__(self, other):
        return isinstance(other, QuantumSeed) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def relabel_principal(self, perm):
        """Seed with principal frame indices permuted (old -> new, 1-based).

        Frame variables keep their values in the initial torus; only their
        listing and the index sets of the matrices move.
        """
        m, n = self.model.m, self.model.n
        full = list(range(m))
        for old, new in perm.items():
            full[old - 1] = new - 1
        inv = [0] * m
        for a, b in enumerate(full):
            inv[b] = a
        lam2 = tuple(tuple(self.lam[inv[i]][inv[j]] for j in range(m)) for i in range(m))
        bt2 = tuple(tuple(self.btilde[inv[i]][inv[j]] for j in range(n)) for i in range(m))
        vars2 = [self.vars[inv[i]] for i in range(m)]
        return QuantumSeed(self.model, lam2, bt2, vars2, self.d)

    def render(self, p: int | None = None) -> str:
        """One line per frame variable, formal or, given a prime p, at q = p."""
        lines = []
        for i, v in enumerate(self.vars, 1):
            tag = "X%d" % i if i <= self.model.n else "X%d (frozen)" % i
            lines.append("%s = %s" % (tag, (v if p is None else v.specialize(p)).render()))
        return "\n".join(lines)


def standard_monomial(name: str, d, p: int) -> ToricElement:
    """Ordered product over i of X_{S_i}^{d+_i} X_{P_i[1]}^{d-_i}.

    Built from the memoized prefix product of d[:-1], so each new entry of a
    box costs one torus product.  The prefixes and factors stay on the class
    store of (name, p) and are freed with its meter.  The result is shared
    between callers and must not be mutated.
    """
    model = catalog.get(name).model
    d = tuple(int(d[i]) for i in range(model.n))
    derived = catalog.store_for(name, p).derived
    prefixes = derived.get("standard_monomials")
    if prefixes is None:
        prefixes = derived["standard_monomials"] = {(): model.torus(SpecializedMode(p)).one()}
    known = len(d)
    while d[:known] not in prefixes:
        known -= 1
    for j in range(known + 1, len(d) + 1):
        head = prefixes[d[:j - 1]]
        prefixes[d[:j]] = head if d[j - 1] == 0 else head * _sm_factor(name, p, j, d[j - 1])
    return prefixes[d]


def _sm_factor(name: str, p: int, i: int, k: int) -> ToricElement:
    """X_{S_i}^k for k > 0 and X_{P_i[1]}^(-k) for k < 0, each power one
    product from the previous one; memoized on the class store of (name, p)."""
    factors = catalog.store_for(name, p).derived.setdefault("standard_monomial_factors", {})
    if (i, k) in factors:
        return factors[i, k]
    entry = catalog.get(name)
    model = entry.model
    if k > 0:
        base = cc_map(ClusterObject(simple(entry.principal, p, i)), model, p)
        step = -1
    else:
        e = tuple(1 if j == i - 1 else 0 for j in range(model.m))
        base = model.torus(SpecializedMode(p)).monomial(e)
        step = 1
    factors[i, k] = base if k + step == 0 else _sm_factor(name, p, i, k + step) * base
    return factors[i, k]
