"""Mechanical verification of the multiplication formulas, difference
properties, gradings, and basis statements, each as an exact identity in the
specialized quantum torus.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

from . import catalog
from . import rep as R
from .ccmap import (ClusterObject, cc_delta, cc_map, cc_map_formal,
                    extended_coreflect, generic_variable)
from .hall import dim_vectors_upto
from .quiver import ClusterModel, ExchangeData, verify_lemma_bilinear
from .scalars import FORMAL, SpecializedMode
from .seeds import QuantumSeed, mutate_matrices, standard_monomial
from .torus import ToricElement


class VerifyReport:
    """Outcome of one statement check: inputs, both sides, verdict."""

    def __init__(self, statement, inputs, lhs="", rhs="", verdict="pass", detail=""):
        self.statement = statement
        self.inputs = inputs
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict  # pass | fail | skip | neutral-pass | neutral-fail
        self.detail = detail

    @property
    def ok(self):
        return self.verdict in ("pass", "neutral-pass", "neutral-fail", "skip")

    def as_dict(self):
        return {
            "statement": self.statement,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "detail": self.detail,
        }

    def line(self):
        extra = " (%s)" % self.detail if self.detail else ""
        return "%-10s %-40s %s%s" % (self.statement, self.inputs, self.verdict, extra)


def _cmp_report(statement, inputs, lhs: ToricElement, rhs: ToricElement,
                detail="", neutral=False):
    verdict = ("neutral-" if neutral else "") + ("pass" if lhs == rhs else "fail")
    return VerifyReport(statement, inputs, lhs.render(), rhs.render(), verdict, detail)


# ---------------------------------------------------------------------------
# Hall-style multiplication (the product-expansion identity)


def verify_hall(name: str, M, N, p: int) -> VerifyReport:
    """q^[M,N]^1 X_N X_M = q^(-skew(...)/2) sum_E eps^E_{M,N} X_E, exactly."""
    entry = catalog.get(name)
    model = entry.model
    store = catalog.store_for(name, p)
    torus = model.torus(SpecializedMode(p))
    memo = store.derived.setdefault("cc_map", {})

    def x_of(X):
        if X.key() not in memo:
            memo[X.key()] = cc_map(ClusterObject(X), model, p)
        return memo[X.key()]

    xm, xn = x_of(M), x_of(N)
    ext1 = store.ext(M, N)
    lhs = torus.q(2 * ext1) * (xn * xm)
    ir_m = model.exch.ir_vec(M.dims)
    ir_n = model.exch.ir_vec(N.dims)
    tw = -model.pairing(ir_m, ir_n)
    middles = store.middle_terms(M, N)
    table = store.ext_table(M, N)
    rhs = torus.zero()
    for i in sorted(table):
        rhs = rhs + x_of(middles[i]) * table[i]
    rhs = torus.q(tw) * rhs
    inputs = "%s p=%d M=%s N=%s" % (name, p, list(M.dims), list(N.dims))
    return _cmp_report("thm3.3", inputs, lhs, rhs)


def _sweep_dims(name: str, total=None, bound_vec=None):
    """Dimension vectors of the principal part within the sweep bounds."""
    return dim_vectors_upto(catalog.get(name).principal.n,
                            bound_total=total, bound_vec=bound_vec)


def _within(d, e, total=None, bound_vec=None):
    """Whether d + e is within the sweep bounds."""
    tot = tuple(a + b for a, b in zip(d, e))
    return ((total is None or sum(tot) <= total)
            and (bound_vec is None or all(a <= b for a, b in zip(tot, bound_vec))))


def _bounded_pairs(classes, total=None, bound_vec=None):
    """Ordered pairs of the classes whose summed dimension vector is within
    the sweep bounds."""
    return [(M, N) for M in classes for N in classes
            if _within(M.dims, N.dims, total, bound_vec)]


def hall_pairs(name: str, p: int, total=None, bound_vec=None):
    """Ordered pairs of indecomposables within the sweep bounds.

    Only a dimension vector d that some e of the box completes within the
    bounds can carry a member of a pair, so indecomposability is tested on
    those alone; the pairs are those of every indecomposable of the box."""
    store = catalog.store_for(name, p)
    box = _sweep_dims(name, total, bound_vec)
    pairable = [d for d in box if any(_within(d, e, total, bound_vec) for e in box)]
    return _bounded_pairs(store.indecomposables(pairable), total, bound_vec)


SWEEP_BOUNDS = {"a2": dict(total=4), "a2bare": dict(total=4),
                "a3": dict(total=4), "kronecker": dict(bound_vec=(2, 2))}
GREEN_BOUNDS = {"a2": dict(total=3), "a2bare": dict(total=3),
                "a3": dict(total=3), "kronecker": dict(bound_vec=(1, 1))}


def _pair_bounds(name: str, all_pairs: bool) -> dict:
    """The full desk bounds of a pair sweep, or the quick subset."""
    return (SWEEP_BOUNDS if all_pairs else GREEN_BOUNDS).get(name, dict(total=3))


def sweep_hall(name: str, p: int = 3, all_pairs: bool = True):
    kw = _pair_bounds(name, all_pairs)
    return [verify_hall(name, M, N, p) for M, N in hall_pairs(name, p, **kw)]


# ---------------------------------------------------------------------------
# Green's formula (pure counting identity)


def verify_green(name: str, M, N, X, Y, p: int) -> VerifyReport:
    store = catalog.store_for(name, p)
    model = catalog.get(name).model
    lhs = 0
    for E in store.middle_terms(M, N):
        eps = store.ext_count(E, M, N)
        if eps:
            lhs += eps * store.filtration_count(E, X, Y)
    rhs: dict[int, int] = {}  # exponent of p -> integer coefficient
    mdims, ndims = M.dims, N.dims
    xdims = X.dims
    for a in product(*[range(x + 1) for x in mdims]):
        c = tuple(x - y for x, y in zip(xdims, a))
        if any(v < 0 or v > w for v, w in zip(c, ndims)):
            continue
        b = tuple(x - y for x, y in zip(mdims, a))
        d = tuple(x - y for x, y in zip(ndims, c))
        for A in store.iso_classes(a):
            for B in store.iso_classes(b):
                fm = store.filtration_count(M, A, B)
                if not fm:
                    continue
                for C in store.iso_classes(c):
                    epsx = store.ext_count(X, A, C)
                    if not epsx:
                        continue
                    for D in store.iso_classes(d):
                        fn = store.filtration_count(N, C, D)
                        if not fn:
                            continue
                        epsy = store.ext_count(Y, B, D)
                        if not epsy:
                            continue
                        expo = (store.hom(M, N) - store.hom(A, C)
                                - store.hom(B, D) - model.euler(A.dims, D.dims))
                        rhs[expo] = rhs.get(expo, 0) + fm * fn * epsx * epsy
    # the right side is num/den, den = p^shift clearing every negative exponent
    shift = max(0, -min(rhs, default=0))
    num = sum(coeff * p ** (expo + shift) for expo, coeff in rhs.items())
    den = p**shift
    inputs = "%s p=%d M=%s N=%s X=%s Y=%s" % (
        name, p, list(M.dims), list(N.dims), list(X.dims), list(Y.dims))
    verdict = "pass" if lhs * den == num else "fail"
    rhs_text = str(num // den) if num % den == 0 else str(Fraction(num, den))
    return VerifyReport("green", inputs, str(lhs), rhs_text, verdict)


def sweep_green(name: str, p: int = 3):
    kw = _pair_bounds(name, all_pairs=False)
    store = catalog.store_for(name, p)
    out = []
    for M, N in hall_pairs(name, p, **kw):
        tot = tuple(a + b for a, b in zip(M.dims, N.dims))
        for x in product(*[range(t + 1) for t in tot]):
            y = tuple(t - v for t, v in zip(tot, x))
            for X in store.iso_classes(x):
                for Y in store.iso_classes(y):
                    out.append(verify_green(name, M, N, X, Y, p))
    return out


# ---------------------------------------------------------------------------
# helpers shared by the one-dimensional multiplication checks


def decompose_projective(P):
    """Multiplicities {j: t_j} with sum t_j P_j = P, read off tau_split."""
    rest, mults = R.tau_split(P)
    if not rest.is_zero():
        raise R.RepError("module is not projective")
    return mults


def decompose_injective(I):
    """Multiplicities {j: s_j} with sum s_j I_j = I, read off tau_inverse_split."""
    rest, mults = R.tau_inverse_split(I)
    if not rest.is_zero():
        raise R.RepError("module is not injective")
    return mults


def _sum_of(build, quiver, p, mults):
    """The direct sum of mults[j] copies of build(quiver, p, j) over j."""
    copies = [build(quiver, p, j) for j, c in mults.items() for _ in range(c)]
    return R.direct_sum(R.zero_rep(quiver, p), *copies)


# ---------------------------------------------------------------------------
# One-dimensional extension multiplication


def verify_onedim(name: str, M, N, p: int) -> VerifyReport:
    """X_N X_M as a two-term sum over the extension and its companion object.

    Hypotheses (one-dimensional ext, one-dimensional reverse Hom to the
    translate, vanishing of two auxiliary Hom spaces) are checked and a skip
    report is returned when they fail.
    """
    entry = catalog.get(name)
    model = entry.model
    store = catalog.store_for(name, p)
    framed = entry.framed
    inputs = "%s p=%d M=%s N=%s" % (name, p, list(M.dims), list(N.dims))
    Mf = R.extend_to(M, framed)
    Nf = R.extend_to(N, framed)
    if store.ext(M, N) != 1:
        return VerifyReport("thm3.5", inputs, verdict="skip", detail="ext(M,N) != 1")
    # M = M' + P0 with P0 projective; the translate sees only M'
    tau_m, p0_mults = R.tau_split(Mf)
    if tau_m.is_zero():
        return VerifyReport("thm3.5", inputs, verdict="skip",
                            detail="M is projective; translate vanishes")
    homs = R.hom_basis(Nf, tau_m)
    if len(homs) != 1:
        return VerifyReport("thm3.5", inputs, verdict="skip",
                            detail="hom(N, tau M) = %d != 1" % len(homs))
    f = homs[0]
    d0f, _ = R.kernel(f, Nf)
    coker = R.cokernel(f, tau_m)
    # coker = tau A + I with I injective
    a_f, inj_shifts = R.tau_inverse_split(coker)
    ipart = _sum_of(R.injective, framed, p, inj_shifts)
    a_f = R.direct_sum(a_f, _sum_of(R.projective, framed, p, p0_mults))  # A0 = A + P0
    # hypothesis Hom(D0, tau A0 + I) = Hom(A0, I) = 0; tau A0 = tau A
    if not coker.is_zero() and not d0f.is_zero() and R.hom_dim(d0f, coker):
        return VerifyReport("thm3.5", inputs, verdict="skip",
                            detail="Hom(D0, tau A + I) != 0")
    if not ipart.is_zero() and not a_f.is_zero() and R.hom_dim(a_f, ipart):
        return VerifyReport("thm3.5", inputs, verdict="skip", detail="Hom(A, I) != 0")
    try:
        E = R.nonsplit_middle(M, N)
    except R.RepError as exc:
        return VerifyReport("thm3.5", inputs, verdict="fail", detail=str(exc))
    d0 = R.restrict_principal(d0f)
    a0 = R.restrict_principal(a_f)
    da = R.direct_sum(d0, a0)
    torus = model.torus(SpecializedMode(p))
    xm = cc_map(ClusterObject(M), model, p)
    xn = cc_map(ClusterObject(N), model, p)
    lhs = xn * xm
    ir_n = model.exch.ir_vec(N.dims)
    ir_m = model.exch.ir_vec(M.dims)
    alpha = model.pairing(ir_n, ir_m)
    beta = alpha + model.euler(M.dims, N.dims) - model.euler(a0.dims, d0.dims)
    rhs = (torus.q(alpha) * cc_map(ClusterObject(E), model, p)
           + torus.q(beta) * cc_map(ClusterObject(da, inj_shifts), model, p))
    case = ""
    if a0.is_zero() and not inj_shifts:
        case = "case I"
    elif d0.is_zero():
        case = "case II"
    if (R.is_rigid(M) and R.is_rigid(N) and R.is_indecomposable(M)
            and R.is_indecomposable(N) and store.ext(N, M) == 0):
        gap = model.euler(a0.dims, d0.dims) - model.euler(M.dims, N.dims)
        if gap != 1:
            return VerifyReport("thm3.5", inputs, verdict="fail",
                                detail="rigid case exponent %d != 1" % gap)
        case = (case + " " if case else "") + "case III, exponent 1/2 ok"
    return _cmp_report("thm3.5", inputs, lhs, rhs, detail=case or "general")


def sweep_onedim(name: str, p: int = 3, all_pairs: bool = True):
    """All ordered pairs of iso classes (decomposables included) in bounds."""
    kw = _pair_bounds(name, all_pairs)
    store = catalog.store_for(name, p)
    classes = [M for d in _sweep_dims(name, **kw) for M in store.iso_classes(d)]
    return [verify_onedim(name, M, N, p) for M, N in _bounded_pairs(classes, **kw)]


# ---------------------------------------------------------------------------
# Projective-injective exchange multiplication


def verify_exchange(name: str, M, j: int, p: int) -> VerifyReport:
    """X_{tau P_j} X_M as the two-term sum over the kernel/cokernel objects."""
    entry = catalog.get(name)
    model = entry.model
    framed = entry.framed
    inputs = "%s p=%d M=%s j=%d" % (name, p, list(M.dims), j)
    Mf = R.extend_to(M, framed)
    P = R.projective(framed, p, j)
    I = R.injective(framed, p, j)
    fb = R.hom_basis(P, Mf)
    gb = R.hom_basis(Mf, I)
    if len(fb) != 1 or len(gb) != 1:
        return VerifyReport("thm3.8", inputs, verdict="skip",
                            detail="[P,M]=%d [M,I]=%d" % (len(fb), len(gb)))
    f, g = fb[0], gb[0]
    pker, _ = R.kernel(f, P)
    acoker = R.cokernel(f, Mf)
    bker, _ = R.kernel(g, Mf)
    icoker = R.cokernel(g, I)
    try:
        pshifts = decompose_projective(pker)
        ishifts = decompose_injective(icoker)
    except R.RepError as exc:
        return VerifyReport("thm3.8", inputs, verdict="fail", detail=str(exc))
    if not bker.is_zero() and not icoker.is_zero() and R.hom_dim(bker, icoker):
        return VerifyReport("thm3.8", inputs, verdict="skip", detail="[B,I'] != 0")
    if not pker.is_zero() and not acoker.is_zero() and R.hom_dim(pker, acoker):
        return VerifyReport("thm3.8", inputs, verdict="skip", detail="[P',A] != 0")
    torus = model.torus(SpecializedMode(p))
    ej = tuple(1 if i == j - 1 else 0 for i in range(model.m))
    lhs = torus.monomial(ej) * cc_map(ClusterObject(M), model, p)
    alpha = -model.pairing(ej, model.exch.ir_vec(M.dims))
    b_pr = R.restrict_principal(bker)
    a_pr = R.restrict_principal(acoker)
    xe = cc_map(ClusterObject(b_pr, ishifts), model, p)
    xep = cc_map(ClusterObject(a_pr, pshifts), model, p)
    rhs = torus.q(alpha) * xe + torus.q(alpha - 1) * xep
    return _cmp_report("thm3.8", inputs, lhs, rhs)


def sweep_exchange(name: str, p: int = 3, all_pairs: bool = True):
    m = catalog.get(name).framed.m
    store = catalog.store_for(name, p)
    indecs = store.indecomposables(_sweep_dims(name, **_pair_bounds(name, all_pairs)))
    return [verify_exchange(name, M, j, p) for M in indecs for j in range(1, m + 1)]


# ---------------------------------------------------------------------------
# Tube recursion


def verify_tube_recursion(name: str, tube_index: int, i: int, p: int) -> VerifyReport:
    entry = catalog.get(name)
    model = entry.model
    framed = entry.framed
    simples = entry.tube_simples(p, tube_index)
    r = len(simples)
    inputs = "%s p=%d tube=%d i=%d rank=%d" % (name, p, tube_index, i, r)
    e_top = catalog.tube_module(name, p, tube_index, i, r)
    e_mid = catalog.tube_module(name, p, tube_index, i, r - 1)
    e_low = catalog.tube_module(name, p, tube_index, i, r - 2)
    e_prev = simples[(i - 2) % r]
    tau_prev = R.tau(R.extend_to(e_prev, framed))
    homs = R.hom_basis(R.extend_to(e_mid, framed), tau_prev)
    if len(homs) != 1:
        return VerifyReport("lem5.2", inputs, verdict="fail",
                            detail="hom(E_i[r-1], tau E_{i-1}) = %d" % len(homs))
    h = homs[0]
    mid_f = R.extend_to(e_mid, framed)
    ker, _ = R.kernel(h, mid_f)
    icoker = R.cokernel(h, tau_prev)
    try:
        ishifts = decompose_injective(icoker)
    except R.RepError as exc:
        return VerifyReport("lem5.2", inputs, verdict="fail", detail=str(exc))
    if any(jj <= model.n for jj in ishifts):
        return VerifyReport("lem5.2", inputs, verdict="fail",
                            detail="injective part not frozen: %s" % ishifts)
    if not R.iso_test(R.restrict_principal(ker), e_low):
        return VerifyReport("lem5.2", inputs, verdict="fail",
                            detail="kernel is not E_i[r-2]")
    torus = model.torus(SpecializedMode(p))
    lhs = (cc_map(ClusterObject(e_mid), model, p)
           * cc_map(ClusterObject(e_prev), model, p))
    beta = model.pairing(model.exch.ir_vec(e_mid.dims), model.exch.ir_vec(e_prev.dims))
    rhs = (torus.q(beta) * cc_map(ClusterObject(e_top), model, p)
           + torus.q(beta - 1) * cc_map(ClusterObject(e_low, ishifts), model, p))
    return _cmp_report("lem5.2", inputs, lhs, rhs)


# ---------------------------------------------------------------------------
# The Kronecker golden identity


def _kronecker_identity(torus, xs1, xs2) -> ToricElement:
    """X_S1 X_S2 - q^(-1) X^(1,0,0,0) X^(0,1,0,0) X^(0,0,0,1), the value the
    regular simple R1 must take."""
    prod = torus.monomial((1, 0, 0, 0)) * torus.monomial((0, 1, 0, 0)) \
        * torus.monomial((0, 0, 0, 1))
    return xs1 * xs2 - torus.q(-1) * prod


def verify_kronecker(p: int) -> list[VerifyReport]:
    entry = catalog.get("kronecker")
    model = entry.model
    torus = model.torus(SpecializedMode(p))
    q = entry.principal
    xs1 = cc_map(ClusterObject(R.simple(q, p, 1)), model, p)
    xs2 = cc_map(ClusterObject(R.simple(q, p, 2)), model, p)
    xr = cc_delta("kronecker", p)
    out = []
    golden = {
        "X_S1": (xs1, [(-1, 0, 1, 0), (-1, 2, 0, 0)]),
        "X_S2": (xs2, [(0, -1, 0, 0), (2, -1, 0, 1)]),
        "X_R1": (xr, [(1, -1, 1, 1), (-1, 1, 0, 0), (-1, -1, 1, 0)]),
    }
    for tag, (val, exps) in golden.items():
        want = torus.zero()
        for e in exps:
            want = want + torus.monomial(e)
        out.append(_cmp_report("lem5.4", "p=%d %s" % (p, tag), val, want))
    rhs = _kronecker_identity(torus, xs1, xs2)
    out.append(_cmp_report("lem5.4", "p=%d identity" % p, xr, rhs))
    return out


def verify_kronecker_formal() -> VerifyReport:
    model = catalog.get("kronecker").model
    xs1, xs2, xr = (cc_map_formal(catalog.family_for("kronecker", f), {}, model)
                    for f in ("s1", "s2", "r1"))
    rhs = _kronecker_identity(model.torus(FORMAL), xs1, xs2)
    return _cmp_report("lem5.4", "formal identity", xr, rhs)


# ---------------------------------------------------------------------------
# Difference property


def _tube_difference(name: str, p: int, tube_index: int):
    """(dim E_1, E_1[r], E_2[r-2], E_lambda) on a tube of rank r; tau^{-1} E_1
    = E_2 in the cyclic labelling."""
    simples = catalog.get(name).tube_simples(p, tube_index)
    r = len(simples)
    return (simples[0].dims, catalog.tube_module(name, p, tube_index, 1, r),
            catalog.tube_module(name, p, tube_index, 2, r - 2),
            catalog.homogeneous_points(name, p)[0])


def _no_point(statement, inputs, p):
    """The skip of a difference check on a quiver whose tubes take every line
    of Ext^1(I, P_e) at this prime (dtilde4 at p = 2)."""
    return VerifyReport(statement, inputs, verdict="skip",
                        detail="no degree-one homogeneous point at p=%d" % p)


def _difference_sides(name: str, p: int, shift, e1r, e2low, elam):
    """X_{E_1[r]} and X_{E_lambda} + q X_{E_2[r-2]}, the latter in the object
    form, whose second term is shifted at the frozen copy of shift, and in
    the plain module form."""
    model = catalog.get(name).model
    torus = model.torus(SpecializedMode(p))
    lhs = cc_map(ClusterObject(e1r), model, p)
    base = cc_map(ClusterObject(elam), model, p)
    frozen = {model.n + i + 1: x for i, x in enumerate(shift) if x}
    rhs_object = base + torus.q(1) * cc_map(ClusterObject(e2low, frozen), model, p)
    rhs_plain = base + torus.q(1) * cc_map(ClusterObject(e2low), model, p)
    return lhs, rhs_object, rhs_plain


def verify_difference(name: str, p: int, tube_index: int = 0) -> list[VerifyReport]:
    """Count identity for every e, then the two-term toric identity.

    The toric identity is checked in two forms.  The object form carries the
    frozen shifted injective with socle the frozen copy of dim E_1 on the
    second term (the same correction that the tube recursion lemma makes
    explicit); it is the form that holds exactly.  The plain module form
    printed alongside the count identity drops that frozen monomial and is
    reported for the record: over a standard framing the framing rows of the
    exchange matrix make the two sides differ by exactly X^(frozen copy).
    """
    statement = "prop6.2" if name.startswith("dtilde") else "prop6.1"
    if not catalog.homogeneous_points(name, p):
        return [_no_point(statement, "%s p=%d" % (name, p), p)]
    shift, e1s, e2low, elam = _tube_difference(name, p, tube_index)
    reports = []
    count_ok = True
    detail = ""
    g1, glam, g2 = (R.all_grassmannian_counts(X) for X in (e1s, elam, e2low))
    for e in product(*[range(d + 1) for d in e1s.dims]):
        lhs = g1.get(e, 0)
        rhs = glam.get(e, 0)
        e2 = tuple(x - y for x, y in zip(e, shift))
        if all(x >= 0 for x in e2):
            rhs += g2.get(e2, 0)
        if lhs != rhs:
            count_ok = False
            detail = "count mismatch at e=%s: %d vs %d" % (e, lhs, rhs)
            break
    reports.append(VerifyReport(statement, "%s p=%d counts" % (name, p),
                                verdict="pass" if count_ok else "fail",
                                detail=detail))
    lhs, rhs_object, rhs_plain = _difference_sides(name, p, shift, e1s, e2low, elam)
    reports.append(_cmp_report(statement, "%s p=%d toric(object)" % (name, p),
                               lhs, rhs_object))
    plain = _cmp_report(statement, "%s p=%d toric(module)" % (name, p),
                        lhs, rhs_plain, neutral=True)
    plain.detail = ("module form drops the frozen injective shift"
                    if plain.verdict != "neutral-pass" else "")
    reports.append(plain)
    return reports


def check_conjecture(name: str, tube_index: int, p: int) -> list[VerifyReport]:
    """Difference form on an arbitrary tube; reported neutrally, in both the
    frozen-shift object form and the plain module form."""
    tag = "%s p=%d tube=%d" % (name, p, tube_index)
    if not catalog.homogeneous_points(name, p):
        return [_no_point("conj6.4", tag, p)]
    lhs, rhs_object, rhs_plain = _difference_sides(
        name, p, *_tube_difference(name, p, tube_index))
    return [
        _cmp_report("conj6.4", tag + " (object)", lhs, rhs_object, neutral=True),
        _cmp_report("conj6.4", tag + " (module)", lhs, rhs_plain, neutral=True),
    ]


# ---------------------------------------------------------------------------
# Homogeneous tube sum (the delta-element membership identity)


def verify_homogeneous_sum(name: str, p: int) -> VerifyReport:
    """The grouped middle-term expansion of q^2 X_{P_e} X_I for the simple
    projective at a principal sink e with delta_e = 1 and the preinjective of
    complementary dimension: the homogeneous part collapses by the parameter
    independence, with exactly q+1-t points, each with q-1 classes."""
    entry = catalog.get(name)
    model = entry.model
    store = catalog.store_for(name, p)
    pe, icand = catalog.delta_pair(name, p)
    inputs = "%s p=%d sink=%d" % (name, p, pe.dims.index(1) + 1)
    if icand is None or not R.is_indecomposable(icand):
        return VerifyReport("thm5.3", inputs, verdict="fail",
                            detail="no preinjective complement found")
    if store.ext(icand, pe) != 2:
        return VerifyReport("thm5.3", inputs, verdict="fail",
                            detail="ext(I, P_e) = %d != 2" % store.ext(icand, pe))
    homog = {store.classify(h) for h in catalog.homogeneous_points(name, p)}
    tubes_full = set()
    for t, tube in enumerate(entry.tubes):
        for i in (1, 2):
            tubes_full.add(store.classify(catalog.tube_module(name, p, t, i, len(tube))))
    split = store.classify(R.direct_sum(pe, icand))
    t_count = len(entry.tubes)
    if len(homog) != p + 1 - t_count:
        return VerifyReport("thm5.3", inputs, verdict="fail",
                            detail="homogeneous point count %d != %d"
                            % (len(homog), p + 1 - t_count))
    try:
        table = store.ext_table(icand, pe)
    except R.RepError as exc:
        return VerifyReport("thm5.3", inputs, verdict="fail", detail=str(exc))
    # the table leaves out the classes no cocycle reaches: once the checks
    # below pass, the split class takes 1 of its p^2 cocycles and every other
    # class p - 1, so all p + 1 - t homogeneous classes are in it
    hits_per_tube = 0
    for idx, eps in sorted(table.items()):
        if idx == split:
            if eps != 1:
                return VerifyReport("thm5.3", inputs, verdict="fail",
                                    detail="split class count %d != 1" % eps)
        elif idx in homog:
            if eps != p - 1:
                return VerifyReport("thm5.3", inputs, verdict="fail",
                                    detail="homogeneous class count %d" % eps)
        elif idx in tubes_full:
            if eps != p - 1:
                return VerifyReport("thm5.3", inputs, verdict="fail",
                                    detail="tube class count %d" % eps)
            hits_per_tube += 1
        else:
            return VerifyReport("thm5.3", inputs, verdict="fail",
                                detail="unexpected middle class with count %d" % eps)
    if hits_per_tube != t_count:
        return VerifyReport("thm5.3", inputs, verdict="fail",
                            detail="tube middle terms %d != %d" % (hits_per_tube, t_count))
    # the homogeneous values all agree, so the grouped identity follows from
    # the full expansion, which we also check verbatim
    base = verify_hall(name, icand, pe, p)
    pts = [cc_map(ClusterObject(h), model, p)
           for h in catalog.homogeneous_points(name, p)]
    if any(x != pts[0] for x in pts):
        return VerifyReport("thm5.3", inputs, verdict="fail",
                            detail="homogeneous values differ")
    verdict = "pass" if base.verdict == "pass" else "fail"
    return VerifyReport("thm5.3", inputs, base.lhs, base.rhs, verdict,
                        detail="grouped counts ok; t=%d" % t_count)


# ---------------------------------------------------------------------------
# Gradings, support cones, standard-monomial expansion


def is_graded(b_matrix, eps) -> bool:
    n = len(b_matrix[0]) if b_matrix else 0
    for j in range(n):
        col = [b_matrix[i][j] for i in range(n)]
        if sum(e * c for e, c in zip(eps, col)) >= 0:
            return False
    return True


def graded_epsilon(name: str):
    """The catalog grading form of name, or None when it has none or the
    form does not grade the exchange matrix."""
    entry = catalog.get(name)
    eps = entry.epsilon
    return eps if eps is not None and is_graded(entry.model.exch.b, eps) else None


def lambda_vertex(model: ClusterModel, obj: ClusterObject):
    mv = obj.module.dims if obj.module is not None else (0,) * model.n
    out = []
    for i in range(1, model.n + 1):
        ei = tuple(1 if k == i - 1 else 0 for k in range(model.n))
        out.append(-model.euler(ei, mv) + obj.shifts.get(i, 0))
    return tuple(out)


def support_cone_check(name: str, obj: ClusterObject, p: int) -> VerifyReport:
    """Support containment in the shifted cone plus the vertex-component
    monomial property, for graded members with no multiple arrows."""
    entry = catalog.get(name)
    model = entry.model
    eps = graded_epsilon(name)
    inputs = "%s p=%d obj=%s+%s" % (
        name, p, list(obj.module.dims) if obj.module else None, obj.shifts)
    if eps is None:
        return VerifyReport("prop4.3", inputs, verdict="skip", detail="not graded")
    if any(entry.principal.arrow_count(s, t) > 1
           for s in range(1, model.n + 1) for t in range(1, model.n + 1)):
        return VerifyReport("prop4.3", inputs, verdict="skip", detail="multiple arrows")
    x = cc_map(obj, model, p)
    lam_m = lambda_vertex(model, obj)
    edges = [tuple(model.exch.b[i][j] for i in range(model.n))
             for j in range(model.n)]
    pts = {e[: model.n] for e in x.terms}
    edeg = {pt: sum(a * b for a, b in zip(eps, pt)) for pt in pts}
    top = sum(a * b for a, b in zip(eps, lam_m))
    for pt in pts:
        diff = tuple(a - b for a, b in zip(pt, lam_m))
        bound = top - edeg[pt]
        found = any(
            all(d == sum(c * e[k] for c, e in zip(cs, edges)) for k, d in enumerate(diff))
            for cs in product(range(bound + 1), repeat=model.n)
            if sum(cs) <= bound
        )
        if not found:
            return VerifyReport("prop4.3", inputs, verdict="fail",
                                detail="support point %s outside the cone" % (pt,))
    comp = [(e, c) for e, c in x.terms.items() if e[: model.n] == lam_m]
    if len(comp) != 1:
        return VerifyReport("prop4.3", inputs, verdict="fail",
                            detail="vertex component has %d terms" % len(comp))
    if not comp[0][1].is_q_monomial():
        return VerifyReport("prop4.3", inputs, verdict="fail",
                            detail="vertex coefficient %s not a monomial" % comp[0][1])
    return VerifyReport("prop4.3", inputs, verdict="pass")


def cone_sweep(name: str, p: int):
    """support_cone_check on each shifted projective P_i[1] and each
    indecomposable of total dimension at most 3."""
    n = catalog.get(name).principal.n
    indecs = catalog.store_for(name, p).indecomposables(_sweep_dims(name, total=3))
    objs = ([ClusterObject(None, {i: 1}) for i in range(1, n + 1)]
            + [ClusterObject(M) for M in indecs])
    return [support_cone_check(name, o, p) for o in objs]


def filtration_degree(x: ToricElement, eps, n) -> int:
    if not x.terms:
        raise ValueError("zero element has no degree")
    return max(sum(a * b for a, b in zip(eps, e[:n])) for e in x.terms)


class ExpansionError(ValueError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


def _eps_leaders(x: ToricElement, eps, n):
    """Sorted principal points of x of maximal epsilon-degree."""
    degs = {}
    for e in x.terms:
        pt = e[:n]
        degs[pt] = sum(a * b for a, b in zip(eps, pt))
    best = max(degs.values())
    return sorted(pt for pt, v in degs.items() if v == best)


def _unique_leaders(elems, eps, n):
    """Leading principal point -> d over the elements elems[d], taken in
    sorted d order; raises ExpansionError at the first element without a
    unique epsilon-leader and at the first leader that two elements share."""
    owner = {}
    for d, x in sorted(elems.items()):
        leaders = _eps_leaders(x, eps, n)
        if len(leaders) != 1:
            raise ExpansionError("no unique leader for %s" % (d,))
        if leaders[0] in owner:
            raise ExpansionError("leader collision %s vs %s" % (owner[leaders[0]], d))
        owner[leaders[0]] = d
    return owner


def _sm_leading_map(name: str, p: int, box_radius: int, eps):
    """Leading principal point -> d for the standard monomials over a box;
    the grading eps makes each leader unique, and no two may collide."""
    n = catalog.get(name).model.n
    rng = range(-box_radius, box_radius + 1)
    return _unique_leaders({d: standard_monomial(name, d, p)
                            for d in product(rng, repeat=n)}, eps, n)


def _sm_leader(name: str, d):
    """Principal point of the epsilon-leader of the standard monomial at d:
    lead_i(d) = sum_j r_ij d+_j - d_i, with r_ij the arrows i -> j."""
    r = catalog.get(name).model.exch.r
    return tuple(sum(rij * max(dj, 0) for rij, dj in zip(row, d)) - di
                 for row, di in zip(r, d))


def _sm_preimage(name: str, pt):
    """The d whose standard monomial leads at pt.  An arrow i -> j puts j
    after i in topological order, so d_i = sum_j r_ij d+_j - pt_i is solved
    in one pass over the principal vertices in reverse topological order."""
    entry = catalog.get(name)
    r = entry.model.exch.r
    d = [0] * entry.model.n
    for v in reversed(entry.principal.topo):
        d[v - 1] = sum(rij * max(dj, 0) for rij, dj in zip(r[v - 1], d)) - pt[v - 1]
    return tuple(d)


def expand_in_standard_monomials(x: ToricElement, name: str, p: int):
    """Coefficients of x in the standard monomials, by eliminating the
    epsilon-maximal component at each step; coefficients are elements of the
    frozen subtorus (q-powers times frozen monomials).

    The residual's leading point pt leads the standard monomial at
    _sm_preimage(pt), built when it is first visited.  Every term of the
    standard monomial at d has epsilon-degree at least that of its single
    copoint term, at lead(d) + B d+, and distinct d have distinct copoints;
    so while x lies in the span no residual leader falls below the least
    degree among the terms of x.  The expansion stops there with its
    residual.  Each step removes its point and adds only lower ones, so the
    loop ends.
    """
    model = catalog.get(name).model
    n = model.n
    eps = graded_epsilon(name)
    if eps is None:
        raise ExpansionError("no grading form on %s" % name)
    torus = model.torus(SpecializedMode(p))
    floor = min((sum(a * b for a, b in zip(eps, e[:n])) for e in x.terms), default=0)
    coeffs = {}
    residual = x
    while residual:
        pt = _eps_leaders(residual, eps, n)[0]
        if sum(a * b for a, b in zip(eps, pt)) < floor:
            raise ExpansionError("leading point %s is below the degree floor %d"
                                 % (pt, floor), residual)
        d = _sm_preimage(name, pt)
        sm = standard_monomial(name, d, p)
        if _eps_leaders(sm, eps, n) != [pt]:
            raise ExpansionError("standard monomial %s does not lead at %s" % (d, pt))
        smlead = [(e, c) for e, c in sm.terms.items() if e[:n] == pt]
        if len(smlead) != 1:
            raise ExpansionError("leader of %s is not a single term" % (d,))
        le, lc = smlead[0]
        lead_inv = torus.monomial(le, lc).inverse()
        comp = ToricElement(torus, {e: c for e, c in residual.terms.items()
                                    if e[:n] == pt})
        u = comp * lead_inv
        if any(e[:n] != (0,) * n for e in u.terms):
            raise ExpansionError("coefficient left the frozen subtorus", residual)
        coeffs[d] = coeffs.get(d, torus.zero()) + u
        residual = residual - u * sm
    return coeffs


def leading_coefficient_is_monomial(coeffs, name: str, eps):
    """The coefficient at the epsilon-maximal index must be a single q-power
    times a frozen monomial.  Returns (bool, index)."""
    nonzero = [(d, u) for d, u in coeffs.items() if u]
    if not nonzero:
        return False, None
    best_d, u = max(nonzero, key=lambda du: sum(
        a * b for a, b in zip(eps, _sm_leader(name, du[0]))))
    if len(u.terms) != 1:
        return False, best_d
    c = next(iter(u.terms.values()))
    return c.is_q_monomial(), best_d


def finite_cluster_variables(name: str, p: int, bound=1):
    """All cluster variables of a finite-type member: images of the
    indecomposable rigid modules plus the shifted projectives."""
    entry = catalog.get(name)
    model = entry.model
    out = []
    for M in catalog.rigid_indecomposables(name, p, (bound,) * model.n):
        out.append(((tuple(M.dims)), cc_map(ClusterObject(M), model, p)))
    for i in range(1, model.n + 1):
        d = tuple(-1 if k == i - 1 else 0 for k in range(model.n))
        out.append((d, cc_map(ClusterObject(None, {i: 1}), model, p)))
    return out


def verify_standard_monomials(name: str, p: int, box_radius: int = 2) -> list[VerifyReport]:
    """Independence of the standard monomials over a box, expansion of the
    once-mutated frame variables, and the leading-monomial property of the
    finite-type cluster variables; skipped on a quiver without a grading."""
    entry = catalog.get(name)
    model = entry.model
    eps = graded_epsilon(name)
    inputs = "%s p=%d box=%d" % (name, p, box_radius)
    if eps is None:
        return [VerifyReport("prop4.5", inputs, verdict="skip", detail="not graded")]
    try:
        leaders = _sm_leading_map(name, p, box_radius, eps)
    except ExpansionError as exc:
        return [VerifyReport("prop4.5", inputs + " independence",
                             verdict="fail", detail=str(exc))]
    reports = [VerifyReport("prop4.5", inputs + " independence", verdict="pass",
                            detail="%d monomials, distinct unique leaders" % len(leaders))]
    # frame variables after one mutation expand in standard monomials
    seed0 = QuantumSeed.initial(model)
    detail = ""
    for k in range(1, model.n + 1):
        var = seed0.mutate(k).vars[k - 1].specialize(p)
        try:
            coeffs = expand_in_standard_monomials(var, name, p)
        except ExpansionError as exc:
            detail = "mutated variable %d: %s" % (k, exc)
            break
        ek = tuple(1 if i == k - 1 else 0 for i in range(model.n))
        unit = coeffs.get(ek)
        if unit is None or len(coeffs) != 1 or len(unit.terms) != 1:
            detail = "mutated variable %d is not the standard monomial" % k
            break
    reports.append(VerifyReport(
        "prop4.5", "%s p=%d mutated-variable expansion" % (name, p),
        verdict="fail" if detail else "pass", detail=detail))
    # finite-type cluster variables: leading coefficient is a monomial
    if entry.delta is None:
        variables = finite_cluster_variables(name, p)
        detail = ""
        for d, x in variables:
            try:
                coeffs = expand_in_standard_monomials(x, name, p)
            except ExpansionError as exc:
                detail = "variable %s: %s" % (d, exc)
                break
            if not leading_coefficient_is_monomial(coeffs, name, eps)[0]:
                detail = "variable %s leading coefficient not a monomial" % (d,)
                break
        reports.append(VerifyReport(
            "prop4.5", "%s p=%d cluster-variable leading terms" % (name, p),
            verdict="fail" if detail else "pass",
            detail=detail or "%d variables" % len(variables)))
    return reports


# ---------------------------------------------------------------------------
# Generic basis


def generic_basis(name: str, p: int, box_radius: int):
    """X_d for d in the box, with an independence and integrality report; on
    a quiver without a grading no element is built and both are skipped."""
    entry = catalog.get(name)
    model = entry.model
    eps = graded_epsilon(name)
    inputs = "%s p=%d box=%d" % (name, p, box_radius)
    if eps is None:
        return {}, [VerifyReport("basis", inputs, verdict="skip", detail="not graded")]
    rng = range(-box_radius, box_radius + 1)
    elems = {d: generic_variable(name, d, p) for d in product(rng, repeat=model.n)}
    try:
        _unique_leaders(elems, eps, model.n)
        detail = ""
    except ExpansionError as exc:
        detail = str(exc)
    reports = [VerifyReport("basis", inputs + " independence",
                            verdict="fail" if detail else "pass", detail=detail)]
    if entry.delta is not None:
        detail = ""
        for d, x in sorted(elems.items()):
            try:
                coeffs = expand_in_standard_monomials(x, name, p)
            except ExpansionError as exc:
                detail = "expansion failed for %s: %s" % (d, exc)
                break
            bad = [dd for dd, u in coeffs.items()
                   if not all(c.is_p_integral() for c in u.terms.values())]
            if bad:
                detail = "non-integral coefficient at %s in %s" % (bad[0], d)
                break
        reports.append(VerifyReport("basis", inputs + " integrality",
                                    verdict="fail" if detail else "pass", detail=detail))
    return elems, reports


# ---------------------------------------------------------------------------
# Reflection transport


def verify_reflection_transport(name: str, v: int, obj: ClusterObject, p: int) -> VerifyReport:
    """The value of the map commutes with the extended reflection functor at
    a source of the framed quiver, through the frame identification given by
    the matching one-step mutation."""
    entry = catalog.get(name)
    model = entry.model
    framed = entry.framed
    inputs = "%s p=%d v=%d obj=%s+%s" % (
        name, p, v, list(obj.module.dims) if obj.module else None, obj.shifts)
    if not framed.is_source(v):
        return VerifyReport("thm4.1", inputs, verdict="skip",
                            detail="vertex %d is not a framed source" % v)
    lam2, bt2 = mutate_matrices(model.lam, model.exch.btilde, v)
    refl = framed.reflect(v)
    if ExchangeData(refl).btilde != bt2:
        return VerifyReport("thm4.1", inputs, verdict="fail",
                            detail="one-step mutation is not the reflection")
    model2 = ClusterModel(refl, lam2, name=name + "'")
    obj2, _q2 = extended_coreflect(entry.principal, p, obj, v)
    rhs_side = cc_map(obj2, model2, p)
    seed = QuantumSeed.initial(model).mutate(v)
    lhs = cc_map(obj, model, p)
    # re-express rhs through the mutated frame, shifting the v-exponent into
    # the nonnegative range where frame monomials are defined
    shift = max(0, -min((g[v - 1] for g in rhs_side.terms), default=0))
    ev = tuple(1 if i == v - 1 else 0 for i in range(model.m))
    nvec = tuple(shift * x for x in ev)
    acc = lhs.torus.zero()
    for g, c in sorted(rhs_side.terms.items()):
        tw = seed.pairing(g, nvec)
        arg = tuple(a + b for a, b in zip(g, nvec))
        acc = acc + (seed.torus.q(tw) * seed.frame_monomial(arg)).specialize(p).scale(c)
    want = lhs * seed.frame_monomial(nvec).specialize(p)
    return _cmp_report("thm4.1", inputs, want, acc)


# ---------------------------------------------------------------------------
# Bilinear identity sweep


def sweep_bilinear(names=("a2", "a3", "kronecker", "atilde21"), samples=500, seed=2024):
    import random
    rng = random.Random(seed)
    reports = []
    for name in names:
        model = catalog.get(name).model
        n = model.n
        bad = None
        for _ in range(samples):
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
            for tag, lhs, rhs in verify_lemma_bilinear(model, *vecs):
                if lhs != rhs:
                    bad = (tag, vecs, lhs, rhs)
                    break
            if bad:
                break
        reports.append(VerifyReport(
            "lem3.1", "%s %d samples" % (name, samples),
            verdict="pass" if bad is None else "fail",
            detail="" if bad is None else str(bad)))
    return reports


def verify_parameter_independence(name: str, p: int) -> VerifyReport:
    """All degree-one homogeneous points share one image under the map."""
    entry = catalog.get(name)
    model = entry.model
    pts = catalog.homogeneous_points(name, p)
    vals = [cc_map(ClusterObject(h), model, p) for h in pts]
    ok = all(v == vals[0] for v in vals)
    expected = p + 1 - len(entry.tubes)
    detail = "%d points (expected %d)" % (len(pts), expected)
    if len(pts) != expected:
        ok = False
    return VerifyReport("lem5.1", "%s p=%d" % (name, p),
                        verdict="pass" if ok else "fail", detail=detail)


# ---------------------------------------------------------------------------
# Verify ids


class Statement(NamedTuple):
    """A verify id: the quivers it runs on by default, whether it is one of
    the affine statements (which assume a field with more than two
    elements), its unit (name, p, all_pairs) -> reports, and the only
    quivers it is about (None for any catalog quiver)."""
    quivers: tuple
    affine: bool
    unit: Callable[[str, int, bool], list]
    covers: tuple | None = None


def _no_pairs(check):
    """The unit of a check(name, p) -> reports that sweeps no pairs."""
    return lambda name, p, all_pairs: check(name, p)


def _each_tube(check):
    """The unit that runs check(name, tube_index, p) -> reports on every tube."""
    return lambda name, p, all_pairs: [
        r for t in range(len(catalog.get(name).tubes)) for r in check(name, t, p)]


ALL_PAIRS_HELP = ("thm3.3, thm3.5 and thm3.8 sweep the full desk bounds "
                  "instead of the quick subset; green always sweeps the "
                  "quick subset and prop4.3 total dimension <= 3")

# the catalog quivers with a non-homogeneous tube, which the tube ids are about
TUBED = tuple(name for name in catalog.NAMES if catalog.get(name).tubes)

# the verify ids, in the order of `qcluster verify --help`
STATEMENTS = {
    "thm3.3": Statement(("a2", "a3", "kronecker"), False, sweep_hall),
    "green": Statement(("a2", "a3", "kronecker"), False, _no_pairs(sweep_green)),
    "thm3.5": Statement(("a2", "a2bare", "a3", "kronecker"), False, sweep_onedim),
    "thm3.8": Statement(("a2", "a3", "kronecker"), False, sweep_exchange),
    "lem5.2": Statement(("atilde21", "atilde22"), True, _each_tube(
        lambda name, t, p: [verify_tube_recursion(name, t, i, p) for i in (1, 2)]),
        TUBED),
    "lem5.4": Statement(("kronecker",), True, lambda name, p, all_pairs:
                        verify_kronecker(p) + [verify_kronecker_formal()],
                        ("kronecker",)),
    "prop4.3": Statement(("a2", "a3"), False, _no_pairs(cone_sweep)),
    "prop4.5": Statement(("a2", "a3"), False, _no_pairs(verify_standard_monomials)),
    "prop6.1": Statement(("atilde12", "atilde22"), True, _no_pairs(verify_difference),
                         TUBED),
    "prop6.2": Statement(("dtilde4",), True, _no_pairs(verify_difference), TUBED),
    "conj6.4": Statement(("atilde21", "atilde12", "atilde22", "atilde31", "dtilde4"),
                         True, _each_tube(check_conjecture), TUBED),
    "basis": Statement(("kronecker", "atilde21"), True,
                       lambda name, p, all_pairs: generic_basis(name, p, 1)[1]),
}
