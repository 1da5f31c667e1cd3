"""The quantum Caldero-Chapoton map: cluster-category objects (a module plus
shifted projectives) to elements of the based quantum torus.

For an object with module part M (dimension vector mv) and shift part P the
image is  sum_e |Gr_e M| q^{-<e, mv-e>/2} X^(btilde*e - (itilde-rtilde)*mv + top P),
with |Gr_e M| an integer at a fixed prime or an interpolated polynomial in
the field size in formal mode.
"""

from __future__ import annotations

from itertools import product

from . import catalog
from . import rep as R
from .families import RepFamily, grassmannian_poly, poly_to_scalar
from .quiver import ClusterModel
from .scalars import FORMAL, SpecializedMode
from .torus import ToricElement


class CCError(ValueError):
    pass


class ClusterObject:
    """module (over the principal quiver) plus shift multiplicities P_i[1]."""

    def __init__(self, module=None, shifts=None):
        self.module = module
        self.shifts = {int(i): int(k) for i, k in (shifts or {}).items() if k}
        if any(k < 0 for k in self.shifts.values()):
            raise CCError("shift multiplicities must be nonnegative")

    def __repr__(self):
        return "ClusterObject(module=%r, shifts=%r)" % (self.module, self.shifts)


def _checked_shifts(model: ClusterModel, obj: ClusterObject) -> dict:
    """obj.shifts, once each index names a vertex 1..m of the framed quiver."""
    for i in sorted(obj.shifts):
        if not 1 <= i <= model.m:
            raise CCError("shifted projective index %d out of range 1..%d" % (i, model.m))
    return obj.shifts


def _module_vector(model: ClusterModel, module) -> tuple:
    if module is None:
        return (0,) * model.n
    if module.quiver != model.principal:
        raise CCError("module is not over the model's principal quiver")
    return module.dims


def _cc_sum(model: ClusterModel, torus, mv, shifts, counts) -> ToricElement:
    """sum_e count_e q^(-<e, mv-e>/2) X^(cc_exponent(e, mv, shifts)) over the
    (e, count_e) pairs of counts, in their order."""
    out = torus.zero()
    for e, cnt in counts:
        half = -model.euler(e, tuple(m - x for m, x in zip(mv, e)))
        coeff = cnt * torus.mode.qpow(half)
        out = out + torus.monomial(model.cc_exponent(e, mv, shifts), coeff)
    return out


def cc_map(obj: ClusterObject, model: ClusterModel, p: int) -> ToricElement:
    """Specialized-mode value of the map at the prime p."""
    torus = model.torus(SpecializedMode(p))
    mv = _module_vector(model, obj.module)
    shifts = _checked_shifts(model, obj)
    if obj.module is not None and obj.module.p != p:
        raise CCError("module lives over p=%d, asked for %d" % (obj.module.p, p))
    counts = (R.all_grassmannian_counts(obj.module)
              if obj.module is not None else {(0,) * model.n: 1})
    return _cc_sum(model, torus, mv, shifts, sorted(counts.items()))


def cc_map_formal(family: RepFamily | None, shifts, model: ClusterModel) -> ToricElement:
    """Formal-mode value; Grassmannian counts are interpolated polynomials."""
    torus = model.torus(FORMAL)
    shifts = _checked_shifts(model, ClusterObject(None, shifts))
    if family is None:
        return _cc_sum(model, torus, (0,) * model.n, shifts, [((0,) * model.n, 1)])
    mv = family.dims
    polys = ((e, grassmannian_poly(family, e))
             for e in sorted(product(*[range(d + 1) for d in mv])))
    return _cc_sum(model, torus, mv, shifts,
                   ((e, poly_to_scalar(c)) for e, c in polys if c))


def cc_delta(name: str, p: int) -> ToricElement:
    """The common value of the map on degree-one homogeneous regular simples.

    Well-definedness is asserted by evaluating two distinct points whenever
    the prime admits more than one.
    """
    entry = catalog.get(name)
    pts = catalog.homogeneous_points(name, p)
    if not pts:
        raise CCError("no degree-one homogeneous point on %s at p=%d" % (name, p))
    model = entry.model
    first = cc_map(ClusterObject(pts[0]), model, p)
    if len(pts) > 1:
        second = cc_map(ClusterObject(pts[1]), model, p)
        if first != second:
            raise CCError("map is not constant on homogeneous points; bug")
    return first


class GenericVariableError(ValueError):
    pass


def generic_variable(name: str, d, p: int) -> ToricElement:
    """The basis element X_d for an integer vector d.

    Rigid route: a rigid module of dimension d+ together with shifted
    projectives d-.  Tame route: d = n*delta + (regular rigid), value
    (X_delta)^n * X_R.  Exactly one route must apply.
    """
    entry = catalog.get(name)
    model = entry.model
    d = tuple(int(x) for x in d)
    if len(d) != model.n:
        raise GenericVariableError("vector length %d != n" % len(d))
    dplus = tuple(max(x, 0) for x in d)
    dminus = {i + 1: -x for i, x in enumerate(d) if x < 0}

    rigid = catalog.find_rigid_module(name, p, dplus)
    dec = None
    if entry.delta is not None and not dminus and any(d):
        dec = catalog.find_delta_decomposition(name, p, d)
    if rigid is not None and dec is not None:
        raise GenericVariableError("vector %s admits both routes; ambiguous" % (d,))
    if rigid is not None:
        return cc_map(ClusterObject(rigid, dminus), model, p)
    if dec is not None:
        nn, reg = dec
        xd = cc_delta(name, p)
        out = xd ** nn
        if not reg.is_zero():
            out = out * cc_map(ClusterObject(reg), model, p)
        return out
    raise GenericVariableError("no rigid object or tube decomposition for %s" % (d,))


def extended_reflect(quiver, p: int, obj: ClusterObject, v: int):
    """Extended reflection functor at a sink v on a cluster-category object.

    Returns the reflected ClusterObject over quiver.reflect(v): the module
    part goes through the kernel construction, while copies of the simple at
    v and of the shifted projective P_v[1] trade places.
    """
    refl_quiver = quiver.reflect(v)
    new_shifts = {j: k for j, k in obj.shifts.items() if j != v}
    summands = [R.simple(refl_quiver, p, v)] * obj.shifts.get(v, 0)  # P_v[1] -> S_v
    module = obj.module
    if module is not None and not module.is_zero():
        refl_mod, smult = R.bgp_reflect(module, v)
        if refl_mod.quiver != refl_quiver:
            raise CCError("module does not live over the given quiver")
        if smult:
            new_shifts[v] = new_shifts.get(v, 0) + smult  # S_v -> P_v[1]
        summands.insert(0, refl_mod)
    refl_mod = R.direct_sum(*summands) if summands else None
    return ClusterObject(refl_mod, new_shifts), refl_quiver


def extended_coreflect(quiver, p: int, obj: ClusterObject, v: int):
    """Extended dual reflection functor at a source v: extended_reflect at the
    sink v of the opposite quiver, with the module part read through op_rep."""
    module = None if obj.module is None else R.op_rep(obj.module)
    out, _ = extended_reflect(quiver.op(), p, ClusterObject(module, obj.shifts), v)
    module = None if out.module is None else R.op_rep(out.module)
    return ClusterObject(module, out.shifts), quiver.reflect(v)
