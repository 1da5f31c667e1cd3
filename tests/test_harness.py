"""Cross-checks of the verification layer on small instances; the acceptance
suite runs the full sweeps."""

import hashlib

import pytest

from qcluster import catalog, harness
from qcluster import rep as R
from qcluster.ccmap import ClusterObject
from qcluster.hall import ClassStore, dim_vectors_upto
from qcluster.modp import Budget


def test_hall_report_contents():
    q = catalog.get("kronecker").principal
    rep = harness.verify_hall("kronecker", R.simple(q, 3, 2), R.simple(q, 3, 1), 3)
    assert rep.verdict == "pass"
    assert rep.lhs == rep.rhs
    assert "X^" in rep.lhs


def test_hall_zero_module():
    q = catalog.get("a2").principal
    z = R.zero_rep(q, 3)
    rep = harness.verify_hall("a2", z, R.simple(q, 3, 1), 3)
    assert rep.verdict == "pass"


def test_green_single_instance():
    store = catalog.store_for("a2", 3)
    q = catalog.get("a2").principal
    s1 = store.canonical(R.simple(q, 3, 1))
    s2 = store.canonical(R.simple(q, 3, 2))
    E = R.nonsplit_middle(s2, s1)
    rep = harness.verify_green("a2", s2, s1, E, store.canonical(R.zero_rep(q, 3)), 3)
    assert rep.verdict == "pass"


def every_indecomposable_pair(name, p, total=None, bound_vec=None):
    """(M.key(), N.key()) of each ordered pair of indecomposables of the box
    whose summed dimension vector is within the bounds, with every class of
    the box tested for indecomposability."""
    store = ClassStore(catalog.get(name).principal, p)
    indecs = [M for dims in dim_vectors_upto(store.quiver.m, total, bound_vec)
              for M in store.iso_classes(dims) if R.is_indecomposable(M)]
    out = []
    for M in indecs:
        for N in indecs:
            tot = [a + b for a, b in zip(M.dims, N.dims)]
            if total is not None and sum(tot) > total:
                continue
            if bound_vec is not None and any(a > b for a, b in zip(tot, bound_vec)):
                continue
            out.append((M.key(), N.key()))
    return out


@pytest.mark.parametrize("bounds", ["SWEEP_BOUNDS", "GREEN_BOUNDS"])
@pytest.mark.parametrize("p", [2, 3])
def test_hall_pairs_are_those_of_every_indecomposable(bounds, p):
    for name, kw in getattr(harness, bounds).items():
        with Budget():
            pairs = [(M.key(), N.key()) for M, N in harness.hall_pairs(name, p, **kw)]
        assert pairs and pairs == every_indecomposable_pair(name, p, **kw), name


def test_onedim_skip_reason():
    q = catalog.get("a2").principal
    rep = harness.verify_onedim("a2", R.simple(q, 3, 1), R.simple(q, 3, 2), 3)
    assert rep.verdict == "skip"
    assert "ext" in rep.detail


def test_onedim_case1_on_bare_model():
    reports = harness.sweep_onedim("a2bare", 3)
    details = [r.detail for r in reports if r.verdict == "pass"]
    assert any(d.startswith("case I") and "case III" not in d for d in details)
    assert any("case III" in d for d in details)


def test_exchange_instance():
    q = catalog.get("kronecker").principal
    rep = harness.verify_exchange("kronecker", R.simple(q, 3, 1), 1, 3)
    assert rep.verdict == "pass"


def test_tube_recursion_all_catalog():
    for name, tubes in [("atilde21", 1), ("atilde22", 2)]:
        for t in range(tubes):
            for i in (1, 2):
                rep = harness.verify_tube_recursion(name, t, i, 3)
                assert rep.verdict == "pass", rep.line()


def test_difference_reports():
    reps = harness.verify_difference("atilde12", 3)
    by = {r.inputs.split()[-1]: r for r in reps}
    assert by["counts"].verdict == "pass"
    assert by["toric(object)"].verdict == "pass"
    # the plain module form drops the frozen monomial and must not agree
    assert by["toric(module)"].verdict == "neutral-fail"


def test_conjecture_object_form_passes():
    for r in harness.check_conjecture("atilde31", 0, 3):
        if "(object)" in r.inputs:
            assert r.verdict == "neutral-pass"


# thm5.3 at p = 3 on each tame quiver: verdict, detail and the SHA-256 prefix
# of "lhs|rhs"; t is the number of non-homogeneous tubes derived from delta
HOMOGENEOUS_SUM_PINS = [
    ("kronecker", "pass", "grouped counts ok; t=0", "fc1fba2852896c57"),
    ("atilde21", "pass", "grouped counts ok; t=1", "004c8156b4d88cf6"),
    ("atilde12", "pass", "grouped counts ok; t=1", "3aff6d7ee9d2411a"),
    ("atilde22", "pass", "grouped counts ok; t=2", "23ea3e3cfb28a08f"),
    ("atilde31", "pass", "grouped counts ok; t=1", "50d8b74e59a3bf4b"),
    ("dtilde4", "pass", "grouped counts ok; t=3", "f627ad269cc0c152"),
]


@pytest.mark.parametrize("name, verdict, detail, digest", HOMOGENEOUS_SUM_PINS,
                         ids=[pin[0] for pin in HOMOGENEOUS_SUM_PINS])
def test_homogeneous_sum(name, verdict, detail, digest):
    rep = harness.verify_homogeneous_sum(name, 3)
    assert (rep.verdict, rep.detail) == (verdict, detail)
    assert hashlib.sha256((rep.lhs + "|" + rep.rhs).encode()).hexdigest()[:16] == digest


def test_parameter_independence():
    rep = harness.verify_parameter_independence("kronecker", 3)
    assert rep.verdict == "pass"


def test_support_cone_shifted_object():
    obj = ClusterObject(None, {1: 1})
    rep = harness.support_cone_check("a2", obj, 3)
    assert rep.verdict == "pass"
    # multiple arrows are excluded by hypothesis
    rep = harness.support_cone_check("kronecker", obj, 3)
    assert rep.verdict == "skip"


def test_filtration_degree_product_bound():
    # degree of a product never exceeds the sum of degrees, with equality of
    # the leading terms coming from the grading
    entry = catalog.get("a2")
    eps = entry.epsilon
    store = catalog.store_for("a2", 3)
    from qcluster.ccmap import cc_map
    vals = []
    for d in dim_vectors_upto(2, bound_total=2):
        for M in store.iso_classes(d):
            vals.append(cc_map(ClusterObject(M), entry.model, 3))
    for x in vals:
        for y in vals:
            dx = harness.filtration_degree(x, eps, 2)
            dy = harness.filtration_degree(y, eps, 2)
            assert harness.filtration_degree(x * y, eps, 2) == dx + dy


def test_expand_standard_monomial_round_trip():
    from qcluster.seeds import standard_monomial
    for d in [(2, -1), (0, 2), (-2, -2)]:
        x = standard_monomial("a2", d, 3)
        coeffs = harness.expand_in_standard_monomials(x, "a2", 3)
        assert set(coeffs) == {d}
        u = coeffs[d]
        assert len(u.terms) == 1


def test_expand_error_off_span():
    torus = catalog.get("a2").model.torus
    from qcluster.scalars import SpecializedMode
    t = torus(SpecializedMode(3))
    # X^(-1,0) is no combination of standard monomials: the residual falls
    # below the least degree of the input and the expansion stops there
    x = t.monomial((-1, 0, 0, 0))
    with pytest.raises(harness.ExpansionError) as info:
        harness.expand_in_standard_monomials(x, "a2", 3)
    assert info.value.residual


def test_reflection_transport_catalog():
    for name, v in [("a2", 2), ("kronecker", 2)]:
        entry = catalog.get(name)
        objs = [ClusterObject(R.simple(entry.principal, 3, i))
                for i in range(1, entry.principal.n + 1)]
        objs.append(ClusterObject(None, {v: 1}))
        for o in objs:
            rep = harness.verify_reflection_transport(name, v, o, 3)
            assert rep.verdict == "pass", rep.line()


def _transport_sweep():
    """Every iso class of total dimension <= 3 and each shifted projective,
    at each framed source of a2, a3, kronecker and atilde21, at p = 3."""
    for name in ("a2", "a3", "kronecker", "atilde21"):
        entry = catalog.get(name)
        store = catalog.store_for(name, 3)
        n = entry.principal.n
        for v in range(1, n + 1):
            if not entry.framed.is_source(v):
                continue
            for d in dim_vectors_upto(n, bound_total=3):
                for M in store.iso_classes(d):
                    yield name, v, ClusterObject(M)
            for i in range(1, n + 1):
                yield name, v, ClusterObject(None, {i: 1})


def test_reflection_transport_sweep_is_pinned():
    # 25 of the 109 reports fail, all on decomposable modules (a known
    # fault of the check); the digest pins every report, failures included
    reps = [harness.verify_reflection_transport(name, v, o, 3)
            for name, v, o in _transport_sweep()]
    assert len(reps) == 109
    assert sum(r.verdict != "pass" for r in reps) == 25
    digest = hashlib.sha256()
    for r in reps:
        digest.update(("%s\n%s\n%s\n" % (r.line(), r.lhs, r.rhs)).encode())
    assert digest.hexdigest() == \
        "d31dc261f6abca4a94ae0e9de1b4859599e5e5585c8764e23ec573d2c659187e"


def test_euler_consistency_invariant():
    # hom - ext equals the Euler form on every constructed pair
    entry = catalog.get("atilde21")
    store = catalog.store_for("atilde21", 3)
    mods = [M for d in dim_vectors_upto(3, bound_total=2)
            for M in store.iso_classes(d)]
    for M in mods:
        for N in mods:
            lhs = R.hom_dim(M, N) - R.ext_dim(M, N)
            assert lhs == entry.model.euler(M.dims, N.dims)


def test_hall_sum_identity_invariant():
    store = catalog.store_for("a3", 3)
    q = catalog.get("a3").principal
    pairs = [(R.simple(q, 3, 1), R.simple(q, 3, 2)),
             (R.simple(q, 3, 2), R.simple(q, 3, 1)),
             (R.simple(q, 3, 2), R.simple(q, 3, 3))]
    for M, N in pairs:
        assert store.ext_sum_check(store.canonical(M), store.canonical(N))


def test_tau_periodicity_on_tubes():
    for name in ("atilde21", "atilde22"):
        entry = catalog.get(name)
        for t in range(len(entry.tubes)):
            simples = entry.tube_simples(3, t)
            r = len(simples)
            for s in simples:
                cur = s
                for _ in range(r):
                    cur = R.tau(cur)
                assert R.iso_test(cur, s)
