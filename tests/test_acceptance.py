"""Acceptance suite: every headline check at its stated tolerance, one line
of output per criterion.  All comparisons are exact (integer or scalar
equality in the torus); the stated times are budgets, asserted loosely.
"""

import time

import pytest

from qcluster import catalog, harness
from qcluster import rep as R
from qcluster.ccmap import ClusterObject, cc_map
from qcluster.hall import dim_vectors_upto
from qcluster.seeds import QuantumSeed


def report(num, ok, elapsed, budget_s, note=""):
    tag = "PASS" if ok else "FAIL"
    print("ACCEPTANCE criterion-%02d %s (%.1fs / budget %ds) %s"
          % (num, tag, elapsed, budget_s, note))
    assert ok, "criterion %d failed: %s" % (num, note)
    assert elapsed < budget_s, "criterion %d exceeded its time budget" % num


def test_criterion_01_kronecker_golden():
    t0 = time.time()
    reports = harness.verify_kronecker(3)
    ok = all(r.verdict == "pass" for r in reports[:3])
    report(1, ok, time.time() - t0, 1, "three expansions term-for-term at p=3")


def test_criterion_02_kronecker_identity():
    t0 = time.time()
    ok = True
    for p in (3, 5, 7):
        reports = harness.verify_kronecker(p)
        ok = ok and reports[-1].verdict == "pass"
    ok = ok and harness.verify_kronecker_formal().verdict == "pass"
    report(2, ok, time.time() - t0, 5, "exact at p=3,5,7 and formally")


def test_criterion_03_hall_sweep():
    t0 = time.time()
    total = 0
    ok = True
    for name in ("a2", "a3", "kronecker"):
        reports = harness.sweep_hall(name, 3)
        total += len(reports)
        ok = ok and all(r.verdict == "pass" for r in reports)
    report(3, ok, time.time() - t0, 300, "%d ordered pairs" % total)


def test_criterion_04_green_sweep():
    t0 = time.time()
    total = 0
    ok = True
    for name in ("a2", "a3", "kronecker"):
        reports = harness.sweep_green(name, 3)
        total += len(reports)
        ok = ok and all(r.verdict == "pass" for r in reports)
    report(4, ok, time.time() - t0, 600, "%d quadruples" % total)


def test_criterion_05_onedim():
    t0 = time.time()
    per_quiver = {}
    cases = set()
    ok = True
    # the two bundled A2 compatible pairs verify on the same quiver
    for name, quiver_key in (("a2", "a2"), ("a2bare", "a2"),
                             ("a3", "a3"), ("kronecker", "kronecker")):
        for r in harness.sweep_onedim(name, 3):
            if r.verdict == "fail":
                ok = False
            if r.verdict == "pass":
                per_quiver[quiver_key] = per_quiver.get(quiver_key, 0) + 1
                if "case I" in r.detail and "case III" not in r.detail:
                    cases.add("I")
                if "case II" in r.detail:
                    cases.add("II")
                if "case III" in r.detail:
                    cases.add("III")  # includes the exponent-1/2 check
    ok = ok and all(per_quiver.get(k, 0) >= 3 for k in ("a2", "a3", "kronecker"))
    ok = ok and cases == {"I", "II", "III"}
    report(5, ok, time.time() - t0, 60,
           "instances %s, special cases %s" % (per_quiver, sorted(cases)))


def test_criterion_06_exchange():
    t0 = time.time()
    passes = 0
    ok = True
    for name in ("a2", "a3", "kronecker"):
        for r in harness.sweep_exchange(name, 3):
            if r.verdict == "fail":
                ok = False
            if r.verdict == "pass":
                passes += 1
    ok = ok and passes >= 2
    report(6, ok, time.time() - t0, 60, "%d instances" % passes)


def test_criterion_07_tube_recursion():
    t0 = time.time()
    ok = True
    count = 0
    for name, tubes in (("atilde22", 2), ("atilde21", 1)):
        for t in range(tubes):
            for i in (1, 2):
                r = harness.verify_tube_recursion(name, t, i, 3)
                ok = ok and r.verdict == "pass"
                count += 1
    report(7, ok, time.time() - t0, 120, "%d recursions" % count)


def test_criterion_08_difference():
    t0 = time.time()
    ok = True
    corrected = 0
    for name in ("atilde12", "atilde22", "dtilde4"):
        reps = {r.inputs.split()[-1]: r for r in harness.verify_difference(name, 3)}
        ok = ok and reps["counts"].verdict == "pass"
        ok = ok and reps["toric(object)"].verdict == "pass"
        # the plain module form printed alongside the count identity drops a
        # frozen shifted injective and must differ (see the decisions ledger)
        if reps["toric(module)"].verdict == "neutral-fail":
            corrected += 1
    ok = ok and corrected == 3
    report(8, ok, time.time() - t0, 300,
           "counts exact; toric identity holds with the frozen injective "
           "shift on the second term")


def test_criterion_09_parameter_independence():
    t0 = time.time()
    ok = True
    for name in ("kronecker", "atilde21"):
        for p in (3, 5):
            r = harness.verify_parameter_independence(name, p)
            ok = ok and r.verdict == "pass"
    report(9, ok, time.time() - t0, 60, "all degree-one points agree, counts q+1-t")


def test_criterion_10_mutation_suite():
    t0 = time.time()
    ok = True
    for name in ("a2", "a3", "kronecker"):
        model = catalog.get(name).model
        seed = QuantumSeed.initial(model)
        for k in range(1, model.n + 1):
            mutated = seed.mutate(k)
            ok = ok and mutated.mutate(k) == seed
            ok = ok and mutated.d == (1,) * model.n
            ok = ok and all(v.bar() == v for v in mutated.vars)
    # the five-step alternating walk returns the initial seed up to the
    # transposition of the two mutable indices; ten steps literally
    model = catalog.get("a2").model
    init = QuantumSeed.initial(model)
    five = init
    for k in (1, 2, 1, 2, 1):
        five = five.mutate(k)
    ok = ok and five.relabel_principal({1: 2, 2: 1}) == init
    ten = init
    for k in (1, 2) * 5:
        ten = ten.mutate(k)
    ok = ok and ten == init
    report(10, ok, time.time() - t0, 30, "involutive, compatible, bar-invariant, "
           "pentagon up to the index swap")


def test_criterion_11_standard_monomials():
    t0 = time.time()
    ok = True
    counts = {}
    for name in ("a2", "a3"):
        reports = harness.verify_standard_monomials(name, 3, box_radius=2)
        ok = ok and all(r.verdict == "pass" for r in reports)
        counts[name] = len(harness.finite_cluster_variables(name, 3))
    ok = ok and counts == {"a2": 5, "a3": 9}
    report(11, ok, time.time() - t0, 120,
           "independent; all %s cluster variables lead with monomials" % counts)


def test_criterion_12_bilinear_identities():
    t0 = time.time()
    reports = harness.sweep_bilinear(
        names=("a2", "a3", "kronecker", "atilde21"), samples=500)
    ok = all(r.verdict == "pass" for r in reports)
    report(12, ok, time.time() - t0, 10, "500 random vectors per framing")


def test_criterion_13_interpolation_oracle():
    t0 = time.time()
    from qcluster.families import RepFamily, grassmannian_poly
    from qcluster.quiver import IceQuiver
    ok = True
    fam = RepFamily(IceQuiver(1, 1, []), (2,), {})
    ok = ok and grassmannian_poly(fam, (1,)) == [1, 1]
    from itertools import product
    for fam_name in ("s1", "s2", "r1", "r2"):
        f = catalog.family_for("kronecker", fam_name)
        for e in product(*[range(d + 1) for d in f.dims]):
            # the held-out prime comparison is built into the interpolation
            grassmannian_poly(f, e)
    report(13, ok, time.time() - t0, 120, "held-out primes match everywhere")


def test_criterion_14_generic_basis():
    t0 = time.time()
    ok = True
    for name in ("kronecker", "atilde21"):
        elems, reports = harness.generic_basis(name, 3, 1)
        ok = ok and len(elems) == 3 ** catalog.get(name).model.n
        ok = ok and all(r.verdict == "pass" for r in reports)
    report(14, ok, time.time() - t0, 300,
           "independent with p-integral standard-monomial coefficients")
