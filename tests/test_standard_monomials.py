"""The cached standard-monomial layer: pinned verify output (every verify id
at its defaults, the all-pairs Hall and Green sweeps under one and two jobs,
the all-pairs thm3.5 and thm3.8 sweeps at p = 2, 3, 5, and basis --box 2 on
atilde31 and atilde21), equality with the direct ordered product, and the
closed-form leader that the expansion inverts."""

import hashlib
from itertools import product

import pytest

from qcluster import catalog, cli, harness
from qcluster.ccmap import ClusterObject, cc_map, generic_variable
from qcluster.modp import Budget
from qcluster.rep import simple
from qcluster.scalars import SpecializedMode, qpow, specialize
from qcluster.seeds import standard_monomial


@pytest.mark.parametrize("statement, digest", [
    ("thm3.3", "dd5f8a2edfceb3bf3ca4d9a3983c8a22baa7a64855373e9bc81226ee644e5cc7"),
    ("green", "92b3e4e2cfa70a03287341166a316eec5d414c3c2d1413d40d7b786730950f92"),
    ("thm3.5", "b4facd42dcd84ef6c4798b0c58f188c0879bac29f2379648e4f6bec4d3b4b773"),
    ("thm3.8", "390bc02dce0501baefd8fea5ab8887df97074ead98aea69a1b6b6c69da884132"),
    ("lem5.2", "fb1f649664d94fad25e234c0b3685012c6a25e51f160ff9555fe992dda2d9dda"),
    ("lem5.4", "61ac6bd3afcf1ca34dd183b70d7afd84ba2a1dc2e352418366447962e2b054be"),
    ("prop4.3", "14925fbc0cad3827435901668c68e11e06b21a0c59aae9fc432f9c268c46cb10"),
    ("prop4.5", "bcc13b3d6984ac4af6c49c7828006131b2ab4ec08aa72ab15afffe2208c18e35"),
    ("prop6.1", "c8c905a177a19902ff7c54992bce90849235ea0d5ce174c778bd250c2f35de79"),
    ("prop6.2", "edaf560a803d9cf7a89cf24111519a65c5563c7ebd49ae63a8968ede8e325761"),
    ("conj6.4", "09f237dd08010202d7ce60eb3379af4303619073cd80df8415f1a79793737043"),
    ("basis", "8ce7902a58fa63db2425019b1cff037fcb318aaabd7a6f26a472b703908d5f66"),
])
def test_verify_json_output_is_pinned(capsys, statement, digest):
    rc = cli.main(["--jobs", "1", "verify", statement, "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("statement, digest", [
    ("thm3.3", "e8a7e19698d52a77bc8ae5efc7feb96aad3e46b7db2827bd8beea9b4756ac071"),
    ("green", "92b3e4e2cfa70a03287341166a316eec5d414c3c2d1413d40d7b786730950f92"),
])
def test_all_pairs_json_output_is_pinned(capsys, statement, digest, jobs):
    rc = cli.main(["--jobs", jobs, "verify", statement, "--all-pairs", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("statement, digest", [
    ("thm3.5", "d6fcef9e36353ae09c04d875cff4668ebdf6e4feea606b870f1dce4a2754880f"),
    ("thm3.8", "944e7762a72c5e8b1e59e523609087ab332d9f6d11594a5d6ce7241c0387fd79"),
])
def test_all_pairs_split_json_output_is_pinned(capsys, statement, digest):
    # thm3.5 and thm3.8 split projective and injective summands off each pair
    rc = cli.main(["--jobs", "1", "verify", statement, "--all-pairs",
                   "--prime", "2,3,5", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("atilde31", "818c072d731cf7394cb1f64afe1dada295aff0d8cf00d46514655ba35abc9894"),
    ("atilde21", "60a8b6fb31c6ea2a940c93857de76fafb717024336a013077279efb0eac23ead"),
])
def test_affine_basis_json_output_is_pinned(capsys, name, digest):
    rc = cli.main(["basis", "--quiver", name, "--prime", "3", "--box", "2", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _direct_standard_monomial(name, d, p):
    """Reference: the ordered product over i, each factor raised by ** anew."""
    entry = catalog.get(name)
    model = entry.model
    torus = model.torus(SpecializedMode(p))
    out = torus.one()
    for i in range(1, model.n + 1):
        di = d[i - 1]
        if di > 0:
            xsi = cc_map(ClusterObject(simple(entry.principal, p, i)), model, p)
            out = out * (xsi ** di)
        elif di < 0:
            e = tuple(1 if j == i - 1 else 0 for j in range(model.m))
            out = out * (torus.monomial(e) ** (-di))
    return out


@pytest.mark.parametrize("name", ["a2", "kronecker"])
def test_cached_standard_monomial_matches_direct_product(name):
    n = catalog.get(name).model.n
    for d in product(range(-2, 3), repeat=n):
        cached = standard_monomial(name, d, 3)
        direct = _direct_standard_monomial(name, d, 3)
        assert cached == direct, d
        assert cached.render() == direct.render(), d


GRADED = ["a2", "a2bare", "a3", "kronecker", "atilde21", "atilde12", "atilde31"]


@pytest.mark.parametrize("name", GRADED)
def test_closed_form_leader_copoint_and_preimage(name):
    # over the radius-2 box: the standard monomial at d leads at lead(d),
    # its unique lowest point is lead(d) + B d+, and lead(d) inverts to d
    model = catalog.get(name).model
    n, b = model.n, model.exch.b
    eps = harness.graded_epsilon(name)
    neg = tuple(-x for x in eps)
    for d in product(range(-2, 3), repeat=n):
        sm = standard_monomial(name, d, 3)
        lead = harness._sm_leader(name, d)
        assert harness._eps_leaders(sm, eps, n) == [lead], d
        dplus = [max(x, 0) for x in d]
        copoint = tuple(lead[i] + sum(b[i][j] * dplus[j] for j in range(n))
                        for i in range(n))
        assert harness._eps_leaders(sm, neg, n) == [copoint], d
        assert harness._sm_preimage(name, lead) == d


@pytest.mark.parametrize("name, d, far", [
    ("atilde21", (2, -2, 2), (0, -6, 0)),
    ("atilde12", (2, 2, -2), (0, 0, -6)),
], ids=["atilde21", "atilde12"])
def test_expansion_reaches_points_outside_any_box(name, d, far):
    # far lies outside the radius-5 box around the radius-2 basis box; the
    # expansion reaches it by inverting the leader map, with no table
    x = generic_variable(name, d, 3)
    coeffs = harness.expand_in_standard_monomials(x, name, 3)
    assert len(coeffs) == 3 and far in coeffs and d in coeffs
    assert all(c.is_p_integral() for u in coeffs.values() for c in u.terms.values())


# the memoized prefixes and factors belong to the meter of the call, so a
# repeated call does the same counted work as the first one
@pytest.mark.parametrize("name", ["a2", "a3", "kronecker"])
def test_repeated_call_ticks_the_same_budget(name):
    used = []
    for _ in range(2):
        with Budget() as meter:
            harness.verify_standard_monomials(name, 3)
        used.append(meter.used)
    assert used[0] == used[1]
    assert used[0]["subspace_tuples"] > 0


def test_failed_table_build_is_not_cached():
    # dtilde4 has no grading form: prop4.5 skips it and an expansion raises,
    # on every call
    x = standard_monomial("dtilde4", (0,) * 5, 3)
    for _ in range(2):
        reports = harness.verify_standard_monomials("dtilde4", 3)
        assert [(r.verdict, r.detail) for r in reports] == [("skip", "not graded")]
        with pytest.raises(harness.ExpansionError, match="no grading form"):
            harness.expand_in_standard_monomials(x, "dtilde4", 3)


def test_specialized_qpow_is_shared_across_modes():
    a = SpecializedMode(3).qpow(5)
    assert a is SpecializedMode(3).qpow(5)
    assert a == specialize(qpow(5), 3)
    assert SpecializedMode(5).qpow(5) == specialize(qpow(5), 5)
