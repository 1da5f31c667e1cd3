"""The cached standard-monomial layer: pinned verify output, equality with the
direct ordered product, and reuse of the box tables."""

import hashlib
from itertools import product

import pytest

from qcluster import catalog, cli, harness
from qcluster.ccmap import ClusterObject, cc_map
from qcluster.rep import simple
from qcluster.scalars import SpecializedMode, qpow, specialize
from qcluster.seeds import standard_monomial


@pytest.mark.parametrize("statement, digest", [
    ("prop4.5", "bcc13b3d6984ac4af6c49c7828006131b2ab4ec08aa72ab15afffe2208c18e35"),
    ("basis", "8ce7902a58fa63db2425019b1cff037fcb318aaabd7a6f26a472b703908d5f66"),
])
def test_verify_json_output_is_pinned(capsys, statement, digest):
    rc = cli.main(["--jobs", "1", "verify", statement, "--json"])
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


def test_expansion_reuses_the_box_table():
    x = standard_monomial("a2", (1, -1), 3)
    harness.expand_in_standard_monomials(x, "a2", 3, box_radius=2)
    before = harness._sm_leading_map.cache_info()
    coeffs = harness.expand_in_standard_monomials(x, "a2", 3, box_radius=2)
    after = harness._sm_leading_map.cache_info()
    assert set(coeffs) == {(1, -1)}
    assert after.misses == before.misses
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize


def test_failed_table_build_is_not_cached():
    # dtilde4 has no grading form, so its table cannot be built
    before = harness._sm_leading_map.cache_info().currsize
    for _ in range(2):
        with pytest.raises(harness.ExpansionError):
            harness._sm_leading_map("dtilde4", 3, 1)
    assert harness._sm_leading_map.cache_info().currsize == before


def test_specialized_qpow_is_shared_across_modes():
    a = SpecializedMode(3).qpow(5)
    assert a is SpecializedMode(3).qpow(5)
    assert a == specialize(qpow(5), 3)
    assert SpecializedMode(5).qpow(5) == specialize(qpow(5), 5)
