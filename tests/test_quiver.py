import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import catalog
from qcluster.quiver import (
    ClusterModel,
    CompatibilityError,
    ExchangeData,
    IceQuiver,
    QuiverError,
    check_compatible,
    euler_form_full,
    solve_lambda,
    standard_framing,
    verify_lemma_bilinear,
)

# fixture orientations: arrows point the way module maps act (see module doc)
KRONECKER = IceQuiver(4, 2, [(2, 1), (2, 1), (1, 3), (2, 4)])
A2 = IceQuiver(4, 2, [(2, 1), (1, 3), (2, 4)])
ATILDE21 = IceQuiver(6, 3, [(2, 1), (3, 2), (3, 1), (1, 4), (2, 5), (3, 6)])

PAPER_LAM = (
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, 0, -2),
    (0, 1, 2, 0),
)

# the skew form of each catalog model: solve_lambda's closed form on every
# standard framing; a2bare, which has no framing, carries its own form
CATALOG_LAM = {
    "a2": (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (0, 1, 1, 0),
    ),
    "a2bare": (
        (0, 1),
        (-1, 0),
    ),
    "a3": (
        (0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, -1, 0),
        (0, 1, 0, 1, 0, 1),
        (0, 0, 1, 0, -1, 0),
    ),
    "atilde12": (
        (0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, -1, -1),
        (0, 1, 0, 1, 0, 1),
        (0, 0, 1, 1, -1, 0),
    ),
    "atilde21": (
        (0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, -1, -1),
        (0, 1, 0, 1, 0, -1),
        (0, 0, 1, 1, 1, 0),
    ),
    "atilde22": (
        (0, 0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, 0, -1, 0, -1),
        (0, 1, 0, 0, 1, 0, -1, 0),
        (0, 0, 1, 0, 0, 1, 0, 1),
        (0, 0, 0, 1, 1, 0, -1, 0),
    ),
    "atilde31": (
        (0, 0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, 0, -1, 0, -1),
        (0, 1, 0, 0, 1, 0, -1, 0),
        (0, 0, 1, 0, 0, 1, 0, -1),
        (0, 0, 0, 1, 1, 0, 1, 0),
    ),
    "dtilde4": (
        (0, 0, 0, 0, 0, -1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, 0, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, -1, -1, 0, 1, 1),
        (0, 0, 0, 1, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, -1, 0, 0),
    ),
    "kronecker": PAPER_LAM,
}

# the principal quivers whose standard framings test_solve_lambda_all_framings
# solves
FRAMINGS = [
    IceQuiver(2, 2, [(2, 1)]),
    IceQuiver(2, 2, [(2, 1), (2, 1)]),
    IceQuiver(3, 3, [(2, 1), (2, 3)]),
    IceQuiver(3, 3, [(2, 1), (3, 2), (3, 1)]),
    IceQuiver(4, 4, [(2, 1), (3, 2), (4, 1), (3, 4)]),
]


def closed_form(b):
    """((0, -I), (I, -B)) entry by entry."""
    n = len(b)

    def entry(i, j):
        if i < n <= j:
            return -(j - n == i)
        if j < n <= i:
            return int(i - n == j)
        return -b[i - n][j - n] if i >= n else 0

    return tuple(tuple(entry(i, j) for j in range(2 * n)) for i in range(2 * n))


def test_kronecker_golden_matrices():
    ex = ExchangeData(KRONECKER)
    assert ex.btilde == ((0, 2), (-2, 0), (1, 0), (0, 1))
    assert ex.rtilde == ((0, 0), (2, 0), (0, 0), (0, 0))
    assert ex.rtilde_tr == ((0, 2), (0, 0), (1, 0), (0, 1))
    assert ex.itilde == ((1, 0), (0, 1), (0, 0), (0, 0))
    # btilde = rtilde_tr - rtilde by construction
    for i in range(4):
        for j in range(2):
            assert ex.btilde[i][j] == ex.rtilde_tr[i][j] - ex.rtilde[i][j]


def test_matrix_vector_products():
    """ir_vec multiplies by the stored itilde - rtilde, and btilde_vec by
    btilde, entry by entry."""
    ex = ExchangeData(KRONECKER)
    assert ex.ir == ((1, 0), (-2, 1), (0, 0), (0, 0))
    for name in catalog.NAMES:
        ex = catalog.get(name).model.exch
        for mv in product(range(-1, 3), repeat=ex.n):
            assert ex.ir_vec(mv) == tuple(
                sum((ex.itilde[i][j] - ex.rtilde[i][j]) * mv[j] for j in range(ex.n))
                for i in range(ex.m))
            assert ex.btilde_vec(mv) == tuple(
                sum(ex.btilde[i][j] * mv[j] for j in range(ex.n)) for i in range(ex.m))


def test_arrowless_quiver_matrices():
    q = standard_framing(IceQuiver(2, 2, []))
    ex = ExchangeData(q)
    assert ex.btilde == ((0, 0), (0, 0), (1, 0), (0, 1))


def test_a2_matrices_by_hand():
    ex = ExchangeData(A2)
    assert ex.btilde == ((0, 1), (-1, 0), (1, 0), (0, 1))
    assert ex.r == ((0, 0), (1, 0))


def test_standard_framing_shape():
    pr = IceQuiver(1, 1, [])
    fr = standard_framing(pr)
    assert fr.m == 2 and fr.n == 1 and fr.arrows == ((1, 2),)
    fr3 = standard_framing(IceQuiver(3, 3, [(2, 1), (3, 2), (3, 1)]))
    assert fr3 == ATILDE21


def test_acyclicity_enforced():
    with pytest.raises(QuiverError):
        IceQuiver(2, 2, [(1, 2), (2, 1)])


def test_frozen_frozen_warning():
    with pytest.warns(UserWarning):
        IceQuiver(4, 2, [(2, 1), (3, 4)])


def test_solve_lambda_kronecker_is_papers():
    ex = ExchangeData(KRONECKER)
    lam = solve_lambda(ex.btilde)
    assert lam == PAPER_LAM
    assert check_compatible(PAPER_LAM, ex.btilde) == (1, 1)


def test_check_compatible_alternative_pair():
    lam = ((0, 1), (-1, 0))
    btilde = ((0, 2), (-2, 0))
    assert check_compatible(lam, btilde) == (2, 2)


def test_check_compatible_rejects_zero():
    ex = ExchangeData(KRONECKER)
    zero = tuple((0,) * 4 for _ in range(4))
    with pytest.raises(CompatibilityError):
        check_compatible(zero, ex.btilde)


def test_solve_lambda_all_framings():
    for pr in FRAMINGS:
        ex = ExchangeData(standard_framing(pr))
        lam = solve_lambda(ex.btilde)
        assert lam == closed_form(ex.b)
        assert check_compatible(lam, ex.btilde) == (1,) * pr.n


@pytest.mark.parametrize("name", sorted(CATALOG_LAM))
def test_solve_lambda_pinned_catalog(name):
    assert catalog.NAMES == tuple(sorted(CATALOG_LAM))
    assert catalog.get(name).model.lam == CATALOG_LAM[name]


@st.composite
def acyclic_quivers(draw):
    """A principal quiver on at most 5 vertices with arrows (parallel ones
    too) that point down a random vertex order."""
    n = draw(st.integers(1, 5))
    rank = draw(st.permutations(range(1, n + 1)))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)
             if rank.index(s) > rank.index(t)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    return IceQuiver(n, n, arrows)


@settings(max_examples=100, deadline=None)
@given(acyclic_quivers(), st.data())
def test_solve_lambda_is_compatible_on_standard_framings(pr, data):
    model = ClusterModel(standard_framing(pr))
    lam, n = model.lam, pr.n
    assert lam == solve_lambda(model.exch.btilde)
    assert all(lam[i][j] == -lam[j][i] for i in range(2 * n) for j in range(2 * n))
    assert check_compatible(lam, model.exch.btilde) == (1,) * n
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    mv, e, f, lv = (data.draw(vec) for _ in range(4))
    for name, lhs, rhs in verify_lemma_bilinear(model, mv, e, f, lv):
        assert lhs == rhs, (pr, name, mv, e, f, lv)


@pytest.mark.parametrize("btilde", [
    catalog.get("a2bare").model.exch.btilde,
    # the A2 framing without its arrow 2 -> 4
    ExchangeData(IceQuiver(4, 2, [(2, 1), (1, 3)])).btilde,
])
def test_solve_lambda_needs_a_standard_framing(btilde):
    with pytest.raises(CompatibilityError, match="not a standard framing"):
        solve_lambda(btilde)


def test_euler_form_kronecker():
    q = KRONECKER.principal()
    assert euler_form_full(q, (1, 0), (1, 0)) == 1
    assert euler_form_full(q, (0, 1), (0, 1)) == 1
    assert euler_form_full(q, (1, 0), (0, 1)) == 0
    assert euler_form_full(q, (0, 1), (1, 0)) == -2
    assert euler_form_full(q, (2, 3), (0, 0)) == 0


def test_bilinear_identities_random_sweep():
    rng = random.Random(2024)
    quivers = [KRONECKER, A2, ATILDE21,
               standard_framing(IceQuiver(3, 3, [(2, 1), (2, 3)]))]
    for q in quivers:
        model = ClusterModel(q)
        n = q.n
        for _ in range(500):
            mv = tuple(rng.randint(-3, 3) for _ in range(n))
            e = tuple(rng.randint(-3, 3) for _ in range(n))
            f = tuple(rng.randint(-3, 3) for _ in range(n))
            lv = tuple(rng.randint(-3, 3) for _ in range(n))
            for name, lhs, rhs in verify_lemma_bilinear(model, mv, e, f, lv):
                assert lhs == rhs, (q, name, mv, e, f, lv)


def test_bilinear_zero_case():
    model = ClusterModel(KRONECKER)
    for name, lhs, rhs in verify_lemma_bilinear(model, (0, 0), (0, 0), (0, 0), (0, 0)):
        assert lhs == rhs == 0


def test_quiver_text_roundtrip():
    text = KRONECKER.to_text()
    assert IceQuiver.from_text(text) == KRONECKER
    parsed = IceQuiver.from_text("# comment\nvertices 2 2\narrow 2 1\n")
    assert parsed == IceQuiver(2, 2, [(2, 1)])
    with pytest.raises(QuiverError):
        IceQuiver.from_text("vertices 2 2\narrow 1\n")


def test_equality_follows_arrow_order():
    # a representation's matrices are indexed by arrow position
    q1 = IceQuiver(3, 3, [(2, 1), (3, 2)])
    q2 = IceQuiver(3, 3, [(3, 2), (2, 1)])
    assert q1 != q2
    assert q1 == IceQuiver(3, 3, [(2, 1), (3, 2)])
    assert hash(q1) == hash(IceQuiver(3, 3, [(2, 1), (3, 2)]))
