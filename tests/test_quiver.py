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
    LambdaSolveError,
    QuiverError,
    _integer_solve,
    _lex_min,
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

# the skew form solve_lambda picks for each catalog quiver; the kernel of the
# linear system has rank 0, 1 or 3 for a2, a2bare, a3, atilde12, atilde21 and
# kronecker, and rank 6, 6 and 10 for atilde22, atilde31 and dtilde4, where
# the raw particular solution is kept
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
        (0, -1, 0, 1, -1, 0, 0, 0),
        (1, 0, 1, 0, 0, -1, 0, 0),
        (0, -1, 0, 0, -1, 0, 0, 0),
        (-1, 0, 0, 0, 0, 1, 0, 0),
        (1, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, -1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    ),
    "atilde31": (
        (0, 1, 0, 1, 1, 0, 0, 0),
        (-1, 0, 1, 0, 0, 1, 0, 0),
        (0, -1, 0, 0, -1, 0, 0, 0),
        (-1, 0, 0, 0, 0, 1, 0, 0),
        (-1, 0, 1, 0, 0, 2, 0, 0),
        (0, -1, 0, -1, -2, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    ),
    "dtilde4": (
        (0, 0, 0, 0, 0, -1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, -1, 0),
        (0, 0, 1, 0, 0, -1, -1, 0, 1, 0),
        (1, 0, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    "kronecker": PAPER_LAM,
}

# the framed quivers of test_solve_lambda_all_framings and the catalog quiver
# whose skew form each one gets
FRAMINGS = [
    (IceQuiver(2, 2, [(2, 1)]), "a2"),
    (IceQuiver(2, 2, [(2, 1), (2, 1)]), "kronecker"),
    (IceQuiver(3, 3, [(2, 1), (2, 3)]), "a3"),
    (IceQuiver(3, 3, [(2, 1), (3, 2), (3, 1)]), "atilde21"),
    (IceQuiver(4, 4, [(2, 1), (3, 2), (4, 1), (3, 4)]), "atilde22"),
]


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
    for pr, name in FRAMINGS:
        fr = standard_framing(pr)
        ex = ExchangeData(fr)
        lam = solve_lambda(ex.btilde)
        assert lam == CATALOG_LAM[name]
        assert check_compatible(lam, ex.btilde) == (1,) * pr.n


@pytest.mark.parametrize("name", sorted(CATALOG_LAM))
def test_solve_lambda_pinned_catalog(name):
    assert catalog.NAMES == tuple(sorted(CATALOG_LAM))
    assert solve_lambda(catalog.get(name).model.exch.btilde) == CATALOG_LAM[name]


def lex_key(x):
    return tuple((abs(v), v < 0) for v in x)


@st.composite
def lattices(draw):
    """(x0, kernel): x0 in Z^k and at most four kernel vectors, not
    necessarily independent."""
    k = draw(st.integers(1, 6))
    r = draw(st.integers(0, 4))
    vec = st.lists(st.integers(-4, 4), min_size=k, max_size=k).map(tuple)
    x0 = draw(st.lists(st.integers(-30, 30), min_size=k, max_size=k).map(tuple))
    return x0, draw(st.lists(vec, min_size=r, max_size=r))


def combine(x, coeffs, kernel):
    return tuple(a + sum(c * v[t] for c, v in zip(coeffs, kernel))
                 for t, a in enumerate(x))


@settings(max_examples=150, deadline=None)
@given(lattices(), st.data())
def test_lex_min_is_canonical_and_locally_optimal(lattice, data):
    x0, kernel = lattice
    r = len(kernel)
    best = _lex_min(x0, kernel)
    # best - x0 is an integer combination of the kernel vectors
    rows = [[v[t] for v in kernel] for t in range(len(x0))]
    try:
        _integer_solve(rows, [b - a for a, b in zip(x0, best)], r)
    except LambdaSolveError:
        pytest.fail("%r is not in %r + span(%r)" % (best, x0, kernel))
    # a unimodular change of basis and a lattice shift of x0 change nothing
    basis = [list(v) for v in kernel]
    for _ in range(data.draw(st.integers(0, 8)) if r else 0):
        i = data.draw(st.integers(0, r - 1))
        j = data.draw(st.integers(0, r - 1))
        op = data.draw(st.sampled_from(["add", "swap", "neg"]))
        if op == "add" and i != j:
            f = data.draw(st.integers(-3, 3))
            basis[i] = [a + f * b for a, b in zip(basis[i], basis[j])]
        elif op == "swap":
            basis[i], basis[j] = basis[j], basis[i]
        elif op == "neg":
            basis[i] = [-a for a in basis[i]]
    shift = data.draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
    assert _lex_min(combine(x0, shift, kernel), basis) == best
    # no nearby lattice point has a smaller key
    for coeffs in product(range(-3, 4), repeat=r):
        assert lex_key(combine(best, coeffs, kernel)) >= lex_key(best)


def test_lex_min_tie_takes_the_nonnegative_value():
    assert _lex_min((1, 0), [(2, 1)]) == (1, 0)
    assert _lex_min((-1, 0), [(2, 1)]) == (1, 1)
    assert _lex_min((5, 7), []) == (5, 7)


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
