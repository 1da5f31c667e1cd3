import random

import pytest

from qcluster.quiver import (
    ClusterModel,
    CompatibilityError,
    IceQuiver,
    QuiverError,
    build_matrices,
    check_compatible,
    euler_form,
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


def test_kronecker_golden_matrices():
    ex = build_matrices(KRONECKER)
    assert ex.btilde == ((0, 2), (-2, 0), (1, 0), (0, 1))
    assert ex.rtilde == ((0, 0), (2, 0), (0, 0), (0, 0))
    assert ex.rtilde_tr == ((0, 2), (0, 0), (1, 0), (0, 1))
    assert ex.itilde == ((1, 0), (0, 1), (0, 0), (0, 0))
    # btilde = rtilde_tr - rtilde by construction
    for i in range(4):
        for j in range(2):
            assert ex.btilde[i][j] == ex.rtilde_tr[i][j] - ex.rtilde[i][j]


def test_arrowless_quiver_matrices():
    q = standard_framing(IceQuiver(2, 2, []))
    ex = build_matrices(q)
    assert ex.btilde == ((0, 0), (0, 0), (1, 0), (0, 1))


def test_a2_matrices_by_hand():
    ex = build_matrices(A2)
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
    ex = build_matrices(KRONECKER)
    lam = solve_lambda(ex.btilde)
    assert lam == PAPER_LAM
    assert check_compatible(PAPER_LAM, ex.btilde) == (1, 1)


def test_check_compatible_alternative_pair():
    lam = ((0, 1), (-1, 0))
    btilde = ((0, 2), (-2, 0))
    assert check_compatible(lam, btilde) == (2, 2)


def test_check_compatible_rejects_zero():
    ex = build_matrices(KRONECKER)
    zero = tuple((0,) * 4 for _ in range(4))
    with pytest.raises(CompatibilityError):
        check_compatible(zero, ex.btilde)


def test_solve_lambda_all_framings():
    for pr in [
        IceQuiver(2, 2, [(2, 1)]),
        IceQuiver(2, 2, [(2, 1), (2, 1)]),
        IceQuiver(3, 3, [(2, 1), (2, 3)]),
        IceQuiver(3, 3, [(2, 1), (3, 2), (3, 1)]),
        IceQuiver(4, 4, [(2, 1), (3, 2), (4, 1), (3, 4)]),
    ]:
        fr = standard_framing(pr)
        ex = build_matrices(fr)
        lam = solve_lambda(ex.btilde)
        assert check_compatible(lam, ex.btilde) == (1,) * pr.n


def test_euler_form_kronecker():
    ex = build_matrices(KRONECKER)
    assert euler_form(ex.r, (1, 0), (1, 0)) == 1
    assert euler_form(ex.r, (0, 1), (0, 1)) == 1
    assert euler_form(ex.r, (1, 0), (0, 1)) == 0
    assert euler_form(ex.r, (0, 1), (1, 0)) == -2
    assert euler_form(ex.r, (2, 3), (0, 0)) == 0


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
