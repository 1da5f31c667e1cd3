"""Golden output of the translate and reflection commands over every fixture,
and the duality properties of the source-side and injective constructions."""

import hashlib
import os

import pytest

from qcluster import catalog, cli, harness
from qcluster import rep as R

FIX = cli.FIXTURE_ROOT


def _fixture_reps():
    """(quiver dir, rep path, parsed principal rep) in sorted order."""
    for name in sorted(os.listdir(FIX)):
        d = os.path.join(FIX, name)
        if not os.path.isdir(d):
            continue
        for f in sorted(x for x in os.listdir(d) if x.endswith(".rep")):
            path = os.path.join(d, f)
            rep, _framed = cli.parse_rep(cli.read_text(path), d)
            yield name, path, rep


def test_fixture_sweep_output_is_pinned(capsys):
    # tau, tau --framed and reflect at every principal sink, on every fixture
    h = hashlib.sha256()
    runs = 0
    for name, path, rep in _fixture_reps():
        q = rep.quiver
        argvs = [["tau", "--quiver", name, "--rep", path],
                 ["tau", "--quiver", name, "--rep", path, "--framed"]]
        argvs += [["reflect", "--quiver", name, "--rep", path, "--vertex", str(v)]
                  for v in range(1, q.m + 1) if q.is_sink(v)]
        for argv in argvs:
            rc = cli.main(argv)
            h.update(("%d\n%s" % (rc, capsys.readouterr().out)).encode())
            runs += 1
    assert runs == 158
    assert h.hexdigest() == \
        "5593c7c2f429d848e95e604a035ad77bb5c3d9b0d137846132c4563fc980644e"


def test_sink_reflection_undoes_source_reflection():
    checked = 0
    for _name, _path, M in _fixture_reps():
        q = M.quiver
        for v in range(1, q.m + 1):
            if not q.is_source(v):
                continue
            N, mult = R.bgp_coreflect(M, v)
            assert N.quiver == q.reflect(v)
            if mult:
                continue
            back, back_mult = R.bgp_reflect(N, v)
            assert back_mult == 0
            assert R.iso_test(back, M), (M, v)
            checked += 1
    assert checked == 47


@pytest.mark.parametrize("name", catalog.NAMES)
def test_injectives_decompose_to_their_socle(name):
    framed = catalog.get(name).framed
    for j in range(1, framed.m + 1):
        assert harness.decompose_injective(R.injective(framed, 3, j)) == {j: 1}
