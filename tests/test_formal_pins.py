"""Pinned outputs of the formal ring: the formal ``mutate`` seed on every
catalog quiver and the formal ``ccmap`` of the Kronecker family fixtures.
They were recorded while the kernel still packed each coefficient at
t = 2^W, so any change to packing, relabelling or division must reproduce
them byte for byte."""

import hashlib

import pytest

from qcluster import catalog, cli

# (quiver, --seq, SHA-256 of stdout): three rounds through every mutable
# direction in order
MUTATE_PINS = [
    ("a2", "1,2,1,2,1,2",
     "e9ad08e8dcffa11cc66a04415513ee63827939bf1d94abb4cccc5b063d94b9fa"),
    ("a2bare", "1,2,1,2,1,2",
     "c5790686a3fbbedbc149746dc805faf590f80d002601d4b8b247aa58858d314c"),
    ("a3", "1,2,3,1,2,3,1,2,3",
     "4cb51be5eca6f8408c4acf6cd1d9f82b6ce3de6860fac2b0e101401a0a4a980f"),
    ("atilde12", "1,2,3,1,2,3,1,2,3",
     "fda8e16d91b11a2b15eafd9f83fcba23eac5770a9ce07e5f42c3f65da81bd49c"),
    ("atilde21", "1,2,3,1,2,3,1,2,3",
     "424f8bf89216aa473c2b93d1b4b25fe0377e5524f5891ad6d0a3b1bec6f0b5f0"),
    ("atilde22", "1,2,3,4,1,2,3,4,1,2,3,4",
     "6d35b9538ad96cdb2efde56faf30fd98eb3d009a62238466621892f51a6a63a4"),
    ("atilde31", "1,2,3,4,1,2,3,4,1,2,3,4",
     "f11cc3e189e9e18182cc864831fcc9760b84ab86f1ba3dc1cccaa2f72d09c7ae"),
    ("dtilde4", "1,2,3,4,5,1,2,3,4,5,1,2,3,4,5",
     "3d21b2be5898bdf2eff80101bd025d12546eea2cb359c01655664648b2384efa"),
    ("kronecker", "1,2,1,2,1,2",
     "67d886339e3c2d215f77605f29fa3030fdeb7bbfa1994149cf5faf524baba7ec"),
]

CCMAP_FORMAL_PINS = [
    ("r1.family", [], "1 * X^(-1,-1,1,0) + 1 * X^(-1,1,0,0) + 1 * X^(1,-1,1,1)"),
    ("r1.family", ["--shift", "3"],
     "1 * X^(-1,-1,2,0) + 1 * X^(-1,1,1,0) + 1 * X^(1,-1,2,1)"),
    ("r1.family", ["--shift", "1,4"],
     "1 * X^(0,-1,1,1) + 1 * X^(0,1,0,1) + 1 * X^(2,-1,1,2)"),
    ("r2.family", [],
     "1 * X^(-2,-2,2,0) + (q^{1/2} + q^{-1/2}) * X^(-2,0,1,0) + 1 * X^(-2,2,0,0)"
     " + (q^{1/2} + q^{-1/2}) * X^(0,-2,2,1) + 1 * X^(0,0,1,1) + 1 * X^(2,-2,2,2)"),
    ("r2.family", ["--shift", "3"],
     "1 * X^(-2,-2,3,0) + (q^{1/2} + q^{-1/2}) * X^(-2,0,2,0) + 1 * X^(-2,2,1,0)"
     " + (q^{1/2} + q^{-1/2}) * X^(0,-2,3,1) + 1 * X^(0,0,2,1) + 1 * X^(2,-2,3,2)"),
    ("r2.family", ["--shift", "1,4"],
     "1 * X^(-1,-2,2,1) + (q^{1/2} + q^{-1/2}) * X^(-1,0,1,1) + 1 * X^(-1,2,0,1)"
     " + (q^{1/2} + q^{-1/2}) * X^(1,-2,2,2) + 1 * X^(1,0,1,2) + 1 * X^(3,-2,2,3)"),
]


def test_mutate_pins_cover_the_catalog():
    assert [name for name, _seq, _digest in MUTATE_PINS] == list(catalog.NAMES)
    for name, seq, _digest in MUTATE_PINS:
        n = catalog.get(name).model.n
        assert seq == ",".join(str(1 + i % n) for i in range(3 * n))


@pytest.mark.parametrize("name, seq, digest", MUTATE_PINS, ids=[p[0] for p in MUTATE_PINS])
def test_formal_mutate_output_is_pinned(capsys, name, seq, digest):
    assert cli.main(["mutate", "--quiver", name, "--seq", seq]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("rep, extra, expected", CCMAP_FORMAL_PINS)
def test_formal_ccmap_output_is_pinned(capsys, rep, extra, expected):
    assert cli.main(["ccmap", "--quiver", "kronecker", "--rep", rep, "--formal", *extra]) == 0
    assert capsys.readouterr().out == expected + "\n"
