"""Pinned outputs of the formal ring: the ``mutate`` seed on every catalog
quiver, formal and at q = p for p = 2, 3, 5, and the formal ``ccmap`` of the
Kronecker family fixtures.  The formal pins were recorded while the kernel
still packed each coefficient at t = 2^W, and the ``--prime`` pins while
seeds still mutated in the specialized ring, so any change to packing,
relabelling, division or specialization must reproduce them byte for
byte."""

import hashlib

import pytest

from test_formal_kernel import _count_calls, reference_numerator

from qcluster import catalog, cli, torus
from qcluster.seeds import QuantumSeed
from qcluster.torus import div_right

# (quiver, --seq, SHA-256 of the formal stdout, {p: SHA-256 of the stdout of
# --prime p}): three rounds through every mutable direction in order
MUTATE_PINS = [
    ("a2", "1,2,1,2,1,2",
     "e9ad08e8dcffa11cc66a04415513ee63827939bf1d94abb4cccc5b063d94b9fa",
     {2: "e9ad08e8dcffa11cc66a04415513ee63827939bf1d94abb4cccc5b063d94b9fa",
      3: "e9ad08e8dcffa11cc66a04415513ee63827939bf1d94abb4cccc5b063d94b9fa",
      5: "e9ad08e8dcffa11cc66a04415513ee63827939bf1d94abb4cccc5b063d94b9fa"}),
    ("a2bare", "1,2,1,2,1,2",
     "c5790686a3fbbedbc149746dc805faf590f80d002601d4b8b247aa58858d314c",
     {2: "c5790686a3fbbedbc149746dc805faf590f80d002601d4b8b247aa58858d314c",
      3: "c5790686a3fbbedbc149746dc805faf590f80d002601d4b8b247aa58858d314c",
      5: "c5790686a3fbbedbc149746dc805faf590f80d002601d4b8b247aa58858d314c"}),
    ("a3", "1,2,3,1,2,3,1,2,3",
     "4cb51be5eca6f8408c4acf6cd1d9f82b6ce3de6860fac2b0e101401a0a4a980f",
     {2: "4cb51be5eca6f8408c4acf6cd1d9f82b6ce3de6860fac2b0e101401a0a4a980f",
      3: "4cb51be5eca6f8408c4acf6cd1d9f82b6ce3de6860fac2b0e101401a0a4a980f",
      5: "4cb51be5eca6f8408c4acf6cd1d9f82b6ce3de6860fac2b0e101401a0a4a980f"}),
    ("atilde12", "1,2,3,1,2,3,1,2,3",
     "fda8e16d91b11a2b15eafd9f83fcba23eac5770a9ce07e5f42c3f65da81bd49c",
     {2: "fe17dd5babd4776092f7cd7b18848adcbe85227764b595ba0ef7661ffdf2b86a",
      3: "4d093db6cebba4e5898cc721fd6e96ba18a64d7fe2e8fc45093e7bd828291f65",
      5: "7dc04ace895906d9463f4ca6e4aeb6b38dc9967f1bcb95cdfa860b20cff017d1"}),
    ("atilde21", "1,2,3,1,2,3,1,2,3",
     "424f8bf89216aa473c2b93d1b4b25fe0377e5524f5891ad6d0a3b1bec6f0b5f0",
     {2: "a0943cb81392782a12c204e8efcba79c2316f3657b6357b36c8ead92823b5a94",
      3: "3916d569e322959c87b78aab43d21185c7042e65e261dd28ed344d45c5eb5cf0",
      5: "e03c98f53d25f64234249f351493c35e6d92eade18b4ceb417bc5f810bf8e925"}),
    ("atilde22", "1,2,3,4,1,2,3,4,1,2,3,4",
     "6d35b9538ad96cdb2efde56faf30fd98eb3d009a62238466621892f51a6a63a4",
     {2: "0036658dd9b4e9c0ce63d639ab290da80d3d2b4a0171d310f2ed9764579683df",
      3: "b0414fc2c423a837a18becfde930fd649159dd28b9fce0454f5a45a536095de3",
      5: "5044e3be31602151a23fc89bcfb2bc0a8616bd53e164cd54e918c59178885969"}),
    ("atilde31", "1,2,3,4,1,2,3,4,1,2,3,4",
     "f11cc3e189e9e18182cc864831fcc9760b84ab86f1ba3dc1cccaa2f72d09c7ae",
     {2: "a18ac6c5027937b25242f5a561abf09e78bb5b09b088e400be43804e09d48377",
      3: "db493a033dc838186ecaca8a4c420230c6f8bc58065fde24e7276792a7ebf336",
      5: "e21c468f11868c27e478eb8c957aae45891b817c3ad53e6267f0826b0cd3844d"}),
    ("dtilde4", "1,2,3,4,5,1,2,3,4,5,1,2,3,4,5",
     "3d21b2be5898bdf2eff80101bd025d12546eea2cb359c01655664648b2384efa",
     {2: "c3baaf1e2d8af17c64f677c59326f4bece4df2be6f4dc55a02c5e391eebcb6a7",
      3: "01934ae05a430d8b1b43323fc5f4b7a1ee1a3994758ab1b478924e1fc687bfee",
      5: "6aa996aef9b3c8283b7d26f4e59052334889b0a3fff77f8f25439899995b0f86"}),
    ("kronecker", "1,2,1,2,1,2",
     "67d886339e3c2d215f77605f29fa3030fdeb7bbfa1994149cf5faf524baba7ec",
     {2: "0f894b8c77eaf0fc4c7b89e0047152003f2a679843b93b223213d0cfabff7bcc",
      3: "270c47218768461f0d1af2aa2453dd8a57e6b6e03984e490ecbaf2f20f3d3df8",
      5: "dd56dad76ae11676a7ce107e7d31477258800953699f3dba2446cf868a79c860"}),
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
    assert [name for name, _seq, _digest, _by_prime in MUTATE_PINS] == list(catalog.NAMES)
    for name, seq, _digest, by_prime in MUTATE_PINS:
        assert sorted(by_prime) == [2, 3, 5]
        n = catalog.get(name).model.n
        assert seq == ",".join(str(1 + i % n) for i in range(3 * n))


@pytest.mark.parametrize("name, seq, digest", [pin[:3] for pin in MUTATE_PINS],
                         ids=[pin[0] for pin in MUTATE_PINS])
def test_formal_mutate_output_is_pinned(capsys, name, seq, digest):
    assert cli.main(["mutate", "--quiver", name, "--seq", seq]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mutate_never_widens_a_division(monkeypatch):
    """Cluster variables have nonnegative coefficients, so the quotient's l1
    is l1(numerator)/l1(outgoing variable) and div_right's first width is
    its last: no remainder is re-encoded along the pinned sequences or the
    13-step alternating Kronecker walk from either side."""
    calls = []
    repack = torus._repack

    def spy(rem, width, new_width):
        calls.append((name, width, new_width))
        repack(rem, width, new_width)

    monkeypatch.setattr(torus, "_repack", spy)
    walks = [(name, [int(k) for k in seq.split(",")]) for name, seq, *_pins in MUTATE_PINS]
    walks += [("kronecker", [1 + (first + i) % 2 for i in range(13)]) for first in (0, 1)]
    for name, seq in walks:
        seed = QuantumSeed.initial(catalog.get(name).model)
        for k in seq:
            seed = seed.mutate(k)
    assert calls == []


def exchange_products(seed, k):
    """The two products of the exchange numerator of direction k, as
    ``QuantumSeed.mutate`` passes them to div_right."""
    k0 = k - 1
    m = seed.model.m
    bcol = [seed.btilde[i][k0] for i in range(m)]
    ek = tuple(1 if i == k0 else 0 for i in range(m))
    out = []
    for sign in (-1, 1):
        c = tuple(max(0, sign * b) if i != k0 else 0 for i, b in enumerate(bcol))
        out.append(seed._frame_factors(c, seed.pairing(c, ek)))
    return out


@pytest.mark.parametrize("name, seq", [pin[:2] for pin in MUTATE_PINS],
                         ids=[pin[0] for pin in MUTATE_PINS])
def test_mutate_matches_reference_numerator(name, seq):
    """Each new variable is the numerator built term by term (reference_mul)
    divided by the old one, along every pinned sequence."""
    seed = QuantumSeed.initial(catalog.get(name).model)
    for k in map(int, seq.split(",")):
        numerator = reference_numerator(seed.torus, exchange_products(seed, k))
        old = seed.vars[k - 1]
        seed = seed.mutate(k)
        assert seed.vars[k - 1] == div_right(numerator, old)


def test_mutate_codec_calls_are_pinned(monkeypatch):
    """The 13-step alternating Kronecker walk packs each factor and divisor
    coefficient once per step and decodes one leading coefficient per
    quotient term, and nothing else: 675 pack and 468 unpack calls, where
    decoding each square and packing it again took 2,469 and 1,780."""
    calls = _count_calls(monkeypatch)
    seed = QuantumSeed.initial(catalog.get("kronecker").model)
    quotient_terms = 0
    for i in range(13):
        seed = seed.mutate(1 + i % 2)
        quotient_terms += len(seed.vars[i % 2].terms)
    assert (calls.count("pack"), calls.count("unpack")) == (675, 468)
    assert calls.count("unpack") == quotient_terms


SPECIALIZED_MUTATE_PINS = [(name, seq, p, digest) for name, seq, _digest, by_prime in MUTATE_PINS
                           for p, digest in sorted(by_prime.items())]


@pytest.mark.parametrize("name, seq, p, digest", SPECIALIZED_MUTATE_PINS,
                         ids=["%s-%d" % pin[::2] for pin in SPECIALIZED_MUTATE_PINS])
def test_specialized_mutate_output_is_pinned(capsys, name, seq, p, digest):
    assert cli.main(["mutate", "--quiver", name, "--seq", seq, "--prime", str(p)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("rep, extra, expected", CCMAP_FORMAL_PINS)
def test_formal_ccmap_output_is_pinned(capsys, rep, extra, expected):
    assert cli.main(["ccmap", "--quiver", "kronecker", "--rep", rep, "--formal", *extra]) == 0
    assert capsys.readouterr().out == expected + "\n"
