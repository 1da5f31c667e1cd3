"""Command-line frontend.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input error,
3 an enumeration budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import cache, partial

from . import catalog, harness
from . import rep as R
from .ccmap import ClusterObject, cc_map, cc_map_formal
from .families import RepFamily, grassmannian_poly
from .modp import Budget, BudgetExceededError, is_prime
from .quiver import IceQuiver, QuiverError
from .seeds import QuantumSeed

FIXTURE_ROOT = os.path.join(os.path.dirname(__file__), "fixtures")


class InputError(ValueError):
    pass


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %r: %s" % (path, exc.strerror or exc)) from exc


def resolve_quiver(spec: str) -> IceQuiver:
    """A catalog name or a quiver file path -> its framed quiver."""
    if spec in catalog.ENTRIES:
        return catalog.get(spec).framed
    if not os.path.exists(spec):
        raise InputError("no such quiver: %r" % spec)
    return IceQuiver.from_text(read_text(spec))


def resolve_rep_path(path: str, quiver_name: str) -> str:
    for cand in (path, os.path.join(FIXTURE_ROOT, quiver_name, path)):
        if os.path.exists(cand):
            return cand
    raise InputError("no such representation file: %r" % path)


def parse_rep(text: str, quiver_dir: str | None = None, prime: int | None = None):
    """Parse a representation or family file.

    Format: header 'rep p=<prime> quiver=<file>' or 'family quiver=<file>',
    a 'dims d1 d2 ...' line over the principal part, then per principal
    arrow a 'mat <src> <tgt>' line followed by its rows ('L' marks the
    family parameter).
    """
    lines = []  # (line number, text) of the lines that carry content
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise InputError("empty representation file")
    head = lines[0][1].split()
    fields = dict(kv.split("=", 1) for kv in head[1:] if "=" in kv)
    if head[0] == "rep":
        p = int(fields.get("p", prime or 0))
        family = False
    elif head[0] == "family":
        p = None
        family = True
    else:
        raise InputError("line %d: expected 'rep ...' or 'family ...'" % lines[0][0])
    qspec = fields.get("quiver")
    if qspec is None:
        raise InputError("header missing quiver=<name-or-file>")
    # a quiver file (not a catalog name) is looked up beside the rep file first
    local = os.path.join(quiver_dir or "", qspec)
    framed = resolve_quiver(qspec if qspec in catalog.ENTRIES or not os.path.exists(local)
                            else local)
    principal = framed.principal()
    slots = principal.arrow_slots()

    def line_at(i):
        """The i-th content line; past the last one, the end of the file."""
        return lines[i] if i < len(lines) else (len(text.splitlines()) + 1, "")

    lineno, line = line_at(1)
    if not line.startswith("dims"):
        raise InputError("line %d: expected 'dims ...'" % lineno)
    dims = [int(x) for x in line.split()[1:]]
    if len(dims) != principal.n:
        raise InputError("dims has %d entries, principal part has %d"
                         % (len(dims), principal.n))
    idx = 2
    mats = {}
    order: dict[tuple, int] = {}
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        if parts[0] != "mat" or len(parts) != 3:
            raise InputError("line %d: expected 'mat src tgt'" % lineno)
        s, t = int(parts[1]), int(parts[2])
        occ = order.get((s, t), 0)
        order[(s, t)] = occ + 1
        slot = slots.get((s, t, occ))
        if slot is None:
            raise InputError("line %d: no arrow %d->%d (occurrence %d) in the quiver"
                             % (lineno, s, t, occ))
        rows = []
        idx += 1
        # degenerate matrices carry no row lines
        need = dims[t - 1] if dims[s - 1] and dims[t - 1] else 0
        for _ in range(need):
            lineno, line = line_at(idx)
            entries = line.split()
            if len(entries) != dims[s - 1]:
                raise InputError("line %d: expected %d entries"
                                 % (lineno, dims[s - 1]))
            rows.append(tuple("L" if e == "L" else int(e) for e in entries))
            idx += 1
        if not need:
            rows = [()] * dims[t - 1]
        mats[slot] = tuple(rows)
    if family:
        return RepFamily(principal, dims, mats), framed
    if p in (None, 0):
        raise InputError("rep file carries no prime; pass --prime")
    if not is_prime(p):
        raise InputError("p=%d is not a prime" % p)
    conv = {k: tuple(tuple(int(x) for x in row) for row in v)
            for k, v in mats.items()}
    return R.QuiverRep(principal, p, dims, conv), framed


def print_rep(rep: R.QuiverRep, quiver_name: str) -> str:
    lines = ["rep p=%d quiver=%s" % (rep.p, quiver_name)]
    lines.append("dims " + " ".join(str(d) for d in rep.dims))
    for idx, (s, t) in enumerate(rep.quiver.arrows):
        lines.append("mat %d %d" % (s, t))
        if rep.dims[s - 1] and rep.dims[t - 1]:
            for row in rep.mats[idx]:
                lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def load_rep(args, path: str, family: bool = False):
    """(module in the file at path, framed quiver of --quiver); a family file
    only if family is set.  path is tried in the working directory, then in
    the fixtures of --quiver.  The module must be over --quiver and --prime."""
    entry = catalog.get(args.quiver)
    full = resolve_rep_path(path, args.quiver)
    obj, _framed = parse_rep(read_text(full), os.path.dirname(full), args.prime)
    if isinstance(obj, RepFamily) and not family:
        raise InputError("%s is a family file; this command needs a "
                         "representation over a prime" % path)
    if obj.quiver != entry.principal:
        raise InputError("%s: module is not over quiver %s" % (path, args.quiver))
    if not isinstance(obj, RepFamily) and obj.p != args.prime:
        raise InputError("%s: module lives over p=%d, asked for %d"
                         % (path, obj.p, args.prime))
    return obj, entry.framed


def budget_limits(args) -> dict:
    """The Budget limits that the --budget-* options set."""
    return dict(subspace_tuples=args.budget_subspaces,
                matrix_tuples=args.budget_orbits,
                hom_elements=args.budget_homs)


def emit_reports(reports, as_json: bool) -> int:
    if as_json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.line())
    return 0 if all(r.ok for r in reports) else 1


def cmd_ccmap(args) -> int:
    obj, _framed = load_rep(args, args.rep, family=True)
    model = catalog.get(args.quiver).model
    shifts = Counter(args.shift)
    if args.formal:
        if not isinstance(obj, RepFamily):
            raise InputError("formal mode needs a family file")
        val = cc_map_formal(obj, shifts, model)
    else:
        if isinstance(obj, RepFamily):
            obj = obj.instantiate(args.prime)
        val = cc_map(ClusterObject(obj, shifts), model, args.prime)
    if args.json:
        terms = [{"exponent": list(e), "coeff": c.render()}
                 for e, c in sorted(val.terms.items())]
        print(json.dumps(terms, indent=2))
    else:
        print(val.render())
    return 0


def cmd_grass(args) -> int:
    obj, _framed = load_rep(args, args.rep, family=True)
    e = tuple(args.e)
    if isinstance(obj, RepFamily):
        coeffs = grassmannian_poly(obj, e)
        print(" + ".join("%d q^%d" % (c, k) for k, c in enumerate(coeffs) if c) or "0")
    else:
        print(R.grassmannian_count(obj, e))
    return 0


def cmd_hall(args) -> int:
    store = catalog.store_for(args.quiver, args.prime)
    M, N = (store.canonical(load_rep(args, path)[0]) for path in (args.m, args.n))
    rep = harness.verify_hall(args.quiver, M, N, args.prime)
    return emit_reports([rep], args.json)


def cmd_tau(args) -> int:
    obj, framed = load_rep(args, args.rep)
    if args.framed:
        obj = R.extend_to(obj, framed)
    print(print_rep(R.tau(obj), args.quiver), end="")
    return 0


def cmd_reflect(args) -> int:
    obj, _framed = load_rep(args, args.rep)
    v = args.vertex
    if obj.quiver.is_sink(v):
        out, mult = R.bgp_reflect(obj, v)
    elif obj.quiver.is_source(v):
        out, mult = R.bgp_coreflect(obj, v)
    else:
        raise InputError("vertex %d is neither a sink nor a source" % v)
    print(print_rep(out, args.quiver + "(reflected at %d)" % v), end="")
    if mult:
        print("# plus %d shifted copies at vertex %d" % (mult, v))
    return 0


def cmd_mutate(args) -> int:
    seed = QuantumSeed.initial(catalog.get(args.quiver).model)
    for k in args.seq:
        seed = seed.mutate(k)
    print(seed.render(args.prime))
    return 0


def cmd_basis(args) -> int:
    _elems, reports = harness.generic_basis(args.quiver, args.prime, args.box)
    return emit_reports(reports, args.json)


def _verify_jobs(statement: str, quivers, primes):
    """Independent (statement, quiver, prime) work units, in output order."""
    if statement not in harness.STATEMENTS:
        raise InputError("unknown statement %r (have %s)"
                         % (statement, ", ".join(harness.STATEMENTS)))
    spec = harness.STATEMENTS[statement]
    # a quiver or prime named twice runs once, at its first place
    names = dict.fromkeys(quivers or spec.quivers)
    for name in names:
        if spec.covers is not None and name not in spec.covers:
            raise InputError("%s is about %s only, not quiver %s"
                             % (statement, ", ".join(spec.covers), name))
    return [(statement, name, p) for p in dict.fromkeys(primes) for name in names]


def _run_one_job(job, limits, all_pairs):
    """Run one (statement, quiver, prime) unit under a fresh Budget(**limits);
    its class stores are freed with it."""
    statement, name, p = job
    with Budget(**limits):
        return harness.STATEMENTS[statement].unit(name, p, all_pairs)


def run_verify(statement: str, quivers, primes, limits, jobs, all_pairs):
    """Reports of every unit in job order; each unit gets its own budget with
    the given limits, so the verdicts and exit code do not depend on jobs."""
    work = _verify_jobs(statement, quivers, primes)
    run = partial(_run_one_job, limits=limits, all_pairs=all_pairs)
    if jobs > 1 and len(work) > 1:
        # independent checks fan out across processes
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run, work))
    else:
        chunks = map(run, work)
    return [r for chunk in chunks for r in chunk]


def cmd_verify(args) -> int:
    primes = args.prime or [3]
    quivers = tuple(args.quiver.split(",")) if args.quiver else None
    if 2 in primes and harness.STATEMENTS[args.statement].affine:
        print("warning: the affine basis statements assume a field with more "
              "than two elements; p=2 results are not covered by them",
              file=sys.stderr)
    reports = run_verify(args.statement, quivers, primes, budget_limits(args),
                         jobs=args.jobs, all_pairs=args.all_pairs)
    return emit_reports(reports, args.json)


def prime(text: str) -> int:
    """argparse type of a --prime value."""
    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError("%d is not a prime" % p)
    return p


def _items(text: str, parse) -> list:
    """parse of each item of a comma list; a non-integer item is named."""
    out = []
    for item in text.split(","):
        try:
            out.append(parse(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "item %r of %r is not an integer" % (item, text)) from None
    return out


def prime_list(text: str) -> list:
    """argparse type of verify's comma list of primes."""
    return _items(text, prime)


def int_list(text: str) -> list:
    """argparse type of a comma list of integers ("" for none)."""
    return _items(text, int) if text else []


def at_least(low: int):
    """argparse type of an integer option with lower bound low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError("%d is less than %d" % (n, low))
        return n
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@cache
def build_parser():
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="qcluster",
        description="Exact computations in quantum cluster algebras of acyclic "
                    "ice quivers: the quantum Caldero-Chapoton map, seed "
                    "mutation, and mechanical verification of the "
                    "multiplication and basis identities.")
    limits = Budget().limits
    ap.add_argument("--budget-subspaces", type=at_least(0),
                    default=limits["subspace_tuples"])
    ap.add_argument("--budget-orbits", type=at_least(0), default=limits["matrix_tuples"])
    ap.add_argument("--budget-homs", type=at_least(0), default=limits["hom_elements"])
    ap.add_argument("--jobs", type=at_least(1), default=1,
                    help="worker processes for independent verify units")
    sub = ap.add_subparsers(dest="command", required=True)

    def module_command(name, help, files=("--rep",)):
        """A subcommand that reads module files over --quiver at --prime."""
        c = sub.add_parser(name, help=help)
        c.add_argument("--quiver", required=True)
        for option in files:
            c.add_argument(option, required=True)
        c.add_argument("--prime", type=prime, default=3)
        return c

    c = module_command("ccmap", "value of the map on a module plus shifts")
    c.add_argument("--shift", type=int_list, default=[],
                   help="comma list of shifted projective indices")
    c.add_argument("--formal", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_ccmap)

    c = module_command("grass", "submodule count at one dimension vector")
    c.add_argument("--e", type=int_list, required=True)
    c.set_defaults(func=cmd_grass)

    c = module_command("hall", "product-expansion identity for one pair",
                       files=("--m", "--n"))
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_hall)

    c = module_command("tau", "Auslander-Reiten translate of a module")
    c.add_argument("--framed", action="store_true",
                   help="translate over the framed quiver")
    c.set_defaults(func=cmd_tau)

    c = module_command("reflect", "reflection functor at a sink or source")
    c.add_argument("--vertex", type=int, required=True)
    c.set_defaults(func=cmd_reflect)

    c = sub.add_parser("mutate", help="mutate the initial seed along a sequence")
    c.add_argument("--quiver", required=True)
    c.add_argument("--seq", type=int_list, default=[])
    c.add_argument("--prime", type=prime,
                   help="specialize at p (default: formal)")
    c.set_defaults(func=cmd_mutate)

    c = sub.add_parser("verify", help="verify a statement id")
    c.add_argument("statement", choices=tuple(harness.STATEMENTS))
    c.add_argument("--quiver", help="comma list of catalog quivers")
    c.add_argument("--prime", type=prime_list,
                   help="comma list of primes (default 3)")
    c.add_argument("--all-pairs", action="store_true",
                   help=harness.ALL_PAIRS_HELP)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("basis", help="generic basis elements over a box")
    c.add_argument("--quiver", required=True)
    c.add_argument("--prime", type=prime, default=3)
    c.add_argument("--box", type=at_least(0), default=1)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_basis)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with Budget(**budget_limits(args)):
            return args.func(args)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (InputError, QuiverError, R.RepError, KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
