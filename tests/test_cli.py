import json
import os
import subprocess
import sys
import weakref

import pytest

from qcluster import catalog, cli, harness
from qcluster.modp import Budget

FIX = cli.FIXTURE_ROOT


def run_cli(*argv):
    return cli.main(list(argv))


def test_ccmap_fixture(capsys):
    rc = run_cli("ccmap", "--quiver", "kronecker", "--rep", "r1.rep", "--prime", "3")
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == ("1 * X^(-1,-1,1,0) + 1 * X^(-1,1,0,0) + 1 * X^(1,-1,1,1)")


def test_ccmap_json(capsys):
    rc = run_cli("ccmap", "--quiver", "kronecker", "--rep", "s1.rep",
                 "--prime", "3", "--json")
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert {"exponent": [-1, 0, 1, 0], "coeff": "1"} in data


def test_grass_trivial(capsys):
    rc = run_cli("grass", "--quiver", "kronecker", "--rep", "r1.rep", "--e", "0,0")
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_verify_exit_codes(capsys):
    rc = run_cli("verify", "lem5.4", "--prime", "3")
    assert rc == 0
    capsys.readouterr()


def test_usage_error(capsys):
    rc = run_cli("ccmap", "--quiver", "nosuch", "--rep", "r1.rep")
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_budget_option_defaults_are_the_budget_defaults():
    args = cli.build_parser().parse_args(["verify", "lem5.4"])
    assert cli.budget_limits(args) == Budget().limits


def test_budget_exit(capsys):
    rc = run_cli("--budget-orbits", "2", "verify", "thm3.3", "--quiver", "kronecker")
    assert rc == 3
    capsys.readouterr()


# the a3 unit of thm3.3 alone enumerates more than 50 matrix tuples; prop6.1,
# prop6.2, conj6.4 and basis enumerate iso classes inside the catalog helpers,
# and lem5.2 walks the submodules of its tube modules
# thm3.3 enumerates iso classes; the tube ids and basis build their tube
# modules and homogeneous points from Ext^1 cocycles, so they tick only the
# Grassmannian walks of cc_map
BUDGET_CASES = [pytest.param(jobs, "--budget-orbits", "50", "thm3.3", id=jobs)
                for jobs in ("1", "2")] + [
    pytest.param(jobs, "--budget-subspaces", "1", statement,
                 id="%s-%s" % (jobs, statement))
    for jobs in ("1", "2")
    for statement in ("lem5.2", "prop6.1", "prop6.2", "conj6.4", "basis")]


@pytest.mark.parametrize("jobs, limit, value, statement", BUDGET_CASES)
def test_budget_limits_reach_every_job(capsys, jobs, limit, value, statement):
    rc = run_cli(limit, value, "--jobs", jobs, "verify", statement)
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err


# prop4.5's rigid objects on a2 and a3 are built from projectives, and
# lem5.2's tube modules from Ext^1 cocycles: neither enumerates a class
@pytest.mark.parametrize("jobs, statement", [
    pytest.param(jobs, statement, id=jobs if statement == "prop4.5" else
                 "%s-%s" % (jobs, statement))
    for jobs in ("1", "2") for statement in ("prop4.5", "lem5.2")])
def test_prop45_enumerates_nothing(capsys, jobs, statement):
    rc = run_cli("--budget-orbits", "0", "--budget-homs", "0", "--jobs", jobs,
                 "verify", statement)
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("statement", ["prop6.1", "prop6.2", "conj6.4", "basis",
                                       "lem5.2"])
def test_tame_statements_enumerate_no_class(capsys, jobs, statement):
    rc = run_cli("--budget-orbits", "0", "--jobs", jobs, "verify", statement)
    assert rc == 0
    capsys.readouterr()


def test_budget_exit_does_not_depend_on_jobs(capsys):
    # the atilde21 unit of basis needs 5 hom elements, the kronecker one 4
    seen = []
    for jobs in ("1", "2"):
        rc = run_cli("--budget-homs", "4", "--jobs", jobs, "verify", "basis", "--json")
        captured = capsys.readouterr()
        seen.append((rc, captured.out, captured.err))
    assert seen[0] == seen[1]
    assert seen[0][0] == 3


def test_class_stores_are_freed_with_their_call(monkeypatch, capsys):
    made = []
    store_for = catalog.store_for

    def recording_store_for(name, p):
        store = store_for(name, p)
        made.append(weakref.ref(store))
        return store

    monkeypatch.setattr(catalog, "store_for", recording_store_for)
    for _ in range(3):
        seen = len(made)
        assert run_cli("verify", "thm3.3", "--quiver", "a2") == 0
        assert len(made) > seen
        assert [ref for ref in made if ref() is not None] == []
    capsys.readouterr()


def test_parser_is_built_once_and_reused(capsys):
    # a parse error, a default and an explicit --seq alternate on one parser
    parser = cli.build_parser()
    for _ in range(2):
        assert run_cli("mutate", "--quiver", "kronecker", "--seq", "x") == 2
        assert run_cli("mutate", "--quiver", "kronecker") == 0
        assert "X1 = 1 * X^(1,0,0,0)" in capsys.readouterr().out
        assert run_cli("mutate", "--quiver", "kronecker", "--seq", "1") == 0
        assert "X1 = 1 * X^(-1,0,1,0)" in capsys.readouterr().out
    assert cli.build_parser() is parser
    assert cli.build_parser().parse_args(["mutate", "--quiver", "a2"]).seq == []


def test_mutate_prints_seed(capsys):
    rc = run_cli("mutate", "--quiver", "kronecker", "--seq", "1")
    out = capsys.readouterr().out
    assert rc == 0
    assert "X1 = 1 * X^(-1,0,1,0) + 1 * X^(-1,2,0,0)" in out


def test_tau_roundtrip(capsys):
    rc = run_cli("tau", "--quiver", "a2", "--rep", "s2.rep")
    out = capsys.readouterr().out
    assert rc == 0
    rep, _ = cli.parse_rep(out, os.path.join(FIX, "a2"), 3)
    assert rep.dims == (1, 0)


def test_reflect_command(capsys):
    rc = run_cli("reflect", "--quiver", "a2", "--rep", "s2.rep", "--vertex", "1")
    out = capsys.readouterr().out
    assert rc == 0
    assert "dims 1 1" in out


@pytest.mark.parametrize("vertex", ["0", "3"])
def test_reflect_vertex_out_of_range(capsys, vertex):
    rc = run_cli("reflect", "--quiver", "a2", "--rep", "s2.rep", "--vertex", vertex)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "vertex %s out of range 1..2" % vertex in captured.err


@pytest.mark.parametrize("text, message", [
    ("rep p=3 quiver=a2\n", "line 2: expected 'dims ...'"),
    ("rep p=3 quiver=a2\ndims 1 1\nmat 2 1\n", "line 4: expected 1 entries"),
    ("rep p=3 quiver=a2\ndims 1 1\nmat 9 1\n1\n", "line 3: no arrow 9->1"),
])
def test_malformed_rep_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.rep"
    path.write_text(text)
    rc = run_cli("tau", "--quiver", "a2", "--rep", str(path))
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [["ccmap", "--formal"], ["ccmap"],
                                   ["grass", "--e", "0,0"]])
def test_family_with_a_negative_dimension_exits_2(tmp_path, capsys, extra):
    path = tmp_path / "neg.family"
    path.write_text("family quiver=kronecker\ndims -1 1\nmat 2 1\nmat 2 1\n")
    rc = run_cli(extra[0], "--quiver", "kronecker", "--rep", str(path), *extra[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "bad dimension vector (-1, 1)" in captured.err


@pytest.mark.parametrize("command, extra", [("grass", ["--e", "1,0"]), ("ccmap", [])])
def test_rep_naming_a_directory_exits_2(capsys, command, extra):
    rc = run_cli(command, "--quiver", "a2", "--rep", os.path.join(FIX, "a2"), *extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot read")


def test_rep_files_are_closed():
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-m", "qcluster.cli", "ccmap", "--quiver", "kronecker",
                           "--rep", "r2.rep"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ResourceWarning" not in proc.stderr


def test_rep_parse_roundtrip():
    path = os.path.join(FIX, "kronecker", "r1.rep")
    text = cli.read_text(path)
    rep, framed = cli.parse_rep(text, os.path.dirname(path))
    assert rep.dims == (1, 1)
    assert framed.m == 4
    printed = cli.print_rep(rep, "kronecker")
    rep2, _ = cli.parse_rep(printed, os.path.dirname(path))
    assert rep2 == rep


def test_family_parse():
    path = os.path.join(FIX, "kronecker", "r1.family")
    fam, _framed = cli.parse_rep(cli.read_text(path), os.path.dirname(path))
    from qcluster.families import RepFamily
    assert isinstance(fam, RepFamily)
    assert fam.instantiate(5).mats[1] == ((4,),)


def test_malformed_rep_error():
    with pytest.raises(cli.InputError):
        cli.parse_rep("rep p=3 quiver=kronecker\nbogus\n", None)
    with pytest.raises(cli.InputError):
        cli.parse_rep("rep p=3 quiver=kronecker\ndims 1 1\nmat 9\n", None)


def test_quiver_roundtrip_fixture_files():
    from qcluster.quiver import IceQuiver
    from qcluster import catalog
    for name in catalog.NAMES:
        path = os.path.join(FIX, name, "quiver.txt")
        q = IceQuiver.from_text(cli.read_text(path))
        assert q == catalog.get(name).framed
        assert IceQuiver.from_text(q.to_text()) == q


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qcluster.cli", "grass",
                           "--quiver", "kronecker", "--rep", "s1.rep",
                           "--e", "1,0"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_determinism_byte_identical():
    proc1 = subprocess.run([sys.executable, "-m", "qcluster.cli", "ccmap",
                            "--quiver", "kronecker", "--rep", "r2.rep"],
                           capture_output=True, text=True)
    proc2 = subprocess.run([sys.executable, "-m", "qcluster.cli", "ccmap",
                            "--quiver", "kronecker", "--rep", "r2.rep"],
                           capture_output=True, text=True)
    assert proc1.stdout == proc2.stdout
    assert proc1.returncode == proc2.returncode == 0


def test_hall_rep_over_reordered_quiver_exits_2(tmp_path, capsys):
    # the a3 framed quiver with its two principal arrows swapped
    (tmp_path / "quiver.txt").write_text(
        "vertices 6 3\narrow 2 3\narrow 2 1\narrow 1 4\narrow 2 5\narrow 3 6\n")
    path = tmp_path / "m.rep"
    path.write_text("rep p=3 quiver=quiver.txt\ndims 1 1 0\nmat 2 1\n1\nmat 2 3\n")
    rc = run_cli("hall", "--quiver", "a3", "--m", str(path), "--n", "s3.rep")
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: %s: module is not over quiver a3\n" % path in err
    assert "Traceback" not in err


# tau, reflect and hall need a module over a prime, and a family file has none
@pytest.mark.parametrize("argv", [
    ["tau", "--quiver", "kronecker", "--rep", "r1.family"],
    ["reflect", "--quiver", "kronecker", "--rep", "r1.family", "--vertex", "1"],
    ["hall", "--quiver", "kronecker", "--m", "r1.family", "--n", "s1.rep"],
], ids=["tau", "reflect", "hall"])
def test_family_file_where_a_module_is_needed_exits_2(capsys, argv):
    rc = run_cli(*argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: r1.family is a family file; this command "
                            "needs a representation over a prime\n")


def test_hall_names_the_prime_a_module_lives_over(capsys):
    rc = run_cli("hall", "--quiver", "a2", "--m", "s1.rep", "--n", "s2.rep", "--prime", "2")
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: s1.rep: module lives over p=3, asked for 2\n"


# a module file read under another quiver or prime: each of these printed a
# value over the file's own quiver or prime with exit 0, or failed deep in
# the library
KRON_R1 = os.path.join(FIX, "kronecker", "r1.rep")
KRON_S1 = os.path.join(FIX, "kronecker", "s1.rep")
KRON_R2_FAMILY = os.path.join(FIX, "kronecker", "r2.family")
MISMATCHED_FILES = [
    (["grass", "--quiver", "kronecker", "--rep", "r2.rep", "--e", "1,0", "--prime", "5"],
     "r2.rep: module lives over p=3, asked for 5"),
    (["tau", "--quiver", "a2", "--rep", "s2.rep", "--prime", "2"],
     "s2.rep: module lives over p=3, asked for 2"),
    (["tau", "--quiver", "a2", "--rep", KRON_R1],
     "%s: module is not over quiver a2" % KRON_R1),
    (["reflect", "--quiver", "a3", "--rep", KRON_S1, "--vertex", "1"],
     "%s: module is not over quiver a3" % KRON_S1),
    (["grass", "--quiver", "a2", "--rep", KRON_R2_FAMILY, "--e", "1,0"],
     "%s: module is not over quiver a2" % KRON_R2_FAMILY),
    (["ccmap", "--quiver", "a2", "--rep", KRON_R2_FAMILY],
     "%s: module is not over quiver a2" % KRON_R2_FAMILY),
    (["ccmap", "--quiver", "a2", "--rep", KRON_R2_FAMILY, "--formal"],
     "%s: module is not over quiver a2" % KRON_R2_FAMILY),
    (["ccmap", "--quiver", "a3", "--rep", KRON_R1],
     "%s: module is not over quiver a3" % KRON_R1),
    (["hall", "--quiver", "a3", "--m", KRON_R1, "--n", "s3.rep"],
     "%s: module is not over quiver a3" % KRON_R1),
]


@pytest.mark.parametrize("argv, message", MISMATCHED_FILES,
                         ids=["grass-prime", "tau-prime", "tau-quiver", "reflect-quiver",
                              "grass-family-quiver", "ccmap-family-quiver",
                              "ccmap-formal-quiver", "ccmap-quiver", "hall-quiver"])
def test_module_file_over_another_quiver_or_prime_exits_2(capsys, argv, message):
    rc = run_cli(*argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_family_has_no_prime_to_mismatch(capsys):
    # a family is instantiated at --prime, so any prime reads it
    rc = run_cli("grass", "--quiver", "kronecker", "--rep", "r2.family",
                 "--e", "1,0", "--prime", "5")
    assert rc == 0
    assert capsys.readouterr().out == "1 q^0 + 1 q^1\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_non_prime_in_verify_list_exits_2(capsys, jobs):
    rc = run_cli("--jobs", jobs, "verify", "thm3.3", "--quiver", "a2", "--prime", "4,3")
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "4 is not a prime" in captured.err


# a tube id on a quiver without a non-homogeneous tube, or lem5.4 off the
# Kronecker quiver: before, an IndexError, a vacuous pass or ignored quivers
UNCOVERED = [("prop6.1", "a2", "a2"), ("prop6.1", "kronecker", "kronecker"),
             ("lem5.2", "a2", "a2"), ("conj6.4", "a3", "a3"),
             ("prop6.2", "kronecker", "kronecker"), ("lem5.4", "a2,a3", "a2")]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("statement, quivers, named", UNCOVERED)
def test_statement_off_its_quivers_exits_2(capsys, jobs, statement, quivers, named):
    rc = run_cli("--jobs", jobs, "verify", statement, "--quiver", quivers)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: %s is about " % statement)
    assert captured.err.rstrip().endswith("not quiver %s" % named)


def test_basis_non_prime_exits_2_without_traceback():
    proc = subprocess.run([sys.executable, "-m", "qcluster.cli", "basis",
                           "--quiver", "kronecker", "--prime", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "4 is not a prime" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rep_file_non_prime_exits_2(tmp_path, capsys):
    path = tmp_path / "p4.rep"
    path.write_text("rep p=4 quiver=a2\ndims 0 1\nmat 2 1\n")
    rc = run_cli("tau", "--quiver", "a2", "--rep", str(path))
    err = capsys.readouterr().err
    assert rc == 2
    assert "p=4 is not a prime" in err


@pytest.mark.parametrize("argv, message", [
    (["--jobs", "0", "verify", "lem5.4"], "0 is less than 1"),
    (["--jobs", "-1", "verify", "lem5.4"], "-1 is less than 1"),
    (["basis", "--quiver", "kronecker", "--box", "-1"], "-1 is less than 0"),
    (["--budget-homs", "-1", "verify", "lem5.4"], "-1 is less than 0"),
])
def test_out_of_range_counts_exit_2(capsys, argv, message):
    rc = run_cli(*argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("seq, item", [("1,,2", "''"), ("x", "'x'")])
def test_mutate_bad_seq_item_exits_2(capsys, seq, item):
    rc = run_cli("mutate", "--quiver", "kronecker", "--seq", seq)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "item %s of '%s' is not an integer" % (item, seq) in captured.err
    assert "invalid literal" not in captured.err


def test_mutate_empty_seq_prints_initial_seed(capsys):
    assert run_cli("mutate", "--quiver", "kronecker", "--seq", "") == 0
    initial = capsys.readouterr().out
    assert run_cli("mutate", "--quiver", "kronecker") == 0
    assert capsys.readouterr().out == initial
    assert initial.startswith("X1 = 1 * X^(1,0,0,0)\n")


@pytest.mark.parametrize("extra", [["--prime", "3,3"], ["--quiver", "a2,a3,a2"]])
def test_verify_runs_each_unit_once(capsys, extra):
    base = ["verify", "thm3.3", "--quiver", "a2,a3", "--prime", "3"]
    assert run_cli(*base) == 0
    once = capsys.readouterr().out
    assert run_cli(*base, *extra) == 0
    assert capsys.readouterr().out == once
    assert cli._verify_jobs("thm3.3", ("a3", "a2", "a3"), [5, 3, 5]) == [
        ("thm3.3", "a3", 5), ("thm3.3", "a2", 5),
        ("thm3.3", "a3", 3), ("thm3.3", "a2", 3)]


def readme_verify_ids():
    """The ids of README's table of verify statements, in table order."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    table = text.split("Verification statement ids:", 1)[1].split("\n\n", 2)[1]
    return [line.split("`")[1] for line in table.splitlines()[2:]]


def test_verify_ids_agree_across_readme_parser_and_table(capsys):
    assert run_cli("verify", "--help") == 0
    usage = capsys.readouterr().out
    choices = usage.split("{", 1)[1].split("}", 1)[0].split(",")
    assert list(harness.STATEMENTS) == choices == readme_verify_ids()


def test_default_quivers_are_catalog_names():
    for statement in harness.STATEMENTS.values():
        assert statement.quivers
        assert set(statement.quivers) <= set(catalog.ENTRIES)


@pytest.mark.parametrize("statement, warned", [("basis", True), ("thm3.3", False)])
def test_p2_warning_only_for_affine_statements(capsys, statement, warned):
    rc = run_cli("verify", statement, "--prime", "2")
    err = capsys.readouterr().err
    assert rc == 0
    assert ("warning: the affine basis statements assume a field with more "
            "than two elements" in err) == warned


# every id on every quiver it is about, at p = 2: a verdict, never a
# traceback (dtilde4 has no degree-one homogeneous point there, so its tube
# differences are skipped)
@pytest.mark.parametrize("statement", list(harness.STATEMENTS))
def test_every_statement_runs_at_p2(capsys, statement):
    quivers = harness.STATEMENTS[statement].covers or catalog.NAMES
    rc = run_cli("verify", statement, "--prime", "2", "--quiver", ",".join(quivers))
    assert rc in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("statement, units", [("prop6.1", 1), ("prop6.2", 1),
                                              ("conj6.4", 3)])
def test_dtilde4_tube_differences_skip_at_p2(capsys, statement, units):
    rc = run_cli("verify", statement, "--quiver", "dtilde4", "--prime", "2", "--json")
    reports = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [(r["verdict"], r["detail"]) for r in reports] == \
        [("skip", "no degree-one homogeneous point at p=2")] * units


@pytest.mark.parametrize("rep, extra, shift", [
    ("s1.rep", [], "0"), ("s1.rep", [], "-1"), ("s1.rep", [], "9"),
    ("r1.family", ["--formal"], "5")])
def test_ccmap_shift_out_of_range_exits_2(capsys, rep, extra, shift):
    rc = run_cli("ccmap", "--quiver", "kronecker", "--rep", rep, *extra, "--shift", shift)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: shifted projective index %s out of range 1..4" % shift in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, option, item, text", [
    (["ccmap", "--quiver", "kronecker", "--rep", "s1.rep", "--shift", "1,,2"],
     "--shift", "''", "1,,2"),
    (["grass", "--quiver", "kronecker", "--rep", "r1.rep", "--e", "1,,0"],
     "--e", "''", "1,,0"),
    (["verify", "lem5.4", "--prime", "3,,5"], "--prime", "''", "3,,5"),
])
def test_bad_comma_list_item_is_named(capsys, argv, option, item, text):
    rc = run_cli(*argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "argument %s: item %s of '%s' is not an integer" % (option, item, text) \
        in captured.err
    assert "invalid" not in captured.err


def test_ccmap_repeated_shift_counts_twice(capsys):
    assert run_cli("ccmap", "--quiver", "kronecker", "--rep", "s1.rep",
                   "--shift", "3,3") == 0
    assert capsys.readouterr().out.strip() == "1 * X^(-1,0,3,0) + 1 * X^(-1,2,2,0)"


@pytest.mark.parametrize("argv", [
    ("verify", "prop4.5", "--quiver", "dtilde4"),
    ("basis", "--quiver", "dtilde4", "--box", "0"),
    ("basis", "--quiver", "atilde22", "--box", "0"),
    ("--budget-orbits", "0", "basis", "--quiver", "atilde22", "--box", "2"),
    ("--budget-orbits", "0", "basis", "--quiver", "dtilde4", "--box", "2"),
])
def test_ungraded_quiver_is_reported_as_skip(capsys, argv):
    rc = run_cli(*argv)
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(lines) == 1 and lines[0].endswith("skip (not graded)")


UNKNOWN_QUIVER = "error: unknown catalog quiver 'nosuch' (have %s)" % ", ".join(catalog.NAMES)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ("verify", "thm3.3", "--quiver", "nosuch"),
    ("verify", "thm3.3", "--quiver", "nosuch", "--prime", "3,5"),
    ("basis", "--quiver", "nosuch"),
    ("mutate", "--quiver", "nosuch"),
    ("ccmap", "--quiver", "nosuch", "--rep", "s1.rep"),
])
def test_unknown_quiver_message_is_plain(capsys, jobs, argv):
    rc = run_cli("--jobs", jobs, *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [UNKNOWN_QUIVER]


def test_catalog_error_str_is_the_message():
    with pytest.raises(KeyError) as info:
        catalog.family_for("kronecker", "nosuch")
    assert isinstance(info.value, catalog.CatalogError)
    assert str(info.value) == "no bundled family kronecker/nosuch"
