"""End-to-end tests for the command line interface.

Most tests drive main() in process and read captured output; one subprocess
test checks the module entry point.  Expected numbers are pinned elsewhere:
sd facet counts in test_subdivision, census rows in test_census, family
facts in test_families.
"""

import argparse
import hashlib
import math
import subprocess
import sys
import time

import pytest

from scx.census import (canonical_label, census, derived_count_bound,
                        enumerate_disks, enumerate_surfaces, iso,
                        manifold_count_bound)
from scx.cli import COMMANDS, build_parser, main
from scx.collapse import (collapses_to, discrete_morse_vector,
                          is_collapsible, is_endo_collapsible,
                          sd_endo_collapsibility_report)
from scx.complexes import (SimplicialComplex, full_simplex, new_complex,
                           octahedron, simplex_boundary)
from scx.errors import BudgetExceededError, InvalidComplexError, spend
from scx.families import grid_disk, polygon_triangulations, strip_sphere
from scx.reconstruct import reconstruct
from scx.scxio import write_certificate, write_complex
from scx.subdivision import derived_neighborhood, sd, sd_k

from conftest import glued_subdivided_triangles, petersen

DISK2 = SimplicialComplex([(0, 1, 2), (1, 2, 3)])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SUBCOMMANDS = ("validate", "sd", "neighborhood", "collapse", "endo", "morse",
               "reconstruct", "generate", "iso", "census", "verify-cert",
               "bounds")
PARITY_CASES = ([(), ("-h",), ("bogus",), ("--bogus",)]
                + [(cmd,) + tail for cmd in SUBCOMMANDS
                   for tail in (("-h",), (), ("--nope",))]
                + [("endo", "x", "--strategy", "zzz"), ("sd", "x", "-k", "q"),
                   ("generate", "cube")])


def reference_main(argv):
    """main as it ran when every call built all subcommands' parsers."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 3
    return args.func(args)


@pytest.mark.parametrize("columns", ["60", "80", "200"])
def test_one_subcommand_parser_matches_the_full_parser(columns, monkeypatch,
                                                       capsys):
    # help, usage and error text wrap at the terminal width
    monkeypatch.setenv("COLUMNS", columns)
    for argv in PARITY_CASES:
        got = run(capsys, *argv)
        code = reference_main(list(argv))
        want = capsys.readouterr()
        assert got == (code, want.out, want.err), argv


def test_top_level_usage_errors_are_frozen(monkeypatch, capsys):
    # the reference above shares build_parser; these bytes do not
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: scx [-h]\n           {%s}\n           ...\n"
             % ",".join(SUBCOMMANDS))
    assert run(capsys) == (3, "", usage + "scx: error: the following "
                           "arguments are required: command\n")
    assert run(capsys, "census", "--nope") == (
        3, "", usage + "scx: error: unrecognized arguments: --nope\n")


def test_a_command_builds_only_its_own_subparser(tmp_path, capsys, monkeypatch):
    disk = str(tmp_path / "disk.scx")
    write_complex(DISK2, disk)
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    for argv in (("bounds",), ("endo", disk)):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == [argv[0]]
    # an unknown name still gets the full parser and its list of choices
    calls.clear()
    assert run(capsys, "bogus")[0] == 3
    assert calls == list(SUBCOMMANDS)


def test_generate_and_validate(tmp_path, capsys):
    path = str(tmp_path / "oct.scx")
    code, out, err = run(capsys, "generate", "octahedron", "-o", path)
    assert code == 0
    code, out, err = run(capsys, "validate", path)
    assert code == 0
    assert "facets 8" in out
    assert "surface closed-surface orientable=yes genus=0" in out


def test_sd_pipeline(tmp_path, capsys):
    path = str(tmp_path / "oct.scx")
    run(capsys, "generate", "octahedron", "-o", path)
    code, out, err = run(capsys, "sd", path)
    assert code == 0
    assert "facets 48" in out
    code, out2, err = run(capsys, "sd", path)
    assert out2 == out  # byte identical rerun


def test_sd_budget_exit_code(tmp_path, capsys):
    path = str(tmp_path / "oct.scx")
    run(capsys, "generate", "octahedron", "-o", path)
    code, out, err = run(capsys, "sd", path, "-k", "3", "--budget", "100")
    assert code == 2
    assert "budget" in err


def test_collapse_disk_and_sphere(tmp_path, capsys):
    disk = str(tmp_path / "disk.scx")
    write_complex(DISK2, disk)
    code, out, err = run(capsys, "collapse", disk)
    assert code == 0 and "verdict yes" in out
    oct_path = str(tmp_path / "oct.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    code, out, err = run(capsys, "collapse", oct_path)
    assert code == 1 and "verdict no" in out


def test_collapse_to_target(tmp_path, capsys):
    disk = str(tmp_path / "disk.scx")
    write_complex(DISK2, disk)
    code, out, err = run(capsys, "collapse", disk, "--target", "0 1, 1 3")
    assert code == 0 and "verdict yes" in out


def test_endo_with_certificate(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    cert_path = str(tmp_path / "oct.cert")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    code, out, err = run(capsys, "endo", oct_path, "--cert", cert_path)
    assert code == 0 and "verdict yes" in out
    code, out, err = run(capsys, "verify-cert", oct_path, cert_path)
    assert code == 0 and "certificate ok" in out
    # certificates are deterministic
    first = open(cert_path).read()
    run(capsys, "endo", oct_path, "--cert", cert_path)
    assert open(cert_path).read() == first


def test_verify_cert_rejects_a_tampered_certificate(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    cert_path = str(tmp_path / "oct.cert")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    run(capsys, "endo", oct_path, "--cert", cert_path)
    lines = open(cert_path).read().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("collapse "))
    with open(cert_path, "w") as fh:
        fh.write("\n".join(lines[:last] + lines[last + 1:]) + "\n")
    code, out, err = run(capsys, "verify-cert", oct_path, cert_path)
    assert code == 1 and out.startswith("certificate rejected: ")


def test_endo_report_refuses_a_non_pure_complex(tmp_path, capsys):
    path = str(tmp_path / "mixed.scx")
    write_complex(SimplicialComplex([(0, 1, 2), (2, 3)]), path)
    code, out, err = run(capsys, "endo", path, "--report")
    assert (code, out) == (3, "")
    assert err == "invalid input: endo-collapsibility needs a pure complex\n"


def test_endo_jobs_flag_matches_serial(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    code1, out1, _ = run(capsys, "endo", oct_path, "--jobs", "1")
    code2, out2, _ = run(capsys, "endo", oct_path, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_jobs_flag_runs_the_serial_search(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    sd_path = str(tmp_path / "sd.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    run(capsys, "sd", oct_path, "-o", sd_path)
    certs = []
    for jobs in ("1", "2"):
        cert_path = str(tmp_path / ("jobs%s.cert" % jobs))
        code, out, _ = run(capsys, "endo", sd_path, "--seed", "3",
                           "--jobs", jobs, "--cert", cert_path)
        assert code == 0 and out.startswith("verdict yes\n")
        certs.append((out, open(cert_path, "rb").read()))
    assert certs[0] == certs[1]
    # a stuck search reports the serial seed count under --jobs too
    stuck = str(tmp_path / "stuck.scx")
    write_complex(SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)]), stuck)
    outs = [run(capsys, "collapse", stuck, "--tries", "4", "--jobs", jobs)[:2]
            for jobs in ("1", "2")]
    assert outs[0] == outs[1] == (
        2, "verdict unknown\nreason greedy stuck after 4 seeds\n")


def test_endo_report(tmp_path, capsys):
    disk = str(tmp_path / "disk.scx")
    write_complex(DISK2, disk)
    code, out, err = run(capsys, "endo", disk, "--report")
    assert code == 0
    assert "hypotheses yes" in out


def test_morse(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    code, out, err = run(capsys, "morse", oct_path)
    assert code == 0 and out == "morse 1 0 1\n"
    for attempts in ("0", "-2"):
        code, out, err = run(capsys, "morse", oct_path, "--attempts", attempts)
        assert code == 3 and out == "" and "attempts must be at least 1" in err


def test_reconstruct_roundtrip(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    sd_path = str(tmp_path / "sd.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    run(capsys, "sd", oct_path, "-o", sd_path)
    code, out, err = run(capsys, "reconstruct", sd_path)
    assert code == 0 and "facets 8" in out
    code, out, err = run(capsys, "reconstruct", oct_path)
    assert code == 1 and "not a derived subdivision" in err


def test_reconstruct_budget_exit_code(tmp_path, capsys):
    path = str(tmp_path / "glued.scx")
    write_complex(glued_subdivided_triangles(4), path)
    code, out, err = run(capsys, "reconstruct", path, "--budget", "10")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: reconstruct tried more than 10 seed orderings\n"
    code, out, err = run(capsys, "reconstruct", path)
    assert (code, out) == (1, "") and "not a derived subdivision" in err


def test_generate_strip_and_grid(tmp_path, capsys):
    code, out, err = run(capsys, "generate", "strip", "--perm", "2 1")
    assert code == 0 and "facets 36" in out
    code, out, err = run(capsys, "generate", "grid", "--perm", "1")
    assert code == 0 and "facets 20" in out


def test_generate_torus_rejected(capsys):
    code, out, err = run(capsys, "generate", "torus", "-r", "2",
                         "--pattern", "11101000")
    assert code == 1 and "rejected" in err


def test_generate_torus_rejects_a_long_pattern(capsys):
    code, out, err = run(capsys, "generate", "torus", "-r", "600",
                         "--pattern", "10" * 1200)
    assert (code, out) == (1, "")
    assert err == ("rejected: triangle (0, 1, 1201) degenerates to (0, 1) "
                   "under the gluing\n")


def test_iso_exit_codes(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    simp = str(tmp_path / "simp.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    run(capsys, "generate", "simplex-boundary", "-d", "3", "-o", simp)
    code, out, err = run(capsys, "iso", oct_path, oct_path)
    assert code == 0 and out.startswith("isomorphic")
    code, out, err = run(capsys, "iso", oct_path, simp)
    assert code == 1 and "not isomorphic" in out


def test_neighborhood(tmp_path, capsys):
    oct_path = str(tmp_path / "oct.scx")
    nb_path = str(tmp_path / "nb.scx")
    run(capsys, "generate", "octahedron", "-o", oct_path)
    code, out, err = run(capsys, "neighborhood", oct_path, "--sub", "0",
                         "-o", nb_path)
    assert code == 0
    code, out, err = run(capsys, "validate", nb_path)
    assert "surface surface-with-boundary genus=0 boundary=1" in out


def test_census_output_stable(capsys):
    code, out, err = run(capsys, "census", "-n", "5")
    assert code == 0
    assert out == ("vertices orientable genus count endo min_facets\n"
                   "4 yes 0 1 yes 4\n"
                   "5 yes 0 1 yes 6\n")
    code, out2, err = run(capsys, "census", "-n", "5")
    assert out2 == out


def test_bounds(capsys):
    code, out, err = run(capsys, "bounds", "-d", "2", "-n", "22", "--table")
    assert code == 0
    assert "manifold-count-bound %d" % (2 ** (4 * 22)) in out
    assert "strip 1 22 1" in out
    assert "torus-quotient 2 4 0" in out


def test_bounds_print_up_to_4300_digits_and_refuse_past_them(capsys):
    code, out, err = run(capsys, "bounds", "-d", "2", "-n", "595")
    derived = out.split("\n")[2]
    assert (code, err) == (0, "") and derived == (
        "derived-count-bound %d" % 2 ** (4 * 6 * 595))
    assert len(derived.split(" ")[1]) == 4299
    # these ran out of memory before the power was refused
    for argv in (("-d", "40", "-n", "1"), ("-d", "3", "-n", "100000000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out) == (2, "") and err.startswith("budget exceeded: ")
        assert time.perf_counter() - start < 1, argv


def test_a_field_too_long_for_int_is_a_format_error(tmp_path, capsys):
    long = "1" * 5000
    write_complex(DISK2, str(tmp_path / "disk.scx"))
    (tmp_path / "long.scx").write_text(
        "scx 1\ndim 2\nvertices 4\nfacets 2\n0 1 2\n1 2 %s\n" % long)
    # the message shows the field's first 20 characters and its length
    shown = "'%s\u2026' (5000 characters)" % long[:20]
    assert run(capsys, "validate", str(tmp_path / "long.scx")) == (
        3, "", "format error: line 6: expected an integer, got %s\n" % shown)
    for cert, line_no in (("remove 0 1 2\ncollapse %s 1,2\n" % long, 2),
                          ("collapse 1,2 1,2,%s\n" % long, 1),
                          ("remove 0 1 %s\n" % long, 1)):
        (tmp_path / "long.cert").write_text(cert + "claim collapsible\n")
        assert run(capsys, "verify-cert", str(tmp_path / "disk.scx"),
                   str(tmp_path / "long.cert")) == (
            3, "", "format error: line %d: expected an integer, got %s\n"
            % (line_no, shown))


def test_bounds_on_negative_input(capsys):
    for argv in (("-d", "-2"), ("-d", "-1"), ("-n", "-3")):
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out) == (3, "") and err.startswith("invalid input: "), argv


# SHA-256 of each file `sd` writes, one round at a time from `generate`, as
# written before sd ranked its chains; the bytes must not change
LADDER_DIGESTS = {
    "oct1": "c4b102919b46d31ed732ef5320487fdaa4053be9c2d24e3dcb7a423bc7756d75",
    "oct2": "6226e82fd7a815c8139a5204cfc582db0dbe2fc38beb9a105d2336987c932644",
    "oct3": "5b599d432a3ed9fa5a1137c94777bf1a59b21e948c38f57992f93ec57ec39012",
    "tri1": "be97353e41c74579e3ce1eb6aa6143514b723a29ec7993b1a48d08166d7e7fae",
    "tri2": "990130d220ab457a349f62baf86742807aae956febcc1976fb75ec432db41d75",
    "tri3": "59e931a84f5d158331809f13e68035239d3e0eebac7019acc00099ed97b644eb",
    "tri4": "9c579f20fe184e62ab3b9150bb73c7ccc414a7a7122149727777fbef5267033e",
    "tet1": "aa82ed094c7615d4227595b604271e057f2f71e43e38d499a8f59b7992794eed",
    "tet2": "2c4157bc08337580554450c348a87962e2aae7a2ecd2524873e2c1f22da0fea5",
}


def test_sd_ladder_bytes_are_frozen(tmp_path, capsys):
    got = {}
    for name, generate, rounds in (("oct", ("octahedron",), 3),
                                   ("tri", ("simplex", "-d", "2"), 4),
                                   ("tet", ("simplex", "-d", "3"), 2)):
        path = lambda k: str(tmp_path / ("%s%d.scx" % (name, k)))
        assert run(capsys, "generate", *generate, "-o", path(0))[0] == 0
        for k in range(1, rounds + 1):
            assert run(capsys, "sd", path(k - 1), "-o", path(k))[0] == 0
            with open(path(k), "rb") as fh:
                got[name + str(k)] = hashlib.sha256(fh.read()).hexdigest()
    assert got == LADDER_DIGESTS


def test_usage_and_format_errors(tmp_path, capsys):
    bad = tmp_path / "bad.scx"
    bad.write_text("nonsense\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 3 and "format error" in err
    code, out, err = run(capsys, "no-such-command")
    assert code == 3
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.scx"))
    assert code == 3
    disk = str(tmp_path / "disk.scx")
    write_complex(DISK2, disk)
    code, out, err = run(capsys, "collapse", disk, "--target", "0 x")
    assert code == 3
    # a non-integer facet or permutation is a format error, not a crash
    code, out, err = run(capsys, "endo", disk, "--facet", "a b c")
    assert code == 3 and "format error" in err and "'a b c'" in err
    for family in ("strip", "grid"):
        code, out, err = run(capsys, "generate", family, "--perm", "x")
        assert code == 3 and "format error" in err and "'x'" in err
    # a trailing comma in an inline subcomplex leaves an empty facet
    assert run(capsys, "neighborhood", disk, "--sub", "0 1,") == (
        3, "", "format error: empty facet in '0 1,'\n")



def test_an_empty_target_or_facet_is_refused(tmp_path, capsys):
    # an empty value is given, not absent: no collapse to a point, no
    # search over every facet
    disk = str(tmp_path / "disk.scx")
    write_complex(DISK2, disk)
    assert run(capsys, "collapse", disk, "--target", "") == (
        3, "", "format error: empty facet in ''\n")
    assert run(capsys, "endo", disk, "--facet", "") == (
        3, "", "invalid input: () is not a facet\n")

def test_module_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "scx", "generate",
                           "octahedron"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("scx 1\n")


# subcommand -> (arguments, exit code, stdout, stderr): each budgeted
# subcommand on an input where a small --budget or --tries runs out, then
# negative search budgets, which are usage errors, then each unbudgeted
# subcommand on one hostile input
BUDGET_CONTRACT = [
    ("sd", ("sd", "oct.scx", "-k", "3", "--budget", "100"), 2, "",
     "budget exceeded: subdivision would have 288 facets (budget 100)\n"),
    ("neighborhood", ("neighborhood", "oct.scx", "--sub", "0", "-k", "2",
                      "--budget", "100"), 2, "",
     "budget exceeded: subdivision would have 288 facets (budget 100)\n"),
    ("collapse", ("collapse", "disk.scx", "--strategy", "exhaustive",
                  "--budget", "1"), 2,
     "verdict unknown\nreason node budget 1 exceeded\n", ""),
    ("endo", ("endo", "oct.scx", "--strategy", "exhaustive", "--budget", "1"),
     2, "verdict unknown\nreason no facet confirmed; some runs hit the "
     "budget\n", ""),
    ("reconstruct", ("reconstruct", "glued.scx", "--budget", "10"), 2, "",
     "budget exceeded: reconstruct tried more than 10 seed orderings\n"),
    ("iso", ("iso", "petersen.scx", "petersen-relabelled.scx", "--budget",
             "1"), 2, "", "budget exceeded: isomorphism search exceeded 1 "
     "nodes\n"),
    # the census reports a search that ran out as an "unknown" cell
    ("census", ("census", "-n", "5", "--tries", "0", "--budget", "0"), 0,
     "vertices orientable genus count endo min_facets\n"
     "4 yes 0 1 unknown 4\n5 yes 0 1 unknown 6\n", ""),
    # the vertex cap is checked before any enumeration or search
    ("census-cap", ("census", "-n", "11"), 2, "",
     "budget exceeded: surface census capped at 10 vertices\n"),
    ("collapse-tries", ("collapse", "disk.scx", "--tries", "-3"), 3, "",
     "invalid input: seeds must be at least 0, got -3\n"),
    ("collapse-budget", ("collapse", "disk.scx", "--strategy", "exhaustive",
                         "--budget", "-5"), 3, "",
     "invalid input: max_nodes must be at least 0, got -5\n"),
    ("endo-tries", ("endo", "oct.scx", "--tries", "-1"), 3, "",
     "invalid input: seeds must be at least 0, got -1\n"),
    ("endo-budget", ("endo", "oct.scx", "--report", "--budget", "-1"), 3, "",
     "invalid input: max_nodes must be at least 0, got -1\n"),
    ("census-tries", ("census", "-n", "5", "--tries", "-1"), 3, "",
     "invalid input: seeds must be at least 0, got -1\n"),
    ("census-budget", ("census", "-n", "3", "--budget", "-1"), 3, "",
     "invalid input: max_nodes must be at least 0, got -1\n"),
    ("sd-budget", ("sd", "oct.scx", "--budget", "-1"), 3, "",
     "invalid input: max_facets must be at least 0, got -1\n"),
    ("neighborhood-budget", ("neighborhood", "oct.scx", "--sub", "0",
                             "--budget", "-1"), 3, "",
     "invalid input: max_facets must be at least 0, got -1\n"),
    # equal facet lists: the budget is checked before that shortcut
    ("iso-budget", ("iso", "oct.scx", "oct.scx", "--budget", "-1"), 3, "",
     "invalid input: max_nodes must be at least 0, got -1\n"),
    ("reconstruct-budget", ("reconstruct", "oct.scx", "--budget", "-1"), 3,
     "", "invalid input: max_nodes must be at least 0, got -1\n"),
    ("validate", ("validate", "bad.scx"), 3, "",
     "format error: line 1: first line must be 'scx 1'\n"),
    ("morse", ("morse", "oct.scx", "--attempts", "0"), 3, "",
     "invalid input: attempts must be at least 1, got 0\n"),
    ("generate", ("generate", "strip", "--perm", "1 1"), 3, "",
     "invalid input: need a permutation of 1..g, got (1, 1)\n"),
    # the disk's collapse pairs replayed on the octahedron
    ("verify-cert", ("verify-cert", "oct.scx", "disk.cert"), 1,
     "certificate rejected: pair 0 names a dead face\n", ""),
    ("bounds", ("bounds", "-d", "-1"), 3, "",
     "invalid input: bounds need d >= 0 and n_facets >= 0, got d=-1, "
     "n_facets=20\n"),
    # 2^(4 * 3! * 596) has 4306 digits, past what str() spells
    ("bounds-digits", ("bounds", "-d", "2", "-n", "596"), 2, "",
     "budget exceeded: counting bound would have more than 4300 digits: "
     "its exponent passes 14284\n"),
]


@pytest.mark.parametrize("argv, code, out, err",
                         [row[1:] for row in BUDGET_CONTRACT],
                         ids=[row[0] for row in BUDGET_CONTRACT])
def test_budget_contract(argv, code, out, err, tmp_path, monkeypatch, capsys):
    inputs = {"oct": octahedron(), "disk": DISK2,
              "glued": glued_subdivided_triangles(4),
              # isomorphic, no pseudomanifolds, written with other facets
              "petersen": petersen(),
              "petersen-relabelled": petersen().relabel(
                  {v: (v + 5) % 10 for v in range(10)})}
    for name, C in inputs.items():
        write_complex(C, str(tmp_path / (name + ".scx")))
    (tmp_path / "bad.scx").write_text("nonsense\n")
    write_certificate(is_collapsible(DISK2).certificate,
                      str(tmp_path / "disk.cert"))
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run(capsys, *argv) == (code, out, err)
    assert time.perf_counter() - start < 2


def test_every_budgeted_subcommand_has_a_contract_row():
    def options(name):
        p = argparse.ArgumentParser()
        COMMANDS[name][1](p)
        return p.format_help()

    budgeted = {name for name in COMMANDS
                if "--budget" in options(name) or "--tries" in options(name)}
    assert budgeted == {"sd", "neighborhood", "collapse", "endo",
                        "reconstruct", "iso", "census"}
    assert set(COMMANDS) <= {row[0] for row in BUDGET_CONTRACT}


EMPTY = SimplicialComplex()

# budgeted public function -> (call with a negative budget, message): each
# refuses it before any work, even on the empty complex, where most of them
# otherwise answer at once
API_BUDGET_CONTRACT = [
    ("sd", lambda: sd(EMPTY, max_facets=-1),
     "max_facets must be at least 0, got -1"),
    ("sd_k", lambda: sd_k(EMPTY, 1, max_facets=-1),
     "max_facets must be at least 0, got -1"),
    ("derived_neighborhood",
     lambda: derived_neighborhood(EMPTY, EMPTY, max_facets=-1),
     "max_facets must be at least 0, got -1"),
    ("collapses_to", lambda: collapses_to(EMPTY, EMPTY, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
    ("is_collapsible", lambda: is_collapsible(EMPTY, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
    ("is_endo_collapsible", lambda: is_endo_collapsible(EMPTY, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
    ("sd_endo_collapsibility_report",
     lambda: sd_endo_collapsibility_report(EMPTY, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
    ("reconstruct", lambda: reconstruct(EMPTY, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
    ("iso", lambda: iso(EMPTY, EMPTY, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
    ("canonical_label", lambda: canonical_label(EMPTY, budget=-1),
     "budget must be at least 0, got -1"),
    # no vertex count to enumerate: the check comes first all the same
    ("census", lambda: census(3, max_nodes=-1),
     "max_nodes must be at least 0, got -1"),
]


@pytest.mark.parametrize("call, message",
                         [row[1:] for row in API_BUDGET_CONTRACT],
                         ids=[row[0] for row in API_BUDGET_CONTRACT])
def test_budgeted_functions_refuse_a_negative_budget(call, message):
    with pytest.raises(InvalidComplexError) as e:
        call()
    assert str(e.value) == message


OCT = octahedron()

DIGITS = ("counting bound would have more than 4300 digits: its exponent "
          "passes 14284")

# budgeted public function -> (call past its budget, message, requested,
# budget): requested is the work asked for, or the count that passed the
# budget, and always exceeds it
API_OVERRUN_CONTRACT = [
    ("sd", lambda: sd(OCT, max_facets=47),
     "subdivision would have 48 facets (budget 47)", 48, 47),
    # the first round fits, the second does not
    ("sd_k", lambda: sd_k(OCT, 2, max_facets=100),
     "subdivision would have 288 facets (budget 100)", 288, 100),
    ("derived_neighborhood",
     lambda: derived_neighborhood(OCT, SimplicialComplex([(0,)]), k=2,
                                  max_facets=100),
     "subdivision would have 288 facets (budget 100)", 288, 100),
    ("reconstruct",
     lambda: reconstruct(glued_subdivided_triangles(4), max_nodes=10),
     "reconstruct tried more than 10 seed orderings", 11, 10),
    # no pseudomanifold: each canonical-form search counts one node per
    # leaf, and the Petersen graph's has 120
    ("iso", lambda: iso(petersen(), petersen().relabel(
        {v: (v + 5) % 10 for v in range(10)}), max_nodes=1),
     "isomorphism search exceeded 1 nodes", 2, 1),
    # a pseudomanifold, relabeled: the flag walk counts one node per flag
    ("iso-flags", lambda: iso(OCT, OCT.relabel({0: 0, 1: 2, 2: 1, 3: 3,
                                                4: 4, 5: 5}), max_nodes=0),
     "isomorphism search exceeded 0 nodes", 1, 0),
    ("canonical_label-walks", lambda: canonical_label(OCT, budget=47),
     "canonical labeling needs 48 walks (budget 47)", 48, 47),
    # no pseudomanifold: one relabeling per leaf, 120 of them
    ("canonical_label-relabelings",
     lambda: canonical_label(petersen(), budget=10),
     "canonical labeling search exceeded 10 relabelings", 11, 10),
    ("enumerate_disks", lambda: enumerate_disks(13),
     "disk census capped at 12 triangles", 13, 12),
    ("enumerate_surfaces", lambda: enumerate_surfaces(11),
     "surface census capped at 10 vertices", 11, 10),
    ("census", lambda: census(11),
     "surface census capped at 10 vertices", 11, 10),
    # the exponent is refused before the power is taken
    ("manifold_count_bound", lambda: manifold_count_bound(2, 3572),
     DIGITS, 4 * 3572, 14284),
    ("derived_count_bound", lambda: derived_count_bound(2, 596),
     DIGITS, 4 * 6 * 596, 14284),
    ("derived_count_bound-factorial", lambda: derived_count_bound(40, 1),
     DIGITS, 1600 * math.factorial(41), 14284),
    # d^2 N alone passes the budget: (d+1)! is never taken
    ("derived_count_bound-before-factorial",
     lambda: derived_count_bound(10 ** 6, 1), DIGITS, 10 ** 12, 14284),
]


@pytest.mark.parametrize("call, message, requested, budget",
                         [row[1:] for row in API_OVERRUN_CONTRACT],
                         ids=[row[0] for row in API_OVERRUN_CONTRACT])
def test_budgeted_functions_refuse_past_their_budget(call, message,
                                                     requested, budget):
    with pytest.raises(BudgetExceededError) as e:
        call()
    assert (str(e.value), e.value.requested, e.value.budget) == (
        message, requested, budget)
    assert requested > budget


def test_spend_refuses_only_past_the_budget():
    spend(5, 5, "never raised")
    with pytest.raises(BudgetExceededError) as e:
        spend(6, 5, "asked %(requested)d of %(budget)d")
    assert (str(e.value), e.value.requested, e.value.budget) == (
        "asked 6 of 5", 6, 5)


# public function on a small or degenerate input -> (call, expected): the
# value returned, or the InvalidComplexError raised
SMALL_INPUT_CONTRACT = [
    ("enumerate_surfaces", lambda: enumerate_surfaces(3), []),
    ("enumerate_disks", lambda: enumerate_disks(0), {}),
    ("discrete_morse_vector", lambda: discrete_morse_vector(EMPTY), ()),
    ("new_complex", lambda: new_complex([(1, 2), (0, 1)]),
     SimplicialComplex([(0, 1), (1, 2)])),
    ("cone", lambda: EMPTY.cone(), SimplicialComplex([(0,)])),
    ("relabel", lambda: DISK2.relabel({0: 5}),
     InvalidComplexError("no image for vertex 1")),
    ("full_simplex", lambda: full_simplex(-1),
     InvalidComplexError("dimension must be >= 0")),
    ("simplex_boundary", lambda: simplex_boundary(0),
     InvalidComplexError("dimension must be >= 1")),
    ("sd_k", lambda: sd_k(DISK2, -1),
     InvalidComplexError("subdivision rounds must be >= 0")),
    ("polygon_triangulations", lambda: next(polygon_triangulations(2)),
     InvalidComplexError("a polygon needs at least 3 vertices")),
    ("strip_sphere", lambda: strip_sphere(0),
     InvalidComplexError("genus must be >= 1")),
    ("grid_disk", lambda: grid_disk(0),
     InvalidComplexError("genus must be >= 1")),
]


@pytest.mark.parametrize("call, expected",
                         [row[1:] for row in SMALL_INPUT_CONTRACT],
                         ids=[row[0] for row in SMALL_INPUT_CONTRACT])
def test_small_inputs_answer_or_refuse(call, expected):
    if isinstance(expected, InvalidComplexError):
        with pytest.raises(InvalidComplexError) as e:
            call()
        assert str(e.value) == str(expected)
    else:
        assert call() == expected
