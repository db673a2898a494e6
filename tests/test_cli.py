import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from csv import reader as csv_reader
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binform import cli, sixj
from binform.cli import COMMANDS, COMMON_FLAGS, build_parser, fast_parse, main
from binform.forms import BinaryForm, generic_form, save_form, unstable_form
from binform.invariants import charpoly_invariants, shioda_invariant, trace_invariant
from binform.sixj import grid_to_ppm, sign_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_ups_methods_agree(capsys):
    reports = [
        run_json(capsys, "combsum", "ups", "--args", "1,1", "--method", m)
        for m in ("direct", "recursive", "closed")
    ]
    assert all(r["value"] == "2" for r in reports)
    assert reports[2]["closed_form"] == "von_szily"


def test_ups_closed_unavailable_for_m4(capsys):
    code, _, err = run(capsys, "combsum", "ups", "--args", "1,1,1,1", "--method", "closed")
    assert code == 2
    assert "closed form" in err


def test_nkr_routes(capsys):
    direct = run_json(capsys, "combsum", "nkr", "--k", "4", "--r", "3")
    via = run_json(capsys, "combsum", "nkr", "--k", "4", "--r", "3", "--via-ups")
    assert direct["value"] == via["value"] == "-48"
    assert direct["route"] == "direct" and via["route"] == "via_ups"
    code, _, err = run(capsys, "combsum", "nkr", "--k", "4", "--r", "2", "--via-ups")
    assert code == 2 and "odd r" in err


def test_invariant_p_from_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_form(unstable_form(2), path)
    rep = run_json(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                   "--form", str(path))
    assert rep["value"] == "0"
    assert rep["coeffs"] == ["0", "0", "0", "1", "0"]


def test_invariant_p_generic_and_random(capsys):
    gen = run_json(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2", "--generic")
    assert gen["value"] == str(trace_invariant(generic_form(4), 2, 2))
    r1 = run_json(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                  "--random", "--seed", "5")
    r2 = run_json(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                  "--random", "--seed", "5")
    assert r1 == r2
    code, _, err = run(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2")
    assert code == 2 and "exactly one" in err


def test_invariant_h(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_form(unstable_form(2), path)
    rep = run_json(capsys, "invariant", "H", "--d", "4", "--n", "2", "--form", str(path))
    assert rep["charpoly"] == ["0", "0", "0", "1"]


def test_invariant_h_generic(capsys):
    rep = run_json(capsys, "invariant", "H", "--d", "4", "--n", "2", "--generic")
    assert rep["charpoly"] == [str(c) for c in charpoly_invariants(generic_form(4), 2)]
    assert rep["charpoly"][1] == "-1*f0*f4 + 1/4*f1*f3 + -1/12*f2^2"
    assert rep["charpoly"][2:] == ["0", "1"]


def test_invariant_shioda_generic(capsys):
    rep = run_json(capsys, "invariant", "shioda", "--idx", "2", "--generic", "--d", "8")
    assert rep["value"] == str(shioda_invariant(2, generic_form(8)))


def test_independence_report(capsys):
    rep = run_json(capsys, "independence", "--k", "2")
    assert rep["rank"] == 2 and rep["pass"] is True and rep["minor"] == "-3/16"
    code, _, err = run(capsys, "independence", "--k", "3")
    assert code == 2 and "even" in err


def test_independence_jobs_do_not_change_bytes(capsys):
    _, one, _ = run(capsys, "independence", "--k", "4")
    _, two, _ = run(capsys, "independence", "--k", "4", "--jobs", "2")
    assert one == two


def test_independence_minor_past_the_int_str_digit_limit(capsys):
    rep = run_json(capsys, "independence", "--k", "26")
    assert rep["rank"] == 26 and rep["pass"] is True
    assert len(rep["minor"]) > 4300


def test_jobs_below_one_is_rejected(capsys):
    code, out, err = run(capsys, "independence", "--k", "2", "--jobs", "0")
    assert code == 2 and out == "" and "--jobs" in err


def test_octavic_verify(capsys):
    rep = run_json(capsys, "octavic", "verify")
    assert rep["pass"] is True
    assert len(rep["identities"]) == 10
    for entry in rep["identities"]:
        assert entry["lhs_sha256"] == entry["rhs_sha256"]


def test_sixj_value(capsys):
    rep = run_json(capsys, "sixj", "value", "--k", "2", "--n", "3")
    assert rep["S"] == "0"
    code, _, _ = run(capsys, "sixj", "value", "--k", "2", "--n", "1")
    assert code == 2


def test_sixj_scan(capsys):
    rep = run_json(capsys, "sixj", "scan", "--kmax", "2", "--nmax", "10")
    assert rep["zeros"] == [[2, 3]]


def test_sixj_grid_files(tmp_path, capsys):
    ppm = tmp_path / "g.ppm"
    code, out, err = run(capsys, "sixj", "grid", "--rows", "2", "--cols", "3",
                         "--out", str(ppm))
    assert code == 0 and out == ""
    assert ppm.read_text() == grid_to_ppm(sign_grid(rows=2, cols=3))
    csv = tmp_path / "g.csv"
    run(capsys, "sixj", "grid", "--rows", "2", "--cols", "3", "--out", str(csv))
    assert csv.read_text().startswith("r,c,k,n,sign\n")
    code, _, err = run(capsys, "sixj", "grid", "--rows", "2", "--cols", "2")
    assert code == 2 and "--out" in err


def test_sixj_grid_jobs_do_not_change_bytes(tmp_path, capsys):
    one = tmp_path / "one.ppm"
    two = tmp_path / "two.ppm"
    run(capsys, "sixj", "grid", "--rows", "5", "--cols", "4", "--out", str(one))
    run(capsys, "sixj", "grid", "--rows", "5", "--cols", "4", "--out", str(two),
        "--jobs", "2")
    assert one.read_bytes() == two.read_bytes()


def test_bracket_eval_generic(capsys):
    rep = run_json(capsys, "bracket", "eval", "--expr", "(a b)^8 ; deg=8", "--generic")
    assert rep["order"] == 0
    assert rep["coeffs"] == [str(shioda_invariant(2, generic_form(8)))]


def test_bracket_eval_from_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_form(unstable_form(2), path)
    rep = run_json(capsys, "bracket", "eval", "--expr", "(a b)^2 a_x^2 b_x^2",
                   "--form", str(path))
    assert rep["degree"] == 4 and rep["order"] == 4
    code, _, err = run(capsys, "bracket", "eval", "--expr", "(a b)^8 ; deg=8",
                       "--form", str(path))
    assert code == 2 and "degree" in err


@pytest.mark.parametrize("argv", [
    ("bracket", "eval", "--expr", "(a b)^2 ; deg=2", "--form", "q.json", "--generic"),
    ("bracket", "eval", "--expr", "(a b)^2 ; deg=2"),
    ("invariant", "P", "--d", "2", "--n", "1", "--p", "2", "--form", "q.json", "--generic"),
    ("invariant", "P", "--d", "2", "--n", "1", "--p", "2", "--generic", "--random"),
], ids=("bracket-both", "bracket-none", "invariant-both", "invariant-generic-random"))
def test_exactly_one_form_source(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    save_form(BinaryForm([1, 0, 1]), tmp_path / "q.json")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "binform: error: choose exactly one of --form FILE, --generic" in err


# stdout sha256 of symbolic reports, as recorded for these commands in
# perfbench/expected.json
SYMBOLIC_REPORTS = [
    (("invariant", "P", "--d", "8", "--n", "4", "--p", "5", "--generic", "--jobs", "1"),
     "7aa0ff60ea7174ca4f081a2077c489d6d8bb00a56ac6c6c0d9b1fc4e156c72ab"),
    (("invariant", "P", "--d", "8", "--n", "4", "--p", "2", "--generic", "--jobs", "1"),
     "41a4ce653de4820eb72dc5d0b92be9a1293a43b8e5133d905fb94acfa88ddb88"),
    (("invariant", "P", "--d", "8", "--n", "4", "--p", "3", "--generic", "--jobs", "1"),
     "7cd91beb3e9e38978b21833eccb2f63f67786e93f9f15d53a52077749e2066fa"),
    (("invariant", "P", "--d", "8", "--n", "4", "--p", "4", "--generic", "--jobs", "1"),
     "1c578289aa9c958ea618453bee8f7fcbe762cd785456d00ebf460ecfd62bd9f4"),
    (("invariant", "P", "--d", "12", "--n", "6", "--p", "7", "--generic", "--jobs", "1"),
     "bd77f5eff90f08e19ef11ac0e3ce6b038e4175f3f269a4ab994228901d22af08"),
    (("octavic", "verify", "--jobs", "1"),
     "e5c4af19b7480fbebdb26fe48dfe93423d83ade8c603eb8855466d3cb681d6bb"),
    (("bracket", "eval", "--expr", "(a b)^4 (a c)^2 (a d)^2 (b c)^2 (b d)^2 (c d)^4 ; deg=8",
      "--generic", "--jobs", "1"),
     "3c5a7671bdf108f8fec2d5c1756c0c469941d1fa4edfe11b5cbd5439cb04aa86"),
    (("invariant", "shioda", "--idx", "2", "--d", "8", "--generic", "--jobs", "1"),
     "68ed159f32cd3a0a618e053841d79773fbe3a3e4b17722911defc5b8e6cf89be"),
    (("invariant", "shioda", "--idx", "3", "--d", "8", "--generic", "--jobs", "1"),
     "64005cb40ac9105fdd131ea42dbaa81ff5bb01d8a847563853bd6b2c1ba27ae7"),
    (("invariant", "shioda", "--idx", "4", "--d", "8", "--generic", "--jobs", "1"),
     "3e971c88b88b7455bd06bb1750773b29e99e74f97b61ad97fd2073423a129e0e"),
    (("invariant", "shioda", "--idx", "5", "--d", "8", "--generic", "--jobs", "1"),
     "a9acf7fac0644787d8c8aa5a2e2e8a9f6369b4abcc478732c44be075e2a63690"),
]


@pytest.mark.parametrize(
    "argv,sha256", SYMBOLIC_REPORTS,
    ids=("invariant-P", "invariant-P-p2", "invariant-P-p3", "invariant-P-p4", "invariant-P-d12",
         "octavic-verify", "bracket-eval", "shioda-2", "shioda-3", "shioda-4", "shioda-5"),
)
def test_symbolic_report_bytes_are_pinned(capsys, argv, sha256):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == sha256


# stdout sha256 of numeric certificate reports (rational matrix products,
# Bareiss rank, charpoly), as recorded for these commands in
# perfbench/expected.json
CERTIFICATE_REPORTS = [
    (("independence", "--k", "10", "--random-point", "--seed", "0", "--jobs", "1"),
     "50040d395b1877c072a193ddc95d87db1e0c433e57d655ad742a75681f1ace06"),
    # n = 17 rows: the packed route mod RANK_PRIME, each slot of a product
    # row below 17 (p - 1)(2^26 + 4) < 2^64 before its three folds
    (("independence", "--k", "16", "--random-point", "--seed", "3", "--jobs", "1"),
     "9208f3917e65eba35a154ba60aa3d175cb34ebe9bb10e9768c2ec45c5aa152c7"),
    (("invariant", "H", "--d", "8", "--n", "8", "--random", "--seed", "0", "--jobs", "1"),
     "c4e714f9ce75ff62093327c3321803f33f9d16539754f62bd630f2deffd5daa0"),
    (("invariant", "P", "--d", "12", "--n", "12", "--p", "12", "--random", "--seed", "5",
      "--jobs", "1"),
     "b68615b460c91f02f237bb15caae174e8b2777f036c48e24a046c4bcde6e8ceb"),
]


@pytest.mark.parametrize(
    "argv,sha256", CERTIFICATE_REPORTS, ids=("independence", "independence-k16", "invariant-H", "invariant-P")
)
def test_certificate_report_bytes_are_pinned(capsys, argv, sha256):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == sha256


# sha256 of the sixj workload's grid file and scan stdout, as recorded for
# these commands in perfbench/expected.json
SIXJ_GRID_SHA256 = "5f9af808d988109ee20fdb53f64a8078f25a4ae7bb8f06b793eabf21a0b4aac6"
SIXJ_SCAN_SHA256 = "db2b126780ab494ce8f90d38462da82dacc3fdbdb8828d3e88be986dfd84f8d7"


def test_sixj_grid_file_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "sixj", "grid", "--rows", "141", "--cols", "141",
                         "--out", "grid.ppm", "--jobs", "1")
    assert code == 0 and out == "", err
    assert hashlib.sha256((tmp_path / "grid.ppm").read_bytes()).hexdigest() == SIXJ_GRID_SHA256


def test_sixj_scan_report_bytes_are_pinned(capsys):
    code, out, err = run(capsys, "sixj", "scan", "--kmax", "50", "--nmax", "150", "--jobs", "1")
    assert code == 0, err
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == SIXJ_SCAN_SHA256


def test_sixj_grid_checks_out_before_computing(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("sign_grid called before --out was checked")

    monkeypatch.setattr(sixj, "sign_grid", no_grid)
    png = tmp_path / "grid.png"
    code, out, err = run(capsys, "sixj", "grid", "--out", str(png))
    assert code == 2 and out == ""
    assert "must end in .ppm or .csv" in err
    assert not png.exists()
    code, _, err = run(capsys, "sixj", "grid")
    assert code == 2 and "--out" in err


def test_reports_echo_seed_and_are_byte_stable(capsys):
    code1 = main(["combsum", "ups", "--args", "2,3", "--seed", "9"])
    out1 = capsys.readouterr().out
    code2 = main(["combsum", "ups", "--args", "2,3", "--seed", "9"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 9


@pytest.mark.parametrize("argv", [
    ("combsum", "ups", "--args", "2,3"),
    ("combsum", "nkr", "--k", "4", "--r", "3"),
    ("invariant", "P", "--d", "4", "--n", "2", "--p", "2", "--random"),
    ("invariant", "H", "--d", "4", "--n", "2", "--generic"),
    ("invariant", "shioda", "--d", "8", "--idx", "2", "--random"),
    ("independence", "--k", "2", "--random-point"),
    ("octavic", "verify"),
    ("sixj", "value", "--k", "2", "--n", "3"),
    ("sixj", "scan", "--kmax", "3", "--nmax", "4"),
    ("bracket", "eval", "--expr", "(a b)^2 ; deg=2", "--generic"),
], ids=("ups", "nkr", "invariant-P", "invariant-H", "shioda", "independence", "octavic", "sixj-value",
        "sixj-scan", "bracket"))
def test_every_report_echoes_the_seed(capsys, argv):
    assert run_json(capsys, *argv, "--seed", "7")["seed"] == 7
    _, out, _ = run(capsys, *argv, "--seed", "7", "--format", "csv")
    assert "\nseed,7\n" in out


def test_csv_format(capsys):
    code, out, err = run(capsys, "sixj", "value", "--k", "2", "--n", "4",
                         "--format", "csv")
    assert code == 0
    assert "S,-27" in out


def test_csv_quotes_a_carriage_return(capsys):
    expr = "(a b)^2\r ; deg=2"
    code, out, err = run(capsys, "bracket", "eval", "--expr", expr, "--generic", "--format", "csv")
    assert code == 0, err
    rows = list(csv_reader(io.StringIO(out, newline="")))
    assert [row for row in rows if row[0] == "expr"] == [["expr", expr]]
    assert all(len(row) == 2 for row in rows)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "sixj", "value", "--k", "2", "--n", "2",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["S"] == "1"


def test_malformed_form_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"coeffs": ["1"]}')
    code, _, err = run(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                       "--form", str(bad))
    assert code == 2 and "error" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                       "--form", str(missing))
    assert code == 2


def test_form_file_without_both_keys_names_them(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ('{"coeffs": ["1", "0", "0", "0", "1"]}', '["1", "0", "0", "0", "1"]'):
        bad.write_text(text)
        code, out, err = run(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                             "--form", str(bad))
        assert code == 2 and out == ""
        assert err == 'binform: error: a form file must hold a JSON object with keys "d" and "coeffs"\n'


def test_form_file_with_an_exponent_exits_2(tmp_path, capsys):
    bad = tmp_path / "exp.json"
    bad.write_text('{"d": 4, "coeffs": ["1", "0", "1e400", "0", "1"]}')
    code, out, err = run(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                         "--form", str(bad))
    assert code == 2 and out == ""
    assert err == "binform: error: coefficient '1e400' has an exponent; write it as a decimal or p/q\n"


def test_deeply_nested_form_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for argv in (("invariant", "P", "--d", "4", "--n", "2", "--p", "2"),
                 ("bracket", "eval", "--expr", "(a b)^4 ; deg=4")):
        code, out, err = run(capsys, *argv, "--form", str(deep))
        assert code == 2 and out == ""
        assert err == "binform: error: a form file nested too deeply to read as JSON\n"


def test_form_file_with_float_or_bool_coefficients_exits_2(tmp_path, capsys):
    bad = tmp_path / "float.json"
    bad.write_text('{"d": 4, "coeffs": [0.1, true, "0", "0", 1]}')
    code, out, err = run(capsys, "invariant", "P", "--d", "4", "--n", "2", "--p", "2",
                         "--form", str(bad))
    assert code == 2 and out == "" and "strings or integers" in err


def test_unwritable_out_exits_2_and_leaves_no_file(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "report.json"
    for argv in (("sixj", "value", "--k", "2", "--n", "2"), ("combsum", "nkr", "--k", "4", "--r", "3")):
        code, out, err = run(capsys, *argv, "--out", str(missing))
        assert code == 2 and out == "" and err.startswith("binform: error:")
        assert not missing.parent.exists()
    csv = tmp_path / "f.csv"  # a non-ASCII letter is a parse error: no file
    code, out, err = run(capsys, "bracket", "eval", "--expr", "(aβ b)^2 ; deg=2", "--generic",
                         "--format", "csv", "--out", str(csv))
    assert code == 2 and out == "" and err.startswith("binform: error:")
    assert not csv.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_ascii_bracket_letter_exits_2(capsys, fmt):
    code, out, err = run(capsys, "bracket", "eval", "--expr", "(a\u03b2 b)^2 ; deg=2", "--generic",
                         "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("binform: error: bracket expressions are ASCII only") and err.isascii()


# -- the command table: fast parse, argparse route, help text --------------

ROOT = Path(__file__).resolve().parents[1]
LEAVES = [path for path, (_, flags) in COMMANDS.items() if flags is not None]


def readme_commands() -> list[list[str]]:
    """Every ``binform ...`` line of README.md as an argv; a ``[--flag]``
    gives the command without and with the flag."""
    argvs = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("binform "):
            tokens = shlex.split(line, comments=True)[1:]
            base = [t for t in tokens if not t.startswith("[")]
            argvs.append(base)
            optional = [t.strip("[]") for t in tokens if t.startswith("[")]
            if optional:
                argvs.append(base + optional)
    return argvs


def _good_values(keywords: dict) -> list[str]:
    if "choices" in keywords:
        return [str(c) for c in keywords["choices"]]
    if keywords.get("type") is int:
        return ["0", "3", "8", "+2", " 4"]
    return ["f.json", "1,2", "(a b)^2 ; deg=2", ""]


def full_leaf_argv(path: tuple[str, ...]) -> list[str]:
    """A valid argv for ``path`` that gives every flag of the leaf."""
    argv = list(path)
    for name, keywords in COMMANDS[path][1] + COMMON_FLAGS:
        argv.append(name)
        if keywords.get("action") != "store_true":
            argv.append(_good_values(keywords)[1])
    return argv


def argparse_result(argv: list[str]):
    """``build_parser().parse_args(argv)``, or the SystemExit code it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


def assert_fast_parse_agrees(argv: list[str]) -> SimpleNamespace | None:
    fast = fast_parse(list(argv))
    slow = argparse_result(list(argv))
    if not isinstance(slow, argparse.Namespace):
        assert fast is None, (argv, slow)
    elif fast is not None:
        assert vars(fast) == vars(slow), argv
    return fast


def test_readme_shows_every_command():
    commands = readme_commands()
    assert all(any(argv[:len(path)] == list(path) for argv in commands) for path in LEAVES)


@pytest.mark.parametrize("argv", readme_commands() + [full_leaf_argv(p) for p in LEAVES], ids=shlex.join)
def test_fast_parse_accepts_readme_and_full_leaf_argv_as_argparse_does(argv):
    assert assert_fast_parse_agrees(argv) is not None


@pytest.mark.parametrize("argv", [
    ["independence", "--k=3"],
    ["independence", "--k", "3", "-h"],
    ["invariant", "P", "--d", "4", "--n", "2", "--p", "2", "--rand"],
    ["independence", "--k", "-3"],
    ["independence", "--", "--k", "3"],
    ["independence", "--k", "3", "--k", "4"],
    ["independence", "--random-point", "--random-point", "--k", "3"],
    ["independence", "--k"],
    ["independence", "--random-point"],
    ["sixj", "value", "--k", "2", "--n", "3", "--format", "xml"],
    ["invariant", "shioda", "--idx", "7", "--d", "8", "--generic"],
    ["independence", "--k", "three"],
    ["independence", "--k", "3", "extra"],
    ["inv", "P", "--d", "4", "--n", "2", "--p", "2", "--generic"],
    ["invariant"],
    [],
], ids=shlex.join)
def test_fast_parse_leaves_the_rest_to_argparse(argv):
    assert assert_fast_parse_agrees(argv) is None


_JUNK = ["--k=3", "-h", "--help", "--rand", "-3", "--", "-", "--bogus", "x", "1.5", "", "xml",
         "bogus", "--ra", "--random-p"]
_TOKENS = sorted({t for path in COMMANDS for t in path}
                 | {name for _, flags in COMMANDS.values() for name, _ in (flags or ())}
                 | {name for name, _ in COMMON_FLAGS} | set(_JUNK))


@st.composite
def near_valid_argv(draw):
    """A valid argv for a random leaf (every required flag, some optional
    ones, in any order), then up to two junk edits: a token inserted,
    replaced or deleted."""
    path = draw(st.sampled_from(LEAVES))
    argv = list(path)
    for name, keywords in draw(st.permutations(COMMANDS[path][1] + COMMON_FLAGS)):
        if keywords.get("required") or draw(st.booleans()):
            argv.append(name)
            if keywords.get("action") != "store_true":
                argv.append(draw(st.sampled_from(_good_values(keywords))))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        token = draw(st.sampled_from(_TOKENS))
        if edit == "insert":
            argv.insert(i, token)
        elif edit == "replace":
            argv[i] = token
        else:
            del argv[i]
    return argv


@settings(max_examples=400)
@given(st.one_of(near_valid_argv(), st.lists(st.sampled_from(_TOKENS), max_size=8)))
def test_fast_parse_never_disagrees_with_argparse(argv):
    assert_fast_parse_agrees(argv)


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text(encoding="ascii"))


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN["python"],
    reason="argparse lays out help differently across Python versions; "
    "the golden text was captured on Python " + GOLDEN["python"],
)
@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: shlex.join(c["argv"]) or "no-args")
def test_help_and_argparse_errors_are_byte_identical(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def _count_parsers(monkeypatch) -> list:
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return made


@pytest.mark.parametrize("argv", readme_commands() + [full_leaf_argv(p) for p in LEAVES], ids=shlex.join)
def test_valid_commands_build_no_argparse_parser(argv, monkeypatch):
    made = _count_parsers(monkeypatch)
    handled = []
    for cmd in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, cmd, handled.append)
    assert main(argv) == 0
    assert made == [] and handled[0].cmd == argv[0]


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["independence", "--k", "6", "--bogus"], 2)])
def test_help_and_bad_flags_take_the_argparse_route(argv, code, monkeypatch, capsys):
    made = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert len(made) >= 1


# -- cold start ---------------------------------------------------------------
#
# ``import binform.cli`` loads every binform module, so a process forked
# after it (perfbench's task server) compiles none of them per task, and
# none of the stdlib that only help and errors, or no task at all, need.

BINFORM_MODULES = sorted(
    "binform." + path.stem for path in Path(cli.__file__).parent.glob("*.py") if path.stem != "__init__"
)
COLD_START_UNUSED = ("argparse", "ast", "dataclasses", "dis", "inspect", "tokenize")


def _cold_modules(code: str) -> dict:
    """Run ``code`` in a new ``python -S`` (no site-packages) and return its
    last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_cold_import_loads_every_binform_module_and_no_unused_stdlib():
    assert len(BINFORM_MODULES) == 10
    loaded = _cold_modules(
        "import json, sys; import binform.cli; print(json.dumps(sorted(sys.modules)))"
    )
    assert [m for m in BINFORM_MODULES if m not in loaded] == []
    assert [m for m in COLD_START_UNUSED if m in loaded] == []


@pytest.mark.parametrize("argv,argparse_loaded", [
    (["sixj", "value", "--k", "2", "--n", "3"], False),
    (["--help"], True),
], ids=("valid-argv", "help"))
def test_argparse_loads_only_on_the_help_and_error_route(argv, argparse_loaded):
    code = (
        "import contextlib, io, json, sys\n"
        "from binform.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(json.dumps({'argparse': 'argparse' in sys.modules}))\n"
    )
    assert _cold_modules(code) == {"argparse": argparse_loaded}
