import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import shooting_level
from hypothesis import example, given
from hypothesis import strategies as st

from grushin import cli, perturb
from grushin._linetext import line_dicts, report_json
from grushin.assembler import AssembledSpectrum, _cluster, assemble
from grushin.cli import _build_parser, parse_angle, parse_bump, run
from grushin.core import SEPARATION, CallableProfile, Potential, parse_potential


_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_ROOT / "src")


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_angle_grammar():
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("2pi/5") == pytest.approx(2 * math.pi / 5)
    assert parse_angle("0.75") == 0.75
    with pytest.raises(Exception):
        parse_angle("two pi")


def test_bump_grammar():
    bump = parse_bump("-1,1,0.2,0.5")
    assert bump.support == (-1.2, 1.2)
    assert bump(0.0) == pytest.approx(0.5)


def test_spectrum_csv_matches_schema(capsys):
    code, out, err = run_capture(capsys, [
        "spectrum", "--potential", "shifted:s2=0", "--emax", "10",
        "--mode", "exact", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,multiplicity,contributors"
    row3 = [ln for ln in lines if ln.startswith("3.0,")][0]
    assert row3 == "3.0,4,-1:1;1:1;-3:0;3:0"


def test_spectrum_json_embeds_config_and_version(capsys):
    code, out, _ = run_capture(capsys, [
        "spectrum", "--potential", "shifted:s2=0", "--emax", "5",
        "--mode", "exact"])
    assert code == 0
    payload = json.loads(out)
    assert payload["version"]
    assert payload["config"]["command"] == "spectrum"
    assert payload["config"]["emax"] == 5.0
    for key in ("workers", "seed", "quad_rel"):
        assert key not in payload["config"]
    assert [line["mult"] for line in payload["lines"]] == [2, 2, 4, 2, 4]


def test_concentration_certificate_value(capsys):
    code, out, _ = run_capture(capsys, [
        "concentration", "--s2", "irr:sqrt2", "--emax", "50",
        "--a", "0", "--b", "3.14159265358979"])
    assert code == 0
    payload = json.loads(out)
    assert payload["c_min"] == pytest.approx(0.5, abs=1e-12)
    assert payload["strip"]["b"] == pytest.approx(math.pi, abs=1e-10)


def test_weyl_residual_window(capsys):
    code, out, _ = run_capture(capsys, [
        "weyl", "--s2", "0", "--emax", "1e4", "--samples", "2", "--format", "csv"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    for row in rows:
        residual = float(row.split(",")[2])
        assert 0.0 <= residual <= 3.0


def test_multiplicity_subcommand(capsys):
    code, out, _ = run_capture(capsys, [
        "multiplicity", "--s2", "0", "--value", "45"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mult"] == 12
    assert payload["factorization_mult"] == 12

    code, out, _ = run_capture(capsys, [
        "multiplicity", "--s2", "irr:sqrt2", "--lin", "1", "--quad", "1"])
    assert code == 0
    assert json.loads(out)["mult"] == 2


@pytest.mark.parametrize("argv, flag, message", [
    (["--s2", "0", "--value", "45", "--lin", "3", "--quad", "1"], "lin",
     "--lin does not apply to a rational --s2"),
    (["--s2", "irr:sqrt2", "--lin", "15", "--quad", "9", "--value", "7"], "value",
     "--value does not apply to an irrational --s2"),
    (["--s2", "0"], None, "missing required --value"),
    (["--s2", "irr:sqrt2", "--lin", "15"], None, "missing required --quad"),
])
def test_multiplicity_reads_value_or_coordinates(tmp_path, capsys, argv, flag, message):
    # a rational s2 reads --value only, an irrational one --lin and --quad
    # only, whether the other flags come on the command line or in a config file
    code, out, err = run_capture(capsys, ["multiplicity"] + argv)
    assert (code, out, err) == (2, "", f'error: code=usage msg="{message}"\n')
    if flag is not None:
        at = argv.index(f"--{flag}")
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({flag: argv[at + 1]}), encoding="utf-8")
        rest = argv[:at] + argv[at + 2:]
        code, out, err = run_capture(capsys, ["multiplicity", "--config", str(conf)] + rest)
        assert (code, out, err) == (2, "", f'error: code=usage msg="{message}"\n')


@pytest.mark.parametrize("argv, rows", [
    (["--s2", "0", "--value", "15"], ["15.0,8,-1:7;1:7;-3:2;3:2;-5:1;5:1;-15:0;15:0"]),
    (["--s2", "1/2", "--value", "7/2"], ["3.5,2,-1:1;1:1"]),
    (["--s2", "0", "--value", "5/2"], ["2.5,0,"]),  # off the lattice
    (["--s2", "irr:sqrt2", "--lin", "15", "--quad", "9"], ["27.72792206135786,2,-3:2;3:2"]),
], ids=["s2=0", "s2=1/2", "off-lattice", "sqrt2"])
def test_multiplicity_csv(capsys, argv, rows):
    code, out, err = run_capture(capsys, ["multiplicity", *argv, "--format", "csv"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["value,multiplicity,contributors"] + rows


@pytest.mark.parametrize("flags, error", [
    (["--lin", "99999999999999999999999", "--quad", "1"],
     "lin = 99999999999999999999999 exceeds the 64-bit guard"),
    (["--lin", "3", "--quad", str(10**38)], f"quad = {10**38} exceeds the 64-bit guard"),
], ids=["lin", "quad"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_multiplicity_pair_past_64_bits_is_single_line_exit_1(capsys, flags, error, fmt):
    code, out, err = run_capture(capsys, ["multiplicity", "--s2", "irr:sqrt2", *flags,
                                          "--format", fmt])
    assert (code, out, err) == (1, "", f'error: code=IntegerOverflowError msg="{error}"\n')


def test_solve1d_csv(capsys):
    # V = x^2, mode 2: the levels are 2 (2n + 1)
    code, out, err = run_capture(capsys, [
        "solve1d", "--potential", "power:gamma=1", "--k", "2", "--m", "3", "--format", "csv"])
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "k,n,lambda,err_est"
    assert len(rows) == 3
    for n, row in enumerate(rows):
        k, level, lam, err_est = row.split(",")
        assert (k, level) == ("2", str(n))
        assert 0 < float(err_est) < 1e-6
        assert abs(float(lam) - 2 * (2 * n + 1)) <= float(err_est)


def test_solve1d_json(capsys):
    code, out, _ = run_capture(capsys, [
        "solve1d", "--potential", "power:gamma=1", "--k", "1", "--m", "3"])
    assert code == 0
    payload = json.loads(out)
    lams = [level["lambda"] for level in payload["levels"]]
    assert lams == pytest.approx([1.0, 3.0, 5.0], rel=1e-6)


def test_torus_spectrum_at_default_tolerance(capsys):
    code, out, err = run_capture(capsys, [
        "spectrum", "--potential", "torus:gamma=1", "--emax", "4"])
    assert code == 0, err
    assert json.loads(out)["lines"]


def test_usage_errors_are_single_line_exit_2(capsys):
    code, out, err = run_capture(capsys, ["spectrum", "--emax", "5"])
    assert code == 2
    assert err.startswith("error: code=usage")
    assert "\n" not in err.strip()

    code, _, err = run_capture(capsys, ["nonsense"])
    assert code == 2

    code, _, err = run_capture(capsys, [])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["weyl", "--s2", "0", "--emax", "10", "--samples", "0"], "samples must be >= 1"),
    (["concentration", "--s2", "irr:sqrt2", "--emax", "10", "--a", "0", "--b", "pi/0"],
     "zero denominator in angle 'pi/0'"),
    (["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0", "--bump=-1,1"],
     "bump must be 'a,b,eps[,scale]', got '-1,1'"),
    (["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
      "--bump=-1,1,x"], "bad number in bump '-1,1,x'"),
    (["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0,a",
      "--tmax", "0.01", "--bump=-1,1,0.2"], "bad level list '0,a'"),
    (["weyl", "--config", "{missing}"], "cannot read config '{missing}': "),
    (["weyl", "--config", "{listed}"], "config file must hold a JSON object"),
], ids=["samples", "angle", "bump-count", "bump-number", "levels", "unreadable-config",
        "config-list"])
def test_malformed_inputs_are_single_line_exit_2(tmp_path, capsys, argv, message):
    listed = tmp_path / "listed.json"
    listed.write_text('["s2", "0"]', encoding="utf-8")
    paths = {"missing": str(tmp_path / "missing.json"), "listed": str(listed)}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f'error: code=usage msg="{message.format(**paths)}')
    assert err.count("\n") == 1


# CSV tables the refusal tests read, by name
_TABLES = {"header": "x,w\n-1,1\n1,1\n", "columns": "x,v\n-1,1,2\n1,1\n",
           "number": "x,v\n-1,abc\n1,1\n", "single": "x,v\n0,1\n",
           "blank": "x,v\n-1,1\n\n1,1\n"}


def _solve1d(spec: str) -> list[str]:
    return ["solve1d", "--potential", spec, "--k", "1", "--m", "1"]


@pytest.mark.parametrize("argv, error", [
    (["solve1d", "--potential", "power:gamma=1", "--k", "1", "--m", "0"],
     'PreconditionError msg="m must be >= 1"'),
    (["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0",
      "--tmax", "0.05", "--steps", "0", "--bump=-1,1,0.2"],
     'PreconditionError msg="steps must be >= 1"'),
    (["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels=-1,0",
      "--tmax", "0.05", "--bump=-1,1,0.2"], 'PreconditionError msg="levels must be nonnegative"'),
    (["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "-1",
      "--bump=-1,1,0.2,0.2"], 'PreconditionError msg="m must be >= 0"'),
    (["perturb", "continuity", "--potential", "power:gamma=1", "--k", "1", "--m", "-1",
      "--bump=-2,2,0.5"], 'PreconditionError msg="m must be >= 0"'),
    (["multiplicity", "--s2", "1", "--value", "0"],
     'PreconditionError msg="eigenvalues are positive"'),
    (["multiplicity", "--s2", "1", "--value=-3"],
     'PreconditionError msg="eigenvalues are positive"'),
    (_solve1d("shifted:s2=-1"), 'PotentialSyntaxError msg="s2 must be >= 0 (at position 11)"'),
    (_solve1d("power:gamma"),
     'PotentialSyntaxError msg="expected key=value, got \'gamma\' (at position 6)"'),
    (_solve1d("power:"), 'PotentialSyntaxError msg="expected key=value, got \'\' (at position 6)"'),
    (_solve1d("shifted:"),
     'PotentialSyntaxError msg="expected key=value, got \'\' (at position 8)"'),
    (_solve1d("power:gamma=1,gamma=2"),
     'PotentialSyntaxError msg="duplicate key \'gamma\' (at position 14)"'),
    (_solve1d("table:"), 'PotentialSyntaxError msg="missing table path (at position 6)"'),
    (_solve1d("table:{blank}"), 'PotentialSyntaxError msg="missing ext (at position 6)"'),
    (_solve1d("table:{header},ext=1"),
     'PotentialSyntaxError msg="table \'{header}\' must start with header \'x,v\' (at position 0)"'),
    (_solve1d("table:{columns},ext=1"), 'PotentialSyntaxError msg="table \'{columns}\' line 2: '
     'expected two columns (at position 0)"'),
    (_solve1d("table:{number},ext=1"),
     'PotentialSyntaxError msg="table \'{number}\' line 2: bad number (at position 0)"'),
    (_solve1d("table:{single},ext=1"), 'PotentialSyntaxError msg="sampled potential needs at '
     'least two nodes (at position 6)"'),
    *[(["weyl", "--s2", "0", f"--emax={value}"], f'PreconditionError msg="e_max must be {word}"')
      for value, word in (("nan", "positive"), ("inf", "finite"), ("-inf", "positive"),
                          ("0", "positive"), ("-1", "positive"))],
    # inf * 0 is nan, which the step-size preconditions refuse by name
    (["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0",
      "--tmax", "inf", "--steps", "2", "--bump=-1,1,0.2,0"],
     'PreconditionError msg="t_max * k^2 * sup(base*W) = nan must stay below kappa/2 = '),
    (["perturb", "split", "--s2", "1", "--value", "6", "--t", "inf", "--bump=-1,1,0.2,0"],
     'PreconditionError msg="t too large for mode k=1: t*k^2*sup = nan exceeds half the mode '
     'spacing 1"'),
], ids=["solve1d-m", "steps", "levels", "gap-m", "continuity-m", "value-0", "value-negative",
        "s2-negative", "no-value", "power-empty", "shifted-empty", "duplicate", "no-path",
        "no-ext", "header", "columns", "number", "single-node", "weyl-nan", "weyl-inf",
        "weyl-minus-inf", "weyl-0", "weyl-negative", "branch-zero-bump", "split-zero-bump"])
def test_refusals_name_their_cause(tmp_path, capsys, argv, error):
    # one line, exit 1; a message without its closing quote ends in a solver figure
    paths = {}
    for name, text in _TABLES.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(text, encoding="utf-8")
    code, out, err = run_capture(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: code={error.format(**paths)}") and err.count("\n") == 1


def test_table_with_a_blank_row_answers(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text(_TABLES["blank"], encoding="utf-8")
    code, out, err = run_capture(capsys, _solve1d(f"table:{path},ext=2"))
    assert (code, err) == (0, "")
    assert len(json.loads(out)["levels"]) == 1


@pytest.mark.parametrize("b, code, error", [
    ("pi/0", 2, 'error: code=usage msg="zero denominator in angle'),
    ("0", 1, 'error: code=InvariantViolation msg="need -pi <= a < b <= pi'),
], ids=["bad-angle", "empty-strip"])
def test_concentration_refuses_the_strip_before_assembling(monkeypatch, capsys, b, code, error):
    # at e_max 1e6 the assembly alone takes seconds; a bad strip must not wait for it
    def spy(*args, **kwargs):
        raise AssertionError("assemble ran before the strip was checked")

    monkeypatch.setattr(cli, "assemble", spy)
    got, out, err = run_capture(capsys, ["concentration", "--s2", "0", "--emax", "1e6",
                                         "--a", "0", "--b", b])
    assert (got, out) == (code, "")
    assert err.startswith(error)
    assert err.count("\n") == 1


def test_torus_branch_refuses_a_grid_past_the_dense_cap(monkeypatch, capsys):
    # every circle step is a dense solve: the refusal follows the base solve,
    # before the t = 0 setup solves anything on the 5,120-node tracking grid
    def spy(*args, **kwargs):
        raise AssertionError("the t = 0 setup ran past the dense cap")

    monkeypatch.setattr(perturb, "solve_on_grid", spy)
    code, out, err = run_capture(capsys, [
        "perturb", "branch", "--potential", "torus:gamma=1", "--k", "1", "--levels", "32",
        "--tmax", "1e-3", "--steps", "2", "--bump=0.5,1.5,0.2,1e-12"])
    assert (code, out) == (1, "")
    assert err == ('error: code=PreconditionError msg="the tracking grid has 5120 nodes, but '
                   'each circle step is a dense solve, capped at 4096 nodes"\n')


_POWER = ["--potential", "power:gamma=1", "--k", "1"]
_NOT_A_POTENTIAL = 'PotentialSyntaxError msg="expected \'<kind>:<args>\' (at position 5)"'
_NOT_A_SCALAR = ('PotentialSyntaxError msg="bad exact scalar \'bogus\': invalid literal for '
                 'int() with base 10: \'bogus\' (at position 0)"')
_EMPTY_BUMP = 'PreconditionError msg="need a < b, got a=1.0, b=0.0"'


@pytest.mark.parametrize("argv, code, error", [
    (["spectrum", "--potential", "bogus", "--emax", "4", "--eig-rel", "nan"], 1,
     _NOT_A_POTENTIAL),
    (["weyl", "--s2", "bogus", "--emax", "100", "--samples", "0"], 1, _NOT_A_SCALAR),
    (["multiplicity", "--s2", "bogus", "--value", "x"], 1, _NOT_A_SCALAR),
    (["concentration", "--s2", "bogus", "--emax", "10", "--a", "x", "--b", "y"], 1,
     _NOT_A_SCALAR),
    (["solve1d", "--potential", "bogus", "--k", "1", "--m", "1", "--eig-rel", "nan"], 1,
     _NOT_A_POTENTIAL),
    (["check", "property-p", "--potential", "bogus", "--n", "2", "--krange", "2",
      "--eig-rel", "nan"], 1, _NOT_A_POTENTIAL),
    (["perturb", "hf", "--potential", "bogus", "--k", "1", "--n", "0", "--bump=x"], 1,
     _NOT_A_POTENTIAL),
    (["perturb", "branch", *_POWER, "--levels", "x", "--tmax", "0.1", "--bump=x",
      "--eig-rel", "nan"], 2, "usage msg=\"bump must be 'a,b,eps[,scale]', got 'x'\""),
    (["perturb", "split", "--s2", "1", "--value", "x", "--t", "0.05", "--bump=1,0,0.2",
      "--eig-rel", "nan"], 1, _EMPTY_BUMP),
    (["perturb", "gap", *_POWER, "--m", "1", "--bump=1,0,0.2", "--eig-rel", "nan"], 1,
     _EMPTY_BUMP),
    (["perturb", "continuity", *_POWER, "--m", "1", "--count", "0", "--bump=-2,2,0.5",
      "--eig-rel", "nan"], 1, 'InvariantViolation msg="eig_rel must lie in (0, 1)"'),
], ids=["spectrum", "weyl", "multiplicity", "concentration", "solve1d", "check", "hf",
        "branch", "split", "gap", "continuity"])
def test_two_bad_flags_report_the_first_parsed(capsys, argv, code, error):
    # the runner parses --potential, --s2, --bump and --eig-rel in that
    # order, before the command reads any other flag
    got, out, err = run_capture(capsys, argv)
    assert (got, out, err) == (code, "", f"error: code={error}\n")


@pytest.mark.parametrize("argv, code", [
    (["weyl", "--s2", "0", "--emax", "100"], 0),
    (["spectrum"], 2),
])
def test_main_exits_with_the_run_code(monkeypatch, capsys, argv, code):
    # the console-script entry point, as users run it
    monkeypatch.setattr(sys, "argv", ["grushin", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert bool(out) == (code == 0) and bool(err) == (code == 2)


@pytest.mark.parametrize("argv", [
    ["weyl", "--s2=-1", "--emax", "5"],
    ["multiplicity", "--s2=-1/10", "--value", "3"],
    ["concentration", "--s2=-1/10", "--emax", "50", "--a", "0", "--b", "pi/2"],
    ["concentration", "--s2=-1/10", "--emax", "2", "--a", "0", "--b", "pi/2"],
    ["perturb", "split", "--s2=-1", "--value", "6", "--t", "0.05", "--bump=-1,1,0.2"],
])
def test_negative_s2_is_single_line_exit_1(capsys, argv):
    # its levels fall without bound as |k| grows, so no cap holds finitely many
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith('error: code=PreconditionError msg="s2 must be >= 0; at s2 = -1')
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["weyl", "--s2", "-1/2", "--emax", "10"],
     "s2 must be >= 0; at s2 = -1/2 the levels (2n+1)|k| + k^2 s2 fall without bound as |k| grows"),
    (["weyl", "--s2", "0", "--emax", "-1e3"], "e_max must be positive"),
    (["perturb", "split", "--s2", "1", "--value", "6", "--t", "-1e-3", "--bump=-1,1,0.2"],
     "t must be >= 0"),
    (["multiplicity", "--s2", "0", "--value", "-3/2"], "eigenvalues are positive"),
], ids=["weyl-s2", "weyl-emax", "split-t", "multiplicity-value"])
def test_negative_value_as_a_separate_argument_reaches_its_refusal(capsys, argv, message):
    # an argument that starts with "-" and a digit is a value, not an option:
    # the same refusal as the --flag=value form, not a usage error
    code, out, err = run_capture(capsys, argv)
    assert (code, out, err) == (1, "", f'error: code=PreconditionError msg="{message}"\n')
    i = next(i for i, arg in enumerate(argv) if arg[:1] == "-" and arg[1:2].isdigit())
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    assert run_capture(capsys, joined) == (code, out, err)


def test_bump_as_a_separate_argument_answers(capsys):
    argv = ["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0"]
    separate = run_capture(capsys, argv + ["--bump", "-1,1,0.2"])
    assert separate[0] == 0
    assert separate == run_capture(capsys, argv + ["--bump=-1,1,0.2"])


def test_potential_syntax_error_exit_code(capsys):
    code, _, err = run_capture(capsys, [
        "spectrum", "--potential", "power:gamma=nope", "--emax", "5"])
    assert code == 1
    assert err.startswith("error: code=PotentialSyntaxError")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "shifted:s2=0", "--emax", "inf", "--mode", "exact"],
    ["spectrum", "--potential", "power:gamma=1", "--emax", "inf"],
    ["concentration", "--s2", "0", "--emax", "inf", "--a", "0", "--b", "1"],
    ["weyl", "--s2", "0", "--emax", "inf", "--samples", "1"],
])
def test_infinite_cap_is_single_line_exit_1(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: code=PreconditionError msg=")
    assert "must be finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["multiplicity", "--s2", "0", "--value", "abc"],
    ["multiplicity", "--s2", "0", "--value", "1/0"],
    ["multiplicity", "--s2", "0", "--value", "inf"],
    ["perturb", "split", "--s2", "0", "--value", "x", "--t", "0.1", "--bump", "0,1,0.2"],
])
def test_bad_value_is_usage_error(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith('error: code=usage msg="bad value')
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
     "--bump=-1,1,0.2,nan"],
    ["perturb", "continuity", "--potential", "power:gamma=1", "--k", "1", "--m", "0",
     "--bump=-1,inf,0.2"],
    ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
     "--bump=-1,1,0.2,nan"],
    ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
     "--bump=-1,inf,0.2"],
    # W is not wrapped, so a torus bump past pi is refused, not cut off
    ["perturb", "hf", "--potential", "torus:gamma=1", "--k", "1", "--n", "0",
     "--bump=4,5,0.2"],
])
def test_non_finite_bump_is_single_line_exit_1(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert out == ""
    message = ("torus bump support [3.8, 5.2] must lie in [-pi, pi]"
               if "torus:gamma=1" in argv else "bump numbers must be finite")
    assert err == f'error: code=PreconditionError msg="{message}"\n'


# one small run of each subcommand and experiment
_SMALL_RUNS = {
    "spectrum": ["spectrum", "--potential", "power:gamma=1", "--emax", "4", "--mode", "numeric"],
    "weyl": ["weyl", "--s2", "0", "--emax", "100"],
    "concentration": ["concentration", "--s2", "irr:golden", "--emax", "50", "--a", "0",
                      "--b", "pi/2"],
    "solve1d": ["solve1d", "--potential", "power:gamma=1", "--k", "1", "--m", "2"],
    "check": ["check", "property-p", "--potential", "shifted:s2=1", "--n", "3", "--krange", "3"],
    "hf": ["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
           "--bump=-1,1,0.2"],
    "branch": ["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0",
               "--tmax", "0.05", "--steps", "2", "--bump=-1,1,0.2"],
    "split": ["perturb", "split", "--s2", "1", "--value", "6", "--t", "0.05", "--bump=-1,1,0.2"],
    "gap": ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
            "--bump=-1,1,0.2,0.2"],
    "continuity": ["perturb", "continuity", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
                   "--count", "2", "--bump=-2,2,0.5"],
}


@pytest.mark.parametrize("name, flag, value", [
    (name, flag, value)
    for name, (_, flags) in {**cli._COMMANDS, **cli._EXPERIMENTS}.items()
    for flag, (kind, _) in flags.items() if kind is float
    for value in ("nan", "inf", "-inf")])
def test_non_finite_number_flags_never_escape(capsys, name, flag, value):
    # every float flag of every subcommand and experiment: an exit code and at
    # most one error line, never a traceback; an infinite report window
    # reports every pair
    argv = _SMALL_RUNS[name] + [f"--{flag.replace('_', '-')}={value}"]
    code, out, err = run_capture(capsys, argv)
    if (flag, value) == ("cluster_abs", "inf"):
        assert (code, err) == (0, "")
        return
    assert (code, out) == (1, "")
    assert err.startswith("error: code=") and err.count("\n") == 1
    if flag == "eig_rel":
        assert err == 'error: code=InvariantViolation msg="eig_rel must lie in (0, 1)"\n'
    if flag == "t" and value != "inf":
        assert err == 'error: code=PreconditionError msg="t must be >= 0"\n'


def test_hf_negative_level_names_n(capsys):
    code, out, err = run_capture(capsys, ["perturb", "hf", "--potential", "power:gamma=1",
                                          "--k", "1", "--n", "-1", "--bump=-1,1,0.2"])
    assert (code, out) == (1, "")
    assert err == 'error: code=PreconditionError msg="n must be >= 0"\n'


# V = exp(1000 x^2) on the circle overflows to inf on the grid away from x = 0
_OVERFLOWING = Potential("torus", 1.0, CallableProfile(lambda x: np.exp(1e3 * np.asarray(x) ** 2)))


@pytest.mark.parametrize("argv", [
    ["solve1d", "--potential", "overflowing", "--k", "1", "--m", "1"],
    ["spectrum", "--potential", "overflowing", "--emax", "3", "--mode", "numeric"],
    ["check", "property-p", "--potential", "overflowing", "--n", "2", "--krange", "3"],
], ids=["solve1d", "spectrum", "property-p"])
def test_overflowing_potential_is_single_line_exit_1(capsys, monkeypatch, argv):
    # the grammar has no overflowing potential, so the parser hands one over;
    # the grid check refuses it before any LAPACK call
    monkeypatch.setattr(cli, "parse_potential", lambda spec: _OVERFLOWING)
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith('error: code=ConvergenceError msg="k^2 V is not finite on the '
                          'grid over [-L, L] with L = ')
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve1d", "--potential", "power:gamma=50", "--k", "1", "--m", "3"],
    ["spectrum", "--potential", "power:gamma=50", "--emax", "2.2", "--mode", "numeric"],
    ["check", "property-p", "--potential", "power:gamma=50", "--n", "2", "--krange", "3"],
], ids=["solve1d", "spectrum", "property-p"])
def test_steep_power_answers_against_shooting(capsys, argv):
    # V = x^100 rises from 1 to 4e17 between x = 1 and 1.5; the domain the
    # action rule gives ends at L = 1.151, where eps V is 2.9e-10, below 1e-9 E
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    if argv[0] == "solve1d":
        levels = [(lv["n"], lv["lambda"], lv["err_est"]) for lv in report["levels"]]
    elif argv[0] == "spectrum":
        # mode k is mode 1 scaled by k^(2/51): 2.105, 2.163 and 2.198 lie below 2.2
        assert [line["contributors"] for line in report["lines"]] == [
            [{"k": -k, "n": 0}, {"k": k, "n": 0}] for k in (1, 2, 3)]
        levels = [(0, report["lines"][0]["value"], 1e-7 * 2.2)]
    else:
        assert report["verdict"] == "PASS"
        return
    for n, lam, err in levels:
        ref = shooting_level(50.0, 1, n, (0.999 * lam, 1.001 * lam))
        assert abs(lam - ref) <= err, (n, lam, ref, err)


@pytest.mark.parametrize("argv", [
    ["perturb", "branch", "--potential", "torus:gamma=1", "--k", "2", "--levels", "0,1",
     "--tmax", "0.5", "--bump", "0.5,1.5,0.2"],
    ["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0",
     "--tmax", "5", "--bump=-1,1,0.2"],
    ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
     "--bump=-1,1,0.2,50"],
    ["perturb", "split", "--s2", "1", "--value", "6", "--t", "5", "--bump=-1,1,0.2"],
    ["solve1d", "--potential", "power:gamma=1", "--k", "1", "--m", "1", "--eig-rel", "1e-15"],
    ["solve1d", "--potential", "power:gamma=50", "--k", "1", "--m", "1", "--eig-rel", "1e-12"],
    ["spectrum", "--potential", "power:gamma=50", "--emax", "3", "--mode", "numeric",
     "--eig-rel", "1e-12"],
])
def test_error_messages_print_plain_numbers(capsys, argv):
    # numbers in diagnostics print as Python floats, never as np.float64(...)
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: code=") and err.count("\n") == 1
    assert "np." not in err


def test_perturb_continuity_without_bumps_is_an_error(capsys):
    code, out, err = run_capture(capsys, [
        "perturb", "continuity", "--potential", "power:gamma=1", "--k", "1",
        "--m", "0", "--count", "0", "--bump=-2,2,0.5"])
    assert code == 1
    assert out == ""
    assert err.startswith('error: code=PreconditionError msg="empty bump sequence')
    assert err.count("\n") == 1


def test_undecided_exit_3(capsys):
    # V = x^2 numerically: collision at 3 between modes 1 and 3 cannot be
    # certified either way
    code, out, _ = run_capture(capsys, [
        "check", "property-p", "--potential", "power:gamma=1",
        "--n", "2", "--krange", "3"])
    assert code == 3
    assert json.loads(out)["verdict"] == "UNDECIDED"


def test_exact_fail_is_exit_0(capsys):
    code, out, _ = run_capture(capsys, [
        "check", "property-p", "--potential", "shifted:s2=0",
        "--n", "3", "--krange", "3"])
    assert code == 0
    assert json.loads(out)["verdict"] == "FAIL"


def test_perturb_hf_payload(capsys):
    code, out, _ = run_capture(capsys, [
        "perturb", "hf", "--potential", "power:gamma=1",
        "--k", "1", "--n", "0", "--bump=-1,1,0.2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "hf"
    assert len(payload["slopes"]) == 1
    assert payload["slopes"][0] > 0


def test_perturb_split_payload(capsys):
    code, out, _ = run_capture(capsys, [
        "perturb", "split", "--s2", "1", "--value", "6", "--t", "0.05",
        "--bump=-1,1,0.2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "SEPARATED"
    assert payload["gap"] > 0


def test_perturb_branch_payload(capsys):
    code, out, _ = run_capture(capsys, [
        "perturb", "branch", "--potential", "power:gamma=1", "--k", "1",
        "--levels", "0,1", "--tmax", "0.1", "--steps", "4", "--bump=-1,1,0.2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "branch"
    assert len(payload["t_grid"]) >= 5
    assert len(payload["lambdas"]) == 2
    assert len(payload["slopes"]) == 2
    # branches drift upward at roughly the derivative rate
    for lams, slope in zip(payload["lambdas"], payload["slopes"]):
        assert lams[-1] >= lams[0]
        drift = (lams[-1] - lams[0]) / payload["t_grid"][-1]
        assert drift == pytest.approx(slope, rel=0.2, abs=1e-6)


def test_perturb_gap_payload(capsys):
    code, out, _ = run_capture(capsys, [
        "perturb", "gap", "--potential", "power:gamma=1", "--k", "1",
        "--m", "1", "--bump=-1,1,0.2,0.2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["gap"] == pytest.approx(2.0, rel=1e-4)
    assert payload["inputs"]["j_plus"][0] > payload["inputs"]["lambda_m"]


def test_perturb_continuity_payload(capsys):
    code, out, _ = run_capture(capsys, [
        "perturb", "continuity", "--potential", "power:gamma=1", "--k", "1",
        "--m", "0", "--count", "2", "--bump=-2,2,0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["gap"] >= 0.0


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"potential": "shifted:s2=0", "emax": 5.0,
                                "mode": "exact", "format": "csv"}),
                    encoding="utf-8")
    code, out, _ = run_capture(capsys, ["spectrum", "--config", str(conf)])
    assert code == 0
    assert out.startswith("value,multiplicity")
    # flags override the file
    code, out2, _ = run_capture(capsys, [
        "spectrum", "--config", str(conf), "--emax", "3"])
    assert code == 0
    assert len(out2.strip().split("\n")) == 4  # header + lines 1, 2, 3


_SOLVE1D = ["solve1d", "--potential", "power:gamma=1", "--k", "1", "--m", "2"]


def test_config_key_without_flag_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"eig_rell": 1e-12}), encoding="utf-8")
    code, out, err = run_capture(capsys, _SOLVE1D + ["--config", str(conf)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=usage")
    assert "eig_rell" in err


@pytest.mark.parametrize("argv, key", [
    (["weyl", "--s2", "0", "--emax", "10"], "command"),
    (["check", "property-p", "--potential", "shifted:s2=0", "--n", "3", "--krange", "3"],
     "target"),
    (_SOLVE1D, "config"),
    (["perturb", "hf"], "experiment"),
])
def test_config_key_naming_no_flag_is_usage_error(tmp_path, capsys, argv, key):
    # the subcommand and its positionals come from the command line only
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({key: "x"}), encoding="utf-8")
    code, out, err = run_capture(capsys, argv + ["--config", str(conf)])
    head = " ".join(argv[:2 if argv[0] == "perturb" else 1])
    assert (code, out) == (2, "")
    assert err == f'error: code=usage msg="config key {key!r} matches no flag of {head}"\n'


def test_config_value_parsed_as_its_flag(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"eig_rel": "1e-9"}), encoding="utf-8")
    code, out, _ = run_capture(capsys, _SOLVE1D + ["--config", str(conf)])
    assert code == 0
    code, by_flag, _ = run_capture(capsys, _SOLVE1D + ["--eig-rel", "1e-9"])
    assert code == 0
    assert out == by_flag


@pytest.mark.parametrize("entry", [{"eig_rel": "tight"}, {"format": "xml"}, {"k": 1.5}])
def test_config_value_rejected_like_its_flag(tmp_path, capsys, entry):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps(entry), encoding="utf-8")
    code, out, err = run_capture(capsys, _SOLVE1D + ["--config", str(conf)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=usage")


def test_output_file_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["spectrum", "--potential", "power:gamma=1", "--emax", "4",
            "--mode", "numeric"]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--seed", "1"], ["--quad-rel", "1e-9"]])
def test_removed_flags_are_usage_errors(capsys, flag):
    code, out, err = run_capture(capsys, [
        "spectrum", "--potential", "shifted:s2=0", "--emax", "5"] + flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=usage")


def test_csv_rejected_for_report_commands(capsys):
    # JSON-only commands have no --format flag
    code, out, err = run_capture(capsys, [
        "concentration", "--s2", "irr:sqrt2", "--emax", "10",
        "--a", "0", "--b", "pi", "--format", "csv"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --format csv" in err


_HF = ["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
       "--bump=-1,1,0.2"]
_BRANCH = ["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0",
           "--tmax", "0.01", "--steps", "2", "--bump=-1,1,0.2"]
_SPLIT = ["perturb", "split", "--s2", "1", "--value", "6", "--t", "0.05", "--bump=-1,1,0.2"]
_GAP = ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
        "--bump=-1,1,0.2,0.2"]
_CONTINUITY = ["perturb", "continuity", "--potential", "power:gamma=1", "--k", "1",
               "--m", "0", "--count", "2", "--bump=-2,2,0.5"]


@pytest.mark.parametrize("command, flag", [
    (["weyl", "--s2", "0", "--emax", "10"], ["--eig-rel", "1e-9"]),
    (["weyl", "--s2", "0", "--emax", "10"], ["--cluster-abs", "1e-2"]),
    (["multiplicity", "--s2", "0", "--value", "45"], ["--eig-rel", "1e-9"]),
    (["multiplicity", "--s2", "0", "--value", "45"], ["--cluster-abs", "1e-2"]),
    (["concentration", "--s2", "0", "--emax", "10", "--a", "0", "--b", "1"],
     ["--eig-rel", "1e-9"]),
    (["concentration", "--s2", "0", "--emax", "10", "--a", "0", "--b", "1"],
     ["--cluster-abs", "1e-2"]),
    (_SOLVE1D, ["--cluster-abs", "1e-2"]),
    (["check", "property-p", "--potential", "shifted:s2=0", "--n", "3", "--krange", "3"],
     ["--format", "json"]),
    (["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
      "--bump=-1,1,0.2"], ["--format", "json"]),
    (["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
      "--bump=-1,1,0.2"], ["--cluster-abs", "1e-2"]),
    (_HF, ["--steps", "8"]),
    (_HF, ["--s2", "1"]),
    (_HF, ["--m", "1"]),
    (_BRANCH, ["--n", "0"]),
    (_BRANCH, ["--count", "3"]),
    (_SPLIT, ["--potential", "power:gamma=1"]),
    (_SPLIT, ["--k", "1"]),
    (_GAP, ["--n", "0"]),
    (_GAP, ["--count", "3"]),
    (_CONTINUITY, ["--t", "0.1"]),
    (_CONTINUITY, ["--levels", "0,1"]),
    (["spectrum", "--potential", "power:gamma=1", "--emax", "5"], ["--cluster-abs", "1e-2"]),
])
def test_unread_shared_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # a subcommand, and each perturb experiment, takes only the flags it
    # reads, by flag or config key
    code, out, err = run_capture(capsys, command + flag)
    assert code == 2
    assert out == ""
    assert err.startswith('error: code=usage msg="unrecognized arguments')
    conf = tmp_path / "run.json"
    key = flag[0][2:].replace("-", "_")
    conf.write_text(json.dumps({key: flag[1]}), encoding="utf-8")
    code, out, err = run_capture(capsys, command + ["--config", str(conf)])
    assert code == 2
    assert out == ""
    assert f"config key {key!r} matches no flag" in err


_CHECK_S2_0 = ["check", "property-p", "--potential", "shifted:s2=0", "--n", "12",
               "--krange", "12"]


def test_check_keeps_its_report_window(tmp_path, capsys):
    # --cluster-abs is the property-P report window, by flag or config key
    code, by_flag, err = run_capture(capsys, _CHECK_S2_0 + ["--cluster-abs", "1e-2"])
    assert (code, err) == (0, "")
    assert json.loads(by_flag)["config"]["cluster_abs"] == 1e-2
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"cluster_abs": 1e-2}), encoding="utf-8")
    code, by_file, _ = run_capture(capsys, _CHECK_S2_0 + ["--config", str(conf)])
    assert code == 0
    assert by_file == by_flag
    code, out, err = run_capture(capsys, _CHECK_S2_0 + ["--cluster-abs", "0"])
    assert (code, out) == (1, "")
    assert err == 'error: code=InvariantViolation msg="cluster_abs must be strictly positive"\n'


def test_check_names_a_pair_inside_its_error_bound(capsys):
    # at eig_rel 1e-2 the bound of (4, 2) and (11, 1) of x^4 (4.0e-2) exceeds
    # both their gap (6.3e-3) and the report window: the pair is UNDECIDED
    code, out, _ = run_capture(capsys, ["check", "property-p", "--potential", "power:gamma=2",
                                        "--n", "4", "--krange", "16", "--eig-rel", "1e-2"])
    report = json.loads(out)
    assert (code, report["verdict"]) == (3, "UNDECIDED")
    (pair,) = [r for r in report["collisions"] if (r["k"], r["i"], r["l"], r["j"]) == (4, 2, 11, 1)]
    assert pair["status"] == "UNDECIDED"
    assert 1e-3 < pair["gap"] <= pair["err_bound"]


@pytest.mark.parametrize("command, embedded", [
    (_HF, set()), (_BRANCH, {"steps"}), (_SPLIT, set()), (_GAP, set()),
    (_CONTINUITY, {"count"}),
])
def test_perturb_reports_embed_only_read_keys(capsys, command, embedded):
    code, out, _ = run_capture(capsys, command)
    assert code == 0
    assert {"steps", "count"} & set(json.loads(out)["config"]) == embedded


def test_perturb_config_file_reaches_the_experiment(tmp_path, capsys):
    # config entries are parsed as flags of the experiment, not of perturb
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"potential": "power:gamma=1", "k": 1, "n": 0,
                                "bump": "-1,1,0.2", "eig-rel": 1e-8}), encoding="utf-8")
    code, by_file, _ = run_capture(capsys, ["perturb", "hf", "--config", str(conf)])
    assert code == 0
    code, by_flag, _ = run_capture(capsys, _HF + ["--eig-rel", "1e-8"])
    assert code == 0
    assert by_file == by_flag


def test_parser_is_built_once():
    # on the first run, not at import
    assert _build_parser() is _build_parser()
    probe = "import grushin.cli\nprint(grushin.cli._build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "0"


# sha256 of stdout: a change to the exact arithmetic must not move these reports
# by a byte
_PINNED_EXACT_REPORTS = [
    (["spectrum", "--potential", "shifted:s2=0", "--emax", "1000", "--mode", "exact",
      "--format", "csv"], "176ccf270850d7b732826fa9c2c866522ef8e9649c71973bf38afd6b7da6f85d"),
    (["spectrum", "--potential", "shifted:s2=irr:sqrt2", "--emax", "700", "--mode", "exact",
      "--format", "csv"], "6cbf4d2dc59dda024b6cbb0e76c3d188ba19043a49636cc4a6fe47724a11ff64"),
    (["spectrum", "--potential", "shifted:s2=5/4", "--emax", "300", "--mode", "exact"],
     "a6ecfab83f5874b19bdd63528f5eb6d15149a4b400b362f6da05d2d9a7634ec1"),
    (["check", "property-p", "--potential", "shifted:s2=3/2", "--n", "8", "--krange", "8"],
     "ec87dfc12a4bdcbc3b94741f17587cbcc1dd021cc6597bcfcaf15f719f48d81f"),
    (["check", "property-p", "--potential", "shifted:s2=irr:golden", "--n", "12",
      "--krange", "12"], "8994dbd93b6cb7429d94f248c2c5e5ddbc662e6ce50554d2f63bc1f1ab876fd3"),
    (["multiplicity", "--s2", "0", "--value", "1155"],
     "1a9f2c1097c4a6484b22078e80d520045a625a561ecb43c72b40d53add18a048"),
    (["concentration", "--s2", "irr:golden", "--emax", "1000", "--a", "0", "--b", "pi/3"],
     "d63246a46fb6fcb8f1c3ec26c86c5f4f745db18bbbbf7695d8559845c3750f18"),
    # spectra written from their columns: JSON beside the CSV above, and an
    # empty spectrum
    (["spectrum", "--potential", "shifted:s2=0", "--emax", "1000", "--mode", "exact"],
     "3f2e73e663a7f25ec1f3349379bebf4fd48f5726ae62cfc1428374b4f8c6f52a"),
    (["spectrum", "--potential", "shifted:s2=irr:sqrt2", "--emax", "700", "--mode", "exact"],
     "315964ed52c68d165985b0ece6c47e9d4aa0ccfdf8e75f507e9bc2791bfa864d"),
    (["spectrum", "--potential", "shifted:s2=5/4", "--emax", "2000", "--mode", "exact",
      "--format", "csv"], "4eb20bbb3883af9f149b852510bcad9ace12949631330a1acaff2c9749f00b59"),
    (["spectrum", "--potential", "shifted:s2=5/4", "--emax", "2000", "--mode", "exact"],
     "5aaf483e5911b83b9f9b042dc60037bf6caea60c8c8169c14685d7b378dc03b4"),
    (["spectrum", "--potential", "shifted:s2=0", "--emax", "0.5", "--mode", "exact",
      "--format", "csv"], "af489f6b5d28b07a4d4591c7da1e4205a27fa95d9d45dcbe756ad3b5a240568b"),
    (["spectrum", "--potential", "shifted:s2=0", "--emax", "0.5", "--mode", "exact"],
     "67ab254392a45c2b23798e67f0d30cb8c7b598ae9c5e2c8fee9e0f4c6ea57215"),
    # multiplicity rows, through the spectrum's row formatter
    (["multiplicity", "--s2", "0", "--value", "945", "--format", "csv"],
     "25768156d16300b072a6dd0186aa5c88b84c5d72c274f37defc59ebb5afa506f"),
    (["multiplicity", "--s2", "0", "--value", "1155", "--format", "csv"],
     "72bf91fdd93863b37289ab5b200557d2e4f58f6ef8ada9881412f167a92e9809"),
    (["multiplicity", "--s2", "5/4", "--value", "6", "--format", "csv"],  # no contributors
     "3217954ab53d99fa7f630261c6841d1bd2533b9a79cd9836875c549add331458"),
    (["multiplicity", "--s2", "irr:sqrt2", "--lin", "9", "--quad", "9", "--format", "csv"],
     "972bf232c3002c489ff17fddab7286b883f1535d38bc22ac41a3aaee476ec9b3"),
    # property P with keys past 2^53 (q = 7^19), and a wide window
    (["check", "property-p", "--potential", "shifted:s2=1/11398895185373143", "--n", "12",
      "--krange", "12"], "c0a78ba01199d30875245dbe9438d811d906944c032ab12fdee7231c4e838d13"),
    (["check", "property-p", "--potential", "shifted:s2=irr:sqrt2", "--n", "12", "--krange",
      "12", "--cluster-abs", "0.5"],
     "af7856ae7c106d9047e92eb2b603d9c2b095c0fe7fb12832b54da0923954af0b"),
    # the s2 = 0 spectrum in the default mode
    (["spectrum", "--potential", "shifted:s2=0", "--emax", "200"],
     "90a21a6afde2533dd962de41044fc58eaed801eecd8c29645326f52ff6e9e9f9"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_EXACT_REPORTS)
def test_exact_reports_are_byte_stable(capsys, argv, digest):
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _columns(lines):
    """Line columns (values, starts, contributors) of (value, [(k, n), ...])
    pairs."""
    starts = np.cumsum([0] + [len(kns) for _, kns in lines])
    return (np.array([value for value, _ in lines], dtype=float), starts,
            np.array([kn for _, kns in lines for kn in kns], dtype=np.int64).reshape(-1, 2))


_int64 = st.integers(-2**63, 2**63 - 1)


@given(st.lists(st.tuples(st.floats(), st.lists(st.tuples(_int64, _int64), max_size=5)),
                max_size=6),
       st.dictionaries(st.sampled_from(["a", "k_cut", "mode", "z"]),
                       st.one_of(st.integers(), st.text(), st.lists(st.text(), max_size=2))))
@example([(1.0, [(-1, 0), (1, 0)])], {"a": '\n  "lines": []'})
@example([], {})
def test_report_json_is_the_indented_dump_of_the_records(lines, rest):
    # any floats (NaN and infinities too), any int64 contributors, lines
    # with none, and other keys of any value around "lines"
    columns = _columns(lines)
    assert report_json({**rest, "lines": columns}) == json.dumps(
        {**rest, "lines": line_dicts(*columns)}, sort_keys=True, indent=2)


def _written_from_the_columns(out: str, spectrum) -> None:
    """``out`` is the indented dump of its own payload, and its lines are the
    records of the spectrum's columns."""
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert payload["lines"] == line_dicts(spectrum.values, spectrum.starts,
                                          spectrum.contributors)
    assert payload["warnings"] == list(spectrum.warnings)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "power:gamma=1", "--emax", "8", "--mode", "numeric"],
    ["spectrum", "--potential", "power:gamma=0.75", "--emax", "4.5", "--mode", "numeric"],
    ["spectrum", "--potential", "shifted:s2=3/2", "--emax", "0.5"],
])
def test_spectrum_json_is_written_from_the_columns(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    _written_from_the_columns(out, assemble(parse_potential(argv[2]), float(argv[4]),
                                            mode=argv[6] if len(argv) > 5 else "auto"))
    if argv[4] == "0.5":  # below the first level
        assert '\n  "lines": [],\n' in out


def test_numeric_spectrum_with_warnings_is_written_from_the_columns(monkeypatch, capsys):
    # a chain a ~ b ~ c clustered into one line, though a and c are certified
    # distinct, beside a line of its own
    a, b, c = 10.0, 10.0 + 1.5 * SEPARATION, 10.0 + 3.0 * SEPARATION
    entries = [(lam, 1.0, sign * k, n) for lam, k, n in ((a, 1, 0), (b, 2, 0), (c, 3, 0),
                                                         (100.0, 1, 4)) for sign in (1, -1)]
    values, starts, contributors, warnings = _cluster(entries)
    assert len(values) == 2 and warnings
    spectrum = AssembledSpectrum(e_max=120.0, values=values, starts=starts,
                                 contributors=contributors, k_cut=3, mode="numeric",
                                 warnings=tuple(warnings))
    monkeypatch.setattr(cli, "assemble", lambda *args, **kwargs: spectrum)
    code, out, err = run_capture(capsys, ["spectrum", "--potential", "power:gamma=1",
                                          "--emax", "120", "--mode", "numeric"])
    assert (code, err) == (0, "")
    _written_from_the_columns(out, spectrum)



@pytest.mark.parametrize("code, loaded", [
    ("import grushin, grushin.cli", []),
    ("import grushin.cli; grushin.cli.run(['weyl', '--s2', '0', '--emax', '1e5'])", []),
    ("import grushin.cli; grushin.cli.run(['solve1d', '--potential', 'power:gamma=1',"
     " '--k', '1', '--m', '2'])", ["scipy.linalg"]),
])
def test_heavy_scipy_modules_load_only_for_numeric_solves(code, loaded):
    # a fresh interpreter: exact-only commands never load LAPACK bindings or
    # scipy.optimize; the first numeric solve loads scipy.linalg
    probe = (f"{code}\nimport json, sys\nprint(json.dumps("
             "[m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == loaded


# one run of every command and experiment: its required flags, in order, and
# multiplicity's value, which it reads for a rational s2
_EXAMPLES = {
    "spectrum": {"potential": "shifted:s2=0", "emax": "5"},
    "weyl": {"s2": "0", "emax": "100"},
    "multiplicity": {"s2": "0", "value": "45"},
    "concentration": {"s2": "irr:sqrt2", "emax": "10", "a": "0", "b": "pi"},
    "solve1d": {"potential": "power:gamma=1", "k": "1", "m": "2"},
    "check property-p": {"potential": "shifted:s2=0", "n": "3", "krange": "3"},
    "perturb hf": {"potential": "power:gamma=1", "k": "1", "n": "0", "bump": "-1,1,0.2"},
    "perturb branch": {"potential": "power:gamma=1", "k": "1", "levels": "0", "tmax": "0.01",
                       "bump": "-1,1,0.2"},
    "perturb split": {"s2": "1", "value": "6", "t": "0.05", "bump": "-1,1,0.2"},
    "perturb gap": {"potential": "power:gamma=1", "k": "1", "m": "1", "bump": "-1,1,0.2,0.2"},
    "perturb continuity": {"potential": "power:gamma=1", "k": "1", "m": "0",
                           "bump": "-2,2,0.5"},
}


def _declarations():
    for name, (_, flags) in cli._COMMANDS.items():
        yield name + (" property-p" if name == "check" else ""), flags
    for name, (_, flags) in cli._EXPERIMENTS.items():
        yield f"perturb {name}", flags


_DECLARED = dict(_declarations())


def _example_argv(head: str, drop: str | None = None) -> list[str]:
    return head.split() + [f"--{flag}={value}" for flag, value in _EXAMPLES[head].items()
                           if flag != drop]


def test_examples_give_the_required_flags_and_no_defaulted_one():
    assert _EXAMPLES.keys() == _DECLARED.keys()
    for head, flags in _DECLARED.items():
        required = [flag for flag, (_, default) in flags.items() if default is cli._REQUIRED]
        given = list(_EXAMPLES[head])
        assert given[:len(required)] == required, head
        assert all(flags[flag][1] is None for flag in given[len(required):]), head


@pytest.mark.parametrize("head, flag", [
    (head, flag) for head, flags in _DECLARED.items()
    for flag, (_, default) in flags.items() if default is cli._REQUIRED])
def test_each_declared_required_flag_is_checked(capsys, head, flag):
    code, out, err = run_capture(capsys, _example_argv(head, drop=flag))
    assert (code, out) == (2, "")
    assert err == f'error: code=usage msg="missing required --{flag.replace("_", "-")}"\n'


@pytest.mark.parametrize("head", list(_DECLARED))
def test_declared_defaults_reach_the_report(capsys, head):
    code, out, err = run_capture(capsys, _example_argv(head))
    assert (code, err) == (0, "")
    config = json.loads(out)["config"]
    defaults = {flag: default for flag, (_, default) in _DECLARED[head].items()
                if default not in (cli._REQUIRED, None)}
    assert {flag: config[flag] for flag in defaults} == defaults
    embedded = config.keys() - {"command", "experiment", "target"}
    assert embedded == set(_EXAMPLES[head]) | set(defaults)


def _readme_section(title: str) -> str:
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands() -> list[str]:
    block = _readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


def test_readme_commands_parse():
    # every command line the README shows is accepted, required flags included
    lines = _readme_commands()
    assert len(lines) >= len(_DECLARED)
    parser = _build_parser()
    seen = set()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "grushin", line
        args = parser.parse_args(argv[1:])
        cli._resolve(parser, argv[1:], args)
        seen.add(" ".join(argv[1:3 if args.command in ("perturb", "check") else 2]))
    assert seen == _DECLARED.keys()


def test_readme_commands_run(capsys):
    # and every one of them answers
    for line in _readme_commands():
        code, out, err = run_capture(capsys, shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        assert out, line


def test_readme_library_sketch_runs(capsys):
    block = _readme_section("Library sketch").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_perturb_table_lists_the_declared_flags():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", _readme_section("Command line"), re.M)
    table = {name: re.findall(r"`--([\w-]+)`(?: \(default ([^)]+)\))?", flags)
             for name, flags in rows}
    declared = {name: [(flag.replace("_", "-"),
                        "" if default is cli._REQUIRED else str(default))
                       for flag, (_, default) in flags.items() if flag != "eig_rel"]
                for name, (_, flags) in cli._EXPERIMENTS.items()}
    assert table == declared
    assert ("steps", "32") in table["branch"] and ("count", "10") in table["continuity"]
