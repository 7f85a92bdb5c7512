"""Command-line front end.

Each subcommand, and each perturb experiment, declares its flags once: type
or choices, and a default or none (required). The parser, the defaults, the
required-flag checks and the inputs of perturb reports all follow from that
declaration. A run resolves its configuration (flags override an optional
JSON config file, which overrides the declared defaults), and every command
then goes through one runner (_run): it parses the declared inputs, runs a
pure computation, and writes a deterministic report: identical resolved
configurations produce byte-identical output files. JSON reports embed the
resolved configuration and the tool version; CSV output is the plot-ready
delimited form.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 when a
certification comes back UNDECIDED.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from ._linetext import LINE_HEADER, line_columns, line_dicts, line_rows, report_json
from .assembler import assemble, check_property_p
from .concentration import Strip, concentration_certificate
from .core import (
    ExactFamilyProfile,
    GrushinError,
    Perturbation,
    Potential,
    Tolerances,
    _check_cap,
    parse_exact_scalar,
    parse_potential,
    render_exact_scalar,
)
from .exact_family import multiplicity_enumeration, multiplicity_factorization, weyl_residual
from .perturb import (
    check_continuity_bound,
    check_gap_avoidance,
    hellmann_feynman,
    splitting_experiment,
    track_branches,
)
from .schrod1d import solve_eigen

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" then a digit or ".digit" is a value (-1/2, -1e3, -1,1,0.2), never a flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # single-line, machine-parsable usage diagnostics
        raise _UsageError(message)


_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Angles as decimal radians or fractions of pi: 'pi', '-pi/3', '2pi/5', '0.5'."""
    text = text.strip()
    match = _ANGLE_RE.match(text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coef = float(match.group(2)) if match.group(2) else 1.0
        den = float(match.group(3)) if match.group(3) else 1.0
        if den == 0:
            raise _UsageError(f"zero denominator in angle {text!r}")
        return sign * coef * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"bad angle {text!r}") from None


def parse_bump(text: str) -> Perturbation:
    """Bump text 'a,b,eps[,scale]': scale * mollified indicator of [a, b]."""
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise _UsageError(f"bump must be 'a,b,eps[,scale]', got {text!r}")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"bad number in bump {text!r}") from None
    return Perturbation(*nums)


def parse_levels(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad level list {text!r}") from None


def parse_value(text: str) -> Fraction:
    """An exact eigenvalue as an integer, decimal or fraction: '6', '7/2', '2.5'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise _UsageError(
            f"bad value {text!r}; expected a finite rational such as 6, 7/2 or 2.5") from None


# execution-only knobs: never embedded in reports, so outputs stay
# byte-identical across destinations
_EXECUTION_KEYS = {"output", "config"}

# a flag without a default: the run stops with "missing required --X" when
# neither the command line nor the config file gives it
_REQUIRED = object()
_FORMAT = (("json", "csv"), "json")
_EIG_REL = (float, 1e-7)

# command -> summary and the flags it reads, besides --config and --output:
# flag -> (type or choices, default; _REQUIRED, or None for a flag the
# command reads only in some cases). Required flags are checked in this order.
_COMMANDS = {
    "spectrum": ("assemble the 2D spectrum below a cap", {
        "format": _FORMAT, "eig_rel": _EIG_REL, "potential": (str, _REQUIRED),
        "emax": (float, _REQUIRED), "mode": (("auto", "exact", "numeric"), "auto")}),
    "weyl": ("counting-function residuals", {
        "format": _FORMAT, "s2": (str, _REQUIRED), "emax": (float, _REQUIRED),
        "samples": (int, 4)}),
    "multiplicity": ("multiplicity of one eigenvalue", {
        "format": _FORMAT, "s2": (str, _REQUIRED), "value": (str, None), "lin": (int, None),
        "quad": (int, None)}),
    "concentration": ("concentration certificate over a strip", {
        "s2": (str, _REQUIRED), "emax": (float, _REQUIRED), "a": (str, _REQUIRED),
        "b": (str, _REQUIRED)}),
    "solve1d": ("lowest levels of one 1D mode", {
        "format": _FORMAT, "eig_rel": _EIG_REL, "potential": (str, _REQUIRED),
        "k": (int, _REQUIRED), "m": (int, _REQUIRED)}),
    "check": ("spectral condition checks", {
        "eig_rel": _EIG_REL, "cluster_abs": (float, 1e-3), "potential": (str, _REQUIRED),
        "n": (int, _REQUIRED), "krange": (int, _REQUIRED)}),
}
# the same for each perturb experiment; its report's inputs are these flags
# but --eig-rel
_EXPERIMENTS = {
    "hf": ("first-order eigenvalue derivative", {
        "eig_rel": _EIG_REL, "potential": (str, _REQUIRED), "k": (int, _REQUIRED),
        "n": (int, _REQUIRED), "bump": (str, _REQUIRED)}),
    "branch": ("eigenbranch continuation", {
        "eig_rel": _EIG_REL, "potential": (str, _REQUIRED), "k": (int, _REQUIRED),
        "levels": (str, _REQUIRED), "tmax": (float, _REQUIRED), "steps": (int, 32),
        "bump": (str, _REQUIRED)}),
    "split": ("splitting of an exact collision", {
        "eig_rel": _EIG_REL, "s2": (str, _REQUIRED), "value": (str, _REQUIRED),
        "t": (float, _REQUIRED), "bump": (str, _REQUIRED)}),
    "gap": ("resolvent gap avoidance", {
        "eig_rel": _EIG_REL, "potential": (str, _REQUIRED), "k": (int, _REQUIRED),
        "m": (int, _REQUIRED), "bump": (str, _REQUIRED)}),
    "continuity": ("spectral continuity bound", {
        "eig_rel": _EIG_REL, "potential": (str, _REQUIRED), "k": (int, _REQUIRED),
        "m": (int, _REQUIRED), "bump": (str, _REQUIRED), "count": (int, 10)}),
}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="grushin", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def command(within, name: str, summary: str, flags: dict) -> _Parser:
        p = within.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--output", help="output path ('-' or omitted: stdout)")
        for flag, (kind, default) in flags.items():
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(f"--{flag.replace('_', '-')}",
                           default=None if default is _REQUIRED else default, **typed)
        return p

    for name, (summary, flags) in _COMMANDS.items():
        p = command(sub, name, summary, flags)
        if name == "check":
            p.add_argument("target", choices=["property-p"])
    experiments = sub.add_parser("perturb", help="perturbation experiments").add_subparsers(
        dest="experiment", required=True)
    for name, (summary, flags) in _EXPERIMENTS.items():
        command(experiments, name, summary, flags)
    return parser


def _resolve(parser: _Parser, argv: list[str], args: argparse.Namespace) -> tuple[dict, dict]:
    """Merge flags > config file > declared defaults into one plain dict, then
    check the required flags; returns that dict and the declared flags. Each
    config entry must name a flag of the subcommand and is parsed as that
    flag, ahead of the command-line flags so that those win."""
    _, declared = (_EXPERIMENTS[args.experiment] if args.command == "perturb"
                   else _COMMANDS[args.command])
    config_path = args.config
    if config_path:
        try:
            file_conf = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {config_path!r}: {exc}") from None
        if not isinstance(file_conf, dict):
            raise _UsageError("config file must hold a JSON object")
        # the flags go after the subcommand (and perturb's experiment): the
        # parsers above them take no options
        head = 2 if args.command == "perturb" else 1
        flags = []
        for key, value in file_conf.items():
            key = key.replace("-", "_")
            if key not in declared and key != "output":
                raise _UsageError(
                    f"config key {key!r} matches no flag of {' '.join(argv[:head])}")
            if value is not None:
                text = value if isinstance(value, str) else json.dumps(value)
                flags.append(f"--{key.replace('_', '-')}={text}")
        try:
            args = parser.parse_args(argv[:head] + flags + argv[head:])
        except _UsageError as exc:
            raise _UsageError(f"config {config_path!r}: {exc}") from None
    conf = {k: v for k, v in vars(args).items() if k != "config"}
    for flag, (_, default) in declared.items():
        if default is _REQUIRED and conf[flag] is None:
            raise _UsageError(f"missing required --{flag.replace('_', '-')}")
    return conf, declared


# Each command below takes the resolved configuration and the declared inputs
# the runner parsed (None where undeclared), and returns its report: a JSON
# payload, or CSV (header, rows).

def _spectrum(conf, potential, s2, bump, tol):
    spectrum = assemble(potential, conf["emax"], tol, mode=conf["mode"])
    columns = spectrum.values, spectrum.starts, spectrum.contributors
    if conf["format"] == "csv":
        return LINE_HEADER, line_rows(*columns)
    # the lines stay columns, which report_json writes
    return {"e_max": spectrum.e_max, "mode": spectrum.mode, "k_cut": spectrum.k_cut,
            "warnings": list(spectrum.warnings), "lines": columns}


def _weyl(conf, potential, s2, bump, tol):
    samples = conf["samples"]
    if samples < 1:
        raise _UsageError("samples must be >= 1")
    _check_cap(conf["emax"])  # before the samples are built from it
    es = [conf["emax"] * 10.0 ** (i - samples + 1) for i in range(samples)]
    out = weyl_residual(es, s2)
    if conf["format"] == "csv":
        return "E,N,residual", [f"{s.e!r},{s.count},{s.residual!r}" for s in out]
    return {"s2": render_exact_scalar(s2),
            "samples": [{"E": s.e, "N": s.count, "residual": s.residual} for s in out]}


def _multiplicity(conf, potential, s2, bump, tol):
    # a rational s2 names the value, an irrational one its coordinates
    reads, unread, kind = ((["value"], ["lin", "quad"], "a rational") if s2.is_rational
                           else (["lin", "quad"], ["value"], "an irrational"))
    for flag in reads:
        if conf[flag] is None:
            raise _UsageError(f"missing required --{flag}")
    for flag in unread:
        if conf[flag] is not None:
            raise _UsageError(f"--{flag} does not apply to {kind} --s2")
    if s2.is_rational:
        value = parse_value(conf["value"])
        line = multiplicity_enumeration(value, s2)
    else:
        line = multiplicity_enumeration((conf["lin"], conf["quad"]), s2)
    columns = line_columns(line)
    if conf["format"] == "csv":
        return LINE_HEADER, line_rows(*columns)
    payload = {"s2": render_exact_scalar(s2), **line_dicts(*columns)[0]}
    if s2.is_rational and s2.rational == 0 and value.denominator == 1:
        payload["factorization_mult"] = multiplicity_factorization(int(value))
    return payload


def _concentration(conf, potential, s2, bump, tol):
    strip = Strip(parse_angle(conf["a"]), parse_angle(conf["b"]))
    potential = Potential(geometry="cylinder", gamma=1.0, profile=ExactFamilyProfile(s2=s2))
    cert = concentration_certificate(assemble(potential, conf["emax"], mode="exact"), strip)
    return {"strip": {"a": strip.a, "b": strip.b}, "e_max": cert.e_max, "c_min": cert.c_min,
            "witness_k": cert.witness_k, "limit_value": cert.limit_value}


def _solve1d(conf, potential, s2, bump, tol):
    pairs = solve_eigen(potential, conf["k"], conf["m"], tol)
    if conf["format"] == "csv":
        return "k,n,lambda,err_est", [f"{p.k},{p.n},{p.lam!r},{p.err_est!r}" for p in pairs]
    return {"potential": conf["potential"], "k": conf["k"],
            "levels": [{"n": p.n, "lambda": p.lam, "err_est": p.err_est} for p in pairs]}


def _check(conf, potential, s2, bump, tol):
    report = check_property_p(potential, conf["n"], conf["krange"], tol,
                              cluster_abs=conf["cluster_abs"])
    return {"potential": conf["potential"], "n": report.n, "k_range": report.k_range,
            "mode": report.mode, "verdict": report.verdict,
            "collisions": [{
                "k": r.k, "l": r.l, "i": r.i, "j": r.j,
                "lam_k": r.lam_k, "lam_l": r.lam_l,
                "gap": r.gap, "err_bound": r.err_bound, "status": r.status,
            } for r in report.collisions]}


# The perturb experiments return the payload fields they set; "inputs" holds
# what their report shows beyond the declared flags.

def _hf(conf, potential, s2, bump, tol):
    return {"slopes": [hellmann_feynman(potential, bump, conf["k"], conf["n"], tol)]}


def _branch(conf, potential, s2, bump, tol):
    levels = parse_levels(conf["levels"])
    branches = track_branches(potential, bump, conf["k"], levels, conf["tmax"], conf["steps"], tol)
    return {"inputs": {"levels": levels},
            "t_grid": [float(t) for t in branches[0].t_grid],
            "lambdas": [[float(v) for v in br.lambdas] for br in branches],
            "slopes": [br.slope for br in branches]}


def _split(conf, potential, s2, bump, tol):
    report = splitting_experiment(s2, parse_value(conf["value"]), bump, conf["t"], tol)
    return {"inputs": {"s2": render_exact_scalar(s2)},
            "t_grid": [0.0, conf["t"]],
            "lambdas": [{"k": c.k, "n": c.n, "lambda": c.lam_perturbed, "err_est": c.err_est}
                        for c in report.contributors],
            "slopes": [{"k": c.k, "n": c.n, "slope": c.slope} for c in report.contributors],
            "gap": min((p.gap for p in report.pairs), default=None),
            "verdict": report.verdict}


def _gap(conf, potential, s2, bump, tol):
    report = check_gap_avoidance(potential, bump, conf["k"], conf["m"], tol)
    return {"inputs": {"lambda_m": report.info.lambda_m, "radius": report.radius,
                       "j_minus": list(report.info.j_minus), "j_plus": list(report.info.j_plus)},
            "lambdas": [{"lambda": lam, "err_est": err} for lam, err in report.window],
            "gap": report.info.kappa_m, "verdict": report.verdict}


def _continuity(conf, potential, s2, bump, tol):
    seq = [bump.scaled(1.0 / n) for n in range(1, conf["count"] + 1)]
    report = check_continuity_bound(potential, seq, conf["k"], conf["m"], tol)
    margins = [min(r.upper_margin, r.lower_margin) for r in report.records]
    return {"lambdas": [{"sup_w": r.sup_w, "lam_base": r.lam_base, "lam_pert": r.lam_pert,
                         "upper_margin": r.upper_margin, "lower_margin": r.lower_margin}
                        for r in report.records],
            "gap": min(margins) if margins else None, "verdict": report.verdict}


# command or perturb experiment -> its function
_RUNS = {"spectrum": _spectrum, "weyl": _weyl, "multiplicity": _multiplicity,
         "concentration": _concentration, "solve1d": _solve1d, "check": _check,
         "hf": _hf, "branch": _branch, "split": _split, "gap": _gap, "continuity": _continuity}


def _run(conf: dict, flags: dict) -> int:
    """Run one command from its declared ``flags``: parse the declared
    --potential, --s2, --bump and --eig-rel, in that order, call the command,
    write its report and return the exit code, 3 on an UNDECIDED verdict. A
    JSON report embeds the resolved configuration and the tool version; a
    perturb report also has every payload field, its inputs the declared
    flags but --eig-rel."""
    experiment = conf.get("experiment")
    potential = parse_potential(conf["potential"]) if "potential" in flags else None
    s2 = parse_exact_scalar(conf["s2"]) if "s2" in flags else None
    bump = parse_bump(conf["bump"]) if "bump" in flags else None
    tol = Tolerances(conf["eig_rel"]) if "eig_rel" in flags else None
    report = _RUNS[experiment or conf["command"]](conf, potential, s2, bump, tol)
    if isinstance(report, tuple):
        header, rows = report
        text, verdict = "\n".join([header] + rows), None
    else:
        if experiment:
            inputs = {flag: conf[flag] for flag in flags if flag != "eig_rel"}
            report = {"experiment": experiment, "t_grid": [], "lambdas": [], "slopes": [],
                      "gap": None, "verdict": "OK", **report,
                      "inputs": {**inputs, **report.get("inputs", {})}}
        config = {key: value for key, value in conf.items()
                  if key not in _EXECUTION_KEYS and value is not None}
        payload = dict(report, config=config, version=__version__)
        text, verdict = report_json(payload), report.get("verdict")
    if conf["output"] in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        Path(conf["output"]).write_text(text + "\n", encoding="utf-8", newline="")
    return 3 if verdict == "UNDECIDED" else 0


def run(argv: list[str]) -> int:
    """Dispatch to a subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand")
        return _run(*_resolve(parser, argv, args))
    except _UsageError as exc:
        print(f'error: code=usage msg="{exc}"', file=sys.stderr)
        return 2
    except GrushinError as exc:
        message = str(exc).replace('"', "'")
        print(f'error: code={type(exc).__name__} msg="{message}"', file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
