"""Command-line front end.

Each subcommand, and each perturb experiment, declares its flags once: type
or choices, and a default or none (required). The parser, the defaults, the
required-flag checks and the inputs of perturb reports all follow from that
declaration. A run resolves its configuration (flags override an optional
JSON config file, which overrides the declared defaults), runs a pure
computation, and emits a deterministic report: identical resolved
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
from ._linetext import LINE_HEADER, line_columns, line_dicts, line_rows
from .assembler import assemble, check_property_p
from .concentration import Strip, concentration_certificate
from .core import (
    ExactFamilyProfile,
    GrushinError,
    Perturbation,
    Potential,
    Tolerances,
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


def _resolve(parser: _Parser, argv: list[str], args: argparse.Namespace) -> dict:
    """Merge flags > config file > declared defaults into one plain dict, then
    check the required flags. Each config entry must name a flag of the
    subcommand and is parsed as that flag, ahead of the command-line flags so
    that those win."""
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
    return conf


def _write(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="")


def _emit_json(payload: dict, conf: dict) -> None:
    config = {key: value for key, value in conf.items()
              if key not in _EXECUTION_KEYS and value is not None}
    payload = dict(payload, config=config, version=__version__)
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", conf.get("output"))


def _emit_csv(header: str, rows: list[str], conf: dict) -> None:
    _write("\n".join([header] + rows) + "\n", conf.get("output"))


def _cmd_spectrum(conf: dict) -> int:
    potential = parse_potential(conf["potential"])
    spectrum = assemble(potential, conf["emax"], Tolerances(conf["eig_rel"]), mode=conf["mode"])
    columns = spectrum.values, spectrum.starts, spectrum.contributors
    if conf["format"] == "csv":
        _emit_csv(LINE_HEADER, line_rows(*columns), conf)
    else:
        _emit_json({
            "e_max": spectrum.e_max,
            "mode": spectrum.mode,
            "k_cut": spectrum.k_cut,
            "warnings": list(spectrum.warnings),
            "lines": line_dicts(*columns),
        }, conf)
    return 0


def _cmd_weyl(conf: dict) -> int:
    s2 = parse_exact_scalar(conf["s2"])
    samples = conf["samples"]
    if samples < 1:
        raise _UsageError("samples must be >= 1")
    es = [conf["emax"] * 10.0 ** (i - samples + 1) for i in range(samples)]
    out = weyl_residual(es, s2)
    if conf["format"] == "csv":
        rows = [f"{s.e!r},{s.count},{s.residual!r}" for s in out]
        _emit_csv("E,N,residual", rows, conf)
    else:
        _emit_json({
            "s2": render_exact_scalar(s2),
            "samples": [{"E": s.e, "N": s.count, "residual": s.residual} for s in out],
        }, conf)
    return 0


def _cmd_multiplicity(conf: dict) -> int:
    s2 = parse_exact_scalar(conf["s2"])
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
        _emit_csv(LINE_HEADER, line_rows(*columns), conf)
        return 0
    payload = {"s2": render_exact_scalar(s2), **line_dicts(*columns)[0]}
    if s2.is_rational and s2.rational == 0 and value.denominator == 1:
        payload["factorization_mult"] = multiplicity_factorization(int(value))
    _emit_json(payload, conf)
    return 0


def _cmd_concentration(conf: dict) -> int:
    s2 = parse_exact_scalar(conf["s2"])
    strip = Strip(parse_angle(conf["a"]), parse_angle(conf["b"]))
    potential = Potential(geometry="cylinder", gamma=1.0, profile=ExactFamilyProfile(s2=s2))
    cert = concentration_certificate(assemble(potential, conf["emax"], mode="exact"), strip)
    _emit_json({
        "strip": {"a": strip.a, "b": strip.b},
        "e_max": cert.e_max,
        "c_min": cert.c_min,
        "witness_k": cert.witness_k,
        "limit_value": cert.limit_value,
    }, conf)
    return 0


def _cmd_solve1d(conf: dict) -> int:
    potential = parse_potential(conf["potential"])
    pairs = solve_eigen(potential, conf["k"], conf["m"], Tolerances(conf["eig_rel"]))
    if conf["format"] == "csv":
        rows = [f"{p.k},{p.n},{p.lam!r},{p.err_est!r}" for p in pairs]
        _emit_csv("k,n,lambda,err_est", rows, conf)
    else:
        _emit_json({
            "potential": conf["potential"],
            "k": conf["k"],
            "levels": [{"n": p.n, "lambda": p.lam, "err_est": p.err_est} for p in pairs],
        }, conf)
    return 0


def _cmd_check(conf: dict) -> int:
    potential = parse_potential(conf["potential"])
    report = check_property_p(potential, conf["n"], conf["krange"], Tolerances(conf["eig_rel"]),
                              cluster_abs=conf["cluster_abs"])
    _emit_json({
        "potential": conf["potential"],
        "n": report.n,
        "k_range": report.k_range,
        "mode": report.mode,
        "verdict": report.verdict,
        "collisions": [{
            "k": r.k, "l": r.l, "i": r.i, "j": r.j,
            "lam_k": r.lam_k, "lam_l": r.lam_l,
            "gap": r.gap, "err_bound": r.err_bound, "status": r.status,
        } for r in report.collisions],
    }, conf)
    return 3 if report.verdict == "UNDECIDED" else 0


def _perturb_hf(conf, inputs, tol, potential, s2, bump) -> dict:
    return {"slopes": [hellmann_feynman(potential, bump, conf["k"], conf["n"], tol)]}


def _perturb_branch(conf, inputs, tol, potential, s2, bump) -> dict:
    inputs["levels"] = parse_levels(conf["levels"])
    branches = track_branches(potential, bump, conf["k"], inputs["levels"],
                              conf["tmax"], conf["steps"], tol)
    return {"t_grid": [float(t) for t in branches[0].t_grid],
            "lambdas": [[float(v) for v in br.lambdas] for br in branches],
            "slopes": [br.slope for br in branches]}


def _perturb_split(conf, inputs, tol, potential, s2, bump) -> dict:
    inputs["s2"] = render_exact_scalar(s2)
    report = splitting_experiment(s2, parse_value(conf["value"]), bump, conf["t"], tol)
    return {"t_grid": [0.0, conf["t"]],
            "lambdas": [{"k": c.k, "n": c.n, "lambda": c.lam_perturbed, "err_est": c.err_est}
                        for c in report.contributors],
            "slopes": [{"k": c.k, "n": c.n, "slope": c.slope} for c in report.contributors],
            "gap": min((p.gap for p in report.pairs), default=None),
            "verdict": report.verdict}


def _perturb_gap(conf, inputs, tol, potential, s2, bump) -> dict:
    report = check_gap_avoidance(potential, bump, conf["k"], conf["m"], tol)
    inputs.update(lambda_m=report.info.lambda_m, radius=report.radius,
                  j_minus=list(report.info.j_minus), j_plus=list(report.info.j_plus))
    return {"lambdas": [{"lambda": lam, "err_est": err} for lam, err in report.window],
            "gap": report.info.kappa_m, "verdict": report.verdict}


def _perturb_continuity(conf, inputs, tol, potential, s2, bump) -> dict:
    seq = [bump.scaled(1.0 / n) for n in range(1, conf["count"] + 1)]
    report = check_continuity_bound(potential, seq, conf["k"], conf["m"], tol)
    margins = [min(r.upper_margin, r.lower_margin) for r in report.records]
    return {"lambdas": [{"sup_w": r.sup_w, "lam_base": r.lam_base, "lam_pert": r.lam_pert,
                         "upper_margin": r.upper_margin, "lower_margin": r.lower_margin}
                        for r in report.records],
            "gap": min(margins) if margins else None, "verdict": report.verdict}


# experiment -> its run, which adds to `inputs` what the report shows beyond
# the declared flags and returns the payload fields it sets
_PERTURB_RUNS = {"hf": _perturb_hf, "branch": _perturb_branch, "split": _perturb_split,
                 "gap": _perturb_gap, "continuity": _perturb_continuity}


def _cmd_perturb(conf: dict) -> int:
    experiment = conf["experiment"]
    flags = _EXPERIMENTS[experiment][1]
    potential = parse_potential(conf["potential"]) if "potential" in flags else None
    s2 = parse_exact_scalar(conf["s2"]) if "s2" in flags else None
    bump = parse_bump(conf["bump"])
    inputs = {flag: conf[flag] for flag in flags if flag != "eig_rel"}
    payload = {"experiment": experiment, "inputs": inputs, "t_grid": [], "lambdas": [],
               "slopes": [], "gap": None, "verdict": "OK"}
    payload.update(_PERTURB_RUNS[experiment](conf, inputs, Tolerances(conf["eig_rel"]),
                                             potential, s2, bump))
    _emit_json(payload, conf)
    return 3 if payload["verdict"] == "UNDECIDED" else 0


_RUNS = {
    "spectrum": _cmd_spectrum,
    "weyl": _cmd_weyl,
    "multiplicity": _cmd_multiplicity,
    "concentration": _cmd_concentration,
    "solve1d": _cmd_solve1d,
    "check": _cmd_check,
    "perturb": _cmd_perturb,
}


def run(argv: list[str]) -> int:
    """Dispatch to a subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand")
        conf = _resolve(parser, argv, args)
        return _RUNS[args.command](conf)
    except _UsageError as exc:
        print(f'error: code=usage msg="{exc}"', file=sys.stderr)
        return 2
    except GrushinError as exc:
        message = str(exc).replace('"', "'")
        print(f'error: code={type(exc).__name__} msg="{message}"', file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
