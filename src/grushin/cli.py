"""Command-line front end.

Every subcommand resolves its configuration (flags override an optional JSON
config file, which overrides built-in defaults), runs a pure computation, and
emits a deterministic report: identical resolved configurations produce
byte-identical output files. JSON reports embed the resolved configuration
and the tool version; CSV output is the plot-ready delimited form.

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


_DEFAULTS = {
    "format": "json",
    "eig_rel": 1e-7,
    "cluster_abs": 1e-3,
    "mode": "auto",
    "samples": 4,
    "steps": 32,
    "count": 10,
}

# execution-only knobs: never embedded in reports, so outputs stay
# byte-identical across destinations
_EXECUTION_KEYS = {"output", "config"}


# perturb experiment -> summary and the flags it reads, besides --config,
# --output and --eig-rel
_EXPERIMENTS = {
    "hf": ("first-order eigenvalue derivative", ("potential", "k", "n", "bump")),
    "branch": ("eigenbranch continuation",
               ("potential", "k", "levels", "tmax", "steps", "bump")),
    "split": ("splitting of an exact collision", ("s2", "value", "t", "bump")),
    "gap": ("resolvent gap avoidance", ("potential", "k", "m", "bump")),
    "continuity": ("spectral continuity bound", ("potential", "k", "m", "bump", "count")),
}
_FLAG_TYPES = {"k": int, "n": int, "m": int, "steps": int, "count": int,
               "tmax": float, "t": float}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="grushin", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def command(name: str, summary: str, *shared: str, within=sub) -> _Parser:
        # --config, --output, and of the shared flags only those it reads
        p = within.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--output", help="output path ('-' or omitted: stdout)")
        if "format" in shared:
            p.add_argument("--format", choices=["json", "csv"])
        if "eig_rel" in shared:
            p.add_argument("--eig-rel", dest="eig_rel", type=float)
        if "cluster_abs" in shared:
            p.add_argument("--cluster-abs", dest="cluster_abs", type=float)
        return p

    p = command("spectrum", "assemble the 2D spectrum below a cap", "format", "eig_rel")
    p.add_argument("--potential")
    p.add_argument("--emax", type=float)
    p.add_argument("--mode", choices=["auto", "exact", "numeric"])

    p = command("weyl", "counting-function residuals", "format")
    p.add_argument("--s2")
    p.add_argument("--emax", type=float)
    p.add_argument("--samples", type=int)

    p = command("multiplicity", "multiplicity of one eigenvalue", "format")
    p.add_argument("--s2")
    p.add_argument("--value")
    p.add_argument("--lin", type=int)
    p.add_argument("--quad", type=int)

    p = command("concentration", "concentration certificate over a strip")
    p.add_argument("--s2")
    p.add_argument("--emax", type=float)
    p.add_argument("--a")
    p.add_argument("--b")

    p = command("solve1d", "lowest levels of one 1D mode", "format", "eig_rel")
    p.add_argument("--potential")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)

    p = command("check", "spectral condition checks", "eig_rel", "cluster_abs")
    p.add_argument("target", choices=["property-p"])
    p.add_argument("--potential")
    p.add_argument("--n", type=int)
    p.add_argument("--krange", type=int)

    experiments = sub.add_parser("perturb", help="perturbation experiments").add_subparsers(
        dest="experiment", required=True)
    for name, (summary, flags) in _EXPERIMENTS.items():
        p = command(name, summary, "eig_rel", within=experiments)
        for flag in flags:
            p.add_argument(f"--{flag}", type=_FLAG_TYPES.get(flag))

    return parser


def _resolve(parser: _Parser, argv: list[str], args: argparse.Namespace) -> dict:
    """Merge flags > config file > defaults into one plain dict. Each config entry
    must name a flag of the subcommand and is parsed as that flag, ahead of the
    command-line flags so that those win."""
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
            if key not in vars(args) or key == "config":
                raise _UsageError(
                    f"config key {key!r} matches no flag of {' '.join(argv[:head])}")
            if value is not None:
                text = value if isinstance(value, str) else json.dumps(value)
                flags.append(f"--{key.replace('_', '-')}={text}")
        try:
            args = parser.parse_args(argv[:head] + flags + argv[head:])
        except _UsageError as exc:
            raise _UsageError(f"config {config_path!r}: {exc}") from None
    merged = {k: v for k, v in vars(args).items() if k != "config"}
    for key, value in _DEFAULTS.items():
        if key in merged and merged[key] is None:
            merged[key] = value
    return merged


def _require(conf: dict, *keys: str):
    for key in keys:
        if conf.get(key) is None:
            raise _UsageError(f"missing required --{key.replace('_', '-')}")


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


def _contributors_field(line) -> str:
    return ";".join(f"{k}:{n}" for k, n in line.contributors)


def _line_json(line) -> dict:
    return {"value": float(line.value), "mult": line.multiplicity,
            "contributors": [{"k": k, "n": n} for k, n in line.contributors]}


def _cmd_spectrum(conf: dict) -> int:
    _require(conf, "potential", "emax")
    potential = parse_potential(conf["potential"])
    spectrum = assemble(potential, conf["emax"], Tolerances(conf["eig_rel"]), mode=conf["mode"])
    if conf["format"] == "csv":
        rows = [f"{line.value!r},{line.multiplicity},{_contributors_field(line)}"
                for line in spectrum.lines]
        _emit_csv("value,multiplicity,contributors", rows, conf)
    else:
        _emit_json({
            "e_max": spectrum.e_max,
            "mode": spectrum.mode,
            "k_cut": spectrum.k_cut,
            "warnings": list(spectrum.warnings),
            "lines": [_line_json(line) for line in spectrum.lines],
        }, conf)
    return 0


def _cmd_weyl(conf: dict) -> int:
    _require(conf, "s2", "emax")
    s2 = parse_exact_scalar(str(conf["s2"]))
    samples = int(conf["samples"])
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
    _require(conf, "s2")
    s2 = parse_exact_scalar(str(conf["s2"]))
    if s2.is_rational:
        _require(conf, "value")
        line = multiplicity_enumeration(parse_value(conf["value"]), s2)
    else:
        _require(conf, "lin", "quad")
        line = multiplicity_enumeration((conf["lin"], conf["quad"]), s2)
    payload = {
        "s2": render_exact_scalar(s2),
        "value": float(line.value),
        "mult": line.multiplicity,
        "contributors": [{"k": k, "n": n} for k, n in line.contributors],
    }
    if s2.is_rational and s2.rational == 0 and line.exact_value.denominator == 1:
        payload["factorization_mult"] = multiplicity_factorization(int(line.exact_value))
    if conf["format"] == "csv":
        _emit_csv("value,multiplicity,contributors",
                  [f"{line.value!r},{line.multiplicity},{_contributors_field(line)}"], conf)
    else:
        _emit_json(payload, conf)
    return 0


def _cmd_concentration(conf: dict) -> int:
    _require(conf, "s2", "emax", "a", "b")
    s2 = parse_exact_scalar(str(conf["s2"]))
    potential = Potential(geometry="cylinder", gamma=1.0, profile=ExactFamilyProfile(s2=s2))
    spectrum = assemble(potential, conf["emax"], mode="exact")
    strip = Strip(parse_angle(str(conf["a"])), parse_angle(str(conf["b"])))
    cert = concentration_certificate(spectrum, strip)
    _emit_json({
        "strip": {"a": strip.a, "b": strip.b},
        "e_max": cert.e_max,
        "c_min": cert.c_min,
        "witness_k": cert.witness_k,
        "limit_value": cert.limit_value,
    }, conf)
    return 0


def _cmd_solve1d(conf: dict) -> int:
    _require(conf, "potential", "k", "m")
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
    _require(conf, "potential", "n", "krange")
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


def _perturb_payload(experiment: str, inputs: dict, t_grid: list, lambdas,
                     slopes, gap, verdict: str) -> dict:
    return {"experiment": experiment, "inputs": inputs, "t_grid": t_grid,
            "lambdas": lambdas, "slopes": slopes, "gap": gap, "verdict": verdict}


def _cmd_perturb(conf: dict) -> int:
    experiment = conf["experiment"]
    tol = Tolerances(conf["eig_rel"])
    code = 0

    if experiment == "hf":
        _require(conf, "potential", "k", "n", "bump")
        potential = parse_potential(conf["potential"])
        bump = parse_bump(conf["bump"])
        value = hellmann_feynman(potential, bump, conf["k"], conf["n"], tol)
        payload = _perturb_payload(
            "hf",
            {"potential": conf["potential"], "k": conf["k"], "n": conf["n"],
             "bump": conf["bump"]},
            [], [], [value], None, "OK")

    elif experiment == "branch":
        _require(conf, "potential", "k", "levels", "tmax", "bump")
        potential = parse_potential(conf["potential"])
        bump = parse_bump(conf["bump"])
        levels = parse_levels(conf["levels"])
        branches = track_branches(potential, bump, conf["k"], levels,
                                  conf["tmax"], conf["steps"], tol)
        slopes = [hellmann_feynman(potential, bump, conf["k"], br.level, tol)
                  for br in branches]
        payload = _perturb_payload(
            "branch",
            {"potential": conf["potential"], "k": conf["k"], "levels": levels,
             "tmax": conf["tmax"], "steps": conf["steps"], "bump": conf["bump"]},
            [float(t) for t in branches[0].t_grid],
            [[float(v) for v in br.lambdas] for br in branches],
            slopes, None, "OK")

    elif experiment == "split":
        _require(conf, "s2", "value", "t", "bump")
        s2 = parse_exact_scalar(str(conf["s2"]))
        bump = parse_bump(conf["bump"])
        report = splitting_experiment(s2, parse_value(conf["value"]), bump,
                                      conf["t"], tol)
        gap = min((p.gap for p in report.pairs), default=None)
        payload = _perturb_payload(
            "split",
            {"s2": render_exact_scalar(s2), "value": str(conf["value"]),
             "t": conf["t"], "bump": conf["bump"]},
            [0.0, conf["t"]],
            [{"k": c.k, "n": c.n, "lambda": c.lam_perturbed, "err_est": c.err_est}
             for c in report.contributors],
            [{"k": c.k, "n": c.n, "slope": c.slope} for c in report.contributors],
            gap, report.verdict)
        code = 3 if report.verdict == "UNDECIDED" else 0

    elif experiment == "gap":
        _require(conf, "potential", "k", "m", "bump")
        potential = parse_potential(conf["potential"])
        bump = parse_bump(conf["bump"])
        report = check_gap_avoidance(potential, bump, conf["k"], conf["m"], tol)
        payload = _perturb_payload(
            "gap",
            {"potential": conf["potential"], "k": conf["k"], "m": conf["m"],
             "bump": conf["bump"], "lambda_m": report.info.lambda_m,
             "radius": report.radius,
             "j_minus": list(report.info.j_minus), "j_plus": list(report.info.j_plus)},
            [], [{"lambda": lam, "err_est": err} for lam, err in report.window],
            [], report.info.kappa_m, report.verdict)
        code = 3 if report.verdict == "UNDECIDED" else 0

    elif experiment == "continuity":
        _require(conf, "potential", "k", "m", "bump")
        potential = parse_potential(conf["potential"])
        bump = parse_bump(conf["bump"])
        seq = [bump.scaled(1.0 / n) for n in range(1, conf["count"] + 1)]
        report = check_continuity_bound(potential, seq, conf["k"], conf["m"], tol)
        margins = [min(r.upper_margin, r.lower_margin) for r in report.records]
        payload = _perturb_payload(
            "continuity",
            {"potential": conf["potential"], "k": conf["k"], "m": conf["m"],
             "bump": conf["bump"], "count": conf["count"]},
            [], [{"sup_w": r.sup_w, "lam_base": r.lam_base, "lam_pert": r.lam_pert,
                  "upper_margin": r.upper_margin, "lower_margin": r.lower_margin}
                 for r in report.records],
            [], min(margins) if margins else None, report.verdict)

    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown experiment {experiment!r}")

    _emit_json(payload, conf)
    return code


_COMMANDS = {
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
        return _COMMANDS[args.command](conf)
    except _UsageError as exc:
        print(f'error: code=usage msg="{exc}"', file=sys.stderr)
        return 2
    except GrushinError as exc:
        message = str(exc).replace('"', "'")
        print(f'error: code={type(exc).__name__} msg="{message}"', file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
