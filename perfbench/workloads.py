"""The benchmark's workloads: fixed families of `grushin` CLI invocations.

Each workload is a function of the seed that returns the operations of one
pass, in order. The seed moves inputs inside a window where the amount of
work does not change (an e_max between two consecutive eigenvalues and
between two consecutive boundaries of the solver's level guess, a bump
centre, a rational s2 from a fixed list), so the spread between seeds
measures timing noise rather than input size. Every operation carries the
parameters its oracle needs; the program only ever sees ``argv``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    name: str                 # unique within the workload
    argv: tuple[str, ...]     # what grushin.cli.run receives
    oracle: str               # key into oracles.CHECKS
    params: dict = field(default_factory=dict, compare=False)


def _num(x: float) -> str:
    return repr(round(x, 3))


def _line_spectrum(rng: random.Random) -> list[Op]:
    # windows hold the level set, the mode cutoff and the per-mode level
    # guess int(e/(2k)) + 2 constant: gamma=1 between levels 6 and 7,
    # gamma=2 below 39^(2/3) * lambda_0 = 12.196, gamma=0.75 between 4.177
    # and 4.882
    ops = []
    for gamma, lo, hi in (("1", 6.05, 6.95), ("2", 12.02, 12.15), ("0.75", 4.25, 4.75)):
        e_max = _num(rng.uniform(lo, hi))
        ops.append(Op(
            name=f"spectrum.gamma{gamma}",
            argv=("spectrum", "--potential", f"power:gamma={gamma}", "--emax", e_max,
                  "--mode", "numeric"),
            oracle="numeric_spectrum",
            params={"gamma": float(gamma), "e_max": float(e_max), "eig_rel": 1e-7}))
    return ops + _exact_ops(rng)


_RATIONAL_S2 = ("1", "2", "3", "1/2", "3/2", "5/4")
_IRRATIONAL_S2 = ("sqrt2", "sqrt3", "sqrt5", "golden")
# odd-rich values near 1e3 (multiplicity enumeration scans k up to the value)
_MULT_VALUES = (945, 1125, 1155, 1215)


def _exact_ops(rng: random.Random) -> list[Op]:
    # The exact shifted-parabola operations (Fraction arithmetic in assembler,
    # exact_family and concentration, CSV output in cli), sized to about 5% of
    # the line_spectrum pass. Run as a workload of their own they were too
    # unsteady to gate: pure-Python passes on the shared 2-vCPU machine they
    # were sized on switched between two speeds 1.8x apart for minutes at a
    # time, while the LAPACK-bound passes moved by about 10%.
    e0 = rng.randrange(990, 1011)
    e1 = rng.randrange(690, 711)
    s2_rat = rng.choice(_RATIONAL_S2)
    s2_irr = rng.choice(_IRRATIONAL_S2)
    weyl_rat = rng.choice(_RATIONAL_S2)
    weyl_irr = rng.choice(_IRRATIONAL_S2)
    value = rng.choice(_MULT_VALUES)
    b = rng.choice(("pi/3", "pi/4", "2pi/5", "pi/2"))
    return [
        Op("spectrum.s2_0", ("spectrum", "--potential", "shifted:s2=0", "--emax", str(e0),
                             "--mode", "exact", "--format", "csv"),
           "exact_spectrum", {"s2": "0", "e_max": e0}),
        Op("spectrum.s2_irr", ("spectrum", "--potential", f"shifted:s2=irr:{s2_irr}",
                               "--emax", str(e1), "--mode", "exact", "--format", "csv"),
           "exact_spectrum", {"s2": f"irr:{s2_irr}", "e_max": e1}),
        Op("property_p.rational", ("check", "property-p", "--potential",
                                   f"shifted:s2={s2_rat}", "--n", "8", "--krange", "8"),
           "property_p", {"s2": s2_rat, "n": 8, "krange": 8}),
        Op("property_p.irrational", ("check", "property-p", "--potential",
                                     f"shifted:s2=irr:{s2_irr}", "--n", "12", "--krange", "12"),
           "property_p", {"s2": f"irr:{s2_irr}", "n": 12, "krange": 12}),
        Op("multiplicity", ("multiplicity", "--s2", "0", "--value", str(value)),
           "multiplicity", {"value": value}),
        Op("weyl.s2_0", ("weyl", "--s2", "0", "--emax", "1e5"),
           "weyl", {"s2": "0", "e_max": 1e5}),
        Op("weyl.rational", ("weyl", "--s2", weyl_rat, "--emax", "1e5"),
           "weyl", {"s2": weyl_rat, "e_max": 1e5}),
        Op("weyl.irrational", ("weyl", "--s2", f"irr:{weyl_irr}", "--emax", "1e5"),
           "weyl", {"s2": f"irr:{weyl_irr}", "e_max": 1e5}),
        Op("concentration", ("concentration", "--s2", "irr:golden", "--emax", "1000",
                             "--a", "0", "--b", b),
           "concentration", {"s2": "irr:golden", "e_max": 1000, "b": b}),
    ]


def _perturb_lab(rng: random.Random) -> list[Op]:
    c = round(rng.uniform(-0.05, 0.05), 3)
    bump = f"{-1 + c!r},{1 + c!r},0.2"
    wide = f"{-2 + c!r},{2 + c!r},0.5"
    pot = "power:gamma=1"
    return [
        Op("branch", ("perturb", "branch", "--potential", pot, "--k", "1", "--levels", "0,1",
                      "--tmax", "0.1", "--steps", "8", f"--bump={bump}"),
           "branch", {"bump": bump, "k": 1, "levels": (0, 1), "tmax": 0.1, "steps": 8}),
        Op("hf", ("perturb", "hf", "--potential", pot, "--k", "1", "--n", "0", f"--bump={bump}"),
           "hf", {"bump": bump, "k": 1, "n": 0}),
        Op("split", ("perturb", "split", "--s2", "1", "--value", "6", "--t", "0.05",
                     f"--bump={bump}"),
           "split", {"bump": bump, "s2": 1, "value": 6, "t": 0.05}),
        Op("gap", ("perturb", "gap", "--potential", pot, "--k", "1", "--m", "1",
                   f"--bump={bump},0.2"),
           "gap", {"bump": bump + ",0.2", "k": 1, "m": 1}),
        Op("continuity", ("perturb", "continuity", "--potential", pot, "--k", "1", "--m", "1",
                          "--count", "3", f"--bump={wide}"),
           "continuity", {"bump": wide, "k": 1, "m": 1, "count": 3}),
    ]


def _torus_solve(k: int, m: int, eig_rel: str | None) -> Op:
    argv = ("solve1d", "--potential", "torus:gamma=1", "--k", str(k), "--m", str(m))
    if eig_rel is None:
        return Op(f"solve1d.k{k}.default", argv, "torus", {"k": k, "m": m, "eig_rel": 1e-7})
    return Op(f"solve1d.k{k}.rel{eig_rel}", argv + ("--eig-rel", eig_rel), "torus",
              {"k": k, "m": m, "eig_rel": float(eig_rel)})


def _torus_modes(rng: random.Random) -> list[Op]:
    # no seed-dependent input: the circle grids, and so the cost, change with
    # every k and m
    return [_torus_solve(k, 5, "1e-5") for k in (1, 2, 4)]


# Operations that fail today (the default-tolerance torus solves end in
# ConvergenceError). They are not among the timed operations of a workload,
# which must all answer; the traced run of the workload runs each once, counts
# the failures and checks any answer with its oracle.
PROBES = {
    "torus_modes": [_torus_solve(k, 5, None) for k in (1, 2)],
}


# why each was chosen: BENCHMARK.json
WORKLOADS = {
    "line_spectrum": _line_spectrum,
    "perturb_lab": _perturb_lab,
    "torus_modes": _torus_modes,
}


def build(workload: str, seed: int) -> list[Op]:
    ops = WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"duplicate operation names in {workload}")
    return ops
