"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing the stated tolerance. Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    brute_force_min_ratio,
    central_difference_slope,
    enumeration_multiplicities,
    weighted_power,
)

from grushin.assembler import assemble
from grushin.cli import run
from grushin.concentration import Strip, min_ratio
from grushin.core import (
    ExactScalar,
    Perturbation,
    Tolerances,
    parse_potential,
)
from grushin.exact_family import (
    counting_function,
    multiplicity_enumeration,
    multiplicity_factorization,
)
from grushin.perturb import (
    check_continuity_bound,
    check_gap_avoidance,
    hellmann_feynman,
    splitting_experiment,
)
from grushin.schrod1d import Grid, solve_eigen

S0 = ExactScalar.from_rational(0)
S1 = ExactScalar.from_rational(1)


def _passline(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_c01_harmonic_oscillator_oracle():
    pairs = solve_eigen(parse_potential("power:gamma=1"), 1, 10)
    for n, pair in enumerate(pairs):
        exact = 2 * n + 1
        assert abs(pair.lam - exact) / exact <= 1e-6, (n, pair.lam)
    _passline(1, "harmonic oscillator levels (2n+1) to 1e-6")


def test_c02_exact_family_end_to_end():
    tol = Tolerances()
    numeric = assemble(parse_potential("power:gamma=1"), 30.0, tol, mode="numeric")
    exact = assemble(parse_potential("shifted:s2=0"), 30.0, mode="exact")
    assert numeric.warnings == (), "UNDECIDED clusters present"
    assert len(numeric.lines) == len(exact.lines)
    for got, want in zip(numeric.lines, exact.lines):
        assert abs(got.value - want.value) <= 1e-3
        assert got.multiplicity == want.multiplicity
        assert set(got.contributors) == set(want.contributors)
    _passline(2, "numeric assembly reproduces the closed-form spectrum to 30")


def test_c03_multiplicity_formula_full_range():
    start = time.time()
    table = enumeration_multiplicities(10**4)
    for value in range(1, 10**4 + 1):
        assert multiplicity_factorization(value) == table[value], value
    elapsed = time.time() - start
    assert elapsed <= 5.0, f"took {elapsed:.2f}s"
    _passline(3, f"factorization matches enumeration below 1e4 in {elapsed:.2f}s")


def test_c04_unbounded_multiplicity_witness():
    witnesses = [3, 3 * 5, 3 * 5 * 7, 3 * 5 * 7 * 11]
    # frozen from the enumeration oracle (2^(m+1) odd divisors, times 2)
    expected = [4, 8, 16, 32]
    formula = [multiplicity_factorization(e) for e in witnesses]
    enumerated = [multiplicity_enumeration(e, S0).multiplicity for e in witnesses]
    assert formula == expected
    assert enumerated == expected
    assert all(b > a for a, b in zip(formula, formula[1:]))
    _passline(4, "odd-primorial multiplicities 4, 8, 16, 32 strictly increase")


def test_c05_irrational_rigidity():
    spec = assemble(parse_potential("shifted:s2=irr:sqrt2"), 10**4, mode="exact")
    assert spec.lines, "empty spectrum"
    for line in spec.lines:
        assert line.key[0] <= 10**4
        assert line.multiplicity == 2, line
    _passline(5, f"all {len(spec.lines)} sqrt2-shift lines have multiplicity 2")


def test_c06_weyl_windows():
    for e in (10**3, 10**4, 10**5, 10**6):
        n0 = counting_function(e, S0)
        res0 = (n0 - e * math.log(e)) / e
        assert 0.0 <= res0 <= 3.0, (e, res0)
        n1 = counting_function(e, S1)
        res1 = (n1 - e * math.log(math.sqrt(e))) / e
        assert abs(res1) <= 3.0, (e, res1)
    _passline(6, "counting residuals inside [0,3] (s=0) and |.|<=3 (s2=1)")


def test_c07_concentration_closed_form():
    rng = np.random.default_rng(70707)
    for _ in range(50):
        k = int(rng.integers(1, 41))
        a = float(rng.uniform(-math.pi, math.pi - 0.25))
        b = float(rng.uniform(a + 0.2, math.pi))
        w = Strip(a, b)
        assert abs(min_ratio(k, w) - brute_force_min_ratio(k, w)) <= 1e-8, (k, a, b)
    assert min_ratio(1, Strip(0.0, math.pi)) == 0.5
    w = Strip(0.25, 1.75)
    limit = w.width / (2.0 * math.pi)
    for k in range(1, 1001):
        assert abs(min_ratio(k, w) - limit) <= 1.0 / (2.0 * math.pi * k) + 1e-15
    _passline(7, "min ratio matches brute force to 1e-8; exact 1/2; 1/(2 pi k) rate")


def test_c08_kappa_bounds_sweep():
    rng = np.random.default_rng(80808)
    a0, a1, b0, b1 = rng.normal(size=(4, 100000))
    k1 = (a0 + b0) ** 2 + (a1 + b1) ** 2
    k2 = (a0 - b0) ** 2 + (a1 - b1) ** 2
    k3 = 2.0 * (a0 * b1 - a1 * b0)
    total = k1 + k2
    assert int(np.sum(np.abs(k3) / total > 0.5 + 1e-12)) == 0
    assert int(np.sum(np.abs(k1 - k2) / total > 1.0)) == 0
    _passline(8, "kappa bounds hold over 1e5 draws with zero violations")


def test_c09_hellmann_feynman():
    rng = np.random.default_rng(90909)
    pots = [parse_potential("power:gamma=1"), parse_potential("power:gamma=2")]
    for case in range(20):
        pot = pots[case % 2]
        k = int(rng.integers(1, 4))
        n = int(rng.integers(0, 4))
        lo = float(rng.uniform(-2.2, -0.3))
        hi = lo + float(rng.uniform(1.2, 2.8))
        eps = float(rng.uniform(0.15, 0.45)) * (hi - lo) / 2.0
        bump = Perturbation(lo, hi, eps).scaled(float(rng.uniform(0.5, 1.5)))
        hf = hellmann_feynman(pot, bump, k, n)
        pairs = solve_eigen(pot, k, n + 2)
        kappa = pairs[n + 1].lam - pairs[n].lam
        if n > 0:
            kappa = min(kappa, pairs[n].lam - pairs[n - 1].lam)
        rate = k * k * bump.sup_weighted(pot)
        delta = min(0.01, 0.1 * kappa / max(rate, 1e-12))
        # fixed fine grid: the difference quotient is independent of the
        # grids the solver happens to stop on
        grid = Grid("line", 16383, pairs[n].grid.length)
        slope = central_difference_slope(pot, bump, k, n, grid, delta)
        assert abs(hf - slope) <= 1e-4 * max(1.0, abs(slope)), (case, hf, slope)

    ground = solve_eigen(parse_potential("power:gamma=1"), 1, 1)[0]
    plateau = Perturbation(-(ground.grid.length + 2.0), ground.grid.length + 2.0, 1.0)
    virial = hellmann_feynman(parse_potential("power:gamma=1"), plateau, 1, 0)
    assert abs(virial - 0.5) <= 1e-6
    _passline(9, "20 random derivative checks at 1e-4; virial case 1/2 at 1e-6")


def test_c10_splitting_experiment():
    bump = Perturbation(-1.0, 1.0, 0.2)
    report = splitting_experiment(S1, 6, bump, 0.05)
    line = multiplicity_enumeration(6, S1)
    assert line.multiplicity == 4  # the collision really is (1,2) with (2,0)
    assert report.verdict == "SEPARATED"
    for pair in report.pairs:
        assert pair.gap > pair.err_bound
        assert abs(pair.gap - pair.predicted) <= 0.2 * pair.predicted
    _passline(10, "collision at 6 splits; gap within 20% of t |slope difference|")


def test_c11_gap_avoidance_randomized():
    rng = np.random.default_rng(111111)
    bump_mid = Perturbation(-1.0, 1.0, 0.3)
    pots = [
        parse_potential("power:gamma=1"),
        parse_potential("power:gamma=2"),
        weighted_power(1.0, lambda x: 1.0 + 0.3 * bump_mid(x)),
    ]
    checked = 0
    for case in range(10):
        pot = pots[case % 3]
        k = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        lo = float(rng.uniform(-2.0, 0.5))
        hi = lo + float(rng.uniform(0.8, 1.5))
        eps = float(rng.uniform(0.15, 0.4)) * (hi - lo) / 2.0
        raw = Perturbation(lo, hi, eps)
        pairs = solve_eigen(pot, k, m + 2)
        kappa = pairs[m + 1].lam - pairs[m].lam
        if m > 0:
            kappa = min(kappa, pairs[m].lam - pairs[m - 1].lam)
        scale = float(rng.uniform(0.15, 0.6)) * kappa / (k * k * raw.sup_weighted(pot))
        report = check_gap_avoidance(pot, raw.scaled(scale), k, m)
        assert report.verdict == "PASS", (case, report)
        assert not report.intrusions
        checked += 1
    assert checked == 10
    _passline(11, "10 random gap-avoidance cases: zero intrusions")


def test_c12_continuity_bounds():
    bump = Perturbation(-2.0, 2.0, 0.5)
    seq = [bump.scaled(1.0 / n) for n in range(1, 11)]
    report = check_continuity_bound(parse_potential("power:gamma=1"), seq, 1, 1)
    assert report.verdict == "PASS"
    for rec in report.records:
        assert rec.upper_margin >= 0.0
        assert rec.lower_margin >= 0.0
    _passline(12, "both one-sided continuity bounds hold with nonnegative margin")


_DETERMINISM_CONFIGS = [
    ["solve1d", "--potential", "power:gamma=1", "--k", "1", "--m", "10"],
    ["spectrum", "--potential", "shifted:s2=0", "--emax", "30",
     "--mode", "exact", "--format", "csv"],
    ["spectrum", "--potential", "power:gamma=1", "--emax", "8", "--mode", "numeric"],
    ["multiplicity", "--s2", "0", "--value", "45"],
    ["spectrum", "--potential", "shifted:s2=irr:sqrt2", "--emax", "100",
     "--mode", "exact", "--format", "csv"],
    ["weyl", "--s2", "0", "--emax", "1e6", "--samples", "4"],
    ["weyl", "--s2", "1", "--emax", "1e6", "--samples", "4"],
    ["concentration", "--s2", "irr:sqrt2", "--emax", "50", "--a", "0", "--b", "pi"],
    ["check", "property-p", "--potential", "shifted:s2=irr:sqrt2",
     "--n", "5", "--krange", "4"],
    ["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0",
     "--bump=-1,1,0.2"],
    ["perturb", "split", "--s2", "1", "--value", "6", "--t", "0.05",
     "--bump=-1,1,0.2"],
    ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
     "--bump=-1,1,0.2,0.2"],
    ["perturb", "continuity", "--potential", "power:gamma=1", "--k", "1",
     "--m", "1", "--count", "3", "--bump=-3,3,0.5"],
]


def test_c13_determinism_across_runs(tmp_path):
    for idx, argv in enumerate(_DETERMINISM_CONFIGS):
        outputs = []
        for run_idx in range(3):
            path = tmp_path / f"{idx}_{run_idx}.out"
            code = run(argv + ["--output", str(path)])
            assert code == 0, (argv, code)
            outputs.append(path.read_bytes())
        assert all(blob == outputs[0] for blob in outputs), argv
    _passline(13, f"{len(_DETERMINISM_CONFIGS)} configs byte-identical across 3 runs")
