import math

import numpy as np
import pytest
import scipy.linalg
from helpers import (
    RankDeficientBasis,
    eigenvector,
    hermite_eigenfunction,
    mathieu_levels,
    rayleigh_max,
    shooting_level,
)
from numpy.testing import assert_allclose

from hypothesis import given
from hypothesis import strategies as st

from grushin import _rqi, schrod1d
from grushin.assembler import assemble
from grushin.cli import run
from grushin.core import (
    CallableProfile,
    ConvergenceError,
    InvariantViolation,
    Perturbation,
    Potential,
    PreconditionError,
    SampledProfile,
    Tolerances,
    eval_potential,
    parse_potential,
)
from grushin.perturb import perturbed_potential
from grushin.schrod1d import (
    Grid,
    _err_floor,
    _extrapolate,
    solve_eigen,
    solve_levels_below,
    solve_on_grid,
    truncation_length,
)

HARMONIC = parse_potential("power:gamma=1")


def test_harmonic_oscillator_levels():
    pairs = solve_eigen(HARMONIC, 1, 5)
    for n, p in enumerate(pairs):
        assert p.lam == pytest.approx(2 * n + 1, rel=1e-6)
        assert p.err_est <= 1e-7 * p.lam * 1.01


def test_harmonic_scaling_in_k():
    assert solve_eigen(HARMONIC, 3, 1)[0].lam == pytest.approx(3.0, rel=1e-6)
    assert solve_eigen(HARMONIC, -2, 2)[1].lam == pytest.approx(6.0, rel=1e-6)


def test_shifted_family_constant_offset():
    pot = parse_potential("shifted:s2=1")
    lams = [p.lam for p in solve_eigen(pot, 1, 3)]
    assert_allclose(lams, [2.0, 4.0, 6.0], rtol=1e-6)


def test_exactness_oracle_rational_shift():
    # (2n+1)|k| + k^2 s2 for s2 = 1/2, k = 2
    pot = parse_potential("shifted:s2=1/2")
    lams = [p.lam for p in solve_eigen(pot, 2, 4)]
    assert_allclose(lams, [4.0, 8.0, 12.0, 16.0], rtol=1e-6)


def _harmonic_action(k: int, energy: float, length: float) -> float:
    # int_a^L sqrt(k^2 x^2 - E) dx with a = sqrt(E)/k, in closed form
    a = math.sqrt(energy) / k
    root = math.sqrt(length * length - a * a)
    return 0.5 * k * (length * root - a * a * math.log((length + root) / a))


def test_truncation_length_examples():
    # for V = x^2 the action beyond the turning point has a closed form: the
    # returned L is the first ladder point past ln(1/eig_rel)/2 + DECAY_MARGIN,
    # up to the trapezoid rule's error on the ladder
    for eig_rel in (1e-5, 1e-7, 1e-10):
        target = 0.5 * math.log(1.0 / eig_rel) + schrod1d.DECAY_MARGIN
        for k, energy in ((1, 25.0), (5, 25.0), (2, 0.5), (1, 300.0)):
            length = truncation_length(HARMONIC, k, energy, Tolerances(eig_rel=eig_rel))
            assert length in schrod1d._LENGTH_LADDER
            assert _harmonic_action(k, energy, length) >= 0.99 * target
            assert _harmonic_action(k, energy, length * 2.0 ** (-1.0 / 64.0)) < 1.01 * target


def test_truncation_length_uses_the_outermost_turning_point():
    # an outer well (|x| - 3)^2 behind a barrier of height 50 at |x| = 1.5:
    # the action across the barrier does not count, only the action past the
    # outer well's turning point |x| = 5 (the harmonic one, shifted by 3)
    double = Potential("cylinder", 1.0, CallableProfile(
        lambda x: np.where(np.abs(x) < 3.0, 50.0 * np.exp(-4.0 * (np.abs(x) - 1.5) ** 2),
                           (np.abs(x) - 3.0) ** 2)))
    target = 0.5 * math.log(1e7) + schrod1d.DECAY_MARGIN
    length = truncation_length(double, 1, 4.0)
    assert _harmonic_action(1, 4.0, length - 3.0) >= 0.99 * target
    assert _harmonic_action(1, 4.0, length * 2.0 ** (-1.0 / 64.0) - 3.0) < 1.01 * target


def test_truncation_length_cap_crossing_is_convergence_error():
    # V = x^100, E = 10: the action reaches its target at L = 1.151 for
    # every eig_rel from 1e-7 to 1e-12, where eps V = 2.9e-10. That passes
    # both eig_rel * E = 1e-11 and the first grid's roundoff floor 1.6e-11 at
    # eig_rel 1e-12, so no L is safe there; at the default 1e-6 * E is far
    # above it
    steep = parse_potential("power:gamma=50")
    assert 1.15 < truncation_length(steep, 1, 10.0) < 1.16
    with pytest.raises(ConvergenceError, match="cannot truncate: at L = ") as info:
        truncation_length(steep, 1, 10.0, Tolerances(eig_rel=1e-12))
    assert "\n" not in str(info.value)
    # the smallest eig_rels keep a finite target -ln(eig_rel)/2 + DECAY_MARGIN:
    # the harmonic cut it reaches is refused by the same check, not taken for
    # a potential that never confines
    with pytest.raises(ConvergenceError, match="cannot truncate: at L = 27.79"):
        truncation_length(HARMONIC, 1, 3.0, Tolerances(eig_rel=1e-320))
    # an overflowing V is refused by the same check, before any grid is built
    overflowing = Potential("cylinder", 1.0, CallableProfile(
        lambda x: np.exp(1e3 * np.asarray(x) ** 2)))
    with pytest.raises(ConvergenceError, match="cannot truncate"):
        solve_eigen(overflowing, 1, 1)


def test_truncation_rejects_torus_and_bad_args():
    torus = parse_potential("torus:gamma=1")
    with pytest.raises(PreconditionError):
        truncation_length(torus, 1, 10.0)
    with pytest.raises(PreconditionError):
        truncation_length(HARMONIC, 1, -1.0)


def test_truncation_nonconfining_errors():
    flat = Potential("cylinder", 1.0,
                     CallableProfile(lambda x: np.ones_like(np.asarray(x, float))))
    with pytest.raises(ConvergenceError, match="confinement"):
        truncation_length(flat, 1, 10.0)


def test_second_order_convergence():
    # the error of the lowest level drops by >= 3.8 when h is halved
    grid = Grid("line", 511, 8.0)
    errs = []
    for _ in range(3):
        lams, _ = solve_on_grid(HARMONIC, 1, 1, grid)
        errs.append(abs(lams[0] - 1.0))
        grid = grid.refined()
    assert errs[0] / errs[1] >= 3.8
    assert errs[1] / errs[2] >= 3.8


def test_orthogonality_and_normalization():
    grid = solve_eigen(HARMONIC, 1, 6)[0].grid
    _, vecs = solve_on_grid(HARMONIC, 1, 6, grid)
    h = grid.h
    for i, u in enumerate(vecs.T):
        assert h * np.dot(u, u) == pytest.approx(1.0, abs=1e-10)
        for v in vecs.T[i + 1:]:
            assert abs(h * np.dot(u, v)) <= 1e-8


def test_line_levels_simple_positive_increasing():
    pot = parse_potential("power:gamma=2")
    pairs = solve_eigen(pot, 2, 6)
    lams = np.array([p.lam for p in pairs])
    assert np.all(lams > 0)
    gaps = np.diff(lams)
    errs = np.array([p.err_est for p in pairs])
    assert np.all(gaps > 10.0 * (errs[:-1] + errs[1:]))


def test_ground_state_has_no_sign_change():
    for pot in (HARMONIC, parse_potential("power:gamma=2")):
        u = eigenvector(pot, solve_eigen(pot, 1, 1)[0])
        body = u[np.abs(u) > 1e-9 * np.max(np.abs(u))]
        assert np.all(body > 0)


def test_refinement_budget_error_carries_best():
    with pytest.raises(ConvergenceError, match="roundoff floor") as info:
        solve_eigen(HARMONIC, 1, 1, Tolerances(eig_rel=1e-15))
    assert info.value.best is not None
    assert info.value.best[0].lam == pytest.approx(1.0, rel=1e-5)
    # the message says how far the solve got, not only that it failed
    assert "grids visited: 255, 511, 1023" in str(info.value)
    assert "best relative error reached" in str(info.value)


def test_budget_exhausted_message_carries_grids_and_best_error(monkeypatch):
    # six harmonic levels need 2047 nodes at the default tolerance
    monkeypatch.setattr(schrod1d, "LINE_MAX_NODES", 1023)
    with pytest.raises(ConvergenceError, match="budget of 1023 nodes exhausted") as info:
        solve_eigen(HARMONIC, 1, 6)
    assert "grids visited: 255, 511, 1023 nodes" in str(info.value)
    assert "best relative error reached" in str(info.value)
    best = info.value.best
    assert [p.n for p in best] == list(range(6))
    assert_allclose([p.lam for p in best], [1, 3, 5, 7, 9, 11], rtol=1e-6)
    assert all(abs(p.lam - (2 * p.n + 1)) <= p.err_est for p in best)


# --- error-estimate effectivity at default tolerances ------------------------
# Every level must satisfy |lam - ref| <= err_est <= eig_rel * lam: the
# estimate may not under-run the true error, and the target must be met.

QUARTIC_LITERATURE = (1.0603620905, 3.7996730298, 7.4556979380, 11.6447455114)


def _assert_effective(pairs, refs, ref_tol=0.0):
    for p, ref in zip(pairs, refs, strict=True):
        assert abs(p.lam - ref) <= p.err_est + ref_tol, (p.k, p.n, p.lam, ref, p.err_est)
        assert p.err_est <= Tolerances().eig_rel * p.lam, (p.k, p.n, p.err_est)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_effectivity_harmonic(k):
    _assert_effective(solve_eigen(HARMONIC, k, 6), [(2 * n + 1) * k for n in range(6)])


@pytest.mark.parametrize("s2,shift", [("1", 1.0), ("1/2", 0.5)])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_effectivity_shifted(s2, shift, k):
    pairs = solve_eigen(parse_potential(f"shifted:s2={s2}"), k, 6)
    _assert_effective(pairs, [(2 * n + 1) * k + k * k * shift for n in range(6)])


def test_shifted_truncation_measures_rise_above_floor():
    # the constant part of V = x^2 + 1 confines nothing; counting it toward
    # the barrier once gave a domain whose truncation error was 3x err_est
    pair = solve_eigen(parse_potential("shifted:s2=1"), 2, 1)[0]
    assert abs(pair.lam - 6.0) <= pair.err_est <= 1e-7 * 6.0


# V = 0.01 x^2 on integer nodes, with the quadratic tail beyond them: the
# chords make V kinked at every node
_CHORD_TABLE = Potential("cylinder", 1.0, SampledProfile(
    nodes=tuple((x, 0.01 * x * x) for x in range(-4, 5)), extrapolation_exponent=2.0))

_DOUBLING_CASES = [
    ("power:gamma=0.5", 1, 4, 8.0),
    ("power:gamma=0.75", 1, 4, 8.0),
    ("power:gamma=1", 1, 4, 8.0),
    ("power:gamma=2", 1, 4, 8.0),
    ("shifted:s2=1", 2, 1, 8.0),
    ("table", 1, 4, 0.8),
]


@pytest.mark.parametrize("eig_rel", [1e-5, 1e-7])
@pytest.mark.parametrize("spec, k, m, e_max", _DOUBLING_CASES,
                         ids=[case[0] for case in _DOUBLING_CASES])
def test_doubling_the_domain_moves_levels_by_a_tenth_of_err_est(spec, k, m, e_max, eig_rel):
    # truncation error sits below the solver's error: the extrapolant of the
    # final grid and its coarsening, recomputed on [-2L, 2L] at the same h,
    # moves every level by at most 0.1 err_est beyond the roundoff floors of
    # the two extrapolants (each up to _err_floor of the final grid); m levels
    # from solve_eigen, and the levels below e_max from solve_levels_below
    pot = _CHORD_TABLE if spec == "table" else parse_potential(spec)
    tol = Tolerances(eig_rel=eig_rel)
    for pairs in (solve_eigen(pot, k, m, tol), solve_levels_below(pot, k, e_max, tol)):
        grid = pairs[0].grid
        wide = Grid("line", 2 * grid.npoints + 1, 2.0 * grid.length)
        assert wide.h == pytest.approx(grid.h, rel=1e-14)
        fine, _ = solve_on_grid(pot, k, len(pairs), wide, vectors=False)
        coarse, _ = solve_on_grid(pot, k, len(pairs), wide.coarsened(), vectors=False)
        for p, lam in zip(pairs, (4.0 * fine - coarse) / 3.0):
            move = abs(lam - p.lam) - 2.0 * _err_floor(grid, p.lam)
            assert move <= 0.1 * p.err_est, (p.n, move / p.err_est)


def test_effectivity_quartic_literature():
    # the references are rounded to 10 decimals
    pairs = solve_eigen(parse_potential("power:gamma=2"), 1, 4)
    _assert_effective(pairs, QUARTIC_LITERATURE, ref_tol=5e-11)


@pytest.mark.parametrize("gamma", ["0.5", "0.75", "1.5"])
def test_effectivity_against_shooting(gamma):
    pairs = solve_eigen(parse_potential(f"power:gamma={gamma}"), 1, 3)
    refs = [shooting_level(float(gamma), 1, p.n, (0.999 * p.lam, 1.001 * p.lam))
            for p in pairs]
    _assert_effective(pairs, refs)


def test_mathieu_oracle_matches_scipy():
    # 2pi-periodic solutions in x = 2z are Mathieu's even orders at q = 4k^2:
    # lambda = 2k^2 + a/4 over a_0 < b_2 < a_2 < b_4 < ...; scipy's values
    # go wrong at larger q (mathieu_a(4, 4096) returns mathieu_a(2, 4096))
    from scipy.special import mathieu_a, mathieu_b

    m = 9
    for k in (1, 2, 4, 8, 16):
        q = 4.0 * k * k
        chars = [float(mathieu_a(0, q))]
        for r in range(2, 2 * m + 2, 2):
            chars += [float(mathieu_a(r, q)), float(mathieu_b(r, q))]
        scipy_levels = [2.0 * k * k + a / 4.0 for a in sorted(chars)[:m]]
        assert_allclose(mathieu_levels(k, m), scipy_levels, rtol=1e-11, atol=0.0)


_TORUS_CASES = [(k, m) for m in (5, 9) for k in (1, 2, 4, 8, 16, 32)]


@pytest.mark.parametrize("k,m", _TORUS_CASES,
                         ids=[f"{k}" if m == 5 else f"{k}-m{m}" for k, m in _TORUS_CASES])
def test_effectivity_torus_default_tolerance(k, m):
    pairs = solve_eigen(parse_potential("torus:gamma=1"), k, m)
    _assert_effective(pairs, mathieu_levels(k, m))


def test_even_circle_takes_the_line_budget():
    # 40 levels at the default tolerance need 5,120 nodes, past the dense cap
    pairs = solve_eigen(parse_potential("torus:gamma=1"), 1, 40)
    assert pairs[0].grid.npoints > schrod1d.CIRCLE_MAX_NODES
    _assert_effective(pairs, mathieu_levels(1, 40))


def test_perturbed_torus_keeps_the_dense_cap():
    # a bump off x = 0 breaks evenness, so the circle takes the dense solve
    pot = perturbed_potential(parse_potential("torus:gamma=1"),
                              Perturbation(0.5, 1.5, 0.2), 0.1)
    with pytest.raises(ConvergenceError, match="budget of 4096 nodes exhausted") as info:
        solve_eigen(pot, 1, 40)
    assert "grids visited: 80, 160, 320, 640, 1280, 2560 nodes" in str(info.value)
    assert "best relative error reached" in str(info.value)
    best = info.value.best
    assert [p.n for p in best] == list(range(40))
    assert all(p.grid.npoints == 2560 for p in best)


@pytest.mark.parametrize("gamma,engages", [("0.5", False), ("0.75", True),
                                           ("1.5", False), ("2", False)])
def test_order_fallback_engages_on_nonsmooth_potentials(gamma, engages):
    # |x|^(2 gamma) is not smooth at 0 for gamma < 1: for gamma = 0.75, on
    # some of the solver's own grids the observed order of level 0 strays
    # from 2 (2.07 on 255-511-1023 nodes), and the plain estimate
    # |lam_h - lam_{h/2}| / 3 replaces the successive-extrapolant one; the
    # kink of |x| leaves every observed order within 0.011 of 2
    pot = parse_potential(f"power:gamma={gamma}")
    pairs = solve_eigen(pot, 1, 6)
    grids = [pairs[0].grid]
    while grids[-1].npoints > 255:
        grids.append(grids[-1].coarsened())
    lams = [solve_on_grid(pot, 1, 6, g, vectors=False)[0] for g in reversed(grids)]
    plain_used = False
    for coarser, coarse, fine in zip(lams, lams[1:], lams[2:]):
        _, err = _extrapolate(coarser, coarse, fine)
        plain_used |= bool(np.any(err == np.abs(coarse - fine) / 3.0))
    assert plain_used == engages


def test_lam_is_extrapolant_of_final_grid_and_its_coarsening(monkeypatch):
    # the refinement's own discrete eigenvalues, from bisection on the first
    # grid and seeded solves after it, keyed by node count
    solved = {}

    def spy(name):
        original = getattr(schrod1d, name)

        def wrapped(potential, k, m, grid, *args, **kwargs):
            out = original(potential, k, m, grid, *args, **kwargs)
            solved[grid.npoints] = out[0].copy()
            return out
        monkeypatch.setattr(schrod1d, name, wrapped)

    spy("solve_on_grid")
    spy("_seeded")
    pair = solve_eigen(HARMONIC, 1, 1)[0]
    monkeypatch.undo()
    fine, coarse = solved[pair.grid.npoints][0], solved[pair.grid.coarsened().npoints][0]
    assert pair.lam == (4.0 * fine - coarse) / 3.0
    # each agrees with bisection on its grid to within the roundoff floor
    for grid, lam in ((pair.grid, fine), (pair.grid.coarsened(), coarse)):
        bisected, _ = solve_on_grid(HARMONIC, 1, 1, grid, vectors=False)
        assert abs(lam - bisected[0]) <= _err_floor(grid, lam)
    lam_grid, _ = solve_on_grid(HARMONIC, 1, 1, pair.grid)
    assert lam_grid[0] == solve_on_grid(HARMONIC, 1, 1, pair.grid, vectors=False)[0][0]
    # the grid value carries the O(h^2) bias that the extrapolant removes
    assert abs(lam_grid[0] - 1.0) > 100.0 * abs(pair.lam - 1.0)


def test_eigenvalues_only_matches_full_solve():
    grid = Grid("line", 511, 8.0)
    lams, vecs = solve_on_grid(HARMONIC, 1, 3, grid)
    only, none = solve_on_grid(HARMONIC, 1, 3, grid, vectors=False)
    assert none is None and vecs.shape == (511, 3)
    assert_allclose(only, lams, rtol=0, atol=0)


def test_refinement_bisects_only_the_first_line_grid(monkeypatch):
    # a line solve bisects its first grid, with vectors, and seeds every
    # refined grid from them; the circle bisects every grid, without vectors
    bisected, seeded = [], []
    solve, seed = schrod1d.solve_on_grid, schrod1d._seeded

    def spy_solve(potential, k, m, grid, vectors=True):
        bisected.append((grid.kind, grid.npoints, vectors))
        return solve(potential, k, m, grid, vectors=vectors)

    def spy_seed(potential, k, m, grid, seeds, coarse=None):
        seeded.append((grid.kind, grid.npoints, seeds is not None))
        return seed(potential, k, m, grid, seeds, coarse)

    monkeypatch.setattr(schrod1d, "solve_on_grid", spy_solve)
    monkeypatch.setattr(schrod1d, "_seeded", spy_seed)
    pairs = solve_eigen(HARMONIC, 1, 3)
    assert bisected == [("line", 255, True)]
    assert seeded == [("line", 511, True), ("line", 1023, True)]
    assert pairs[0].grid.npoints == 1023
    bisected.clear(), seeded.clear()
    solve_eigen(parse_potential("torus:gamma=1"), 1, 2, Tolerances(eig_rel=1e-5))
    assert bisected and not any(vectors for _, _, vectors in bisected)
    assert seeded and not any(given for _, _, given in seeded)
    bisected.clear(), seeded.clear()
    solve_levels_below(HARMONIC, 2, 13.0)
    assemble(HARMONIC, 6.0, mode="numeric")
    # every bisection is a first grid, of 255 nodes
    assert bisected and set(bisected) == {("line", 255, True)}
    assert seeded and all(kind == "line" and given for kind, _, given in seeded)


def test_solve_levels_below():
    pairs = solve_levels_below(HARMONIC, 2, 13.0)
    # (2n+1)*2 <= 13: 2, 6, 10
    assert_allclose([p.lam for p in pairs], [2.0, 6.0, 10.0], rtol=1e-6)


def test_levels_below_keeps_a_level_at_the_cap():
    # 7 is a level of x^2: within the keep rule's margin of the cap, it is
    # kept, and the solve reaches the first level certified above the cap
    pairs = solve_levels_below(HARMONIC, 1, 7.0)
    assert_allclose([p.lam for p in pairs], [1.0, 3.0, 5.0, 7.0], rtol=1e-6)


def test_levels_below_recounts_when_the_count_falls_short(monkeypatch):
    # a first count two short leaves the top level below the cap: the solve
    # recounts on its final grid and repeats rather than drop levels
    real = schrod1d._count_below
    counts = []

    def short(potential, k, cap, grid):
        counts.append(real(potential, k, cap, grid))
        return counts[-1] - 2 if len(counts) == 1 else counts[-1]

    monkeypatch.setattr(schrod1d, "_count_below", short)
    pairs = solve_levels_below(HARMONIC, 1, 13.5)
    assert_allclose([p.lam for p in pairs], [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0], rtol=1e-6)
    assert counts == [7, 7]


@pytest.mark.parametrize("spec", ["power:gamma=1", "torus:gamma=1"])
def test_levels_below_refuses_mode_zero(monkeypatch, spec):
    # refused before any count or truncation, with solve_eigen's message
    def count(*args):
        raise AssertionError("counted for k = 0")

    monkeypatch.setattr(schrod1d, "_count_below", count)
    with pytest.raises(PreconditionError, match="k must be nonzero"):
        solve_levels_below(parse_potential(spec), 0, 5.0)
    with pytest.raises(PreconditionError, match="k must be nonzero"):
        solve_eigen(parse_potential(spec), 0, 1)
    with pytest.raises(PreconditionError, match="k must be nonzero"):
        truncation_length(HARMONIC, 0, 5.0)


def test_torus_levels_below_solve_once_from_the_first_count(monkeypatch):
    # the first count sees every level below the cap, past the first grid's
    # N/2: one refinement, whose solves all ask for its m levels
    pairs_calls, grid_calls = [], []
    real_pairs, real_grid = schrod1d._pairs, schrod1d.solve_on_grid

    def spy_pairs(potential, k, m, grid, tol, first=None):
        pairs_calls.append(m)
        return real_pairs(potential, k, m, grid, tol, first)

    def spy_grid(potential, k, m, grid, **kwargs):
        grid_calls.append(m)
        return real_grid(potential, k, m, grid, **kwargs)

    monkeypatch.setattr(schrod1d, "_pairs", spy_pairs)
    monkeypatch.setattr(schrod1d, "solve_on_grid", spy_grid)
    pairs = solve_levels_below(parse_potential("torus:gamma=1"), 1, 300.0)
    assert len(pairs_calls) == 1 and pairs_calls[0] > len(pairs) > 32
    assert grid_calls and set(grid_calls) == set(pairs_calls)


def test_kinked_power_spectrum_answers(capsys):
    # V = |x|: 70 levels of mode 1 lie below 30; a sample, top levels
    # included, agrees with shooting within err_est
    argv = ["spectrum", "--potential", "power:gamma=0.5", "--mode", "numeric",
            "--emax", "30", "--format", "csv"]
    assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    mode_one = [kn for row in rows for kn in row.split(",")[2].split(";") if kn.startswith("1:")]
    assert len(mode_one) == 70
    pairs = solve_levels_below(parse_potential("power:gamma=0.5"), 1, 30.0)
    assert len(pairs) == 70
    for p in (pairs[0], pairs[1], pairs[35], pairs[-2], pairs[-1]):
        ref = shooting_level(0.5, 1, p.n, (0.9995 * p.lam, 1.0005 * p.lam))
        assert abs(p.lam - ref) <= p.err_est, (p.n, p.lam, ref, p.err_est)


# --- Hermite functions -----------------------------------------------------

def test_hermite_values_at_zero():
    assert hermite_eigenfunction(1, 0, 0.0) == pytest.approx(np.pi ** -0.25, rel=1e-12)
    assert hermite_eigenfunction(1, 1, 0.0) == 0.0


def test_hermite_matches_direct_formula():
    from scipy.special import eval_hermite

    xs = np.linspace(-4, 4, 201)
    for k in (1, 4):
        z = xs * math.sqrt(k)
        for n in (0, 1, 2, 5, 9):
            direct = (eval_hermite(n, z) * np.exp(-0.5 * z * z)
                      / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi)))
            assert_allclose(hermite_eigenfunction(k, n, xs), k ** 0.25 * direct,
                            rtol=1e-10, atol=1e-12)


def test_hermite_scaling_and_norm():
    xs = np.linspace(-6, 6, 5001)
    # phi_{k,n}(x) = k^(1/4) phi_{1,n}(x sqrt(k))
    assert_allclose(hermite_eigenfunction(4, 0, xs),
                    math.sqrt(2.0) * hermite_eigenfunction(1, 0, 2.0 * xs),
                    rtol=1e-12, atol=1e-15)
    for k, n in ((1, 0), (4, 0), (3, 4)):
        vals = hermite_eigenfunction(k, n, xs)
        norm = np.trapezoid(vals * vals, xs)
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_hermite_matches_inverse_iteration_vectors():
    for k, n in ((1, 0), (1, 2), (3, 1), (1, 5)):
        pair = solve_eigen(HARMONIC, k, n + 1)[n]
        u = eigenvector(HARMONIC, pair)
        x = pair.grid.points()
        h = pair.grid.h
        phi = hermite_eigenfunction(k, n, x)
        phi = phi / math.sqrt(h * np.dot(phi, phi))
        if np.dot(phi, u) < 0:
            phi = -phi
        dist = math.sqrt(h * np.dot(phi - u, phi - u))
        assert dist <= 1e-4


# --- Rayleigh quotients ----------------------------------------------------

def test_rayleigh_of_eigenvectors():
    grid = solve_eigen(HARMONIC, 1, 4)[0].grid
    lam_grid, vecs = solve_on_grid(HARMONIC, 1, 4, grid)
    # the vectors are discrete eigenvectors: their quotients give the grid values
    assert rayleigh_max(HARMONIC, 1, grid, [vecs[:, 0]]) == pytest.approx(
        lam_grid[0], rel=1e-8)
    # min-max: the span of the first m eigenvectors realizes lambda_{m-1}
    assert rayleigh_max(HARMONIC, 1, grid, list(vecs.T)) == pytest.approx(
        lam_grid[3], rel=1e-8)


def test_rayleigh_translate_against_2x2_oracle():
    ground = solve_eigen(HARMONIC, 1, 1)[0]
    grid = ground.grid
    x = grid.points()
    h = grid.h
    u = eigenvector(HARMONIC, ground)
    v = np.interp(x - 0.5, x, u, left=0.0, right=0.0)
    got = rayleigh_max(HARMONIC, 1, grid, [u, v])

    # independent 2x2 pencil via the Dirichlet energy form (summation by parts)
    def energy(f, g):
        df = np.diff(np.concatenate([[0.0], f, [0.0]]))
        dg = np.diff(np.concatenate([[0.0], g, [0.0]]))
        return float(np.dot(df, dg) / h + h * np.dot(x * x * f, g))

    def mass(f, g):
        return float(h * np.dot(f, g))

    a = np.array([[energy(u, u), energy(u, v)], [energy(v, u), energy(v, v)]])
    s = np.array([[mass(u, u), mass(u, v)], [mass(v, u), mass(v, v)]])
    import scipy.linalg

    oracle = float(scipy.linalg.eigh(a, s, eigvals_only=True)[-1])
    assert got == pytest.approx(oracle, rel=1e-9)
    assert got > 1.0


def test_rayleigh_rank_deficient():
    ground = solve_eigen(HARMONIC, 1, 1)[0]
    with pytest.raises(RankDeficientBasis):
        u = eigenvector(HARMONIC, ground)
        rayleigh_max(HARMONIC, 1, ground.grid, [u, 2.0 * u])


# --- circle problems -------------------------------------------------------

def test_circle_constant_potential_oracle():
    # -u'' + k^2 on the circle: eigenvalues k^2 + j^2 with j = 0, 1, 1, 2, 2
    flat = Potential("torus", 1.0,
                     CallableProfile(lambda x: np.ones_like(np.asarray(x, float))))
    tol = Tolerances(eig_rel=1e-5)
    for k in (1, 2):
        lams = [p.lam for p in solve_eigen(flat, k, 5, tol)]
        assert_allclose(lams, [k * k, k * k + 1, k * k + 1, k * k + 4, k * k + 4],
                        rtol=1e-5)


def test_circle_sine_base_potential():
    pot = parse_potential("torus:gamma=1")
    tol = Tolerances(eig_rel=1e-5)
    pairs = solve_eigen(pot, 1, 4, tol)
    lams = np.array([p.lam for p in pairs])
    assert np.all(lams > 0)
    assert np.all(np.diff(lams) > -1e-12)
    h = pairs[0].grid.h
    for p in pairs:
        u = eigenvector(pot, p)
        assert h * np.dot(u, u) == pytest.approx(1.0, abs=1e-10)


def test_grid_invariants():
    with pytest.raises(Exception):
        Grid("line", 8, 1.0)
    with pytest.raises(InvariantViolation, match="even node count"):
        Grid("circle", 65)
    grid = Grid("line", 255, 5.0)
    assert grid.h == pytest.approx(10.0 / 256)
    assert grid.refined().h == pytest.approx(grid.h / 2)
    circle = Grid("circle", 64)
    assert circle.h == pytest.approx(2 * math.pi / 64)
    assert len(circle.points()) == 64


@pytest.mark.parametrize("grid", [Grid("line", 33, 2.0), Grid("line", 1023, 7.5),
                                  Grid("circle", 32), Grid("circle", 1024)],
                         ids=["line-33", "line-1023", "circle-32", "circle-1024"])
def test_coarsened_inverts_refined_at_twice_the_spacing(grid):
    # the Richardson step pairs a grid with its coarsening, so h' = 2h exactly
    assert grid.refined().coarsened() == grid
    assert grid.coarsened().h == 2 * grid.h


@pytest.mark.parametrize("grid", [Grid("line", 64, 1.0), Grid("circle", 66)],
                         ids=["line-64", "circle-66"])
def test_coarsened_refuses_a_grid_without_an_exact_2h_coarsening(grid):
    # an even line count has no coarsening at spacing 2h (64 nodes would give
    # h = 0.0625, not 2 * 2 / 65), and half of 66 circle nodes is odd
    with pytest.raises(InvariantViolation, match="no exact 2h coarsening exists"):
        grid.coarsened()


# --- seeded line solves ------------------------------------------------------
# A refined line grid, and each branch step, is solved by Rayleigh-quotient
# iteration from nearby vectors, accepted only under a certificate (_rqi);
# bisection on the same grid is the reference.

_SEEDED_POTENTIALS = {
    **{f"power:gamma={g}": parse_potential(f"power:gamma={g}") for g in ("0.5", "0.75", "1", "2")},
    "shifted:s2=2": parse_potential("shifted:s2=2"),
    "bumped gamma=1": perturbed_potential(HARMONIC, Perturbation(-1.0, 1.0, 0.2), 0.3),
    "bumped gamma=0.5": perturbed_potential(parse_potential("power:gamma=0.5"),
                                            Perturbation(0.2, 2.0, 0.2), 0.5),
}


def _line_grid(pot, k: int, m: int, npoints: int) -> Grid:
    # the solver's own cut for m levels
    energy = abs(k) * (2.0 * m + 1.0) + k * k * float(eval_potential(pot, 0.0))
    return Grid("line", npoints, truncation_length(pot, k, energy))


@given(spec=st.sampled_from(sorted(_SEEDED_POTENTIALS)), k=st.integers(1, 3),
       m=st.integers(1, 8), npoints=st.sampled_from([255, 511, 1023, 2047]))
def test_seeded_solve_matches_bisection(spec, k, m, npoints):
    # seeds carried over from bisection on the grid 2h coarser, as the
    # refinement carries them: the certificate holds, the values agree with
    # bisection within the roundoff floor and the vectors to 1e-10
    pot = _SEEDED_POTENTIALS[spec]
    grid = _line_grid(pot, k, m, npoints)
    coarse_lams, coarse = solve_on_grid(pot, k, m, grid.coarsened())
    diag, off = schrod1d._tridiagonal_matrix(pot, k, grid)
    out = _rqi.certified_eigh(diag, off, _rqi.carry(diag, off, coarse, coarse_lams))
    assert out is not None
    lams, vecs = out
    ref, ref_vecs = schrod1d._tridiagonal(diag, off, m, True)
    for lam, lam_ref in zip(lams, ref):
        assert abs(lam - lam_ref) <= _err_floor(grid, lam_ref)
    assert np.all(np.abs(np.sum(vecs * ref_vecs, axis=0)) >= 1.0 - 1e-10)
    # through _seeded, normalized as solve_on_grid normalizes
    lams_s, vecs_s = schrod1d._seeded(pot, k, m, grid, coarse, coarse_lams)
    assert np.array_equal(lams_s, lams)
    assert_allclose(grid.h * np.sum(vecs_s * vecs_s, axis=0), 1.0, rtol=1e-12)


def _exact_seeds(columns):
    # bisection's own vectors on the grid, as seeds for the given levels
    pot, k = HARMONIC, 1
    grid = _line_grid(pot, k, 4, 511)
    diag, off = schrod1d._tridiagonal_matrix(pot, k, grid)
    _, vecs = schrod1d._tridiagonal(diag, off, max(columns) + 1, True)
    return pot, k, grid, diag, off, np.asfortranarray(vecs[:, columns])


@pytest.mark.parametrize("columns", [[0, 0, 2], [0, 2], [1, 0]],
                         ids=["repeated", "skipped", "swapped"])
def test_certificate_refuses_seeds_that_miss_a_level(columns):
    # converging exactly to the levels seeded, [0, 0, 2] passes the count at
    # its top (3) but not disjointness; [0, 2] is disjoint but counts 3 below
    # its top, not 2; [1, 0] is out of order
    _, _, _, diag, off, seeds = _exact_seeds(columns)
    assert _rqi.certified_eigh(diag, off, seeds) is None


def test_certificate_accepts_exact_seeds():
    _, _, grid, diag, off, seeds = _exact_seeds([0, 1, 2])
    lams, _ = _rqi.certified_eigh(diag, off, seeds)
    for lam, lam_ref in zip(lams, schrod1d._tridiagonal(diag, off, 3, False)):
        assert abs(lam - lam_ref) <= _err_floor(grid, lam_ref)


def test_failed_certificate_falls_back_to_bisection_bit_for_bit(monkeypatch):
    # every column seeded with level 0: the certificate fails, and _seeded
    # returns exactly what bisection on the same grid returns
    pot, k, grid, diag, off, _ = _exact_seeds([0])
    lam, seed = solve_on_grid(pot, k, 1, grid.coarsened())
    seeds = np.repeat(_rqi.carry(diag, off, seed, lam), 4, axis=1)
    assert _rqi.certified_eigh(diag, off, seeds.copy(order="F")) is None
    lams, vecs = schrod1d._seeded(pot, k, 4, grid, seeds)
    ref, ref_vecs = schrod1d._tridiagonal(diag, off, 4, True)
    assert np.array_equal(lams, ref)
    assert np.array_equal(vecs, ref_vecs / math.sqrt(grid.h))


def _joined_blocks(shift: float):
    # two copies of tridiag(-1, 2, -1) of order 10, joined by a zero
    # off-diagonal, the second raised by shift * eps * ||T||: the two lowest
    # eigenvalues lie that far apart, with exact vectors as seeds
    diag, off = np.full(20, 2.0), np.full(19, -1.0)
    off[9] = 0.0
    diag[10:] += shift * _rqi._EPS * 4.0
    return diag, off


@pytest.mark.parametrize("m, shift, accepted", [
    (2, 80.0, False), (2, 400.0, True), (1, 60.0, False), (1, 400.0, True)])
def test_certificate_refuses_a_quotient_it_cannot_prove_accurate(m, shift, accepted):
    # exact seeds, so rho is a fraction of eps ||T|| and r about 24 eps ||T||.
    # m = 2 at 80 apart: the residual intervals are disjoint and the count
    # holds, but s^2 > eps ||T|| g, so the Kato-Temple bound proves nothing.
    # m = 1 at 60 apart: the count at sigma + r is 1, but the count point
    # that the bound needs, about 113 eps ||T|| up, already passes level 1.
    diag, off = _joined_blocks(shift)
    lams, vecs = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1))
    unit = _rqi._EPS * _rqi._norm_inf(diag, off)
    # what the certificate asked before: disjoint intervals, a count of m at
    # sigma + r; the seeds meet it
    r = np.array([1.01 * _rqi._rayleigh(diag, off, v.copy())[1] for v in vecs.T])
    r += _rqi.MARGIN_EPS * unit
    assert np.all(lams[:-1] + r[:-1] < lams[1:] - r[1:])
    assert _rqi.sturm_count(diag, off, lams[-1] + r[-1]) == m
    out = _rqi.certified_eigh(diag, off, np.asfortranarray(vecs))
    assert (out is not None) == accepted
    if accepted:
        assert np.all(np.abs(out[0] - lams) <= unit)


def test_near_degenerate_pair_iterates_then_bisects(monkeypatch):
    # a symmetric double well, its levels 0 and 1 about 1e9 eps ||T|| apart.
    # Carried from the coarse vectors, each level takes one solve; seeds that
    # each sit in one well mix the pair, so one solve does not meet the bound:
    # the columns iterate to the cap, and the grid is bisected
    pot = Potential("cylinder", 1.0, CallableProfile(lambda x: (x * x - 6.25) ** 2 / 6.25))
    grid = Grid("line", 1023, 6.5)
    lams_c, vecs_c = solve_on_grid(pot, 1, 2, grid.coarsened())
    ref = solve_on_grid(pot, 1, 2, grid, vectors=False)[0]
    solves, dgtsv = [], scipy.linalg.lapack.dgtsv
    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv",
                        lambda *a, **kw: solves.append(1) or dgtsv(*a, **kw))
    wells = np.column_stack([vecs_c[:, 0] + vecs_c[:, 1], vecs_c[:, 0] - vecs_c[:, 1]])
    for seeds, taken in ((vecs_c, 2), (wells, 2 * _rqi.ITERATIONS)):
        solves.clear()
        lams, _ = schrod1d._seeded(pot, 1, 2, grid, seeds.copy(), lams_c)
        assert len(solves) == taken
        for lam, lam_ref in zip(lams, ref):
            assert abs(lam - lam_ref) <= _err_floor(grid, lam_ref)


# the operations of the benchmark's perturb_lab pass and the numeric spectra
# of its line_spectrum pass, at seed 1
_BUMP = "--bump=-0.954,1.046,0.2"
_SEEDED_RUNS = {
    "perturb": [
        ["perturb", "branch", "--potential", "power:gamma=1", "--k", "1", "--levels", "0,1",
         "--tmax", "0.1", "--steps", "8", _BUMP],
        ["perturb", "hf", "--potential", "power:gamma=1", "--k", "1", "--n", "0", _BUMP],
        ["perturb", "split", "--s2", "1", "--value", "6", "--t", "0.05", _BUMP],
        ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1", _BUMP + ",0.2"],
        ["perturb", "continuity", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
         "--count", "3", "--bump=-1.954,2.046,0.5"],
    ],
    "spectrum": [["spectrum", "--potential", f"power:gamma={g}", "--emax", e, "--mode", "numeric"]
                 for g, e in (("1", "6.703"), ("2", "12.062"), ("0.75", "4.628"))],
}


@pytest.mark.parametrize("runs, solves", [("perturb", 92), ("spectrum", 34)])
def test_one_shifted_solve_per_seeded_column(monkeypatch, capsys, runs, solves):
    # carried seeds leave residuals near 1e-7 ||T||, and one Rayleigh step
    # then meets the Kato-Temple bound: one dgtsv solve per seeded column,
    # every certificate accepted (the mean-of-neighbours carry took 183 and 64)
    calls, columns, certify, dgtsv = [], [], schrod1d.certified_eigh, scipy.linalg.lapack.dgtsv

    def spy(diag, off, y):
        out = certify(diag, off, y)
        columns.append(y.shape[1] if out is not None else 0)
        return out

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv",
                        lambda *a, **kw: calls.append(1) or dgtsv(*a, **kw))
    monkeypatch.setattr(schrod1d, "certified_eigh", spy)
    for argv in _SEEDED_RUNS[runs]:
        assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == sum(columns) == solves


# (spec, k, npoints): line grids cut for 6 levels of mode 1, and even circles
_COUNT_CASES = ([(spec, 1, n) for n in (255, 1023, 4095)
                 for spec in ("power:gamma=0.5", "power:gamma=1", "power:gamma=2",
                              "bumped gamma=1")]
                + [(f"torus:gamma={g}", k, n) for g in ("0.5", "1", "2")
                   for k, n in ((1, 64), (2, 128), (3, 256), (4, 512))])


@pytest.mark.parametrize("spec, k, npoints", _COUNT_CASES,
                         ids=[f"{n}-{s}" if s in _SEEDED_POTENTIALS else f"{n}-k{k}-{s}"
                              for s, k, n in _COUNT_CASES])
def test_sturm_count_equals_bisection_count(spec, k, npoints):
    # the count below a cap is the very integer that bisection by value
    # returns, also at caps on and next to computed eigenvalues, and i + 1
    # between levels i and i + 1; an even circle's matrix joins its even and
    # odd problems by a zero off-diagonal
    if spec in _SEEDED_POTENTIALS:
        pot = _SEEDED_POTENTIALS[spec]
        grid = _line_grid(pot, k, 6, npoints)
    else:
        pot, grid = parse_potential(spec), Grid("circle", npoints)
    diag, off = schrod1d._tridiagonal_matrix(pot, k, grid)
    lams = solve_on_grid(pot, k, 8, grid, vectors=False)[0]
    caps = [0.0, 0.5 * lams[0], 13.7]
    for lam in lams:
        caps += [lam, np.nextafter(lam, -np.inf), np.nextafter(lam, np.inf), lam + 1e-9]
    for cap in caps:
        ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                            select_range=(-np.inf, cap),
                                            lapack_driver="stebz").size
        assert _rqi.sturm_count(diag, off, float(cap)) == ref, cap
        assert schrod1d._count_below(pot, k, float(cap), grid) == ref, cap
    for i, (lo, hi) in enumerate(zip(lams, lams[1:])):
        if hi - lo > 1e-8 * hi:
            assert schrod1d._count_below(pot, k, 0.5 * (lo + hi), grid) == i + 1
    # above every eigenvalue
    assert _rqi.sturm_count(diag, off, 1e9) == npoints


def _dense_circle_levels(pot, k: int, grid: Grid) -> np.ndarray:
    # every eigenvalue of the dense periodic matrix, built independently of
    # the parity split
    n, h2 = grid.npoints, grid.h * grid.h
    ring = np.roll(np.eye(n), 1, axis=1)
    mat = np.diag(2.0 / h2 + k * k * eval_potential(pot, grid.points())) - (ring + ring.T) / h2
    return scipy.linalg.eigvalsh(mat)


def test_circle_count_reaches_past_half_the_nodes():
    # 41 of the 64 levels of a 64-node circle lie below 300, which only a
    # count over the whole joined matrix sees; the reference is the dense
    # periodic matrix
    pot, grid = parse_potential("torus:gamma=1"), Grid("circle", 64)
    lams = _dense_circle_levels(pot, 1, grid)
    assert np.min(np.abs(lams - 300.0)) > 1.0
    assert schrod1d._count_below(pot, 1, 300.0, grid) == np.sum(lams <= 300.0) == 41
    # a cap midway between dense levels i and i + 1 counts i + 1, over every
    # level of the grid, and one above them all counts every node
    for gamma in ("0.5", "1", "2"):
        pot = parse_potential(f"torus:gamma={gamma}")
        for k in (1, 2, 4):
            for n in (64, 128, 256):
                grid = Grid("circle", n)
                lams = _dense_circle_levels(pot, k, grid)
                for i, (lo, hi) in enumerate(zip(lams, lams[1:])):
                    if hi - lo > 1e-8 * abs(hi):
                        cap = 0.5 * (lo + hi)
                        assert schrod1d._count_below(pot, k, cap, grid) == i + 1, (gamma, k, n, i)
                assert schrod1d._count_below(pot, k, 2.0 * lams[-1], grid) == n


def test_dense_circle_count_reaches_past_half_the_nodes():
    # a bump off x = 0 breaks evenness, so the circle takes the dense solve;
    # its count covers every level of the grid too, not only the lowest N/2
    pot = perturbed_potential(parse_potential("torus:gamma=1"), Perturbation(0.5, 1.5, 0.2), 1.0)
    grid = Grid("circle", 64)
    lams = _dense_circle_levels(pot, 1, grid)
    assert np.min(np.abs(lams - 300.0)) > 1.0
    assert schrod1d._count_below(pot, 1, 300.0, grid) == np.sum(lams <= 300.0) == 41
    for i, (lo, hi) in enumerate(zip(lams, lams[1:])):
        if hi - lo > 1e-8 * abs(hi):
            assert schrod1d._count_below(pot, 1, 0.5 * (lo + hi), grid) == i + 1, i
    assert schrod1d._count_below(pot, 1, 2.0 * lams[-1], grid) == 64


# --- the parity split of even circles --------------------------------------
# A torus:gamma=g potential is even, so its circle problem is solved as an
# even and an odd tridiagonal problem on [0, pi]. The same potential wrapped in
# a CallableProfile takes the dense periodic solve, which serves as reference.

_EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_parity_split_matches_dense_solve(k, n, gamma):
    pot = parse_potential(f"torus:gamma={gamma}")
    dense = Potential("torus", gamma, CallableProfile(lambda x: eval_potential(pot, x)))
    grid = Grid("circle", n)
    h = grid.h
    m = 8
    # one level more, so that every checked level has both neighbours
    lams, vecs = solve_on_grid(pot, k, m + 1, grid)
    ref, ref_vecs = solve_on_grid(dense, k, m + 1, grid)
    # both solvers resolve an eigenvalue to about eps * ||A||; at 4,096 nodes
    # that exceeds 1e-10 of the k = 1 ground level
    norm = 4.0 / (h * h) + k * k * 4.0 ** gamma
    assert np.all(np.abs(lams - ref) <= np.maximum(1e-10 * ref, 2.0 * _EPS * norm))
    assert_allclose(h * vecs.T @ vecs, np.eye(m + 1), rtol=0, atol=1e-12)
    mirror = vecs[-np.arange(n) % n]  # node j -> node N - j, i.e. x -> -x
    for u, v in zip(vecs.T, mirror.T):
        assert np.array_equal(u, v) or np.array_equal(u, -v)
    for j in range(m):
        gap = min(abs(ref[j] - ref[i]) for i in range(m + 1) if i != j)
        if gap > 1e-6 * ref[j]:
            # an eigenvector is determined to about eps * ||A|| / gap
            dist = min(math.sqrt(h * np.sum((vecs[:, j] - s * ref_vecs[:, j]) ** 2))
                       for s in (1.0, -1.0))
            assert dist <= 4.0 * _EPS * norm / gap, (j, dist, gap)


@pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values"])
@pytest.mark.parametrize("k, m, n", [(1, 1, 64), (2, 9, 256), (4, 40, 1024)])
def test_even_circle_grid_is_one_bisection(monkeypatch, k, m, n, vectors):
    # the even and the odd problem are one joined matrix: a single bisection
    # asked for the m levels, not one per parity problem
    calls = []
    original = schrod1d._tridiagonal

    def spy(diag, off, m_asked, vectors_asked):
        calls.append((diag.size, m_asked, vectors_asked))
        return original(diag, off, m_asked, vectors_asked)

    monkeypatch.setattr(schrod1d, "_tridiagonal", spy)
    lams, vecs = solve_on_grid(parse_potential("torus:gamma=1"), k, m, Grid("circle", n),
                               vectors=vectors)
    assert calls == [(n, m, vectors)]
    assert lams.shape == (m,)
    assert vecs is None if not vectors else vecs.shape == (n, m)


def test_grammar_torus_never_calls_dense_eigh(monkeypatch, capsys):
    import scipy.linalg

    calls = []
    original = scipy.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    torus = parse_potential("torus:gamma=1")
    solve_eigen(torus, 2, 5)
    solve_eigen(torus, 1, 3, Tolerances(eig_rel=1e-5))
    assert run(["spectrum", "--potential", "torus:gamma=1", "--emax", "8"]) == 0
    assert calls == []
    # the spy sees the dense solve that a perturbed torus still takes
    pot = perturbed_potential(torus, Perturbation(0.5, 1.5, 0.2), 0.1)
    solve_on_grid(pot, 1, 2, Grid("circle", 64))
    assert calls == [(64, 64)]
