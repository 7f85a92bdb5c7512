import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import branch_overlaps, central_difference_slope

from grushin import perturb, schrod1d
from grushin.cli import run
from grushin.core import (
    SEPARATION,
    CallableProfile,
    ExactScalar,
    Perturbation,
    PreconditionError,
    Tolerances,
    eval_potential,
    parse_potential,
)
from grushin.perturb import (
    check_continuity_bound,
    check_gap_avoidance,
    hellmann_feynman,
    perturbed_potential,
    splitting_experiment,
    track_branches,
)
from grushin.schrod1d import solve_eigen

HARMONIC = parse_potential("power:gamma=1")
QUARTIC = parse_potential("power:gamma=2")
BUMP = Perturbation(-1.0, 1.0, 0.2)


def test_perturbed_potential_evaluation():
    pert = perturbed_potential(HARMONIC, BUMP, 0.5)
    xs = np.linspace(-3, 3, 101)
    expected = xs * xs * (1.0 + 0.5 * BUMP(xs))
    assert_allclose(eval_potential(pert, xs), expected, rtol=1e-12)
    assert perturbed_potential(HARMONIC, BUMP, 0.0) is HARMONIC
    with pytest.raises(PreconditionError):
        perturbed_potential(HARMONIC, BUMP, -1.5)


def test_hf_virial_case():
    # V = x^2 deformed along x^2 itself: lambda(t) = (2n+1) sqrt(1+t), so the
    # derivative at 0 is (2n+1)/2; the plateau bump is 1 on the whole domain
    ground = solve_eigen(HARMONIC, 1, 1)[0]
    length = ground.grid.length
    plateau = Perturbation(-(length + 2.0), length + 2.0, 1.0)
    assert hellmann_feynman(HARMONIC, plateau, 1, 0) == pytest.approx(0.5, abs=1e-6)
    assert hellmann_feynman(HARMONIC, plateau, 1, 1) == pytest.approx(1.5, abs=1e-6)


def test_hf_far_bump_is_negligible():
    far = Perturbation(10.0, 11.0, 0.2)
    assert abs(hellmann_feynman(HARMONIC, far, 1, 0)) <= 1e-8


def test_hf_zero_perturbation():
    assert hellmann_feynman(HARMONIC, BUMP.scaled(0.0), 1, 0) == 0.0


def test_hf_refuses_a_negative_level_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking n")

    monkeypatch.setattr(perturb, "solve_eigen", no_solve)
    with pytest.raises(PreconditionError, match=r"^n must be >= 0$"):
        hellmann_feynman(HARMONIC, BUMP, 1, -1)


@pytest.mark.parametrize("pot,k,n", [
    (HARMONIC, 1, 0),
    (HARMONIC, 2, 1),
    (QUARTIC, 1, 2),
    (QUARTIC, 3, 0),
])
def test_hf_matches_central_difference(pot, k, n):
    hf = hellmann_feynman(pot, BUMP, k, n)
    pairs = solve_eigen(pot, k, n + 2)
    kappa = pairs[n + 1].lam - pairs[n].lam
    rate = k * k * BUMP.sup_weighted(pot)
    delta = min(0.01, 0.1 * kappa / max(rate, 1e-12))
    slope = central_difference_slope(pot, BUMP, k, n, pairs[n].grid, delta)
    assert abs(hf - slope) <= 1e-4 * max(1.0, abs(slope))


# --- branch tracking --------------------------------------------------------

def test_track_branches_zero_perturbation_constant():
    branches = track_branches(HARMONIC, BUMP.scaled(0.0), 1, [0, 1], 0.1, steps=4)
    for br in branches:
        spread = np.max(br.lambdas) - np.min(br.lambdas)
        assert spread <= 20.0 * np.max(br.err_ests) + 1e-12
        assert np.all(branch_overlaps(br) >= 0.999)


def test_track_branches_slopes_and_lipschitz():
    w = BUMP.scaled(0.5)
    branches = track_branches(HARMONIC, w, 1, [0, 1, 2], 0.2, steps=8)
    rate = 1 * 1 * w.sup_weighted(HARMONIC)
    for br in branches:
        assert br.t_grid[0] == 0.0
        assert np.all(branch_overlaps(br) >= 0.9)
        # accepted steps obey the slope bound with 1% slack
        dl = np.abs(np.diff(br.lambdas))
        dt = np.diff(br.t_grid)
        assert np.all(dl <= rate * dt * 1.01 + 10.0 * np.max(br.err_ests))
        # monotone increase for a non-negative deformation
        assert np.all(np.diff(br.lambdas) >= -10.0 * np.max(br.err_ests))
        hf = hellmann_feynman(HARMONIC, w, 1, br.level)
        secant = (br.lambdas[1] - br.lambdas[0]) / (br.t_grid[1] - br.t_grid[0])
        assert abs(secant - hf) <= 0.05 * max(1.0, abs(hf))


def _spy_solves(monkeypatch) -> dict:
    """Record the solves that perturb asks for: m of each solve_eigen and
    _seeded call, and (m, grid, vectors) of each solve_on_grid call."""
    asked = {"solve_eigen": [], "solve_on_grid": [], "_seeded": []}

    def spy(name, fn):
        def wrapped(potential, k, m, *args, **kwargs):
            asked[name].append((m, args[0], kwargs.get("vectors", True))
                               if name == "solve_on_grid" else m)
            return fn(potential, k, m, *args, **kwargs)
        monkeypatch.setattr(perturb, name, wrapped)

    for name in asked:
        spy(name, getattr(perturb, name))
    return asked


def test_track_branches_steps_solve_only_the_tracked_levels(monkeypatch):
    # the base solve keeps two levels above the top tracked one; every step
    # solves levels 0..max(levels) and nothing more, on the tracking grid and
    # its coarsening, each seeded from the step before; the t = 0 vectors are
    # the base solve's own, so nothing is bisected outside it
    asked = _spy_solves(monkeypatch)
    levels, steps = [1, 2], 3
    branches = track_branches(HARMONIC, BUMP, 1, levels, 0.1, steps=steps)
    monkeypatch.undo()
    assert asked["solve_eigen"] == [5]
    assert asked["_seeded"] == [3] * (2 * steps)
    assert asked["solve_on_grid"] == []
    # the same extrapolants as a solve with the base solve's spare levels
    grid = branches[0].grid
    for i, t in enumerate(branches[0].t_grid[1:], start=1):
        pert = perturbed_potential(HARMONIC, BUMP, float(t))
        fine, _ = perturb.solve_on_grid(pert, 1, 5, grid, vectors=False)
        coarse, _ = perturb.solve_on_grid(pert, 1, 5, grid.coarsened(), vectors=False)
        extrap = (4.0 * fine - coarse) / 3.0
        for br in branches:
            assert abs(br.lambdas[i] - extrap[br.level]) <= 1e-10 * abs(extrap[br.level])


def test_torus_track_branches_bisect_the_t0_grids_once_each(monkeypatch):
    # the circle's refinement keeps no vectors: the t = 0 setup bisects the
    # tracking grid and its coarsening once each, with vectors, for the
    # tracked levels; each step then solves both grids, and solve_eigen runs
    # once
    asked = _spy_solves(monkeypatch)
    levels, steps = [0, 1], 3
    branches = track_branches(_TORUS, _TORUS_BUMP, 1, levels, 0.05, steps=steps)
    monkeypatch.undo()
    grid = branches[0].grid
    assert grid.kind == "circle"
    assert asked["solve_eigen"] == [4]
    assert asked["solve_on_grid"] == [(2, grid.coarsened(), True), (2, grid, True)]
    assert asked["_seeded"] == [2] * (2 * steps)


@pytest.mark.parametrize("spec", ["power:gamma=1", "torus:gamma=1"])
def test_hf_solves_once_and_bisects_only_the_circle(monkeypatch, spec):
    # hellmann_feynman takes the t = 0 setup of one solve_eigen call: on the
    # line the refinement's own vectors, on the circle both grids bisected
    # with vectors for levels 0..n
    pot, n = parse_potential(spec), 1
    asked = _spy_solves(monkeypatch)
    hellmann_feynman(pot, _TORUS_BUMP, 1, n)
    monkeypatch.undo()
    grid = solve_eigen(pot, 1, n + 1)[n].grid
    assert asked["solve_eigen"] == [n + 1]
    bisected = [(n + 1, grid.coarsened(), True), (n + 1, grid, True)]
    assert asked["solve_on_grid"] == (bisected if pot.geometry == "torus" else [])
    assert asked["_seeded"] == []


@pytest.mark.parametrize("spec", ["power:gamma=1", "torus:gamma=1"])
def test_track_branches_evaluate_the_bump_once_per_grid(monkeypatch, spec):
    # W is evaluated once on each tracking grid, and every step matrix is the
    # one perturbed_potential gives, bit for bit: the line's tridiagonal
    # matrix, the perturbed circle's dense periodic one
    pot, t_max, steps = parse_potential(spec), 0.1, 8
    sizes, matrices = [], []
    call = Perturbation.__call__

    def counted(self, x):
        sizes.append(np.size(x))
        return call(self, x)

    build = "_tridiagonal_matrix" if pot.geometry == "cylinder" else "_periodic_matrix"
    built = getattr(schrod1d, build)

    def spied(potential, k, grid):
        out = built(potential, k, grid)
        matrices.append((grid, out))
        return out

    monkeypatch.setattr(Perturbation, "__call__", counted)
    monkeypatch.setattr(schrod1d, build, spied)
    branches = track_branches(pot, BUMP, 1, [0, 1], t_max, steps=steps)
    monkeypatch.undo()
    grid = branches[0].grid
    grids = (grid.coarsened(), grid)
    assert sorted(sizes) == sorted(g.npoints for g in grids)
    # the steps build the last matrices, the coarsening's then the tracking
    # grid's at each t
    assert len(matrices) >= 2 * steps
    step_matrices = iter(matrices[-2 * steps:])

    def as_bytes(matrix):  # (diag, off) on the line, one dense array on the circle
        return [a.tobytes() for a in (matrix if isinstance(matrix, tuple) else (matrix,))]

    for t in branches[0].t_grid[1:]:
        for g in grids:
            got_grid, got = next(step_matrices)
            want = built(perturbed_potential(pot, BUMP, float(t)), 1, g)
            assert got_grid == g
            assert as_bytes(got) == as_bytes(want)


def test_track_branches_slopes_are_hellmann_feynman_on_the_tracking_grid():
    # the branch slopes come from the base solve's vectors on the tracking
    # grid and its coarsening; they agree with hellmann_feynman at a tenth of
    # the default tolerance, which solves for its own grid, far inside the
    # benchmark's 1e-4 derivative oracle (at the default tolerance the torus
    # slopes differ by 1.1e-5 relative, the hellmann_feynman ones being off)
    for pot in (HARMONIC, QUARTIC, _TORUS):
        w = _TORUS_BUMP if pot is _TORUS else BUMP
        for br in track_branches(pot, w, 1, [0, 1], 0.01, steps=1):
            hf = hellmann_feynman(pot, w, 1, br.level, Tolerances(1e-8))
            assert type(br.slope) is float
            assert abs(br.slope - hf) <= 5e-6 * abs(hf)


def test_track_branches_precondition():
    w = BUMP.scaled(50.0)
    with pytest.raises(PreconditionError):
        track_branches(HARMONIC, w, 1, [0], 1.0, steps=4)


# --- continuity -------------------------------------------------------------

def test_continuity_bounds_plateau_sequence():
    ground = solve_eigen(HARMONIC, 1, 2)
    length = ground[0].grid.length
    plateau = Perturbation(-(length + 2.0), length + 2.0, 1.0)
    seq = [plateau.scaled(1.0 / n) for n in range(1, 6)]
    report = check_continuity_bound(HARMONIC, seq, 1, 1, Tolerances())
    assert report.verdict == "PASS"
    for n, rec in enumerate(report.records, start=1):
        assert rec.sup_w == pytest.approx(1.0 / n, rel=1e-9)
        assert rec.lam_pert <= rec.lam_base * (1.0 + 1.0 / n) + rec.err_slack
        assert rec.upper_margin >= -rec.err_slack
        assert rec.lower_margin >= -rec.err_slack


def test_continuity_zero_perturbation_equality():
    report = check_continuity_bound(HARMONIC, [BUMP.scaled(0.0)], 1, 0)
    rec = report.records[0]
    assert rec.sup_w == 0.0
    assert abs(rec.lam_pert - rec.lam_base) <= rec.err_slack
    assert report.verdict == "PASS"


def test_continuity_sup_w_is_the_bump_scale():
    bump = Perturbation(-2.0, 2.0, 0.5)
    seq = [bump.scaled(1.0 / n) for n in range(1, 4)]
    report = check_continuity_bound(HARMONIC, seq, 1, 0)
    for n, rec in enumerate(report.records, start=1):
        assert rec.sup_w == 1.0 / n


def test_continuity_rejects_empty_sequence():
    with pytest.raises(PreconditionError, match="empty bump sequence"):
        check_continuity_bound(HARMONIC, [], 1, 0)


def test_continuity_random_mode_and_level():
    report = check_continuity_bound(HARMONIC, [BUMP.scaled(0.2)], 3, 2)
    assert report.verdict == "PASS"


# --- gap avoidance ----------------------------------------------------------

def test_gap_avoidance_small_bump_passes():
    report = check_gap_avoidance(HARMONIC, BUMP.scaled(0.2), 1, 1)
    assert report.verdict == "PASS"
    info = report.info
    assert info.kappa_m == pytest.approx(2.0, rel=1e-5)
    assert report.radius < info.kappa_m
    assert info.j_plus[0] == pytest.approx(info.lambda_m + report.radius)
    assert info.j_minus[1] == pytest.approx(info.lambda_m - report.radius)
    assert not report.intrusions
    # the shifted level stays inside the safety radius around lambda_m
    moved = [lam for lam, _ in report.window
             if abs(lam - info.lambda_m) <= report.radius + 1e-6]
    assert moved


# check_gap_avoidance on HARMONIC, k = 1, m = 1, with the perturbed level m
# placed by hand: the CLI flags of the same run
_GAP_BUMP = BUMP.scaled(0.2)
_GAP_ARGV = ["perturb", "gap", "--potential", "power:gamma=1", "--k", "1", "--m", "1",
             "--bump=-1,1,0.2,0.2"]


def _perturbed_level_at(monkeypatch, where):
    """Stub the perturbed (t = 1) solve of check_gap_avoidance so that its
    level m = 1 sits at where(info) with error estimate 1e-4. The unperturbed
    solve stays real. Returns the GapInfo, which the stub leaves as it is."""
    info = check_gap_avoidance(HARMONIC, _GAP_BUMP, 1, 1).info
    solve = perturb.solve_eigen

    def stub(potential, k, m, tol=Tolerances()):
        pairs = solve(potential, k, m, tol)
        if isinstance(potential.profile, CallableProfile):  # V + base W at t = 1
            pairs[1] = dataclasses.replace(pairs[1], lam=where(info), err_est=1e-4)
        return pairs

    monkeypatch.setattr(perturb, "solve_eigen", stub)
    return info


def test_gap_avoidance_level_deep_inside_j_plus_fails(monkeypatch):
    info = _perturbed_level_at(monkeypatch, lambda info: sum(info.j_plus) / 2)
    report = check_gap_avoidance(HARMONIC, _GAP_BUMP, 1, 1)
    assert report.info == info
    assert report.verdict == "FAIL"
    assert report.intrusions == (sum(info.j_plus) / 2,)


def test_gap_avoidance_level_at_an_endpoint_is_undecided(monkeypatch, capsys):
    # within SEPARATION * err_est of J+'s lower end: inside by less than the
    # error bars
    _perturbed_level_at(monkeypatch, lambda info: info.j_plus[0] + 0.5 * SEPARATION * 1e-4)
    report = check_gap_avoidance(HARMONIC, _GAP_BUMP, 1, 1)
    assert (report.verdict, report.intrusions) == ("UNDECIDED", ())
    assert run(_GAP_ARGV) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "UNDECIDED"


def test_gap_avoidance_precondition_violation():
    with pytest.raises(PreconditionError, match="PRECONDITION"):
        check_gap_avoidance(HARMONIC, BUMP.scaled(10.0), 1, 1)


# W is not wrapped: the torus operator sees only [-pi, pi), so a bump past pi
# would be cut off or, like this 2 pi-translate of [4 - 2 pi, 5 - 2 pi], lost
_TORUS = parse_potential("torus:gamma=1")
_OFF_PERIOD = Perturbation(4.0, 5.0, 0.2)


@pytest.mark.parametrize("experiment", [
    lambda: hellmann_feynman(_TORUS, _OFF_PERIOD, 1, 0),
    lambda: track_branches(_TORUS, _OFF_PERIOD, 1, [0], 0.01, steps=1),
    lambda: check_gap_avoidance(_TORUS, _OFF_PERIOD.scaled(0.01), 1, 1),
    lambda: check_continuity_bound(_TORUS, [_OFF_PERIOD], 1, 0),
], ids=["hf", "branch", "gap", "continuity"])
def test_torus_experiments_reject_bumps_past_pi(experiment):
    with pytest.raises(PreconditionError, match=r"torus bump support \[3.8, 5.2\]"):
        experiment()


# an off-centre bump: the perturbed circle is not even, so it takes the dense
# solve, and the slope needs the circle grid's coarsening
_TORUS_BUMP = Perturbation(0.5, 1.5, 0.2)


def test_torus_hf_matches_central_difference_of_solves():
    # at eig_rel 1e-9 the solves' error term is 1e-7, well below the O(t^2) one
    t, tol = 1e-3, Tolerances(1e-9)
    hf = hellmann_feynman(_TORUS, _TORUS_BUMP, 1, 0, tol)
    up, down = (solve_eigen(perturbed_potential(_TORUS, _TORUS_BUMP, s), 1, 1, tol)[0]
                for s in (t, -t))
    assert up.grid.kind == "circle"
    base = solve_eigen(_TORUS, 1, 2)
    # the difference's O(t^2) term: t^2/6 |lambda^(3)| <= t^2 rate^3 / kappa^2
    rate = _TORUS_BUMP.sup_weighted(_TORUS)
    kappa = base[1].lam - base[0].lam
    bound = (up.err_est + down.err_est) / (2 * t) + t * t * rate**3 / kappa**2
    assert abs(hf - (up.lam - down.lam) / (2 * t)) <= bound


def test_torus_track_branches_start_at_solve_eigen():
    levels, t_max = [0, 1], 0.05
    branches = track_branches(_TORUS, _TORUS_BUMP, 1, levels, t_max, steps=2)
    # the tracker takes its t = 0 levels from a solve with three levels to spare
    start = solve_eigen(_TORUS, 1, levels[-1] + 3)
    end = solve_eigen(perturbed_potential(_TORUS, _TORUS_BUMP, t_max), 1, levels[-1] + 1)
    for br in branches:
        assert br.grid.kind == "circle"
        assert br.lambdas[0] == start[br.level].lam
        assert br.t_grid[-1] == t_max
        assert abs(br.lambdas[-1] - end[br.level].lam) <= br.err_ests[-1] + end[br.level].err_est


@pytest.mark.parametrize("spec", ["power:gamma=1", "torus:gamma=1"])
def test_track_branches_one_step_to_the_edge_of_the_gap_bound(spec):
    # a single step to 0.999 of the bound t_max * rate < kappa/2: level n at
    # t_max is still the branch of level n
    pot, levels = parse_potential(spec), [0, 1]
    base = solve_eigen(pot, 1, levels[-1] + 3)
    kappa = min(base[1].lam - base[0].lam, base[2].lam - base[1].lam)
    t_max = 0.999 * kappa / (2.0 * _TORUS_BUMP.sup_weighted(pot))
    branches = track_branches(pot, _TORUS_BUMP, 1, levels, t_max, steps=1)
    end = solve_eigen(perturbed_potential(pot, _TORUS_BUMP, t_max), 1, levels[-1] + 1)
    for br in branches:
        assert br.t_grid.tolist() == [0.0, t_max]
        assert abs(br.lambdas[-1] - end[br.level].lam) <= br.err_ests[-1] + end[br.level].err_est
        assert np.all(branch_overlaps(br) >= 0.9)


# --- splitting --------------------------------------------------------------

def test_splitting_ground_collision_s0():
    s0 = ExactScalar.from_rational(0)
    report = splitting_experiment(s0, 3, BUMP, 0.04)
    ks = sorted(c.k for c in report.contributors)
    assert ks == [1, 3]
    slopes = {c.k: c.slope for c in report.contributors}
    assert abs(slopes[1] - slopes[3]) > 1e-3
    assert report.verdict == "SEPARATED"
    pair = report.pairs[0]
    assert pair.gap > pair.err_bound
    assert pair.gap == pytest.approx(pair.predicted, rel=0.2)


def test_splitting_zero_t_stays_degenerate():
    s1 = ExactScalar.from_rational(1)
    report = splitting_experiment(s1, 6, BUMP, 0.0)
    assert report.verdict == "UNDECIDED"
    assert report.pairs[0].gap <= report.pairs[0].err_bound


def test_splitting_rejects_non_collisions():
    s0 = ExactScalar.from_rational(0)
    with pytest.raises(PreconditionError, match="collision"):
        splitting_experiment(s0, 1, BUMP, 0.05)
    with pytest.raises(PreconditionError):
        splitting_experiment(ExactScalar.irrational("sqrt2"), 3, BUMP, 0.05)
