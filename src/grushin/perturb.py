"""Perturbation laboratory: derivative of eigenvalues along potential
deformations, eigenbranch continuation in the deformation parameter,
quantitative spectral continuity, resolvent-gap avoidance, and splitting of
assembled collisions.

Deformations act multiplicatively through the degenerate weight: the potential
moves along V + t * base(x) * W(x) with W a smooth non-negative bump, so the
derivative of a simple eigenvalue at t = 0 is the weighted density expectation

    d(lambda)/dt|_0 = k^2 * integral( base(x) W(x) |u(x)|^2 dx ),

which also bounds every branch slope by k^2 * sup(base * W).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    SEPARATION,
    CallableProfile,
    ExactFamilyProfile,
    ExactScalar,
    InvariantViolation,
    Perturbation,
    Potential,
    PreconditionError,
    Tolerances,
    _readonly,
    base_factor,
    eval_potential,
)
from .exact_family import multiplicity_enumeration
from .schrod1d import (
    CIRCLE_MAX_NODES,
    Grid,
    _err_floor,
    _extrapolate,
    _fix_signs,
    _seeded,
    solve_eigen,
    solve_on_grid,
)

__all__ = [
    "perturbed_potential",
    "hellmann_feynman",
    "Branch",
    "track_branches",
    "ContinuityRecord",
    "ContinuityReport",
    "check_continuity_bound",
    "GapInfo",
    "GapReport",
    "check_gap_avoidance",
    "SplitContributor",
    "SplitPair",
    "SplitReport",
    "splitting_experiment",
]


def perturbed_potential(potential: Potential, w: Perturbation, t: float) -> Potential:
    """The deformed potential V + t * base(x) * W(x).

    For t >= 0 the deformation preserves the confining class. Small negative t
    is allowed for finite differencing as long as |t| * sup(W) stays well
    below 1, which keeps the bounded part above zero.
    """
    w.check_fits(potential)
    if t == 0.0:
        return potential
    if t < 0.0 and abs(t) * w.scale >= 0.9:
        raise PreconditionError(
            f"t={t} would push the bounded part of the potential near zero")

    def fn(x, _pot=potential, _w=w, _t=t):
        return eval_potential(_pot, x) + _t * base_factor(_pot, x) * _w(x)

    return Potential(geometry=potential.geometry, gamma=potential.gamma,
                     profile=CallableProfile(fn=fn))


def _on_nodes(potential: Potential, values: np.ndarray) -> Potential:
    """A potential known at the nodes of one grid only, as ``values`` there:
    the matrix of that grid is all that may be built from it."""
    def fn(x):
        if np.shape(x) != values.shape:
            raise InvariantViolation("a potential known at grid nodes only, evaluated elsewhere")
        return values

    return Potential(geometry=potential.geometry, gamma=potential.gamma,
                     profile=CallableProfile(fn=fn))


def _at_rest(potential: Potential, w: Perturbation, k: int, pairs, m: int) -> tuple:
    """The t = 0 setup of a deformation, from the solve_eigen answer ``pairs``:
    the coarsening of its final grid and that grid, (base, W) at the nodes
    of each, and the vectors of levels 0..m-1 on each. On the line those are
    the refinement's own, from its certified seeded solves of the two grids
    (schrod1d._seeded); the circle's refinement keeps none, so both grids
    are bisected with vectors."""
    grid = pairs[0].grid
    grids = (grid.coarsened(), grid)
    terms = [(base_factor(potential, x), w(x)) for x in (g.points() for g in grids)]
    vecs = pairs.vectors or tuple(solve_on_grid(potential, k, m, g)[1] for g in grids)
    return grids, terms, vecs


def _slope(k: int, grids, terms, vecs, n: int) -> float:
    """k^2 times the Richardson extrapolant of h * sum(base W u_n^2) over the
    two grids of _at_rest, from its node terms and vectors."""
    i_coarse, i_fine = (g.h * float(np.sum(b * wx * v[:, n] * v[:, n]))
                        for g, (b, wx), v in zip(grids, terms, vecs))
    return k * k * (4.0 * i_fine - i_coarse) / 3.0


def hellmann_feynman(potential: Potential, w: Perturbation, k: int, n: int,
                     tol: Tolerances = Tolerances()) -> float:
    """d(lambda_n)/dt at t = 0 along V + t * base * W:

        k^2 * integral( base(x) W(x) |u_n(x)|^2 dx ),

    with u_n the normalized n-th eigenfunction. The quadrature is evaluated on
    the final grid of one solve_eigen call and its 2h coarsening, with the
    vectors and node terms of the t = 0 setup that track_branches also
    builds from (_at_rest: the refinement's own vectors on the line, both
    grids bisected with vectors on the circle), and Richardson extrapolated,
    so the result is accurate beyond the O(h^2) vector error.
    """
    if n < 0:
        raise PreconditionError("n must be >= 0")
    w.check_fits(potential)
    grids, terms, vecs = _at_rest(potential, w, k, solve_eigen(potential, k, n + 1, tol), n + 1)
    return _slope(k, grids, terms, vecs, n)


@dataclass(frozen=True, eq=False)
class Branch:
    """One eigenbranch t -> lambda(t) continued from level ``level`` of the
    undeformed operator, with its eigenvectors on the fixed tracking grid.
    ``lambdas`` are Richardson extrapolants across the tracking grid and its
    coarsening, like ``EigenPair.lam``, and ``err_ests`` their error
    estimates. ``slope`` is d(lambda)/dt at t = 0, hellmann_feynman's
    quadrature from the same t = 0 setup (_at_rest) of the base solve that
    set the tracking grid. Every array is read-only."""

    k: int
    level: int
    t_grid: np.ndarray
    lambdas: np.ndarray
    err_ests: np.ndarray
    vectors: tuple[np.ndarray, ...]
    grid: Grid
    slope: float

    def __post_init__(self):
        for name in ("t_grid", "lambdas", "err_ests"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "vectors", tuple(map(_readonly, self.vectors)))


def track_branches(potential: Potential, w: Perturbation, k: int, levels,
                   t_max: float, steps: int = 32,
                   tol: Tolerances = Tolerances()) -> list[Branch]:
    """Continue the chosen levels of -u'' + k^2 (V + t base W) u across
    ``steps`` equal steps of t in [0, t_max]. The branch of level n is level
    n of the discrete operator at every t, each eigenvector signed to agree
    with the one before it.

    Sorted order is branch order, by min-max (Courant-Fischer; Kato,
    Perturbation Theory for Linear Operators, 1966). On any grid the
    deformation t k^2 diag(base W) is positive semidefinite with norm at most
    t * rate, rate = k^2 sup(base W), so each discrete eigenvalue satisfies
    lambda_j(0) <= lambda_j(t) <= lambda_j(0) + t * rate. On the tracking
    grid and its coarsening, each gap next to a tracked level at t = 0 is at
    least kappa, the smallest such gap of the extrapolated levels, less that
    grid's discretisation error. With that error below kappa/2, t * rate <
    kappa/2 gives lambda_n(t) <= lambda_n(0) + t * rate < lambda_{n+1}(0)
    <= lambda_{n+1}(t), and likewise below: level n stays simple and never
    meets a neighbor, so its eigenvalue and eigenvector continue in t as
    level n.

    The steps solve levels 0..max(levels) only, the levels they read. The
    base solve keeps max(levels) + 3: kappa needs the level above the top
    tracked one, and the spare level stays because that solve sets the
    truncation domain and the tracking grid. The t = 0 setup of that solve
    (_at_rest), shared with hellmann_feynman, gives the tracking grid and its
    coarsening, base and W at their nodes, and the t = 0 vectors of both
    grids: the base solve's own on the line; on the circle, whose refinement
    keeps none, both grids bisected with vectors. The slopes and the first
    seeds come from it. V is evaluated once on each grid, and each step's
    diagonal is 2/h^2 + k^2 (V + (t base) W), in perturbed_potential's order
    of operations, so every step matrix is the one perturbed_potential
    gives. On the line each step solves both grids from the previous step's
    vectors on the same grid by certified Rayleigh-quotient iteration
    (schrod1d._seeded), which bisects a grid whose certificate fails; the
    certificate also proves the sorted order above on each grid. On the
    circle every step is a dense solve, since a potential known at the nodes
    only is not known to be even, so a tracking grid past CIRCLE_MAX_NODES is
    refused right after the base solve.

    Precondition: t_max * k^2 * sup(base W) < kappa/2.
    """
    levels = sorted(set(int(n) for n in levels))
    if not levels or levels[0] < 0:
        raise PreconditionError("levels must be nonnegative")
    if not (t_max > 0):
        raise PreconditionError("t_max must be positive")
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    m_solve = levels[-1] + 3
    base = solve_eigen(potential, k, m_solve, tol)
    grid = base[0].grid
    if grid.kind == "circle" and grid.npoints > CIRCLE_MAX_NODES:
        raise PreconditionError(
            f"the tracking grid has {grid.npoints} nodes, but each circle step is a dense "
            f"solve, capped at {CIRCLE_MAX_NODES} nodes")
    lams0 = np.array([p.lam for p in base])
    gaps = np.diff(lams0)  # gaps[n] lies between levels n and n + 1
    kappa = float(min(np.min(gaps[max(n - 1, 0):n + 1]) for n in levels))
    rate = k * k * w.sup_weighted(potential)
    if not (t_max * rate < kappa / 2.0):  # a nan product (inf * 0) is refused too
        raise PreconditionError(
            f"t_max * k^2 * sup(base*W) = {t_max * rate!r} must stay below "
            f"kappa/2 = {kappa / 2.0!r}")

    m_track = levels[-1] + 1
    grids, terms, seeds = _at_rest(potential, w, k, base, m_track)
    slopes = {n: _slope(k, grids, terms, seeds, n) for n in levels}
    values = [eval_potential(potential, g.points()) for g in grids]
    t_grid = np.linspace(0.0, t_max, steps + 1)
    # levels 0..max(levels) along t_grid: eigenvalues and error estimates, and
    # the eigenvectors of the tracked levels; seeds are the last vectors on
    # the coarsening and on the tracking grid
    lams, errs = [lams0[:m_track]], [np.array([p.err_est for p in base[:m_track]])]
    start = _fix_signs(seeds[1][:, :m_track].copy())
    vectors = {n: [start[:, n]] for n in levels}
    for t in t_grid[1:]:
        # the extrapolant of the two tracking grids, as base[n].lam is at t = 0
        (lams_c, vecs_c), (lams_f, vecs_f) = (
            _seeded(_on_nodes(potential, v + (t * b) * wx), k, m_track, g, s)
            for v, (b, wx), g, s in zip(values, terms, grids, seeds))
        seeds = (vecs_c, vecs_f)
        extrap, raw = _extrapolate(None, lams_c, lams_f)
        lams.append(extrap)
        errs.append(np.maximum(raw, _err_floor(grid, float(np.max(np.abs(extrap))))))
        for n, vecs in vectors.items():
            # a copy: the next step overwrites its seeds
            vec = vecs_f[:, n]
            vecs.append(vec * (-1.0 if np.dot(vecs[-1], vec) < 0 else 1.0))
    lams, errs = np.array(lams), np.array(errs)
    return [Branch(k=k, level=n, t_grid=t_grid.copy(), lambdas=lams[:, n].copy(),
                   err_ests=errs[:, n].copy(), vectors=tuple(vecs), grid=grid,
                   slope=slopes[n])
            for n, vecs in vectors.items()]


@dataclass(frozen=True)
class ContinuityRecord:
    sup_w: float
    lam_base: float
    lam_pert: float
    upper_margin: float   # lam_base * sup_w - (lam_pert - lam_base)
    lower_margin: float   # lam_pert * sup_w - (lam_base - lam_pert)
    err_slack: float
    ok: bool


@dataclass(frozen=True)
class ContinuityReport:
    k: int
    m: int
    records: tuple[ContinuityRecord, ...]
    verdict: str


def check_continuity_bound(potential: Potential, w_seq, k: int, m: int,
                           tol: Tolerances = Tolerances()) -> ContinuityReport:
    """Verify both one-sided multiplicative continuity bounds for each bump in
    the sequence: with V_n = V + base * W_n and ||W_n|| = W_n.scale the plain
    sup of the bounded-part increment,

        lam_m(V_n) - lam_m(V) <= lam_m(V)  * ||W_n||
        lam_m(V)  - lam_m(V_n) <= lam_m(V_n) * ||W_n||.

    Margins are reported; a record fails only when a margin drops below the
    combined solver error slack. An empty sequence is a PreconditionError,
    since a verdict over no bumps would rest on no estimate.
    """
    if m < 0:
        raise PreconditionError("m must be >= 0")
    w_seq = list(w_seq)
    if not w_seq:
        raise PreconditionError(
            "empty bump sequence; a continuity verdict needs at least one bump")
    base = solve_eigen(potential, k, m + 1, tol)[m]
    records = []
    for w_n in w_seq:
        pert = solve_eigen(perturbed_potential(potential, w_n, 1.0), k, m + 1, tol)[m]
        sup_w = w_n.scale
        upper = base.lam * sup_w - (pert.lam - base.lam)
        lower = pert.lam * sup_w - (base.lam - pert.lam)
        slack = SEPARATION * (base.err_est + pert.err_est)
        records.append(ContinuityRecord(
            sup_w=sup_w, lam_base=base.lam, lam_pert=pert.lam,
            upper_margin=upper, lower_margin=lower, err_slack=slack,
            ok=(upper >= -slack and lower >= -slack)))
    verdict = "PASS" if all(r.ok for r in records) else "FAIL"
    return ContinuityReport(k=k, m=m, records=tuple(records), verdict=verdict)


@dataclass(frozen=True)
class GapInfo:
    """The spectral gap around lambda_m and the two open intervals that the
    perturbed spectrum must avoid. With R = k^2 * sup(base W) (the
    conservative safety radius),

        J+ = (lambda_m + R, lambda_m + kappa_m - R)
        J- = (lambda_m - kappa_m + R, lambda_m - R).

    The resolvent argument certifies exactly the points at distance > R from
    the whole unperturbed spectrum, so the outer endpoints shrink by R as
    well: the neighboring eigenvalue sits at distance kappa_m and its
    perturbed image may enter the outer R-shadow (for a one-sided deformation
    the neighbor below does enter it). An interval with lo >= hi is empty and
    trivially avoided.
    """

    lambda_m: float
    kappa_m: float
    j_minus: tuple[float, float]
    j_plus: tuple[float, float]


@dataclass(frozen=True)
class GapReport:
    k: int
    m: int
    info: GapInfo
    radius: float
    window: tuple[tuple[float, float], ...]  # perturbed (lam, err) near lambda_m
    intrusions: tuple[float, ...]
    verdict: str


def check_gap_avoidance(potential: Potential, w: Perturbation, k: int, m: int,
                        tol: Tolerances = Tolerances()) -> GapReport:
    """Check that no eigenvalue of the deformed operator (t = 1) falls in
    J- or J+ around lambda_m.

    Precondition: sup(base W) < kappa_m / k^2; otherwise PreconditionError.
    Eigenvalues are counted as intrusions only when they sit inside an
    interval by more than SEPARATION * err_est; values straddling an endpoint
    within error bars yield UNDECIDED.
    """
    if m < 0:
        raise PreconditionError("m must be >= 0")
    base = solve_eigen(potential, k, m + 2, tol)
    lam_m = base[m].lam
    kappa = base[m + 1].lam - lam_m
    if m > 0:
        kappa = min(kappa, lam_m - base[m - 1].lam)
    sup_w = w.sup_weighted(potential)
    if not (sup_w < kappa / (k * k)):
        raise PreconditionError(
            f"sup(base*W) = {sup_w!r} must be below "
            f"kappa_m/k^2 = {kappa / (k * k)!r}")
    radius = k * k * sup_w
    info = GapInfo(lambda_m=lam_m, kappa_m=kappa,
                   j_minus=(lam_m - kappa + radius, lam_m - radius),
                   j_plus=(lam_m + radius, lam_m + kappa - radius))
    pert = solve_eigen(perturbed_potential(potential, w, 1.0), k, m + 3, tol)
    window = [(p.lam, p.err_est) for p in pert
              if lam_m - kappa < p.lam < lam_m + kappa]
    intrusions = []
    undecided = False
    for lam, err in window:
        for lo, hi in (info.j_minus, info.j_plus):
            if lo >= hi:
                continue
            depth = min(lam - lo, hi - lam)  # > 0 strictly inside
            if depth > SEPARATION * err:
                intrusions.append(lam)
            elif abs(depth) <= SEPARATION * err:
                undecided = True
    verdict = "FAIL" if intrusions else "UNDECIDED" if undecided else "PASS"
    return GapReport(k=k, m=m, info=info, radius=radius,
                     window=tuple(window), intrusions=tuple(intrusions),
                     verdict=verdict)


@dataclass(frozen=True)
class SplitContributor:
    k: int
    n: int
    slope: float
    lam_perturbed: float
    err_est: float


@dataclass(frozen=True)
class SplitPair:
    k_a: int
    n_a: int
    k_b: int
    n_b: int
    gap: float
    predicted: float
    err_bound: float
    separated: bool


@dataclass(frozen=True)
class SplitReport:
    value: float
    s2: ExactScalar
    t: float
    contributors: tuple[SplitContributor, ...]
    pairs: tuple[SplitPair, ...]
    verdict: str


def splitting_experiment(s2: ExactScalar, collision_value, w: Perturbation,
                         t: float, tol: Tolerances = Tolerances()) -> SplitReport:
    """Deform a shifted-parabola collision E (an eigenvalue contributed by at
    least two distinct |k|) along V + t * x^2 * W and measure how the branches
    separate.

    For each contributing (k, n) the report carries the derivative
    k^2 * integral(x^2 W |u|^2) at t = 0 and the deformed eigenvalue; a cross-
    mode pair is certified separated when its gap clears SEPARATION times the
    summed error estimates, and to first order the gap should match
    t * |slope difference|.
    """
    if not s2.is_rational:
        raise PreconditionError("splitting experiments run on rational s2")
    if not (t >= 0):
        raise PreconditionError("t must be >= 0")
    line = multiplicity_enumeration(collision_value, s2)
    # a mode has at most one level at a value, so these are distinct |k|
    positive = [(k, n) for k, n in line.contributors if k > 0]
    if len(positive) < 2:
        raise PreconditionError(
            f"value {float(line.value)!r} is not a collision between distinct "
            f"squared modes (contributors: {line.contributors})")
    potential = Potential(geometry="cylinder", gamma=1.0,
                          profile=ExactFamilyProfile(s2=s2))
    if t > 0:
        sup_w = w.sup_weighted(potential)
        for k, _ in positive:
            # spectrum of one mode is spaced 2k exactly
            if not (t * k * k * sup_w < k):  # a nan product (inf * 0) is refused too
                raise PreconditionError(
                    f"t too large for mode k={k}: t*k^2*sup = {t * k * k * sup_w!r} "
                    f"exceeds half the mode spacing {k}")
    pert = perturbed_potential(potential, w, t)
    contributors = []
    for k, n in positive:
        slope = hellmann_feynman(potential, w, k, n, tol)
        pair = solve_eigen(pert, k, n + 1, tol)[n]
        contributors.append(SplitContributor(
            k=k, n=n, slope=slope, lam_perturbed=pair.lam, err_est=pair.err_est))
    pairs = []
    for a, b in combinations(contributors, 2):
        gap = abs(a.lam_perturbed - b.lam_perturbed)
        err_bound = SEPARATION * (a.err_est + b.err_est)
        pairs.append(SplitPair(
            k_a=a.k, n_a=a.n, k_b=b.k, n_b=b.n, gap=gap,
            predicted=t * abs(a.slope - b.slope), err_bound=err_bound,
            separated=gap > err_bound))
    verdict = "SEPARATED" if pairs and all(p.separated for p in pairs) else "UNDECIDED"
    return SplitReport(value=float(line.value), s2=s2, t=t,
                       contributors=tuple(contributors), pairs=tuple(pairs),
                       verdict=verdict)
