"""Finite-difference eigensolver for the fibered operators
-u'' + k^2 V(x) u on the truncated line (Dirichlet) and on the circle
(periodic).

Discretization is second-order central differences. On the line the matrix is
symmetric tridiagonal and the lowest m eigenvalues come from Sturm-sequence
bisection with inverse-iteration eigenvectors (LAPACK stebz/stein). On the
circle the periodic corner entries break tridiagonality, but the grid is
closed under x -> -x, so for an even potential (every StructuredProfile) the
periodic matrix splits exactly into two tridiagonal problems on [0, pi], one
for even and one for odd eigenvectors, each solved like the line. A circle
potential not known to be even (CallableProfile, SampledProfile) is solved by
a dense symmetric solver at N <= 4096.

The grid is halved until the requested levels are accurate. Each grid after
the first yields the Richardson extrapolant

    R_{h/2} = (4 lambda_{h/2} - lambda_h) / 3,

which removes the h^2 term of the discretization error; R is the returned
eigenvalue. Its error is estimated from successive extrapolants,

    err_est = |R_{h/2} - R_h| / 3,

which bounds the error of R whenever the remainder left after extrapolation
is of order 2 or higher (order 4 for smooth potentials, about 2.5 for
V = |x|^1.5). The estimate needs three grids, and it is used only when the
order observed on those grids, log2((lambda_{2h} - lambda_h) /
(lambda_h - lambda_{h/2})), is 2 to within ORDER_SLACK. Otherwise, and on the
first two grids, the plain estimate |lambda_h - lambda_{h/2}| / 3 of the
unextrapolated error is used, which also bounds the error of R. Refinement
stops when err_est <= eig_rel * lambda for every requested level.

Refinement solves for eigenvalues only. Eigenvectors, where needed, come from
solve_on_grid on the final grid; they are O(h^2) accurate and carry that
grid's discrete eigenvalues rather than the extrapolants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg loads on first use, so exact-only commands never load it

from .core import (
    SEPARATION,
    ConvergenceError,
    InvariantViolation,
    Potential,
    PreconditionError,
    StructuredProfile,
    Tolerances,
    _check_cap,
    eval_potential,
)

__all__ = [
    "Grid",
    "EigenPair",
    "truncation_length",
    "solve_on_grid",
    "solve_eigen",
    "solve_levels_below",
]

_EPS = float(np.finfo(float).eps)

LINE_MAX_NODES = 2**21
CIRCLE_MAX_NODES = 4096

# Largest |p - 2| at which the observed order p counts as second order. A
# sequence of any single order p' inside the band has an extrapolant whose
# error is at most 3 / (2^p' - 1) < 1.05 times the successive-extrapolant
# estimate.
ORDER_SLACK = 0.05

# Energy factor by which the truncation barrier exceeds the levels it confines.
TRUNCATION_MARGIN = 2.0

# The search grid for the truncation length, L = 0.5 * 2^(j/64) below 1e9,
# accumulated by repeated multiplication.
_LENGTH_LADDER = np.cumprod(np.r_[0.5, np.full(64 * 32, 2.0 ** (1.0 / 64.0))])
_LENGTH_LADDER = _LENGTH_LADDER[_LENGTH_LADDER < 1e9]


@dataclass(frozen=True)
class Grid:
    """Uniform grid: interior nodes of [-L, L] for Dirichlet problems
    (endpoints excluded), or N equispaced angles covering [-pi, pi) for
    periodic problems."""

    kind: str  # "line" | "circle"
    npoints: int
    length: float = math.pi  # half-width L for the line; pi for the circle

    def __post_init__(self):
        if self.kind not in ("line", "circle"):
            raise InvariantViolation(f"unknown grid kind {self.kind!r}")
        if self.npoints < 16:
            raise InvariantViolation("need at least 16 grid nodes")
        if self.kind == "line" and not (self.length > 0):
            raise InvariantViolation("line grid needs L > 0")
        if self.kind == "circle" and self.npoints % 2:
            # the parity split pairs node j with node N - j, and x = 0 is node N/2
            raise InvariantViolation("circle grid needs an even node count")

    @property
    def h(self) -> float:
        if self.kind == "line":
            return 2.0 * self.length / (self.npoints + 1)
        return 2.0 * math.pi / self.npoints

    def points(self) -> np.ndarray:
        if self.kind == "line":
            return np.linspace(-self.length, self.length, self.npoints + 2)[1:-1]
        return -math.pi + self.h * np.arange(self.npoints)

    def refined(self) -> "Grid":
        """The grid with spacing exactly h/2."""
        if self.kind == "line":
            return Grid("line", 2 * self.npoints + 1, self.length)
        return Grid("circle", 2 * self.npoints, self.length)

    def coarsened(self) -> "Grid":
        """The grid with spacing exactly 2h (inverse of refined)."""
        if self.kind == "line":
            return Grid("line", (self.npoints - 1) // 2, self.length)
        return Grid("circle", self.npoints // 2, self.length)


@dataclass(frozen=True)
class EigenPair:
    """Level ``n`` of -d^2/dx^2 + k^2 V, as found by refinement.

    ``lam`` is the Richardson-extrapolated eigenvalue, the best estimate of
    the continuum level, and ``err_est`` estimates its error. ``grid`` is the
    final refinement grid: column n of the vectors from
    ``solve_on_grid(potential, k, n + 1, grid)`` is the discrete eigenvector
    there, and its discrete eigenvalue differs from ``lam`` by the O(h^2)
    grid bias.
    """

    lam: float
    k: int
    n: int
    err_est: float
    grid: Grid


def truncation_length(potential: Potential, k: int, e_max: float) -> float:
    """Smallest L on a geometric search grid with
    k^2 * (min(V(L), V(-L)) - V(0)) >= TRUNCATION_MARGIN * e_max.

    Eigenfunctions with lambda <= e_max then decay well inside [-L, L], since
    L lies beyond their classical turning points by a factor TRUNCATION_MARGIN
    in energy. The rise is measured above the floor V(0): a constant part of V
    raises every level and the barrier alike, so it adds no confinement.
    """
    if potential.geometry == "torus":
        raise PreconditionError("circle problems need no truncation")
    _check_cap(e_max)
    threshold = TRUNCATION_MARGIN * e_max / (k * k)
    floor = eval_potential(potential, 0.0)
    # far points may overflow to inf (or inf * 0 = nan), which is harmless here
    with np.errstate(over="ignore", invalid="ignore"):
        rise = np.minimum(eval_potential(potential, _LENGTH_LADDER),
                          eval_potential(potential, -_LENGTH_LADDER)) - floor
    hits = np.flatnonzero(rise >= threshold)
    if hits.size:
        return float(_LENGTH_LADDER[hits[0]])
    raise ConvergenceError(
        "potential never reaches the confinement threshold "
        f"{threshold!r}; cannot truncate")


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # first component exceeding 1e-8 of the max decides the sign
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        big = np.nonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        if big.size and col[big[0]] < 0:
            vecs[:, j] = -col
    return vecs


def _dense_circle(potential: Potential, grid: Grid) -> bool:
    # only a StructuredProfile is known to be even; any other circle potential
    # needs the dense periodic solve and its node cap
    return grid.kind == "circle" and not isinstance(potential.profile, StructuredProfile)


def _diagonal(potential: Potential, k: int, x: np.ndarray, grid: Grid) -> np.ndarray:
    """The diagonal 2/h^2 + k^2 V(x), checked finite before any LAPACK call."""
    with np.errstate(over="ignore", invalid="ignore"):
        diag = 2.0 / (grid.h * grid.h) + (k * k) * eval_potential(potential, x)
    if not np.all(np.isfinite(diag)):
        raise ConvergenceError(
            f"k^2 V is not finite on the grid over [-L, L] with L = {grid.length!r}")
    return diag


def _tridiagonal(diag: np.ndarray, off: np.ndarray, m: int, vectors: bool):
    return scipy.linalg.eigh_tridiagonal(
        diag, off, eigvals_only=not vectors, select="i", select_range=(0, m - 1),
        lapack_driver="stebz")


def _solve_even_circle(potential: Potential, k: int, m: int, grid: Grid, vectors: bool):
    """The circle problem for an even V as two tridiagonal problems on the
    half-grid x_i = i h, i = 0..N/2 (node i is circle node N/2 + i, and its
    mirror is node N/2 - i, or node 0 for i = N/2).

    Even vectors: all N/2 + 1 half-grid nodes, where u_{-1} = u_1 at x = 0 and
    u_{N/2+1} = u_{N/2-1} at x = pi. In the unknowns w_i = sqrt(2) u_i (interior)
    and w_i = u_i (ends) the matrix is symmetric, with the first and last
    off-diagonals scaled by sqrt(2). Odd vectors vanish at x = 0 and x = pi and
    solve the Dirichlet problem on nodes 1..N/2-1. Both unfold to circle
    vectors of unit 2-norm."""
    n = grid.npoints
    half = n // 2
    h = grid.h
    diag = _diagonal(potential, k, h * np.arange(half + 1), grid)
    off = np.full(half, -1.0 / (h * h))
    off_even = off.copy()
    off_even[[0, -1]] *= math.sqrt(2.0)
    even = _tridiagonal(diag, off_even, min(m, half + 1), vectors)
    odd = _tridiagonal(diag[1:-1], off[1:-1], min(m, half - 1), vectors)
    if not vectors:
        return np.sort(np.concatenate([even, odd]))[:m], None
    (lam_e, u_e), (lam_o, w_o) = even, odd
    u_e[1:-1] /= math.sqrt(2.0)
    u_o = np.zeros((half + 1, lam_o.size))
    u_o[1:-1] = w_o / math.sqrt(2.0)
    # circle node j sits at |x| = fold[j] h, on the negative side for j < N/2
    fold = np.abs(np.arange(n) - half)
    sign = np.where(np.arange(n) < half, -1.0, 1.0)[:, None]
    lams = np.concatenate([lam_e, lam_o])
    order = np.argsort(lams, kind="stable")[:m]
    vecs = np.concatenate([u_e[fold], sign * u_o[fold]], axis=1)[:, order]
    return lams[order], _fix_signs(vecs / math.sqrt(h))


def solve_on_grid(potential: Potential, k: int, m: int, grid: Grid, *,
                  vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The m lowest eigenpairs of the discretized operator on a fixed grid.

    Returns (lams, vecs) with vecs of shape (npoints, m), L2-normalized in the
    discrete inner product h * <u, v>, each with its first significant
    component positive; with ``vectors=False`` only the eigenvalues are
    computed and vecs is None. A circle with a StructuredProfile (an even V)
    is solved as its even and odd half-grid problems, whose vectors are
    exactly even or odd under node j -> N - j; any other circle potential
    takes the dense solve, capped at CIRCLE_MAX_NODES nodes.
    """
    if k == 0:
        raise PreconditionError("k must be nonzero")
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if m > grid.npoints // 2:
        raise PreconditionError(f"grid with {grid.npoints} nodes cannot resolve {m} levels")
    if grid.kind == "circle" and not _dense_circle(potential, grid):
        return _solve_even_circle(potential, k, m, grid, vectors)
    h = grid.h
    diag = _diagonal(potential, k, grid.points(), grid)
    if grid.kind == "line":
        out = _tridiagonal(diag, np.full(grid.npoints - 1, -1.0 / (h * h)), m, vectors)
    else:
        if grid.npoints > CIRCLE_MAX_NODES:
            raise PreconditionError(f"circle grids are capped at {CIRCLE_MAX_NODES} nodes")
        mat = np.diag(diag)
        idx = np.arange(grid.npoints - 1)
        mat[idx, idx + 1] = -1.0 / (h * h)
        mat[idx + 1, idx] = -1.0 / (h * h)
        mat[0, -1] += -1.0 / (h * h)
        mat[-1, 0] += -1.0 / (h * h)
        out = scipy.linalg.eigh(mat, eigvals_only=not vectors, subset_by_index=(0, m - 1))
    if not vectors:
        return out, None
    lams, vecs = out
    return lams, _fix_signs(vecs / math.sqrt(h))


def _err_floor(grid: Grid, lam: float) -> float:
    # roundoff floor of the extrapolant: bisection resolves each discrete
    # eigenvalue to about eps * ||T|| ~ 4 eps / h^2, and (4 lam_{h/2} - lam_h)/3
    # adds the errors of both grids with weights 4/3 and 1/3
    return 6.0 * _EPS / (grid.h * grid.h) + 4.0 * _EPS * abs(lam)


def _extrapolate(coarser: np.ndarray | None, coarse: np.ndarray,
                 fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The extrapolant (4 fine - coarse) / 3 of eigenvalues on grids h and h/2
    and its error estimate before the roundoff floor (module docstring):
    successive extrapolants when the eigenvalues ``coarser`` on grid 2h are
    given and the observed order is 2 to within ORDER_SLACK, otherwise the
    plain |coarse - fine| / 3."""
    extrap = (4.0 * fine - coarse) / 3.0
    diff = coarse - fine
    err = np.abs(diff) / 3.0
    if coarser is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.log2((coarser - coarse) / diff)  # nan when the differences change sign
        successive = np.abs(extrap - (4.0 * coarse - coarser) / 3.0) / 3.0
        err = np.where(np.abs(order - 2.0) <= ORDER_SLACK, successive, err)
    return extrap, err


def _refine(potential: Potential, k: int, m: int, grid: Grid, tol: Tolerances,
            lams: np.ndarray | None = None):
    """Halve h from ``grid`` until every level meets err_est <= eig_rel * lambda
    (see the module docstring).

    ``lams`` are the eigenvalues on ``grid`` when the caller already has them.
    Returns (lams, err, grid): the extrapolated eigenvalues, their error
    estimates and the final grid.

    Stops with ConvergenceError (best estimates attached) when the node budget
    runs out, or when the roundoff floor of the discrete problem already
    exceeds the target so further refinement cannot help."""
    max_nodes = CIRCLE_MAX_NODES if _dense_circle(potential, grid) else LINE_MAX_NODES
    if lams is None:
        lams, _ = solve_on_grid(potential, k, m, grid, vectors=False)
    visited = [grid.npoints]
    coarser = None
    extrap, err, best_rel = lams, np.full(m, math.inf), math.inf

    def failure(reason: str) -> ConvergenceError:
        best = [EigenPair(float(extrap[i]), k, i, float(err[i]), grid) for i in range(m)]
        return ConvergenceError(
            f"{reason} (target eig_rel={tol.eig_rel!r}; grids visited: "
            f"{', '.join(map(str, visited))} nodes; best relative error "
            f"reached {best_rel:.3g})", best=best)

    while True:
        fine = grid.refined()
        if fine.npoints > max_nodes:
            raise failure(f"refinement budget of {max_nodes} nodes exhausted")
        lams_fine, _ = solve_on_grid(potential, k, m, fine, vectors=False)
        visited.append(fine.npoints)
        extrap, raw = _extrapolate(coarser, lams, lams_fine)
        floor = _err_floor(fine, float(np.max(np.abs(extrap))))
        err = np.maximum(raw, floor)
        scale = np.maximum(np.abs(extrap), 1e-300)
        best_rel = min(best_rel, float(np.max(err / scale)))
        target = tol.eig_rel * scale
        coarser, lams, grid = lams, lams_fine, fine
        if np.all(err <= target):
            return extrap, err, grid
        hopeless = (floor > target) & (raw <= floor)
        if np.all((err <= target) | hopeless):
            raise failure(f"target sits below the roundoff floor "
                          f"{float(np.max(floor / scale))!r} of the discretized problem")


def _initial_line_grid(length: float, m: int) -> Grid:
    n = 255
    while n < max(16, 8 * m):
        n = 2 * n + 1
    return Grid("line", n, length)


def solve_eigen(potential: Potential, k: int, m: int,
                tol: Tolerances = Tolerances()) -> list[EigenPair]:
    """The m lowest eigenvalues of -u'' + k^2 V(x) u, with error estimates.

    Line problems are truncated to [-L, L] with a confinement margin of 2 in
    energy and one extra doubling of L for safety; the domain is enlarged
    until the computed top level is certified below the barrier. Circle
    problems use the full period; an even potential (StructuredProfile) is
    solved by the parity split with the line's node budget, any other by the
    dense solve with its cap of CIRCLE_MAX_NODES nodes.
    """
    if k == 0:
        raise PreconditionError("k must be nonzero")
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if potential.geometry == "torus":
        probe = Grid("circle", max(64, 16 * ((2 * m + 15) // 16)))
        lams_probe = None
    else:
        e_guess = max(1.0, abs(k) * (2.0 * m + 1.0))
        for _ in range(64):
            length = 2.0 * truncation_length(potential, k, e_guess)
            probe = _initial_line_grid(length, m)
            lams_probe, _ = solve_on_grid(potential, k, m, probe, vectors=False)
            top = float(lams_probe[-1])
            if top <= e_guess:
                break
            e_guess = max(2.0 * top, 2.0 * e_guess)
        else:  # pragma: no cover - 2^64 growth always terminates first
            raise ConvergenceError("could not certify a truncation domain")

    lams, err, grid = _refine(potential, k, m, probe, tol, lams_probe)
    return [EigenPair(float(lams[i]), k, i, float(err[i]), grid) for i in range(m)]


def solve_levels_below(potential: Potential, k: int, e_max: float,
                       tol: Tolerances = Tolerances()) -> list[EigenPair]:
    """All levels with lambda <= e_max (up to solver resolution at the
    boundary: levels within SEPARATION * err_est of e_max are kept)."""
    _check_cap(e_max)
    m = max(1, int(e_max / (2.0 * abs(k))) + 2)
    while True:
        pairs = solve_eigen(potential, k, m, tol)
        if pairs[-1].lam > e_max + SEPARATION * pairs[-1].err_est:
            break
        if m > 65536:
            raise ConvergenceError(f"more than {m} levels below e_max={e_max!r}")
        m *= 2
    return [p for p in pairs if p.lam <= e_max + SEPARATION * p.err_est]

