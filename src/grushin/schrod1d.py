"""Finite-difference eigensolver for -u'' + k^2 V(x) u on the truncated line
(Dirichlet) and on the circle (periodic).

Discretization is second-order central differences. The line and the even
circle are one kind of problem: one symmetric tridiagonal matrix per grid,
built by _tridiagonal_matrix. The circle grid is closed under x -> -x, so for
an even potential (every StructuredProfile) the periodic matrix splits exactly
into an even and an odd problem on [0, pi], whose direct sum, joined by a zero
off-diagonal, is the circle's matrix; bisection splits it there and takes the
lowest levels across both blocks (Demmel, Applied Numerical Linear Algebra,
1997, 5.3.4). The levels below a cap are counted by one Sturm count, without
a solve, and solve_levels_below drives both geometries through one refinement
loop. Any other circle potential takes a dense solve at N <= 4096, and counts
the eigenvalues of its dense periodic matrix up to the cap.

The first grid of a solve, and any fixed grid asked of solve_on_grid, takes
its lowest m eigenvalues from Sturm-sequence bisection with inverse-iteration
eigenvectors (LAPACK stebz/stein). Each refined line grid is instead solved
from the answer next to it: the grid 2h coarser carries its eigenvectors over
(coarse node i is fine node 2i + 1, an even fine node the value that solves
its own row at the coarse eigenvalue; _rqi.carry), and Rayleigh-quotient
iteration from those seeds, one solve per level when the seeds are good, is
accepted only with a certificate that each value is the level it claims
(residual intervals that are disjoint and one Sturm count) and that the
exact Rayleigh quotient of each vector lies within eps ||T|| of its
eigenvalue (Kato-Temple), the accuracy assumed of bisection. Before, that
accuracy of a certified quotient was only argued; the proof is in _rqi.
Where the certificate fails the grid is bisected. Every circle grid is
bisected, without vectors.

The line is cut to [-L, L] by the Agmon action (truncation_length): a level
at E decays like exp(-S), S = int sqrt(k^2 V - E) dx, past its turning point,
and L is where S reaches ln(1/eig_rel)/2 + DECAY_MARGIN on both sides.
solve_levels_below takes E = its cap and m = 1 + the count below the cap on
the one-level first grid (_first_grid); solve_eigen takes E = the top level of
a probe solve.

The grid is halved until every requested level meets err_est <= eig_rel *
lambda. Each grid after the first yields the Richardson extrapolant R_{h/2} =
(4 lambda_{h/2} - lambda_h) / 3, the returned eigenvalue, which removes the
h^2 error term. Its error is estimated as |R_{h/2} - R_h| / 3, which bounds it
when the remainder is of order 2 or more (4 for smooth V, about 2.5 for
|x|^1.5), once three grids show an observed order log2((lambda_{2h} -
lambda_h) / (lambda_h - lambda_{h/2})) within ORDER_SLACK of 2; otherwise the
plain |lambda_h - lambda_{h/2}| / 3, which also bounds it, is used.
Eigenvectors of the final grid are O(h^2) accurate, with that grid's discrete
eigenvalues; on the line solve_eigen's list also keeps the refinement's own
vectors of the final grid and its coarsening (_Levels).
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
from ._rqi import carry, certified_eigh, sturm_count

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

# Decay margin c of the action rule (truncation_length): the wall moves a level by
# about eig_rel * exp(-2c). c = 5 already keeps each move under 0.1 err_est; c = 10
# keeps the final grids as fine as the eigenvector and line-separation tests need.
DECAY_MARGIN = 10.0

_LENGTH_LADDER = 0.5 * 2.0 ** (np.arange(1978) / 64.0)  # the L of truncation_length, < 1e9


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
        """The grid with spacing exactly 2h (inverse of refined): a line of 2n
        + 1 nodes, or a circle of N nodes with N/2 even; InvariantViolation
        for any other grid."""
        n = self.npoints
        if not (n % 2 == 1 if self.kind == "line" else n % 4 == 0):
            raise InvariantViolation(f"no exact 2h coarsening exists for a {self.kind} grid "
                                     f"of {n} nodes")
        return Grid(self.kind, n // 2, self.length)


@dataclass(frozen=True)
class EigenPair:
    """Level ``n`` of -d^2/dx^2 + k^2 V: ``lam`` is the extrapolated
    eigenvalue and ``err_est`` its error estimate. Column n of the vectors
    from ``solve_on_grid(potential, k, n + 1, grid)`` on the final ``grid``
    is the discrete eigenvector, whose eigenvalue carries the O(h^2) bias."""

    lam: float
    k: int
    n: int
    err_est: float
    grid: Grid


def _check_mode(k: int, m: int = 1) -> None:
    # the entry points' checks, made before any truncation, count or solve
    if k == 0:
        raise PreconditionError("k must be nonzero")
    if m < 1:
        raise PreconditionError("m must be >= 1")


def truncation_length(potential: Potential, k: int, energy: float,
                      tol: Tolerances = Tolerances()) -> float:
    """Smallest ladder L where, on each side, the action int sqrt(k^2 V -
    energy) dx from the outermost turning point reaches ln(1/eig_rel)/2 +
    DECAY_MARGIN (trapezoid rule on the ladder; Agmon, Lectures on
    Exponential Decay, 1982). V is evaluated four doublings of L at a time,
    only as far out as needed. Bisection resolves eigenvalues only to about eps
    times the largest matrix entry, so ConvergenceError if eps * k^2 V(+-L)
    passes both eig_rel * energy and the first grid's roundoff floor."""
    _check_mode(k)
    if potential.geometry == "torus":
        raise PreconditionError("circle problems need no truncation")
    _check_cap(energy)
    target = -0.5 * math.log(tol.eig_rel) + DECAY_MARGIN
    action, last_x, last_f = np.zeros(2), 0.0, np.zeros(2)
    for start in range(0, _LENGTH_LADDER.size, 256):
        x = _LENGTH_LADDER[start:start + 256]
        with np.errstate(over="ignore", invalid="ignore"):
            kv = (k * k) * eval_potential(potential, np.concatenate([x, -x])).reshape(2, -1)
            f = np.sqrt(np.maximum(kv - energy, 0.0))
        # the action restarts wherever k^2 V <= energy
        total = action[:, None] + np.cumsum(
            0.5 * (f + np.concatenate([last_f[:, None], f[:, :-1]], axis=1))
            * np.diff(x, prepend=last_x), axis=1)
        total -= np.maximum.accumulate(np.where(f > 0.0, 0.0, total), axis=1)
        reached = np.flatnonzero(np.min(total, axis=0) >= target)
        if reached.size:
            length, noise = float(x[reached[0]]), _EPS * float(np.max(kv[:, reached[0]]))
            allowed = max(tol.eig_rel * energy, _err_floor(_first_grid(1, length), energy))
            if not noise <= allowed:  # nan and inf fail too
                raise ConvergenceError(f"cannot truncate: at L = {length!r}, eps k^2 V = {noise!r} "
                                       f"passes eig_rel * E and the grid's floor {allowed!r}")
            return length
        action, last_x, last_f = total[:, -1], x[-1], f[:, -1]
    raise ConvergenceError(f"no confinement at E = {energy!r}: the action of k^2 V - E stays "
                           f"below {target!r} for L < 1e9; cannot truncate")


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


def _tridiagonal_matrix(potential: Potential, k: int, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric tridiagonal matrix (diag, off) of a line or even-circle
    grid. On the circle it is the direct sum of the even and the odd problem
    on the half-grid x_i = i h, i = 0..N/2 (circle node N/2 + i; its mirror
    is node N/2 - i, or node 0 for i = N/2), joined by a zero off-diagonal:
    N rows in all. Even vectors live on all N/2 + 1 nodes, with u_{-1} = u_1
    at x = 0 and u_{N/2+1} = u_{N/2-1} at x = pi; in the unknowns w_i =
    sqrt(2) u_i (interior) and w_i = u_i (ends) the block is symmetric, its
    first and last off-diagonals scaled by sqrt(2). Odd vectors solve the
    Dirichlet problem on nodes 1..N/2-1, in the unknowns sqrt(2) u_i."""
    x = grid.points() if grid.kind == "line" else grid.h * np.arange(grid.npoints // 2 + 1)
    diag = _diagonal(potential, k, x, grid)
    off = np.full(x.size - 1, -1.0 / (grid.h * grid.h))
    if grid.kind == "line":
        return diag, off
    off_even = off.copy()
    off_even[[0, -1]] *= math.sqrt(2.0)
    return np.concatenate([diag, diag[1:-1]]), np.concatenate([off_even, [0.0], off[1:-1]])


def _tridiagonal(diag: np.ndarray, off: np.ndarray, m: int, vectors: bool):
    return scipy.linalg.eigh_tridiagonal(
        diag, off, eigvals_only=not vectors, select="i", select_range=(0, m - 1),
        lapack_driver="stebz")


def _periodic_matrix(potential: Potential, k: int, grid: Grid) -> np.ndarray:
    """The dense periodic matrix of a circle grid of at most CIRCLE_MAX_NODES
    nodes."""
    diag = _diagonal(potential, k, grid.points(), grid)
    if grid.npoints > CIRCLE_MAX_NODES:
        raise PreconditionError(f"circle grids are capped at {CIRCLE_MAX_NODES} nodes")
    mat = np.diag(diag)
    idx = np.arange(grid.npoints)  # node 0 neighbours node N - 1
    mat[idx, idx - 1] = mat[idx - 1, idx] = -1.0 / (grid.h * grid.h)
    return mat


def _count_below(potential: Potential, k: int, cap: float, grid: Grid) -> int:
    """Count of the discrete eigenvalues below cap, over every level of the
    grid: one Sturm count (_rqi.sturm_count) of _tridiagonal_matrix, with no
    solve; on the dense circle the eigenvalues of _periodic_matrix up to cap."""
    if _dense_circle(potential, grid):
        return len(scipy.linalg.eigh(_periodic_matrix(potential, k, grid), eigvals_only=True,
                                     subset_by_value=(-np.inf, cap)))
    return sturm_count(*_tridiagonal_matrix(potential, k, grid), cap)


def _seeded(potential: Potential, k: int, m: int, grid: Grid, seeds: np.ndarray | None,
            coarse: np.ndarray | None = None):
    """Levels 0..m-1 on ``grid`` and their vectors, normalized as by
    solve_on_grid but unsigned. On the line, certified Rayleigh-quotient
    iteration from the first m columns of ``seeds`` (_rqi), which it
    overwrites, with bisection where the certificate fails; given ``coarse``,
    the seeds are vectors of the grid 2h coarser, with those eigenvalues, and
    _rqi.carry brings them to ``grid`` first. On the circle, or with no
    seeds, solve_on_grid, which computes vectors only when seeds are given."""
    if seeds is None or grid.kind == "circle":
        return solve_on_grid(potential, k, m, grid, vectors=seeds is not None)
    diag, off = _tridiagonal_matrix(potential, k, grid)
    if coarse is not None:
        seeds = carry(diag, off, seeds, coarse)
    lams, vecs = certified_eigh(diag, off, seeds[:, :m]) or _tridiagonal(diag, off, m, True)
    vecs /= math.sqrt(grid.h)
    return lams, vecs


def _unfold(vecs: np.ndarray, n: int) -> np.ndarray:
    """Vectors of the even circle's joined matrix on its n circle nodes, of
    unit 2-norm. Each stein vector vanishes outside its own block, so circle
    node j, at |x| = f h, adds row f (even) to row n/2 + f (odd, signed; none
    for f = 0 or n/2) and the vector comes out exactly even or exactly odd."""
    half = n // 2
    fold = np.abs(np.arange(n) - half)
    interior = (fold > 0) & (fold < half)
    even = np.where(interior, math.sqrt(0.5), 1.0)
    odd = interior * np.sign(np.arange(n) - half) * math.sqrt(0.5)
    return even[:, None] * vecs[fold] + odd[:, None] * vecs[(half + fold) % n]


def solve_on_grid(potential: Potential, k: int, m: int, grid: Grid, *,
                  vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The m lowest eigenpairs of the discretized operator on a fixed grid:
    (lams, vecs) with vecs of shape (npoints, m), L2-normalized in the
    discrete inner product h * <u, v>, each with its first significant
    component positive; with ``vectors=False`` only the eigenvalues are
    computed and vecs is None. The line and a circle with a StructuredProfile
    (an even V) are one bisection of _tridiagonal_matrix; the circle's vectors
    unfold to be exactly even or odd under node j -> N - j. Any other circle
    potential takes the dense solve, capped at CIRCLE_MAX_NODES nodes."""
    _check_mode(k, m)
    if m > grid.npoints // 2:
        raise PreconditionError(f"grid with {grid.npoints} nodes cannot resolve {m} levels")
    h = grid.h
    if not _dense_circle(potential, grid):
        out = _tridiagonal(*_tridiagonal_matrix(potential, k, grid), m, vectors)
        if vectors and grid.kind == "circle":
            out = out[0], _unfold(out[1], grid.npoints)
    else:
        out = scipy.linalg.eigh(_periodic_matrix(potential, k, grid), eigvals_only=not vectors,
                                subset_by_index=(0, m - 1))
    if not vectors:
        return out, None
    lams, vecs = out
    return lams, _fix_signs(vecs / math.sqrt(h))


def _err_floor(grid: Grid, lam: float) -> float:
    # roundoff floor of the extrapolant: bisection resolves each discrete
    # eigenvalue to about eps * ||T|| ~ 4 eps / h^2, and a certified Rayleigh
    # quotient (_rqi) is proven within eps * ||T||, by the Kato-Temple bound
    # s^2 / gap of its certificate, plus its own rounding; (4 lam_{h/2} -
    # lam_h)/3 adds the errors of both grids with weights 4/3 and 1/3
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
            first: tuple | None = None):
    """Halve h from ``grid`` (whose solve_on_grid eigenpairs are ``first`` if
    the caller has them; vectors on the line only) until every level meets
    err_est <= eig_rel * lambda, and return the extrapolants, their error
    estimates, the final grid and, on the line, the vectors of the final
    grid's coarsening and of the final grid. Each refined grid is solved by
    _seeded from its coarsening's vectors and eigenvalues (_rqi.carry).
    ConvergenceError, with the best estimates attached, when the node budget
    runs out or the roundoff floor already exceeds the target."""
    max_nodes = CIRCLE_MAX_NODES if _dense_circle(potential, grid) else LINE_MAX_NODES
    lams, vecs = first or solve_on_grid(potential, k, m, grid, vectors=grid.kind == "line")
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
        kept = vecs
        lams_fine, vecs = _seeded(potential, k, m, fine, kept, lams)
        visited.append(fine.npoints)
        extrap, raw = _extrapolate(coarser, lams, lams_fine)
        floor = _err_floor(fine, float(np.max(np.abs(extrap))))
        err = np.maximum(raw, floor)
        scale = np.maximum(np.abs(extrap), 1e-300)
        best_rel = min(best_rel, float(np.max(err / scale)))
        target = tol.eig_rel * scale
        coarser, lams, grid = lams, lams_fine, fine
        if np.all(err <= target):
            return extrap, err, grid, None if vecs is None else (kept, vecs)
        hopeless = (floor > target) & (raw <= floor)
        if np.all((err <= target) | hopeless):
            raise failure(f"target sits below the roundoff floor "
                          f"{float(np.max(floor / scale))!r} of the discretized problem")


def _first_grid(m: int, length: float | None) -> Grid:
    """The first grid of an m-level solve: on the line over [-length,
    length], 255 nodes, doubled to 2n + 1 until there are at least 8m; on the
    circle (length None), the least multiple of 16 that is at least 2m, and
    at least 64."""
    if length is None:
        return Grid("circle", max(64, 16 * ((2 * m + 15) // 16)))
    n = 255
    while n < 8 * m:
        n = 2 * n + 1
    return Grid("line", n, length)


class _Levels(list):
    """solve_eigen's list of EigenPairs. On the line ``vectors`` holds the
    refinement's own eigenvectors (normalized as by solve_on_grid, unsigned)
    of the final grid's coarsening and of the final grid; None on the circle."""

    vectors = None


def _pairs(potential: Potential, k: int, m: int, grid: Grid, tol: Tolerances,
           first: tuple | None = None) -> _Levels:
    lams, err, grid, vectors = _refine(potential, k, m, grid, tol, first)
    out = _Levels(EigenPair(float(lams[i]), k, i, float(err[i]), grid) for i in range(m))
    out.vectors = vectors
    return out


def solve_eigen(potential: Potential, k: int, m: int,
                tol: Tolerances = Tolerances()) -> list[EigenPair]:
    """The m lowest eigenvalues of -u'' + k^2 V(x) u, with error estimates.
    The line is cut for E = |k|(2m + 1) + k^2 V(0), one oscillator level above
    the top on the floor V(0), then for the top level of the probe solve on
    the cut until that cut is no wider. An even circle potential takes the
    parity split, any other the dense solve."""
    _check_mode(k, m)
    if potential.geometry == "torus":
        return _pairs(potential, k, m, _first_grid(m, None), tol)
    energy = abs(k) * (2.0 * m + 1.0) + k * k * float(eval_potential(potential, 0.0))
    length = truncation_length(potential, k, energy, tol)
    while True:
        grid = _first_grid(m, length)
        lams, vecs = solve_on_grid(potential, k, m, grid)
        if lams[-1] > energy:  # cut for the top level; a cut that does not grow holds it
            energy, last = float(lams[-1]), length
            length = truncation_length(potential, k, energy, tol)
            if length > last:
                continue
        return _pairs(potential, k, m, grid, tol, (lams, vecs))


def solve_levels_below(potential: Potential, k: int, e_max: float,
                       tol: Tolerances = Tolerances()) -> list[EigenPair]:
    """All levels with lambda <= e_max (levels within SEPARATION * err_est
    of e_max are kept), on the line and the circle alike. The line is cut for
    E = e_max. m = 1 + the count below e_max on the one-level first grid
    (_count_below: Sturm counts, no solve, except on the dense circle) is
    solved from the m-level first grid and stays fixed along the refinement.
    If the top level is not certified above the cap, m is recounted on the
    final grid, raised by at least one, and the solve repeated: no level is
    lost."""
    _check_mode(k)
    _check_cap(e_max)
    length = None if potential.geometry == "torus" else truncation_length(potential, k, e_max, tol)
    m = _count_below(potential, k, e_max, _first_grid(1, length)) + 1
    while True:
        pairs = _pairs(potential, k, m, _first_grid(m, length), tol)
        if pairs[-1].lam > e_max + SEPARATION * pairs[-1].err_est:
            return [p for p in pairs if p.lam <= e_max + SEPARATION * p.err_est]
        m = max(m + 1, _count_below(potential, k, e_max, pairs[-1].grid) + 1)
