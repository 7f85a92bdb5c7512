"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize

from grushin.assembler import PropertyPPair
from grushin.concentration import Strip, min_ratio
from grushin.core import (
    CallableProfile,
    ConvergenceError,
    ExactFamilyProfile,
    ExactScalar,
    GrushinError,
    InvariantViolation,
    Perturbation,
    Potential,
    PreconditionError,
    SampledProfile,
    StructuredProfile,
    eval_potential,
    render_exact_scalar,
)
from grushin.schrod1d import EigenPair, Grid, solve_on_grid


@dataclass(frozen=True)
class ModeCoefficients:
    """Real and imaginary parts of (alpha, beta) in
    u(x) (alpha e^{iky} + beta e^{-iky})."""

    alpha0: float
    alpha1: float
    beta0: float
    beta1: float

    def __post_init__(self):
        if self.alpha0 == self.alpha1 == self.beta0 == self.beta1 == 0.0:
            raise InvariantViolation("coefficients must not all vanish")


def kappa_coefficients(c: ModeCoefficients) -> tuple[float, float, float]:
    """The quadratic coefficient forms of the y-density
    k1 cos^2(ky) + k2 sin^2(ky) + 2 k3 cos(ky) sin(ky):

        kappa1 = (a0+b0)^2 + (a1+b1)^2
        kappa2 = (a0-b0)^2 + (a1-b1)^2
        kappa3 = 2 (a0 b1 - a1 b0)
    """
    k1 = (c.alpha0 + c.beta0) ** 2 + (c.alpha1 + c.beta1) ** 2
    k2 = (c.alpha0 - c.beta0) ** 2 + (c.alpha1 - c.beta1) ** 2
    k3 = 2.0 * (c.alpha0 * c.beta1 - c.alpha1 * c.beta0)
    return k1, k2, k3


def ratio_closed_form(c: ModeCoefficients, k: int, w: Strip) -> float:
    """Strip-to-total mass ratio of u(x)(alpha e^{iky} + beta e^{-iky}):

        (k1-k2)/(k1+k2) * f(k)/(4 pi k) + (b-a)/(2 pi)
            + k3/(k1+k2) * g(k)/(pi k),

    with f(k) = sin(2bk) - sin(2ak) and g(k) = cos^2(ak) - cos^2(bk), from
    integrating k1 cos^2(ky) + k2 sin^2(ky) + 2 k3 cos(ky) sin(ky) over the
    strip against the full-circle mass pi (k1 + k2). Always lies in [0, 1]
    and is invariant under scaling (alpha, beta) -> (t alpha, t beta).
    """
    if k == 0:
        raise InvariantViolation("k must be nonzero")
    k1, k2, k3 = kappa_coefficients(c)
    f = math.sin(2.0 * w.b * k) - math.sin(2.0 * w.a * k)
    g = math.cos(w.a * k) ** 2 - math.cos(w.b * k) ** 2
    total = k1 + k2
    return ((k1 - k2) / total * f / (4.0 * math.pi * k)
            + w.width / (2.0 * math.pi)
            + k3 / total * g / (math.pi * k))


def min_ratio_witness(k: int, w: Strip) -> tuple[float, ModeCoefficients]:
    """min_ratio(k, w) with a minimizer: alpha = 1, beta = -conj(c)/|c| where
    c is the off-diagonal Gram entry (any unit beta when the off-diagonal
    vanishes)."""
    value = min_ratio(k, w)
    off = (cmath.exp(2j * k * w.b) - cmath.exp(2j * k * w.a)) / (2j * k)
    if abs(off) < 1e-15 * w.width:
        coeffs = ModeCoefficients(1.0, 0.0, 0.0, 0.0)
    else:
        beta = -off / abs(off)
        coeffs = ModeCoefficients(1.0, 0.0, beta.real, beta.imag)
    return value, coeffs


def hermite_eigenfunction(k: int, n: int, x) -> np.ndarray | float:
    """The normalized n-th oscillator eigenfunction of -u'' + k^2 x^2 u:

        c_n |k|^(1/4) H_n(x sqrt|k|) exp(-x^2 |k| / 2),
        c_n = (2^n n! sqrt(pi))^(-1/2),

    with H_n the physicists' Hermite polynomial (H_{n+1} = 2zH_n - 2nH_{n-1}).
    Evaluated through the equivalent orthonormal recurrence, which is stable
    for large n. The L2 norm over the line is 1.
    """
    if k == 0:
        raise PreconditionError("k must be nonzero")
    if n < 0:
        raise PreconditionError("n must be >= 0")
    scalar = np.isscalar(x)
    z = np.asarray(x, dtype=float) * math.sqrt(abs(k))
    psi_prev = np.pi ** (-0.25) * np.exp(-0.5 * z * z)
    if n == 0:
        out = abs(k) ** 0.25 * psi_prev
        return float(out) if scalar else out
    psi = math.sqrt(2.0) * z * psi_prev
    for j in range(1, n):
        psi, psi_prev = (math.sqrt(2.0 / (j + 1.0)) * z * psi
                         - math.sqrt(j / (j + 1.0)) * psi_prev), psi
    out = abs(k) ** 0.25 * psi
    return float(out) if scalar else out


def render_potential(potential: Potential) -> str:
    """Canonical text for a parseable Potential; parse_potential(render(p)) == p."""
    prof = potential.profile
    if isinstance(prof, StructuredProfile):
        kind = "power" if potential.geometry == "cylinder" else "torus"
        return f"{kind}:gamma={potential.gamma!r}"
    if isinstance(prof, ExactFamilyProfile):
        return f"shifted:s2={render_exact_scalar(prof.s2)}"
    if isinstance(prof, SampledProfile):
        if prof.source is None:
            raise InvariantViolation("sampled potential without a source path has no text form")
        out = f"table:{prof.source},ext={prof.extrapolation_exponent!r}"
        if potential.gamma != 1.0:
            out += f",gamma={potential.gamma!r}"
        return out
    raise InvariantViolation("callable potentials have no text form")


def weighted_power(gamma: float, w_tilde) -> Potential:
    """V = |x|^(2 gamma) * w_tilde(x) on the cylinder, as a callable profile."""
    return Potential("cylinder", gamma, CallableProfile(
        fn=lambda x: np.abs(x) ** (2.0 * gamma) * np.asarray(w_tilde(x), dtype=float)))


def enumeration_multiplicities(limit: int) -> np.ndarray:
    """Lattice-enumeration multiplicity table for s2 = 0: mult[E] counts all
    (k, n) in Z* x N with (2n+1)|k| = E, by scanning odd numbers times k."""
    mult = np.zeros(limit + 1, dtype=np.int64)
    for odd in range(1, limit + 1, 2):
        mult[odd::odd] += 2
    return mult


def brute_count(e_max: int | Fraction, s2_num: int = 0, s2_den: int = 1) -> int:
    """Direct double-loop eigenvalue count for small caps, exact for an
    integer or Fraction cap."""
    total = 0
    k = 1
    while k * s2_den + k * k * s2_num <= e_max * s2_den:
        n = 0
        while ((2 * n + 1) * k) * s2_den + k * k * s2_num <= e_max * s2_den:
            n += 1
        total += n
        k += 1
    return 2 * total


def brute_exact_lines(s2: ExactScalar, e_max) -> list[tuple]:
    """The shifted-parabola spectrum below e_max by direct grouping of every
    (+-k, n): by Fraction equality of (2n+1)k + k^2 s2 for rational s2 >= 0,
    by equality of the pair ((2n+1)k, k^2) for a tagged irrational, whose cap
    test uses its float value. Lines are (value, contributors, multiplicity,
    key) in (value, contributors) order, with the exact key that
    ``exact_family._level_keys`` forms: the integer q * level for rational
    s2 = p/q, the pair for an irrational."""
    groups: dict = {}
    k = 1
    while True:
        n = 0
        while True:
            lin, k2 = (2 * n + 1) * k, k * k
            if s2.is_rational:
                key = lin + k2 * s2.rational
                below = key <= Fraction(e_max)
            else:
                key = (lin, k2)
                below = lin + k2 * s2.approx <= float(e_max)
            if not below:
                break
            groups.setdefault(key, []).extend([(k, n), (-k, n)])
            n += 1
        if n == 0:  # s2 >= 0: no higher mode has a level below the cap either
            break
        k += 1
    lines = []
    for key, members in groups.items():
        contributors = tuple(sorted(members, key=lambda kn: (abs(kn[0]), kn[0], kn[1])))
        if s2.is_rational:
            scaled = key * s2.rational.denominator  # every level is a multiple of 1/q
            assert scaled.denominator == 1
            lines.append((float(key), contributors, len(contributors), scaled.numerator))
        else:
            value = float(key[0] + key[1] * s2.approx)
            lines.append((value, contributors, len(contributors), key))
    return sorted(lines, key=lambda line: line[:2])


def brute_force_min_ratio(k: int, w: Strip) -> float:
    """Projectively reduced brute-force minimizer of the concentration ratio:
    (alpha, beta) = (cos u, sin u e^{iv}) sweeps representatives of every
    coefficient ray; a coarse grid seeds a local polish."""

    def objective(params):
        u, v = params
        c = ModeCoefficients(math.cos(u), 0.0, math.sin(u) * math.cos(v),
                             math.sin(u) * math.sin(v))
        if c.alpha0 == c.alpha1 == c.beta0 == c.beta1 == 0.0:
            return math.inf
        return ratio_closed_form(c, k, w)

    us = np.linspace(1e-4, math.pi / 2 - 1e-4, 121)
    vs = np.linspace(0.0, 2.0 * math.pi, 241)
    best = (math.inf, 0.0, 0.0)
    for u in us:
        for v in vs:
            val = objective((u, v))
            if val < best[0]:
                best = (val, u, v)
    polish = minimize(objective, [best[1], best[2]], method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    return min(best[0], float(polish.fun))


def certificate_by_line(spectrum, w: Strip) -> tuple[float, int, int]:
    """(c_min, witness_k, lines_checked) of the concentration certificate by
    one min_ratio per line, in line order: the first line that reaches the
    minimum is the witness. None for an empty spectrum or a line whose
    multiplicity is not 2."""
    if not spectrum.lines:
        return None
    c_min, witness_k = math.inf, 0
    for line in spectrum.lines:
        if line.multiplicity != 2:
            return None
        k = abs(line.contributors[0][0])
        r = min_ratio(k, w)
        if r < c_min:
            c_min, witness_k = r, k
    return c_min, witness_k, len(spectrum.lines)


def central_difference_slope(potential: Potential, w: Perturbation, k: int,
                             n: int, grid: Grid, delta: float) -> float:
    """Fourth-order central difference of lambda_n(t) along
    V + t * base * W on a fixed grid (the grid-truncation bias is smooth in t
    and cancels in the difference)."""
    from grushin.perturb import perturbed_potential

    def lam(t: float) -> float:
        lams, _ = solve_on_grid(perturbed_potential(potential, w, t), k, n + 1, grid)
        return float(lams[n])

    return (lam(-2 * delta) - 8 * lam(-delta) + 8 * lam(delta) - lam(2 * delta)) / (12 * delta)


def branch_overlaps(branch) -> np.ndarray:
    """|<u(t_i), u(t_{i+1})>| for consecutive accepted steps of a tracked
    perturb.Branch, in the inner product of its grid."""
    h = branch.grid.h
    return np.array([abs(h * float(np.dot(a, b)))
                     for a, b in zip(branch.vectors, branch.vectors[1:])])


def shooting_level(gamma: float, k: int, n: int, bracket: tuple[float, float]) -> float:
    """The n-th eigenvalue of -u'' + k^2 |x|^(2 gamma) u on the line, by
    shooting: u starts at x = 0 with the parity of n and is integrated
    (DOP853, rtol 1e-13) to X well past the classical turning point, where
    u(X) changes sign as lambda crosses an eigenvalue. ``bracket`` must hold the
    n-th level and no other of the same parity."""
    y0 = [1.0, 0.0] if n % 2 == 0 else [0.0, 1.0]

    def tail(lam: float) -> float:
        # past the turning point to where the WKB decay exponent reaches 20,
        # so the wall at the end shifts the level by about e^-40; stopping
        # there, not beyond, keeps the growing solution finite for steep powers
        turn = (lam / (k * k)) ** (0.5 / gamma)

        def decay(x: float) -> float:
            return quad(lambda s: math.sqrt(max(k * k * s ** (2.0 * gamma) - lam, 0.0)),
                        turn, x)[0] - 20.0

        end = turn + 1.0
        while decay(end) < 0.0:
            end *= 1.25
        end = brentq(decay, turn, end)
        sol = solve_ivp(lambda x, y: [y[1], (k * k * abs(x) ** (2.0 * gamma) - lam) * y[0]],
                        (0.0, end), y0, method="DOP853", rtol=1e-13, atol=1e-16)
        return float(sol.y[0, -1])

    return brentq(tail, *bracket, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def mathieu_levels(k: int, m: int) -> list[float]:
    """The m lowest eigenvalues of -u'' + k^2 (4 sin^2(x/2)) u on the circle.
    Since 4 sin^2(x/2) = 2 - 2 cos x, the operator in the basis e^{inx},
    |n| <= M, is the symmetric tridiagonal matrix with diagonal n^2 + 2k^2
    and off-diagonals -k^2. A level's coefficients shrink by about k^2/n^2
    per step once n^2 passes it, and the m lowest levels stay below
    4k^2 + m^2, so M = 4k + 4m + 64 truncates nothing above roundoff."""
    big = 4 * k + 4 * m + 64
    n = np.arange(-big, big + 1, dtype=float)
    off = np.full(n.size - 1, -float(k * k))
    matrix = np.diag(n * n + 2.0 * k * k) + np.diag(off, 1) + np.diag(off, -1)
    return [float(v) for v in np.linalg.eigvalsh(matrix)[:m]]


class RankDeficientBasis(GrushinError):
    """Basis vectors handed to rayleigh_max are not independent."""


def _apply_operator(u: np.ndarray, pot_values: np.ndarray, k: int, grid: Grid) -> np.ndarray:
    h2 = grid.h * grid.h
    out = (2.0 * u) / h2 + (k * k) * pot_values * u
    if grid.kind == "line":
        out[1:] -= u[:-1] / h2
        out[:-1] -= u[1:] / h2
    else:
        out -= np.roll(u, 1) / h2
        out -= np.roll(u, -1) / h2
    return out


def rayleigh_max(potential: Potential, k: int, grid: Grid,
                 basis: list[np.ndarray]) -> float:
    """Maximum Rayleigh quotient <P u, u>/<u, u> of the discretized operator
    over the span of the basis, computed as the top eigenvalue of the
    projected pencil (h B^T A B, h B^T B)."""
    if not basis:
        raise PreconditionError("empty basis")
    b_mat = np.column_stack([np.asarray(v, dtype=float) for v in basis])
    if b_mat.shape[0] != grid.npoints:
        raise PreconditionError("basis vectors do not live on the given grid")
    h = grid.h
    pot = np.asarray(eval_potential(potential, grid.points()), dtype=float)
    gram = h * (b_mat.T @ b_mat)
    gvals = np.linalg.eigvalsh(gram)
    if gvals[0] < 1e-12 * max(gvals[-1], 1e-300):
        raise RankDeficientBasis("basis vectors are numerically dependent")
    a_cols = np.column_stack([_apply_operator(b_mat[:, j], pot, k, grid)
                              for j in range(b_mat.shape[1])])
    proj = h * (b_mat.T @ a_cols)
    proj = 0.5 * (proj + proj.T)
    vals = scipy.linalg.eigh(proj, gram, eigvals_only=True)
    return float(vals[-1])


def _simpson(values: np.ndarray, h: float) -> float:
    # composite Simpson; len(values) must be odd
    return float(h / 3.0 * (values[0] + values[-1]
                            + 4.0 * np.sum(values[1:-1:2])
                            + 2.0 * np.sum(values[2:-2:2])))


def _integrate_y(k1: float, k2: float, k3: float, k: int,
                 lo: float, hi: float, panels: int, quad_rel: float) -> float:
    def density(y: np.ndarray) -> np.ndarray:
        cy, sy = np.cos(k * y), np.sin(k * y)
        return k1 * cy * cy + k2 * sy * sy + 2.0 * k3 * cy * sy

    n = max(8, panels + panels % 2)
    ys = np.linspace(lo, hi, n + 1)
    prev = _simpson(density(ys), (hi - lo) / n)
    for _ in range(24):
        n *= 2
        ys = np.linspace(lo, hi, n + 1)
        cur = _simpson(density(ys), (hi - lo) / n)
        if abs(cur - prev) <= quad_rel * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise ConvergenceError(
        f"y-quadrature disagreement above quad_rel={quad_rel!r} after refinement")


def eigenvector(potential: Potential, pair: EigenPair) -> np.ndarray:
    """The discrete eigenvector of ``pair`` on its final grid."""
    _, vecs = solve_on_grid(potential, pair.k, pair.n + 1, pair.grid)
    return vecs[:, pair.n]


def ratio_quadrature(potential: Potential, phi_x: EigenPair, c: ModeCoefficients,
                     w: Strip, grid_y: int = 512, quad_rel: float = 1e-9) -> float:
    """The strip/total mass ratio by direct quadrature of
    |u(x)|^2 |alpha e^{iky} + beta e^{-iky}|^2 over the x-grid and a refining
    Simpson y-grid (successive refinements agree to quad_rel), with u the
    eigenvector of ``phi_x`` for ``potential``. Cross-checks
    ratio_closed_form; the x-factor cancels in the quotient but is integrated
    anyway."""
    k1, k2, k3 = kappa_coefficients(c)
    k = phi_x.k
    u = eigenvector(potential, phi_x)
    x_mass = phi_x.grid.h * float(np.sum(u * u))
    num = x_mass * _integrate_y(k1, k2, k3, k, w.a, w.b, grid_y, quad_rel)
    den = x_mass * _integrate_y(k1, k2, k3, k, -math.pi, math.pi, grid_y, quad_rel)
    return num / den


def brute_property_p(s2: ExactScalar, n: int, k_range: int,
                     cluster_abs: float) -> list[PropertyPPair]:
    """Property (P) records for V = x^2 + s2 by direct pair comparison: every
    level (2i+1)k + k^2 s2, i < n, of every mode pair k < l <= k_range,
    compared in Fraction arithmetic for rational s2 and as integer pairs
    (lin, quad) otherwise. Equal values are FAIL records with zero gap; other
    pairs within cluster_abs are PASS records with their float gap."""
    records = []
    for k in range(1, k_range + 1):
        for l in range(k + 1, k_range + 1):
            for i in range(n):
                for j in range(n):
                    a_lin, b_lin = (2 * i + 1) * k, (2 * j + 1) * l
                    if s2.is_rational:
                        a = Fraction(a_lin) + k * k * s2.rational
                        b = Fraction(b_lin) + l * l * s2.rational
                        equal, gap = a == b, abs(float(a - b))
                        lam_a, lam_b = float(a), float(b)
                    else:
                        equal = (a_lin, k * k) == (b_lin, l * l)
                        lam_a = float(a_lin + k * k * s2.approx)
                        lam_b = float(b_lin + l * l * s2.approx)
                        gap = abs(lam_a - lam_b)
                    if equal:
                        records.append(PropertyPPair(k, l, i, j, lam_a, lam_b, 0.0, 0.0, "FAIL"))
                    elif gap <= cluster_abs:
                        records.append(PropertyPPair(k, l, i, j, lam_a, lam_b, gap, 0.0, "PASS"))
    return records
