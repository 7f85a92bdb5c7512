"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize
from scipy.special import mathieu_a, mathieu_b

from grushin.concentration import ModeCoefficients, Strip, ratio_closed_form
from grushin.core import Perturbation, Potential
from grushin.schrod1d import Grid, solve_on_grid


def enumeration_multiplicities(limit: int) -> np.ndarray:
    """Lattice-enumeration multiplicity table for s2 = 0: mult[E] counts all
    (k, n) in Z* x N with (2n+1)|k| = E, by scanning odd numbers times k."""
    mult = np.zeros(limit + 1, dtype=np.int64)
    for odd in range(1, limit + 1, 2):
        mult[odd::odd] += 2
    return mult


def brute_count(e_max: int, s2_num: int = 0, s2_den: int = 1) -> int:
    """Direct double-loop eigenvalue count for small caps."""
    total = 0
    k = 1
    while k * s2_den + k * k * s2_num <= e_max * s2_den:
        n = 0
        while ((2 * n + 1) * k) * s2_den + k * k * s2_num <= e_max * s2_den:
            n += 1
        total += n
        k += 1
    return 2 * total


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


def shooting_level(gamma: float, k: int, n: int, bracket: tuple[float, float]) -> float:
    """The n-th eigenvalue of -u'' + k^2 |x|^(2 gamma) u on the line, by
    shooting: u starts at x = 0 with the parity of n and is integrated
    (DOP853, rtol 1e-13) to X well past the classical turning point, where
    u(X) changes sign as lambda crosses an eigenvalue. ``bracket`` must hold the
    n-th level and no other of the same parity."""
    y0 = [1.0, 0.0] if n % 2 == 0 else [0.0, 1.0]

    def tail(lam: float) -> float:
        # past the turning point until the WKB decay exponent reaches 20,
        # so the wall at the end shifts the level by about e^-40
        turn = (lam / (k * k)) ** (0.5 / gamma)
        end = turn + 1.0
        while quad(lambda x: math.sqrt(max(k * k * x ** (2.0 * gamma) - lam, 0.0)),
                   turn, end)[0] < 20.0:
            end *= 1.25
        sol = solve_ivp(lambda x, y: [y[1], (k * k * abs(x) ** (2.0 * gamma) - lam) * y[0]],
                        (0.0, end), y0, method="DOP853", rtol=1e-13, atol=1e-16)
        return float(sol.y[0, -1])

    return brentq(tail, *bracket, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def mathieu_levels(k: int, m: int) -> list[float]:
    """The m lowest eigenvalues of -u'' + k^2 (4 sin^2(x/2)) u on the circle.
    With x = 2z this is Mathieu's equation at q = 4k^2 (the sign of q does
    not matter for even orders), and 2pi-periodic solutions in x are the
    even-order ones: lambda = 2k^2 + a/4 over a_0 < b_2 < a_2 < b_4 < ..."""
    q = 4.0 * k * k
    chars = [float(mathieu_a(0, q))]
    for r in range(2, 2 * m + 2, 2):
        chars += [float(mathieu_a(r, q)), float(mathieu_b(r, q))]
    return [2.0 * k * k + a / 4.0 for a in sorted(chars)[:m]]
