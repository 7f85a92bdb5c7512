"""Certified Rayleigh-quotient iteration for the lowest eigenpairs of a
symmetric tridiagonal matrix T, seeded from a nearby problem's vectors.

A refined line grid is seeded by carry: coarse node i is fine node 2i + 1,
and each new node j takes the value that satisfies row j of the fine
equations at the coarse eigenvalue lambda_c, (T y)_j = lambda_c y_j, from its
two neighbours (zero past the walls), that is y_j = (y_{j-1} + y_{j+1}) /
(h^2 (d_j - lambda_c)). This is one relaxation of the new nodes, the
operator-dependent prolongation of multigrid; it leaves seed residuals near
1e-7 ||T||, where the mean of the neighbours left 1e-4 ||T||.

Every seed column y_i is then iterated: solve (T - sigma_i) x = y_i (LAPACK
dgtsv), y_i = x / ||x||, sigma_i = y_i'T y_i, rho_i = ||T y_i - sigma_i
y_i|| (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4). A seed
comes from another matrix, so each column takes at least one solve; all
columns step together, and a column stops at the first step where it meets
(c) below, or after ITERATIONS solves. The result is accepted only with a
certificate:

    r_i = 1.01 rho_i + MARGIN_EPS * eps * ||T||,  ||T|| = ||T||_inf,
    s_i = 1.01 rho_i + 9 eps ||T||,  eta = ETA_EPS * eps * ||T||,
    p = sigma_{m-1} + max(r_{m-1}, s_{m-1} + s_{m-1}^2 / (eps ||T||) + 2 eta),
    (a) sigma_i + r_i < sigma_{i+1} - r_{i+1} for i = 0..m-2,
    (b) p <= 2 ||T||, and the Sturm count of T at p equals m,
    (c) s_i^2 <= eps ||T|| g_i for every i, where g_i is the distance from
        [sigma_i - s_i, sigma_i + s_i] to the neighbouring residual intervals:
        down to sigma_{i-1} + r_{i-1} (none for i = 0), and up to
        sigma_{i+1} - r_{i+1}, or to p - eta for i = m-1.

Then sigma_i is within r_i of lambda_i, the i-th lowest eigenvalue of T, and
the exact Rayleigh quotient of y_i is within eps ||T|| of lambda_i, for every
i.

Levels. Let rho'_i be the exact residual of the stored y_i over its exact
norm. For a symmetric T some eigenvalue lies within rho'_i of sigma_i
(Parlett, Thm 4.5.1). The computed count is the exact count of a nearby T' =
T + E with ||E|| <= eta' (Kahan 1966; Demmel, Applied Numerical Linear
Algebra, SIAM 1997, sec. 5.3.4), and by Weyl's inequality lambda_j(T') lies
within eta' of lambda_j(T). If r_i > rho'_i + eta', the eigenvalue lambda_j(T)
near sigma_i puts lambda_j(T') inside the open interval I_i = (sigma_i - r_i,
sigma_i + r_i). By (a) the I_i are disjoint and ordered, and p is at or above
the top of I_{m-1}, so T' has at least m eigenvalues below p, one in each
I_i; by (b) it has exactly m, so I_i holds lambda_i(T') and no other. Hence
the j found for sigma_i is i, and lambda_i(T) is within rho'_i <= r_i of
sigma_i: the sigma_i are the m lowest eigenvalues, in order, each simple.

Accuracy (Kato-Temple). Let sigma'_i be the exact Rayleigh quotient of y_i
and rho''_i its residual; rho''_i^2 + (sigma'_i - sigma_i)^2 = rho'_i^2, so
sigma'_i lies in [sigma_i - s_i, sigma_i + s_i]. The eigenvalues of T other
than lambda_i lie outside (alpha_i, beta_i), alpha_i = sigma_{i-1} + r_{i-1}
(-inf for i = 0), beta_i = sigma_{i+1} - r_{i+1}, beta_{m-1} = p - eta:
lambda_{i-1} and lambda_{i+1} are within rho' < r of their sigma, and
lambda_m(T) >= lambda_m(T') - eta' > p - eta, since T' has no more than m
eigenvalues below p. The Kato-Temple inequality (T. Kato, J. Phys. Soc.
Japan 4 (1949) 334; Parlett, op. cit.) then gives

    sigma'_i - rho''_i^2 / (beta_i - sigma'_i) <= lambda_i
        <= sigma'_i + rho''_i^2 / (sigma'_i - alpha_i),

with both denominators at least g_i: |sigma'_i - lambda_i| <= s_i^2 / g_i
<= eps ||T|| by (c), the accuracy assumed of bisection. The computed sigma_i
adds the rounding of one tridiagonal product and two inner products, as
bisection's values add that of their counts.

Margins. Forming T y - sigma y rounds each component by at most 4 eps (|T|
|y| + |sigma| |y|), a vector of norm <= 4 eps (||T|| + |sigma|) <= 8 eps
||T|| (|sigma| <= ||T||, y of unit norm); its norm and y's normalization add
relative errors of order n eps, which the factor 1.01 covers for any n <
1e13. So rho'_i <= 1.01 rho_i + 8 eps ||T||, and the ninth eps ||T|| of s_i
covers the rounding of sigma_i +- s_i: the computed interval holds sigma'_i,
and each g_i is a difference of two floats, exact to a relative eps / 2. The
count's backward error is eta' <= 3 eps (||T|| + |p|) <= 9 eps ||T|| by (b),
so ETA_EPS = 10 covers it; the second eta in p covers the rounding of p and
of (c) at the top. MARGIN_EPS = 24 makes r_i > rho'_i + eta': it covers 8 +
9 with room for the rounding of ||T|| and of the endpoints sigma_i +- r_i.

Any failure (a singular solve, an unmet certificate, a non-finite number)
returns None and the caller bisects. With (a) the eigenvector error of each
y_i is at most rho'_i / gap_i (Davis-Kahan), gap_i >= the distance from
sigma_i to the neighbouring intervals.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

_EPS = float(np.finfo(float).eps)

ITERATIONS = 3
MARGIN_EPS = 24.0
ETA_EPS = 10.0


def _norm_inf(diag: np.ndarray, off: np.ndarray) -> float:
    # ||T||_inf, the largest row sum of |T_ij|: every eigenvalue lies in
    # [-||T||, ||T||]
    radius = np.abs(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return float(np.max(radius))


def sturm_count(diag: np.ndarray, off: np.ndarray, x: float, norm: float | None = None) -> int:
    """Number of eigenvalues of T below x: dstebz by value over (lower, x],
    lower under every eigenvalue, with an absolute tolerance wider than the
    interval, so that it counts at both ends and bisects nothing. ``norm``
    is ||T||_inf when the caller has it."""
    lower = -1.0 - (_norm_inf(diag, off) if norm is None else norm)
    m, *_, info = scipy.linalg.lapack.dstebz(diag, off, 1, lower, x, 1, 1,
                                             2.0 * (abs(x) - lower), "E")
    if info:
        raise ValueError(f"dstebz failed with info={info}")
    return int(m)


def carry(diag: np.ndarray, off: np.ndarray, vecs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Eigenvectors ``vecs`` of the n interior nodes of a line grid, with
    eigenvalues ``lams``, carried to the 2n + 1 nodes of the grid at half the
    spacing, whose tridiagonal matrix is (diag, off), its off-diagonal the
    constant -1/h^2: coarse node i is fine node 2i + 1, and each even fine
    node solves its own row at lambda_c from its neighbours, zero at the walls
    (module docstring)."""
    fine = np.empty((diag.size, vecs.shape[1]), order="F")
    fine[1::2] = vecs
    new = fine[0::2]  # the sum of each new node's neighbours, then its value
    new[0], new[-1] = vecs[0], vecs[-1]
    np.add(vecs[:-1], vecs[1:], out=new[1:-1])
    new *= -off[0] / (diag[0::2, None] - lams)
    return fine


def _rayleigh(diag: np.ndarray, off: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    # sigma = u'Tu / u'u and the residual norm ||T u - sigma u||
    tu = diag * u
    tu[:-1] += off * u[1:]
    tu[1:] += off * u[:-1]
    sigma = float(np.dot(u, tu)) / float(np.dot(u, u))
    tu -= sigma * u
    return sigma, math.sqrt(float(np.dot(tu, tu)))


def _bounds(sigma: list, rho: list, unit: float):
    """The count point p, the radii r_i and, per column, the margin eps ||T||
    g_i - s_i^2 of (c) (module docstring), with unit = eps ||T||; in floats,
    as there are few columns."""
    r = [1.01 * p + MARGIN_EPS * unit for p in rho]
    s = [1.01 * p + 9.0 * unit for p in rho]
    eta = ETA_EPS * unit
    top = sigma[-1] + max(r[-1], s[-1] + s[-1] * s[-1] / unit + 2.0 * eta)
    # from [sigma_i - s_i, sigma_i + s_i] down to sigma_{i-1} + r_{i-1} and up
    # to sigma_{i+1} - r_{i+1}, or to p - eta
    below = [math.inf] + [(c - e) - (d + q) for c, e, d, q in zip(sigma[1:], s[1:], sigma, r)]
    above = [(d - q) - (c + e) for c, e, d, q in zip(sigma, s, sigma[1:], r[1:])]
    above.append((top - (sigma[-1] + s[-1])) - eta)
    return top, r, [unit * min(g, h) - e * e for g, h, e in zip(below, above, s)]


def certified_eigh(diag: np.ndarray, off: np.ndarray, y: np.ndarray):
    """(lams, y) for the m = y.shape[1] lowest eigenpairs of the tridiagonal
    T (diagonal ``diag``, off-diagonal ``off``), by Rayleigh-quotient
    iteration from the seed columns of ``y`` (any scale), which are
    overwritten by the vectors, of unit norm; None unless the certificate of
    the module docstring holds."""
    norm = _norm_inf(diag, off)
    unit = _EPS * norm
    sigma = [_rayleigh(diag, off, y[:, j])[0] for j in range(y.shape[1])]
    rho = [0.0] * len(sigma)
    todo = range(len(sigma))
    for _ in range(ITERATIONS):
        for j in todo:
            # in place when the column is contiguous, as carry's are
            u = y[:, j]
            *_, x, info = scipy.linalg.lapack.dgtsv(off, diag - sigma[j], off, u,
                                                    overwrite_d=1, overwrite_b=1)
            if info:
                return None
            np.divide(x, math.sqrt(float(np.dot(x, x))), out=u)
            sigma[j], rho[j] = _rayleigh(diag, off, u)
        top, r, margin = _bounds(sigma, rho, unit)
        todo = [j for j, g in enumerate(margin) if not g >= 0.0]  # nan steps again
        if not todo:
            break
    disjoint = all(c + d < e - f for c, d, e, f in zip(sigma, r, sigma[1:], r[1:]))
    if todo or not (disjoint and top <= 2.0 * norm
                    and sturm_count(diag, off, top, norm) == len(sigma)):
        return None
    return np.array(sigma), y
