"""Certified Rayleigh-quotient iteration for the lowest eigenpairs of a
symmetric tridiagonal matrix T, seeded from a nearby problem's vectors.

Each seed column y_i is iterated on its own: solve (T - sigma_i) x = y_i
(LAPACK dgtsv), y_i = x / ||x||, sigma_i = y_i'T y_i, until the residual
rho_i = ||T y_i - sigma_i y_i|| reaches STOP_EPS * eps * ||T|| or after
ITERATIONS solves (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
ch. 4). The result is accepted only with a certificate:

    r_i = 1.01 rho_i + MARGIN_EPS * eps * ||T||,  ||T|| = ||T||_inf,
    (a) sigma_i + r_i < sigma_{i+1} - r_{i+1} for i = 0..m-2,
    (b) the Sturm count of T at p = sigma_{m-1} + r_{m-1} equals m.

Then sigma_i is within r_i of lambda_i, the i-th lowest eigenvalue of T, for
every i. Proof. Let rho'_i be the exact residual of the stored y_i over its
exact norm. For a symmetric T some eigenvalue lies within rho'_i of sigma_i
(Parlett, Thm 4.5.1). The computed count is the exact count of a nearby T' =
T + E with ||E|| <= eta (Kahan 1966; Demmel, Applied Numerical Linear
Algebra, SIAM 1997, sec. 5.3.4), and by Weyl's inequality lambda_j(T') lies
within eta of lambda_j(T). If r_i > rho'_i + eta, the eigenvalue lambda_j(T)
near sigma_i puts lambda_j(T') inside the open interval I_i = (sigma_i - r_i,
sigma_i + r_i). By (a) the I_i are disjoint and ordered, so T' has at least m
eigenvalues below p, one in each I_i; by (b) it has exactly m, so I_i holds
lambda_i(T') and no other. Hence the j found for sigma_i is i, and lambda_i(T)
is within rho'_i <= r_i of sigma_i: the sigma_i are the m lowest eigenvalues,
in order, each simple.

The margin makes r_i > rho'_i + eta. Forming T y - sigma y rounds each
component by at most 4 eps (|T| |y| + |sigma| |y|), a vector of norm <= 4 eps
(||T|| + |sigma|) <= 8 eps ||T|| (|sigma| <= ||T||, y of unit norm); its norm
and y's normalization add relative errors of order n eps, which the factor
1.01 covers for any n < 1e13. So rho'_i <= 1.01 rho_i + 8 eps ||T||. The
count's backward error is eta <= 3 eps (||T|| + |p|) <= 3 eps (2 ||T|| +
r_{m-1}), about 6 eps ||T||. MARGIN_EPS = 24 covers 8 + 6 with room for the
rounding of ||T||, of the endpoints sigma_i +- r_i and of the 3 eps r_{m-1}
term.

Any failure (a singular solve, an unmet certificate, a non-finite number)
returns None and the caller bisects. With (a) the eigenvector error of each
y_i is at most rho'_i / gap_i (Davis-Kahan), gap_i >= the distance from
sigma_i to the neighbouring intervals, and the Rayleigh quotient's error is
of order rho_i^2 / gap_i, far below bisection's eps ||T||.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

_EPS = float(np.finfo(float).eps)

ITERATIONS = 3
STOP_EPS = 16.0
MARGIN_EPS = 24.0


def _norm_inf(diag: np.ndarray, off: np.ndarray) -> float:
    # ||T||_inf, the largest row sum of |T_ij|: every eigenvalue lies in
    # [-||T||, ||T||]
    radius = np.abs(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return float(np.max(radius))


def sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Number of eigenvalues of T below x: dstebz by value over (lower, x],
    lower under every eigenvalue, with an absolute tolerance wider than the
    interval, so that it counts at both ends and bisects nothing."""
    lower = -1.0 - _norm_inf(diag, off)
    m, *_, info = scipy.linalg.lapack.dstebz(diag, off, 1, lower, x, 1, 1,
                                             2.0 * (abs(x) - lower), "E")
    if info:
        raise ValueError(f"dstebz failed with info={info}")
    return int(m)


def prolong(vecs: np.ndarray) -> np.ndarray:
    """Vectors on n interior line nodes carried to the 2n + 1 nodes of the
    grid at half the spacing: coarse node i is fine node 2i + 1, and each
    even fine node takes the mean of its neighbours, zero at the walls."""
    padded = np.pad(vecs, ((1, 1), (0, 0)))
    fine = np.empty((2 * vecs.shape[0] + 1, vecs.shape[1]), order="F")
    fine[1::2] = vecs
    fine[0::2] = 0.5 * (padded[:-1] + padded[1:])
    return fine


def _rayleigh(diag: np.ndarray, off: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    # sigma = u'Tu / u'u and the residual norm ||T u - sigma u||
    tu = diag * u
    tu[:-1] += off * u[1:]
    tu[1:] += off * u[:-1]
    sigma = float(np.dot(u, tu)) / float(np.dot(u, u))
    tu -= sigma * u
    return sigma, math.sqrt(float(np.dot(tu, tu)))


def certified_eigh(diag: np.ndarray, off: np.ndarray, y: np.ndarray):
    """(lams, y) for the m = y.shape[1] lowest eigenpairs of the tridiagonal
    T (diagonal ``diag``, off-diagonal ``off``), by Rayleigh-quotient
    iteration from the seed columns of ``y`` (any scale), which are
    overwritten by the vectors, of unit norm; None unless the certificate of
    the module docstring holds."""
    norm = _norm_inf(diag, off)
    sigma, rho = np.empty(y.shape[1]), np.empty(y.shape[1])
    for j in range(y.shape[1]):
        u = y[:, j]
        u /= math.sqrt(float(np.dot(u, u)))
        sigma[j], rho[j] = _rayleigh(diag, off, u)
        for _ in range(ITERATIONS):
            if rho[j] <= STOP_EPS * _EPS * norm:
                break
            # in place when u is contiguous, as the columns of prolong's are
            *_, x, info = scipy.linalg.lapack.dgtsv(off, diag - sigma[j], off, u,
                                                    overwrite_d=1, overwrite_b=1)
            if info:
                return None
            np.divide(x, math.sqrt(float(np.dot(x, x))), out=u)
            sigma[j], rho[j] = _rayleigh(diag, off, u)
    r = 1.01 * rho + MARGIN_EPS * _EPS * norm
    top = float(sigma[-1] + r[-1])
    if not (np.all(sigma[:-1] + r[:-1] < sigma[1:] - r[1:]) and np.isfinite(top)
            and sturm_count(diag, off, top) == sigma.size):
        return None
    return sigma, y
