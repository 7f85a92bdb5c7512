"""The ramp of core.Perturbation: the antiderivative F of the unit-mass
standard bump exp(-1/(1-u^2)) on [-1, 1], as a table at 257 knots plus one
8-node Gauss-Legendre sum per point (standard_mollifier_cdf)."""

from __future__ import annotations

import math

import numpy as np

# The antiderivative F of the standard bump exp(-1/(1-u^2)) at the knots
# -1 + j/128, j = 0..256: each panel's mass is an 8-node Gauss-Legendre sum, the
# masses are added by fsum, and F is normalised by their fsum, so F = 1 at the
# last knot (composite Gauss-Legendre; Davis & Rabinowitz, Methods of Numerical
# Integration, 1984, 2.7).
_GL_SHIFTED, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_SHIFTED += 1.0  # nodes on [0, 2]
# below it F underflows to 0, and no node rounds to -1, where the exponent divides by 0
_Z_MIN = -1.0 + 2.0**-40


def _sum8(terms):
    # terms[0] + ... + terms[7] in the order of _gl_sums' halvings, so that the
    # scalar and the array path round the same way
    return ((terms[0] + terms[1]) + (terms[2] + terms[3])) + \
        ((terms[4] + terms[5]) + (terms[6] + terms[7]))


def _gl_sums(lo: np.ndarray, half) -> np.ndarray:
    """8-node Gauss-Legendre sums of the bump over [lo, lo + 2 half], divided
    by half, one per entry of lo; callers keep the nodes in (-1, 1)."""
    u = lo + half * _GL_SHIFTED[:, None]
    terms = np.exp(1.0 / (u * u - 1.0)) * _GL_WEIGHTS[:, None]
    for _ in range(3):  # pairwise halvings, in _sum8's order
        terms = terms[0::2] + terms[1::2]
    return terms[0]


_MASSES = (_gl_sums(np.arange(256) / 128.0 - 1.0, 1.0 / 256.0) / 256.0).tolist()
_BUMP_TOTAL = math.fsum(_MASSES)
_CDF_KNOTS = np.array([math.fsum(_MASSES[:j]) for j in range(257)]) / _BUMP_TOTAL


def standard_mollifier_cdf(z) -> np.ndarray | float:
    """Integral of the unit-mass standard bump from -1 to z: 0 for z <= -1
    (and up to -1 + 2^-40, where it underflows), 1 for z >= 1, smooth and
    increasing in between. F(z) is the table value at the knot -1 + j/128 at
    or below z plus one 8-node Gauss-Legendre sum from that knot to z, so it
    is within about 1e-16 of the exact value. A scalar z does the array
    path's arithmetic in Python floats, with one numpy exp of 8 values, and
    gets the same bits."""
    if np.isscalar(z):
        z = float(z)
        if not _Z_MIN < z < 1.0:  # nan lands here and gives 0, as in the array path
            return 1.0 if z >= 1.0 else 0.0
        j = min(int((z + 1.0) * 128.0), 255)
        lo = j / 128.0 - 1.0
        half = 0.5 * (z - lo)
        u = [lo + half * g for g in _GL_SHIFTED.tolist()]
        terms = np.exp([1.0 / (x * x - 1.0) for x in u]) * _GL_WEIGHTS
        return float(_CDF_KNOTS[j] + half * _sum8(terms.tolist()) / _BUMP_TOTAL)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.where(z >= 1.0, 1.0, 0.0)
    inside = np.flatnonzero((z > _Z_MIN) & (z < 1.0))
    if inside.size:
        zi = z.ravel()[inside]
        j = np.minimum(((zi + 1.0) * 128.0).astype(np.intp), 255)
        lo = j / 128.0 - 1.0
        half = 0.5 * (zi - lo)
        out.flat[inside] = _CDF_KNOTS[j] + half * _gl_sums(lo, half) / _BUMP_TOTAL
    return out
