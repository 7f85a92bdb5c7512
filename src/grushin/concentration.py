"""Concentration ratios of eigenfunctions over horizontal strips.

When an assembled eigenvalue has multiplicity 2, every eigenfunction in its
eigenspace factors as phi(x, y) = u(x) (alpha e^{iky} + beta e^{-iky}), so the
mass ratio strip/total reduces to trigonometric integrals in y with the three
quadratic coefficient forms

    kappa1 = (a0+b0)^2 + (a1+b1)^2
    kappa2 = (a0-b0)^2 + (a1-b1)^2
    kappa3 = 2 (a0 b1 - a1 b0)

and the x-factor cancels exactly. The minimum of the ratio over the eigenspace
is the bottom eigenvalue of a 2x2 Hermitian Gram matrix, with closed form
((b-a) - |sin(k(b-a))|/|k|) / (2 pi), which tends to (b-a)/(2 pi) as |k| grows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import InvariantViolation, MultiplicityError

__all__ = [
    "Strip",
    "ModeCoefficients",
    "kappa_coefficients",
    "ratio_closed_form",
    "min_ratio",
    "min_ratio_witness",
    "concentration_certificate",
    "Certificate",
]


@dataclass(frozen=True)
class Strip:
    """The control region R x (a, b) in angular coordinates."""

    a: float
    b: float

    def __post_init__(self):
        if not (-math.pi <= self.a < self.b <= math.pi):
            raise InvariantViolation(f"need -pi <= a < b <= pi, got a={self.a}, b={self.b}")

    @property
    def width(self) -> float:
        return self.b - self.a


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


def min_ratio(k: int, w: Strip) -> float:
    """Minimum of ratio_closed_form over nonzero coefficients.

    The quotient is the Rayleigh quotient of the 2x2 Hermitian Gram matrix of
    {e^{iky}, e^{-iky}} on (a, b) against 2 pi I, so the minimum is

        ((b - a) - |sin(k (b - a))| / |k|) / (2 pi).
    """
    if k == 0:
        raise InvariantViolation("k must be nonzero")
    return (w.width - abs(math.sin(k * w.width)) / abs(k)) / (2.0 * math.pi)


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


@dataclass(frozen=True)
class Certificate:
    """Finite-range concentration certificate: for every eigenfunction with
    eigenvalue <= e_max,  ||phi||^2_total <= (1/c_min) ||phi||^2_strip,
    with limit_value = (b-a)/(2 pi) the large-|k| limit of the per-line
    minima (approached at rate 1/(2 pi |k|))."""

    strip: Strip
    e_max: float
    c_min: float
    witness_k: int
    witness_value: float
    limit_value: float
    lines_checked: int


def concentration_certificate(spectrum, w: Strip) -> Certificate:
    """Per-line minimum ratios over an assembled multiplicity-2 spectrum.

    Every line must have multiplicity exactly 2 (a single |k|); otherwise the
    factorized form does not span the eigenspace and the certificate fails
    with the offending line named.
    """
    if not spectrum.lines:
        raise MultiplicityError("empty spectrum; nothing to certify")
    c_min = math.inf
    witness_k = 0
    witness_value = math.nan
    for line in spectrum.lines:
        if line.multiplicity != 2:
            raise MultiplicityError(
                f"line at value {line.value!r} has multiplicity {line.multiplicity}, "
                "certificate needs multiplicity 2")
        k = abs(line.contributors[0][0])
        r = min_ratio(k, w)
        if r < c_min:
            c_min = r
            witness_k = k
            witness_value = line.value
    return Certificate(
        strip=w,
        e_max=float(spectrum.e_max),
        c_min=c_min,
        witness_k=witness_k,
        witness_value=witness_value,
        limit_value=w.width / (2.0 * math.pi),
        lines_checked=len(spectrum.lines),
    )
