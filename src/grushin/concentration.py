"""Concentration of eigenfunctions over horizontal strips.

When an assembled eigenvalue has multiplicity 2, every eigenfunction in its
eigenspace factors as phi(x, y) = u(x) (alpha e^{iky} + beta e^{-iky}). The
x-factor cancels from the strip-to-total mass ratio, which is then the
Rayleigh quotient of the 2x2 Hermitian Gram matrix of {e^{iky}, e^{-iky}} on
(a, b) against 2 pi I. ``min_ratio`` is its minimum over the eigenspace,

    ((b - a) - |sin(k (b - a))| / |k|) / (2 pi),

which tends to (b - a)/(2 pi) as |k| grows, and ``concentration_certificate``
takes the smallest of these minima over an assembled spectrum. It reads the
spectrum's columns (``assembler``), not its lines: the multiplicities
diff(starts), and the |k| of each line's first contributor, the row at
starts[i]. It evaluates ``min_ratio`` once per distinct |k|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import InvariantViolation, MultiplicityError

__all__ = [
    "Strip",
    "min_ratio",
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


def min_ratio(k: int, w: Strip) -> float:
    """Minimum strip-to-total mass ratio over the eigenspace of mode k: the
    bottom eigenvalue ((b - a) - |sin(k (b - a))| / |k|) / (2 pi) of the Gram
    quotient (module docstring)."""
    if k == 0:
        raise InvariantViolation("k must be nonzero")
    return (w.width - abs(math.sin(k * w.width)) / abs(k)) / (2.0 * math.pi)


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
    limit_value: float
    lines_checked: int


def concentration_certificate(spectrum, w: Strip) -> Certificate:
    """Per-line minimum ratios over an assembled multiplicity-2 spectrum.

    Every line must have multiplicity exactly 2 (a single |k|); otherwise the
    factorized form does not span the eigenspace and the certificate fails
    with the first offending line named. The minimum depends on a line only
    through |k|, so it is evaluated once per distinct |k| of the lines' first
    contributors; on a tie the witness is the |k| of the first such line. The
    spectrum's columns are read directly; no line object is built.
    """
    starts = spectrum.starts
    mult = starts[1:] - starts[:-1]
    if not len(mult):
        raise MultiplicityError("empty spectrum; nothing to certify")
    if (mult != 2).any():
        i = int((mult != 2).argmax())
        raise MultiplicityError(
            f"line at value {float(spectrum.values[i])!r} has multiplicity {int(mult[i])}, "
            "certificate needs multiplicity 2")
    # every distinct |k|, in the order of its first line
    ks = dict.fromkeys(abs(spectrum.contributors[starts[:-1], 0]).tolist())
    ratios = {k: min_ratio(k, w) for k in ks}
    witness_k = min(ratios, key=ratios.__getitem__)
    return Certificate(
        strip=w,
        e_max=float(spectrum.e_max),
        c_min=ratios[witness_k],
        witness_k=witness_k,
        limit_value=w.width / (2.0 * math.pi),
        lines_checked=len(mult),
    )
