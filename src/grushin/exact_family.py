"""Closed-form spectral arithmetic for the shifted-parabola family
V = x^2 + s2 on the cylinder.

The fibered operator -u'' + k^2 (x^2 + s2) u is a scaled harmonic oscillator,
so its levels are (2n+1)|k| + k^2 s2. That makes every spectral question below
a question about integers: multiplicities count lattice points, and the
eigenvalue counting function is an exact divisor-style sum.

``_level_keys`` is the one definition of an exact level: it maps int64
arrays of (k, n) to the keys that decide equality, guarded so that no product
wraps. For rational s2 = p/q the key is the integer q * level =
q (2n+1)|k| + p k^2; for a tagged irrational it is the pair (lin, quad) =
((2n+1)|k|, k^2), so no float comparison ever decides equality.
Keys go back to floats only here. ``_key_values`` turns a rational key,
or a difference of keys, into the correctly rounded quotient key / q (int64
true division rounds twice once a key passes 2^53), and a pair into
lin + quad * s2. ``_key_gaps`` turns two arrays of rational keys into their
gaps |a - b| / q, correctly rounded wherever a gap is within a window: from
the float quotient where it already is, through ``_key_values`` elsewhere.
A ``SpectrumLine`` carries the key (no Fraction) beside its value and
contributors, whose count is its multiplicity; ``multiplicity_enumeration``
returns one, and an assembled spectrum builds them only as its ``lines``
view.

One per-mode table, ``_modes``, decides which levels lie below a cap for
counting, enumeration, multiplicities and assembly, and refuses s2 < 0. For
rational s2 every level is a multiple of 1/q, so the cap E floors to the
integer c = floor(qE), and level n of mode k lies below it exactly when
(2n+1) qk <= c - pk^2: 64-bit-guarded integers, no Fractions. Only the cap
test of a tagged irrational goes through its float approximation.
``enumerate_exact_pairs`` turns the table into one int64 array of (k, n);
exact assembly keys that array with ``_level_keys``, groups equal keys by
one stable sort of the int64 keys, and fills the spectrum's columns (line
values, contributor offsets, (k, n) rows and keys; see ``assembler``)
straight from the sorted arrays, with no per-line object. The property-P
check compares the same keys, mode against mode, through ``_key_gaps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ExactScalar,
    IntegerOverflowError,
    InvariantViolation,
    PreconditionError,
    _check_cap,
)

__all__ = [
    "SpectrumLine",
    "multiplicity_factorization",
    "multiplicity_enumeration",
    "counting_function",
    "weyl_residual",
    "WeylSample",
    "enumerate_exact_pairs",
    "factorize",
]

_INT64_MAX = 2**63 - 1
_INT64_ISQRT = math.isqrt(_INT64_MAX)  # the largest |k| whose k^2 fits in 64 bits
_FACTOR_LIMIT = 10**12  # trial division stays cheap below this
_BLOCK = 4096  # modes per _modes block: memory stays bounded for any cap


def _check64(value: int, what: str) -> int:
    if abs(value) > _INT64_MAX:
        raise IntegerOverflowError(f"{what} = {value} exceeds the 64-bit guard")
    return value


@dataclass(frozen=True)
class SpectrumLine:
    """An assembled eigenvalue of the two-dimensional operator: its numeric
    value, the contributing Fourier/level pairs, and their exact key, as
    ``_level_keys`` forms it (None for a numeric line). The multiplicity is
    the contributor count."""

    value: float
    contributors: tuple[tuple[int, int], ...]
    key: int | tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.contributors) % 2 != 0:
            raise InvariantViolation("multiplicities are even (k and -k pair up)")
        have = set(self.contributors)
        if any((-k, n) not in have for k, n in self.contributors):
            raise InvariantViolation("contributors must be closed under k -> -k")

    @property
    def multiplicity(self) -> int:
        return len(self.contributors)


def _level_keys(k: np.ndarray, n: np.ndarray, s2: ExactScalar):
    """The keys of level n of mode k for int64 arrays k and n, elementwise
    (broadcast): the int64 array q (2n+1)|k| + p k^2 for rational s2 = p/q,
    the arrays (lin, quad) = ((2n+1)|k|, k^2) for a tagged irrational.
    PreconditionError unless every k != 0 and n >= 0; IntegerOverflowError
    wherever a term or a rational key passes 64 bits, checked before any
    product is formed, so none wraps."""
    if np.any(k == 0) or np.any(n < 0):
        raise PreconditionError("a level needs k != 0 and n >= 0")
    ak = np.abs(k)  # |-2^63| wraps to -2^63, which fails the bound on n
    if np.any(n > (_INT64_MAX // ak - 1) // 2):
        raise IntegerOverflowError("(2n+1)|k| exceeds the 64-bit guard")
    if np.any(ak > _INT64_ISQRT):
        raise IntegerOverflowError("k^2 exceeds the 64-bit guard")
    lin, quad = (2 * n + 1) * ak, ak * ak
    if not s2.is_rational:
        return lin, quad
    p, q = s2.rational.numerator, s2.rational.denominator
    # each term within 64 bits, then their sum
    if (np.any(lin > _INT64_MAX // q) or np.any(quad > _INT64_MAX // max(abs(p), 1))
            or np.any(p * quad > _INT64_MAX - q * lin)):
        raise IntegerOverflowError("q(2n+1)|k| + p k^2 exceeds the 64-bit guard")
    return q * lin + p * quad


def _key_values(keys, s2: ExactScalar):
    """The float of each key of ``_level_keys``, or of each difference of
    rational keys (int64 or uint64): the correctly rounded key / q for
    rational s2 = p/q, lin + quad * s2 for a pair (lin, quad) of a tagged
    irrational, which may also be Python ints within 64 bits."""
    if not s2.is_rational:
        lin, quad = keys
        return lin + quad * s2.approx
    q = s2.rational.denominator
    values = keys / float(q)  # one rounding where key and q are exact in float64
    inexact = (np.abs(keys) > 2**53) | (q > 2**53)
    values[inexact] = [key / q for key in keys[inexact].tolist()]  # Python ints: one rounding
    return values


def _key_gaps(a, b, s2: ExactScalar, window: float) -> np.ndarray:
    """|a - b| / q for int64 keys of rational s2 = p/q (broadcast), correctly
    rounded wherever it is at most ``window``. The uint64 difference is exact
    (|a - b| < 2^64, even where int64 wraps), and its float quotient is
    correctly rounded where q and every difference are at most 2^53;
    otherwise it is within 2^-50 of the gap, so only a quotient at most
    window (1 + 2^-48) can belong to a gap at most window, and those take
    _key_values."""
    diff = np.maximum(a, b).view(np.uint64) - np.minimum(a, b).view(np.uint64)
    q = s2.rational.denominator
    gaps = diff / float(q)
    if q > 2**53 or diff.max() > 2**53:
        near = gaps <= window * (1.0 + 2.0**-48)
        gaps[near] = _key_values(diff[near], s2)
    return gaps


def factorize(value: int) -> dict[int, int]:
    """Prime factorization by trial division (guarded to 1e12)."""
    if value < 1:
        raise PreconditionError("factorization needs a positive integer")
    if value > _FACTOR_LIMIT:
        raise IntegerOverflowError(f"{value} exceeds the trial-division limit {_FACTOR_LIMIT}")
    out: dict[int, int] = {}
    rest = value
    for p in (2, 3):
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    d = 5
    while d * d <= rest:
        for p in (d, d + 2):
            while rest % p == 0:
                out[p] = out.get(p, 0) + 1
                rest //= p
        d += 6
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def multiplicity_factorization(value: int) -> int:
    """Multiplicity of the eigenvalue E = value for s2 = 0, from the prime
    factorization E = 2^k0 * p1^a1 * ... * pr^ar.

    Counting the ways to write E = (2n+1)|k|: the odd part 2n+1 can be any
    divisor of the odd part of E, so with the factor 2 for k -> -k,

        mult(E) = 2 * prod(ai + 1).
    """
    if value == 0:
        raise PreconditionError("E = 0 is not an eigenvalue")
    if value < 0:
        raise PreconditionError("eigenvalues are positive")
    mult = 2
    for p, a in factorize(value).items():
        if p != 2:
            mult *= a + 1
    return mult


def multiplicity_enumeration(target, s2: ExactScalar) -> SpectrumLine:
    """All (k, n) whose eigenvalue equals the target, with exact equality.

    Rational s2 = p/q: the target is an exact rational (int, Fraction, or
    float taken at face value); only targets on the 1/q lattice have
    contributors, and equality is tested in integers on the ``_modes`` table.
    Irrational s2: the target is a pair (lin, quad), the key of
    ``_level_keys``, each within 64 bits (IntegerOverflowError otherwise),
    and equality is pair equality; no float comparison ever happens. A pair
    with no (k, n) preimage has no contributors. The line's key is the pair,
    or for rational s2 the int q * target (None off the lattice). Each mode
    has at most one level at the target, so contributors come in |k| order.
    """
    if s2.is_rational:
        t = Fraction(target)
        if t <= 0:
            raise PreconditionError("eigenvalues are positive")
        key = t * s2.rational.denominator
        on_lattice = key.denominator == 1
        contributors = []
        # on the lattice level n of mode k equals t when (2n+1) d == r; off
        # it none does, and a cap of 0 scans no mode but still refuses s2 < 0
        for k, r, d in _modes(s2, t if on_lattice else 0):
            odd = r // d
            hit = (r % d == 0) & (odd % 2 == 1)
            for kk, n in zip(k[hit].tolist(), (odd[hit] // 2).tolist()):
                contributors.extend([(-kk, n), (kk, n)])
        return SpectrumLine(value=float(t), contributors=tuple(contributors),
                            key=int(key) if on_lattice else None)

    lin, quad = _check64(target[0], "lin"), _check64(target[1], "quad")
    k = math.isqrt(max(quad, 0))
    valid = quad >= 1 and k * k == quad and lin >= k and lin % k == 0 and (lin // k) % 2 == 1
    contributors = ()
    if valid:
        n = ((lin // k) - 1) // 2
        contributors = ((-k, n), (k, n))
    return SpectrumLine(value=_key_values((lin, quad), s2), contributors=contributors,
                        key=(lin, quad))


def _modes(s2: ExactScalar, e_max):
    """The modes k >= 1 with a level <= e_max, as blocks of arrays (k, r, d)
    of at most _BLOCK modes: level n of mode k lies below the cap exactly
    when (2n+1) d <= r, and r >= d for every yielded k.

    Rational s2 = p/q: r = floor(q e_max) - p k^2 and d = q k in int64, exact
    because every level is a multiple of 1/q. Tagged irrational: among
    k <= min(E, sqrt(E/s2)), those whose float quotient r = (e_max - k^2 s2)/k
    is >= 1, with d = 1. s2 < 0 (levels unbounded below) raises
    PreconditionError when the first block is asked for, even if there is none.
    """
    if s2.is_rational:
        p, q = s2.rational.numerator, s2.rational.denominator
        if p < 0:
            raise PreconditionError(
                f"s2 must be >= 0; at s2 = {s2.rational} the levels (2n+1)|k| + k^2 s2 "
                "fall without bound as |k| grows")
        c = math.floor(q * Fraction(e_max))
        # the largest k with p k^2 + q k <= c
        k_max = c // q if p == 0 else (math.isqrt(q * q + 4 * p * c) - q) // (2 * p)
        _check64(c + 2 * q * k_max, "floor(q*E) + 2*q*k_max")
    else:
        e = float(e_max)
        k_max = int(min(e, math.sqrt(e) / math.sqrt(s2.approx)))
        _check64(k_max * k_max, "k_max^2")  # k * k below is int64
    for lo in range(1, k_max + 1, _BLOCK):
        k = np.arange(lo, min(lo + _BLOCK, k_max + 1), dtype=np.int64)
        if s2.is_rational:
            yield k, c - p * k * k, q * k
        else:
            r = (e - k * k * s2.approx) / k
            keep = r >= 1.0
            yield k[keep], r[keep], 1.0


def _level_counts(r, d) -> np.ndarray:
    """card{n >= 0 : (2n+1) d <= r} for each mode of a ``_modes`` block."""
    return ((r + d) // (2 * d)).astype(np.int64, copy=False)


def counting_function(e_max, s2: ExactScalar) -> int:
    """Exact number of eigenvalues (with multiplicity) <= e_max:

        N(E) = 2 * sum over k >= 1 of card{n : (2n+1) <= (E - k^2 s2)/k}.

    Integer arithmetic when s2 is rational; the tagged-irrational case
    evaluates the cap through the numeric approximation.
    """
    _check_cap(e_max)
    # summed as Python ints: the total can pass 2^63 when no term does
    return 2 * sum(sum(_level_counts(r, d).tolist()) for _, r, d in _modes(s2, e_max))


@dataclass(frozen=True)
class WeylSample:
    e: float
    count: int
    residual: float


def weyl_residual(e_samples, s2: ExactScalar) -> list[WeylSample]:
    """Normalized counting-function residuals for asymptotic inspection:

        s2 == 0:  (N(E) - E ln E) / E
        s2 != 0:  (N(E) - E ln sqrt(E)) / E
    """
    samples = list(e_samples)
    if any(not (float(e) > 0) for e in samples):
        raise PreconditionError("samples must be positive")
    if any(float(e) == math.inf for e in samples):
        raise PreconditionError("samples must be finite")
    if any(b <= a for a, b in zip(samples, samples[1:])):
        raise PreconditionError("samples must be increasing")
    zero = s2.is_rational and s2.rational == 0
    out = []
    for e in samples:
        n_e = counting_function(e, s2)
        e_f = float(e)
        lead = e_f * math.log(e_f) if zero else e_f * math.log(math.sqrt(e_f))
        out.append(WeylSample(e=e_f, count=n_e, residual=(n_e - lead) / e_f))
    return out


def enumerate_exact_pairs(s2: ExactScalar, e_max) -> np.ndarray:
    """Every level (k > 0, n) with eigenvalue <= e_max, as an (N, 2) int64
    array of rows (k, n) in (k, n) order; ``_level_keys`` gives their keys."""
    _check_cap(e_max)
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for k, r, d in _modes(s2, e_max):
        counts = _level_counts(r, d)
        first = np.cumsum(counts) - counts  # each mode's first row in the block
        n = np.arange(counts.sum(), dtype=np.int64) - np.repeat(first, counts)
        blocks.append(np.column_stack((np.repeat(k, counts), n)))
    return np.concatenate(blocks)
