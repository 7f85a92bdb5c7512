"""Domain types shared by every other module: potentials on the cylinder and
torus, exact scalars for the shifted-parabola family, smooth compactly
supported perturbations, and solver tolerances.

Everything here is an immutable value object; all operations are pure
functions, safe to call concurrently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "GrushinError",
    "PotentialSyntaxError",
    "InvariantViolation",
    "ConvergenceError",
    "PreconditionError",
    "IntegerOverflowError",
    "MultiplicityError",
    "ExactScalar",
    "StructuredProfile",
    "ExactFamilyProfile",
    "SampledProfile",
    "CallableProfile",
    "Potential",
    "Perturbation",
    "Tolerances",
    "parse_potential",
    "parse_exact_scalar",
    "render_exact_scalar",
    "eval_potential",
    "base_factor",
    "sup_on_interval",
]


class GrushinError(Exception):
    """Base class for all library errors."""


class PotentialSyntaxError(GrushinError):
    """Bad potential text. Carries the character position of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class InvariantViolation(GrushinError):
    """A declared data invariant failed validation."""


class ConvergenceError(GrushinError):
    """A numerical routine exhausted its budget. Best estimates, when
    available, are attached as ``best``."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class PreconditionError(GrushinError):
    """A documented precondition of an operation does not hold."""


def _check_cap(e_max) -> None:
    """PreconditionError unless the eigenvalue cap e_max is positive and finite."""
    e = float(e_max)
    if not (e > 0):
        raise PreconditionError("e_max must be positive")
    if e == math.inf:
        raise PreconditionError("e_max must be finite")


def _readonly(array, dtype=None) -> np.ndarray:
    """``array`` as an ndarray whose elements refuse writes (ValueError)."""
    out = np.asarray(array, dtype=dtype)
    out.flags.writeable = False
    return out


class IntegerOverflowError(GrushinError):
    """Exact integer arithmetic would exceed the 64-bit guard."""


class MultiplicityError(GrushinError):
    """A spectral line violates a multiplicity hypothesis."""


# Named constants usable as irrational scalar tags.
IRRATIONAL_TAGS: dict[str, float] = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "pi": math.pi,
    "e": math.e,
}


@dataclass(frozen=True)
class ExactScalar:
    """A scalar that supports exact comparisons: either a reduced rational or
    a tagged named irrational (used only through pair arithmetic, never
    through float equality).  ``approx`` is the numeric evaluation."""

    rational: Fraction | None
    label: str | None
    approx: float

    @classmethod
    def from_rational(cls, p: int, q: int = 1) -> "ExactScalar":
        frac = Fraction(p, q)  # reduces and normalizes the sign of q
        return cls(rational=frac, label=None, approx=float(frac))

    @classmethod
    def irrational(cls, label: str) -> "ExactScalar":
        if label not in IRRATIONAL_TAGS:
            raise InvariantViolation(
                f"unknown irrational tag {label!r}; known: {sorted(IRRATIONAL_TAGS)}"
            )
        return cls(rational=None, label=label, approx=IRRATIONAL_TAGS[label])

    @property
    def is_rational(self) -> bool:
        return self.rational is not None

    def __float__(self) -> float:
        return self.approx


def parse_exact_scalar(text: str) -> ExactScalar:
    """Parse ``"p"``, ``"p/q"``, or ``"irr:<tag>"``."""
    text = text.strip()
    if text.startswith("irr:"):
        return ExactScalar.irrational(text[4:])
    try:
        if "/" in text:
            p_str, q_str = text.split("/", 1)
            return ExactScalar.from_rational(int(p_str), int(q_str))
        return ExactScalar.from_rational(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise PotentialSyntaxError(f"bad exact scalar {text!r}: {exc}", 0) from None


def render_exact_scalar(s2: ExactScalar) -> str:
    if s2.is_rational:
        frac = s2.rational
        return f"{frac.numerator}" if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
    return f"irr:{s2.label}"


@dataclass(frozen=True)
class StructuredProfile:
    """V = base(x): the pure power |x|^(2*gamma) on the cylinder, the pure
    sine (4 sin^2(x/2))^gamma on the torus."""


@dataclass(frozen=True)
class ExactFamilyProfile:
    """V = x^2 + s2 on the cylinder; the closed-form spectral family."""

    s2: ExactScalar


@dataclass(frozen=True)
class SampledProfile:
    """Piecewise-linear data with power-law extrapolation beyond the nodes.

    Beyond the node range the value is v_end * (|x|/|x_end|)^ext, which keeps
    the potential confining for ext > 0.
    """

    nodes: tuple[tuple[float, float], ...]
    extrapolation_exponent: float
    source: str | None = None

    def __post_init__(self):
        xs = [x for x, _ in self.nodes]
        if len(xs) < 2:
            raise InvariantViolation("sampled potential needs at least two nodes")
        if any(not math.isfinite(x) or not math.isfinite(v) for x, v in self.nodes):
            raise InvariantViolation("sampled potential nodes must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvariantViolation("sampled potential x values must be strictly increasing")
        bad = next((x for x, v in self.nodes if v < 0), None)
        if bad is not None:
            raise InvariantViolation(f"sampled potential must satisfy V >= 0; violated at x={bad}")
        if not (self.extrapolation_exponent > 0):
            raise InvariantViolation("extrapolation exponent must be > 0 (confinement)")


@dataclass(frozen=True)
class CallableProfile:
    """V given as a function of x: the perturbed potentials, and any custom V.
    Not representable in the potential grammar."""

    fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Potential:
    geometry: str  # "cylinder" | "torus"
    gamma: float
    profile: StructuredProfile | ExactFamilyProfile | SampledProfile | CallableProfile

    def __post_init__(self):
        if self.geometry not in ("cylinder", "torus"):
            raise InvariantViolation(f"unknown geometry {self.geometry!r}")
        if not (self.gamma > 0):
            raise InvariantViolation("gamma must be positive")
        if isinstance(self.profile, ExactFamilyProfile):
            if self.geometry != "cylinder" or self.gamma != 1.0:
                raise InvariantViolation("exact family is the cylinder with gamma=1")


def base_factor(potential: Potential, x) -> np.ndarray:
    """The degenerate weight in front of the bounded part: |x|^(2*gamma) on
    the cylinder, (4 sin^2(x/2))^gamma on the torus. Both vanish only at the
    degeneracy x = 0 and match |x|^(2*gamma) there."""
    x = np.asarray(x, dtype=float)
    g = potential.gamma
    if potential.geometry == "cylinder":
        return np.abs(x) ** (2.0 * g)
    return (4.0 * np.sin(x / 2.0) ** 2) ** g


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def eval_potential(potential: Potential, x) -> np.ndarray | float:
    """Evaluate V at x (scalar or array). Total on the reals; torus input is
    wrapped into [-pi, pi]."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if potential.geometry == "torus":
        x = _wrap_angle(x)
    prof = potential.profile
    if isinstance(prof, StructuredProfile):
        v = base_factor(potential, x)
    elif isinstance(prof, ExactFamilyProfile):
        v = x * x + prof.s2.approx
    elif isinstance(prof, SampledProfile):
        xs = np.array([p for p, _ in prof.nodes])
        vs = np.array([q for _, q in prof.nodes])
        v = np.interp(x, xs, vs)
        ext = prof.extrapolation_exponent
        lo, hi = xs[0], xs[-1]
        left = x < lo
        right = x > hi
        if np.any(left):
            v = np.where(left, vs[0] * (np.abs(x) / max(abs(lo), 1e-300)) ** ext, v)
        if np.any(right):
            v = np.where(right, vs[-1] * (np.abs(x) / max(abs(hi), 1e-300)) ** ext, v)
    elif isinstance(prof, CallableProfile):
        v = np.asarray(prof.fn(x), dtype=float)
    else:  # pragma: no cover - the union is closed
        raise TypeError(f"unknown profile {type(prof)}")
    return float(v) if scalar else v


# ---------------------------------------------------------------------------
# Potential mini-grammar
#
#   power:gamma=<g>            cylinder, V = |x|^(2g)
#   torus:gamma=<g>            torus,    V = (4 sin^2(x/2))^g
#   shifted:s2=<p[/q]|irr:tag> cylinder, V = x^2 + s2 (exact family)
#   table:<path>,ext=<e>[,gamma=<g>]   sampled CSV with header x,v
# ---------------------------------------------------------------------------

def _parse_kv(parts: list[str], offset: int, allowed: set[str]) -> dict[str, tuple[str, int]]:
    """The key=value fields starting at character ``offset``, as
    {key: (value, position of the value)}; keys outside ``allowed`` are
    rejected, naming the first in sorted order."""
    out: dict[str, tuple[str, int]] = {}
    pos = offset
    for part in parts:
        if "=" not in part:
            raise PotentialSyntaxError(f"expected key=value, got {part!r}", pos)
        key, value = part.split("=", 1)
        if key in out:
            raise PotentialSyntaxError(f"duplicate key {key!r}", pos)
        out[key] = (value, pos + len(key) + 1)
        pos += len(part) + 1
    unknown = sorted(set(out) - allowed)
    if unknown:
        raise PotentialSyntaxError(f"unknown key {unknown[0]!r}", out[unknown[0]][1])
    return out


def _float_field(kv, key) -> float:
    value, pos = kv[key]
    try:
        return float(value)
    except ValueError:
        raise PotentialSyntaxError(f"bad number {value!r} for {key}", pos) from None


def _load_table(path: str) -> tuple[tuple[float, float], ...]:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise PotentialSyntaxError(f"cannot read table {path!r}: {exc}", 0) from None
    if not rows or [c.strip() for c in rows[0]] != ["x", "v"]:
        raise PotentialSyntaxError(f"table {path!r} must start with header 'x,v'", 0)
    nodes = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise PotentialSyntaxError(f"table {path!r} line {lineno}: expected two columns", 0)
        try:
            nodes.append((float(row[0]), float(row[1])))
        except ValueError:
            raise PotentialSyntaxError(f"table {path!r} line {lineno}: bad number", 0) from None
    return tuple(nodes)


def parse_potential(spec: str) -> Potential:
    """Parse the potential mini-grammar into a validated Potential.

    Syntax errors carry the character position; invariant violations name the
    offending value.
    """
    text = spec.strip()
    if ":" not in text:
        raise PotentialSyntaxError("expected '<kind>:<args>'", len(text))
    kind, rest = text.split(":", 1)
    offset = len(kind) + 1
    if kind == "power" or kind == "torus":
        kv = _parse_kv(rest.split(","), offset, {"gamma"})
        if "gamma" not in kv:
            raise PotentialSyntaxError("missing gamma", offset)
        gamma = _float_field(kv, "gamma")
        if gamma <= 0:
            raise PotentialSyntaxError("gamma must be > 0", kv["gamma"][1])
        geometry = "cylinder" if kind == "power" else "torus"
        return Potential(geometry=geometry, gamma=gamma, profile=StructuredProfile())
    if kind == "shifted":
        kv = _parse_kv(rest.split(","), offset, {"s2"})
        if "s2" not in kv:
            raise PotentialSyntaxError("missing s2", offset)
        value, pos = kv["s2"]
        try:
            s2 = parse_exact_scalar(value)
        except PotentialSyntaxError as exc:
            raise PotentialSyntaxError(exc.message, pos) from None
        if s2.is_rational and s2.rational < 0:
            raise PotentialSyntaxError("s2 must be >= 0", pos)
        return Potential(geometry="cylinder", gamma=1.0, profile=ExactFamilyProfile(s2=s2))
    if kind == "table":
        parts = rest.split(",")
        if not parts or not parts[0]:
            raise PotentialSyntaxError("missing table path", offset)
        path = parts[0]
        kv = _parse_kv(parts[1:], offset + len(path) + 1, {"ext", "gamma"})
        if "ext" not in kv:
            raise PotentialSyntaxError("missing ext", offset)
        ext = _float_field(kv, "ext")
        gamma = _float_field(kv, "gamma") if "gamma" in kv else 1.0
        nodes = _load_table(path)
        try:
            profile = SampledProfile(nodes=nodes, extrapolation_exponent=ext, source=path)
            return Potential(geometry="cylinder", gamma=gamma, profile=profile)
        except InvariantViolation as exc:
            raise PotentialSyntaxError(str(exc), offset) from None
    raise PotentialSyntaxError(f"unknown potential kind {kind!r}", 0)


# ---------------------------------------------------------------------------
# Suprema of unimodal functions by golden-section search
# ---------------------------------------------------------------------------

# relative accuracy of the suprema
SUP_REL = 1e-10


def sup_on_interval(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """sup of fn over [lo, hi] to relative accuracy SUP_REL, for fn unimodal
    on [lo, hi]: one golden-section search over the whole interval, calling
    fn on one float at a time."""
    if hi <= lo:
        raise PreconditionError("empty interval")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = float(fn(c))
    fd = float(fn(d))
    while (b - a) > SUP_REL * max(abs(a), abs(b), 1e-30):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(fn(d))
    return max(fc, fd)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """W = scale * (mollified indicator of [a, b] at smoothing width eps):
    smooth, with values in [0, scale], equal to scale on [a + eps, b - eps]
    and vanishing outside ``support`` = [a - eps, b + eps]. It is evaluated
    through the bump antiderivative F (standard_mollifier_cdf: a table at 257
    knots plus one 8-node Gauss-Legendre sum per point) as

        W(x) = scale * (F((x - a)/eps) - F((x - b)/eps)).

    Each point on a ramp costs one 8-node sum of the bump, and a point off
    the ramps none. Branch tracking evaluates W once per grid, not per step.

    The plain sup of W is ``scale``. The weighted sup of base * W has no
    closed form but has a shape: W is the indicator of [a, b] convolved with
    the log-concave standard bump, so W is log-concave (Prekopa, Acta Sci.
    Math. 34 (1973) 335), and log base, 2*gamma*log|x| on the cylinder and
    2*gamma*log|2 sin(x/2)| on the torus, is concave on each side of x = 0.
    So base * W is unimodal on each side of 0, and ``sup_weighted`` runs one
    golden-section search per side. W is not wrapped, so a torus bump must
    lie in [-pi, pi], where 0 is the only zero of base.
    """

    a: float
    b: float
    eps: float
    scale: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.eps, self.scale)):
            raise PreconditionError("bump numbers must be finite")
        if not (self.a < self.b):
            raise PreconditionError(f"need a < b, got a={self.a}, b={self.b}")
        if not (0 < self.eps <= (self.b - self.a) / 2):
            raise PreconditionError(f"need 0 < eps <= (b-a)/2, got eps={self.eps}")
        if self.scale < 0:
            raise PreconditionError("perturbations stay non-negative; use signed t at the operator level")

    @property
    def support(self) -> tuple[float, float]:
        return (self.a - self.eps, self.b + self.eps)

    def __call__(self, x) -> np.ndarray | float:
        return self._w(x if np.isscalar(x) else np.asarray(x, dtype=float))

    def _w(self, x):
        # the formula holds everywhere: off the support both F terms are 0 or both 1
        return self.scale * (standard_mollifier_cdf((x - self.a) / self.eps)
                             - standard_mollifier_cdf((x - self.b) / self.eps))

    def scaled(self, factor: float) -> "Perturbation":
        return replace(self, scale=self.scale * factor)

    def check_fits(self, potential: Potential) -> None:
        """PreconditionError unless a torus bump lies in [-pi, pi]."""
        lo, hi = self.support
        if potential.geometry == "torus" and not (-math.pi <= lo and hi <= math.pi):
            raise PreconditionError(
                f"torus bump support [{lo!r}, {hi!r}] must lie in [-pi, pi]")

    def sup_weighted(self, potential: Potential) -> float:
        """sup of base * W: one golden-section search on each side of 0 that
        evaluates base * W at one scalar point at a time (class docstring)."""
        self.check_fits(potential)
        lo, hi = self.support
        pieces = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
        return max(sup_on_interval(lambda x: base_factor(potential, x) * self._w(x), p, q)
                   for p, q in pieces)


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
    # terms[0] + ... + terms[7] in one fixed order, for floats and arrays alike,
    # so that the scalar and the array path round the same way
    return ((terms[0] + terms[1]) + (terms[2] + terms[3])) + \
        ((terms[4] + terms[5]) + (terms[6] + terms[7]))


def _gl_sums(lo: np.ndarray, half) -> np.ndarray:
    """8-node Gauss-Legendre sums of the bump over [lo, lo + 2 half], divided
    by half, one per entry of lo; callers keep the nodes in (-1, 1)."""
    u = lo + half * _GL_SHIFTED[:, None]
    return _sum8(np.exp(1.0 / (u * u - 1.0)) * _GL_WEIGHTS[:, None])


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
    inside = (z > _Z_MIN) & (z < 1.0)
    if np.any(inside):
        j = np.minimum(((z[inside] + 1.0) * 128.0).astype(np.intp), 255)
        lo = j / 128.0 - 1.0
        half = 0.5 * (z[inside] - lo)
        out[inside] = _CDF_KNOTS[j] + half * _gl_sums(lo, half) / _BUMP_TOTAL
    return out


# A numeric level is certified distinct from another, or above a cap, when the
# gap exceeds SEPARATION times the summed error estimates: closing it takes true
# errors ten times their estimates, and measured effectivity stays below 1.
SEPARATION = 10.0


@dataclass(frozen=True)
class Tolerances:
    """Accuracy target shared across the solvers: eig_rel, in (0, 1), is the
    relative eigenvalue accuracy the refinement loop must reach. Which
    numeric levels count as distinct follows from the achieved error
    estimates (SEPARATION), not from a width."""

    eig_rel: float = 1e-7

    def __post_init__(self):
        if not (0 < self.eig_rel < 1):  # nan fails too
            raise InvariantViolation("eig_rel must lie in (0, 1)")
