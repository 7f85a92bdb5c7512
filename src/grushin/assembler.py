"""Assembly of the two-dimensional spectrum below a cap from the per-mode 1D
spectra: the full spectrum is the union over nonzero Fourier modes k of the
spectra of -u'' + k^2 V, each taken twice (k and -k).

Numeric assembly chains sorted 1D eigenvalues into SpectrumLines until a gap
is certified (core.SEPARATION), the rule the numeric property-P check uses.
Exact assembly (shifted parabolas) groups levels by the key of
``exact_family.level_key``, an integer for rational s2 and a (lin, quad)
pair for a tagged irrational, and the exact property-P check compares those
same keys. It keys the int64 array of every (k, n) below the cap at once
(``exact_family._level_keys``) and groups equal rational keys by one stable
sort, which keeps each line's members in (k, n) order; an irrational key is
injective in (k, n), so each of its lines is one pair +-k. Each line keeps
its key; a rational line's value is the Python-int quotient key / q, since
int64 true division rounds twice once a key passes 2^53.

Numeric assembly takes modes k = 1, 2, ... upward and stops at the first
mode with no level below the cap: with V >= 0 every level of -u'' + k^2 V u
is nondecreasing in |k| (min-max), so no later mode contributes. A pure
power V = |x|^(2 gamma) on the cylinder is solved once, at k = 1: dilation
makes mode k exactly k^(2/(gamma+1)) times mode 1, values and error
estimates alike. Every other potential is solved mode by mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import inf, pi

import numpy as np

from .core import (
    SEPARATION,
    ExactFamilyProfile,
    InvariantViolation,
    Potential,
    PreconditionError,
    SampledProfile,
    StructuredProfile,
    Tolerances,
    _check_cap,
)
from .exact_family import (
    SpectrumLine,
    _level_keys,
    _sorted_contributors,
    enumerate_exact_pairs,
    level_key,
)
from .schrod1d import solve_eigen, solve_levels_below

__all__ = [
    "AssembledSpectrum",
    "assemble",
    "check_property_p",
    "PropertyPReport",
    "PropertyPPair",
]


@dataclass(frozen=True)
class AssembledSpectrum:
    """Spectrum below e_max: sorted lines, the largest |k| that contributes
    a line (0 if none), and the assembly mode ("exact" or "numeric").
    Numeric line values sit within solver resolution of the true
    eigenvalues, so the e_max boundary is enforced up to that resolution."""

    e_max: float
    lines: tuple[SpectrumLine, ...]
    k_cut: int
    mode: str
    warnings: tuple[str, ...] = ()


def _assemble_exact(potential: Potential, e_max: float) -> AssembledSpectrum:
    s2 = potential.profile.s2
    kn = enumerate_exact_pairs(s2, e_max)
    if not len(kn):
        return AssembledSpectrum(e_max=float(e_max), lines=(), k_cut=0, mode="exact")
    k, n = kn.T
    keys = _level_keys(k, n, s2)
    if s2.is_rational:
        # equal keys are one line; the stable sort keeps its members in (k, n) order
        order = np.argsort(keys, kind="stable")
        k, n, keys = k[order], n[order], keys[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        q = s2.rational.denominator
        line_keys = keys[first].tolist()
        values = [key / q for key in line_keys]  # Python ints: int64 division rounds twice
    else:
        # (lin, quad) is injective in (k, n): each line is one pair +-k
        first = np.arange(len(k))
        lin, quad = keys
        values = (lin + quad * s2.approx).tolist()
        line_keys = list(zip(lin.tolist(), quad.tolist()))
    # each member's contributors (-k, n), (k, n), so a line lists them in |k| order
    members = list(zip(np.column_stack((-k, k)).ravel().tolist(), np.repeat(n, 2).tolist()))
    bounds = (2 * first).tolist() + [len(members)]
    # (value, contributors) order: distinct lines differ in their first contributor
    lines = tuple(SpectrumLine(values[i], tuple(members[bounds[i]:bounds[i + 1]]), line_keys[i])
                  for i in np.lexsort((n[first], -k[first], values)).tolist())
    return AssembledSpectrum(e_max=float(e_max), lines=lines, k_cut=int(kn[-1, 0]),
                             mode="exact")


def _distinct(a: tuple, b: tuple) -> bool:
    """Whether two entries (lam, err, k, n) are certified distinct levels."""
    return abs(a[0] - b[0]) > SEPARATION * (a[1] + b[1])


def _cluster(entries: list[tuple[float, float, int, int]]
             ) -> tuple[list[SpectrumLine], list[str]]:
    """Chain-link entries (lam, err, k, n) in value order until an entry is
    certified distinct from the previous one. Warn about each line whose
    chain joins two members certified distinct."""
    entries = sorted(entries, key=lambda e: (e[0], abs(e[2]), e[2], e[3]))
    clusters: list[list[tuple[float, float, int, int]]] = []
    for entry in entries:
        if clusters and not _distinct(clusters[-1][-1], entry):
            clusters[-1].append(entry)
        else:
            clusters.append([entry])
    lines, warnings = [], []
    for members in clusters:
        value = sum(lam for lam, _, _, _ in members) / len(members)
        lines.append(SpectrumLine(value, _sorted_contributors((k, n) for _, _, k, n in members)))
        pair = next((ab for ab in combinations(members, 2) if _distinct(*ab)), None)
        if pair:
            warnings.append(f"line at {value!r} joins levels (k, n) = {pair[0][2:]} and "
                            f"{pair[1][2:]}, which are certified distinct")
    return lines, warnings


def _check_zero_interval(nodes: tuple[tuple[float, float], ...], e_max: float) -> None:
    """A table that vanishes on [a, b] has in every mode a level at or below
    (pi/(b-a))^2, the Dirichlet ground level of [a, b] (min-max), so a cap at
    or above it holds infinitely many levels."""
    for zero, run in groupby(nodes, key=lambda node: node[1] == 0):
        xs = [x for x, _ in run]
        bound = (pi / (xs[-1] - xs[0])) ** 2 if zero and len(xs) > 1 else inf
        if e_max >= bound:
            raise PreconditionError(
                f"V vanishes on [{xs[0]!r}, {xs[-1]!r}], so every mode has a level at "
                f"or below (pi/{xs[-1] - xs[0]!r})^2 = {bound!r} <= e_max = {e_max!r}")


def _assemble_numeric(potential: Potential, e_max: float, tol: Tolerances) -> AssembledSpectrum:
    if isinstance(potential.profile, SampledProfile):
        _check_zero_interval(potential.profile.nodes, e_max)
    # V = |x|^(2 gamma): x = k^(-1/(gamma+1)) y maps mode k onto k^(2/(gamma+1))
    # times mode 1, values and errors alike, so only mode 1 is solved
    power = potential.geometry == "cylinder" and isinstance(potential.profile, StructuredProfile)
    entries: list[tuple[float, float, int, int]] = []
    k = 1
    while True:
        if k == 1 or not power:
            pairs = solve_levels_below(potential, k, e_max, tol)
        s = float(k) ** (2.0 / (potential.gamma + 1.0)) if power else 1.0
        # the solver's keep rule, scaled with the levels
        kept = [(s * pr.lam, s * pr.err_est, pr.n) for pr in pairs
                if s * pr.lam <= e_max + SEPARATION * s * pr.err_est]
        if not kept:
            break
        entries += [(lam, err, sign * k, n) for lam, err, n in kept for sign in (1, -1)]
        k += 1
    lines, warnings = _cluster(entries)
    return AssembledSpectrum(e_max=float(e_max), lines=tuple(lines), k_cut=k - 1,
                             mode="numeric", warnings=tuple(warnings))


def assemble(potential: Potential, e_max: float, tol: Tolerances = Tolerances(),
             mode: str = "auto") -> AssembledSpectrum:
    """Assemble the 2D spectrum below e_max.

    mode "exact" requires the shifted-parabola family and merges by exact
    arithmetic; "numeric" takes each mode's levels from the 1D solver (for a
    pure power on the cylinder, mode 1's levels scaled by k^(2/(gamma+1)))
    and clusters them; "auto" picks exact when available.
    """
    _check_cap(e_max)
    is_exact = isinstance(potential.profile, ExactFamilyProfile)
    if mode == "auto":
        mode = "exact" if is_exact else "numeric"
    if mode == "exact":
        if not is_exact:
            raise PreconditionError("exact assembly needs an exact-family potential")
        return _assemble_exact(potential, e_max)
    if mode == "numeric":
        return _assemble_numeric(potential, e_max, tol)
    raise PreconditionError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class PropertyPPair:
    """One near-collision record between spec(P^k) and spec(P^l)."""

    k: int
    l: int
    i: int
    j: int
    lam_k: float
    lam_l: float
    gap: float
    err_bound: float
    status: str  # PASS | FAIL | UNDECIDED


@dataclass(frozen=True)
class PropertyPReport:
    """Disjointness check of the first n levels of every mode pair
    1 <= k < l <= k_range. PASS means all near-collisions are certified
    distinct, FAIL means an exact collision, UNDECIDED means some gap sits
    inside the numerical error bars."""

    n: int
    k_range: int
    mode: str
    collisions: tuple[PropertyPPair, ...]
    verdict: str


def check_property_p(potential: Potential, n: int, k_range: int,
                     tol: Tolerances = Tolerances(), *, cluster_abs: float = 1e-3
                     ) -> PropertyPReport:
    """Report every near-collision |lam_i(P^k) - lam_j(P^l)| <=
    max(cluster_abs, err_bound) among the first n levels for 1 <= k < l <= k_range.

    Exact-family potentials are compared in exact arithmetic (collisions are
    definitive FAILs, err_bound is 0); numeric pairs are certified distinct
    only when the gap clears err_bound = SEPARATION * (err_i + err_j), and are
    UNDECIDED otherwise. The window cluster_abs only adds PASS records.
    """
    if not (cluster_abs > 0):
        raise InvariantViolation("cluster_abs must be strictly positive")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if k_range < 2:
        raise PreconditionError("k_range must be >= 2")
    # per mode, the first n levels as (i, value, exact key or None, err)
    q = None  # the denominator of a rational s2, whose keys are q * level
    if isinstance(potential.profile, ExactFamilyProfile):
        mode = "exact"
        s2 = potential.profile.s2
        if s2.is_rational:
            q = s2.rational.denominator
        levels = [[(i, *level_key(k, i, s2), 0.0) for i in range(n)]
                  for k in range(1, k_range + 1)]
    else:
        mode = "numeric"
        levels = [[(p.n, p.lam, None, p.err_est) for p in solve_eigen(potential, k, n, tol)]
                  for k in range(1, k_range + 1)]
    records: list[PropertyPPair] = []
    for k, l in combinations(range(1, k_range + 1), 2):
        for i, vi, key_i, ei in levels[k - 1]:
            for j, vj, key_j, ej in levels[l - 1]:
                if key_i is not None and key_i == key_j:
                    records.append(PropertyPPair(k, l, i, j, vi, vj, 0.0, 0.0, "FAIL"))
                    continue
                gap = abs(key_i - key_j) / q if q else abs(vi - vj)
                err_bound = SEPARATION * (ei + ej)
                if gap <= max(cluster_abs, err_bound):
                    # distinct exact keys certify the gap on their own
                    status = "PASS" if key_i is not None or gap > err_bound else "UNDECIDED"
                    records.append(PropertyPPair(k, l, i, j, vi, vj, gap, err_bound, status))
    statuses = {r.status for r in records}
    verdict = next((v for v in ("FAIL", "UNDECIDED") if v in statuses), "PASS")
    return PropertyPReport(n=n, k_range=k_range, mode=mode,
                           collisions=tuple(records), verdict=verdict)
