"""Assembly of the two-dimensional spectrum below a cap from the per-mode 1D
spectra: the full spectrum is the union over nonzero Fourier modes k of the
spectra of -u'' + k^2 V, each taken twice (k and -k).

An ``AssembledSpectrum`` is columns, not line objects. Line i has the value
``values[i]`` and the contributors ``contributors[starts[i]:starts[i+1]]``,
rows (k, n) of one (N, 2) int64 array in (|k|, k, n) order, so its
multiplicity is ``diff(starts)[i]``. Exact spectra also carry each line's
exact key (``exact_family._level_keys``): an int64 column for rational s2, an
(L, 2) int64 array of (lin, quad) for a tagged irrational; numeric spectra
carry none. The spectrum checks its lines once, vectorised: even
multiplicities, contributors closed under k -> -k within each line, values in
order. Every column is read-only, and ``lines`` is a view that builds the
``SpectrumLine``s on demand for the library; the CLI's writers and the
certificate read the columns.

Numeric assembly chains sorted 1D eigenvalues into lines until a gap is
certified (core.SEPARATION), the rule the numeric property-P check uses.
Exact assembly (shifted parabolas) keys the int64 array of every (k, n) below
the cap at once (``exact_family._level_keys``) and groups equal rational keys
by one stable sort, which keeps each line's members in (k, n) order; an
irrational key is injective in (k, n), so each of its lines is one pair +-k.
Line values are ``exact_family._key_values`` of the keys: for rational s2 the
correctly rounded quotient key / q.

The property-P check builds each mode's first n levels once, as arrays: keys
and their values for the exact family, one ``solve_eigen`` per mode
otherwise. It compares each mode with all later modes in blocks of at most
_PAIR_BLOCK level pairs, taken in record order (k, l, i, j), so memory stays
bounded for any n and k_range. An exact gap is ``exact_family._key_gaps``
of two keys, correctly rounded wherever it can be a record, and only equal
keys are a FAIL.

Numeric assembly takes modes k = 1, 2, ... upward and stops at the first
mode with no level below the cap: with V >= 0 every level of -u'' + k^2 V u
is nondecreasing in |k| (min-max), so no later mode contributes. A pure
power V = |x|^(2 gamma) on the cylinder is solved once, at k = 1: dilation
makes mode k exactly k^(2/(gamma+1)) times mode 1, values and error
estimates alike. Every other potential is solved mode by mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    _readonly,
)
from .exact_family import SpectrumLine, _key_gaps, _key_values, _level_keys, enumerate_exact_pairs
from .schrod1d import solve_eigen, solve_levels_below

__all__ = [
    "AssembledSpectrum",
    "assemble",
    "check_property_p",
    "PropertyPReport",
    "PropertyPPair",
]

_PAIR_BLOCK = 2**14  # level pairs per property-P block: its arrays stay near 1 MiB


def _check_lines(values: np.ndarray, starts: np.ndarray, contributors: np.ndarray) -> None:
    """InvariantViolation unless the columns are lines in value order, each
    with an even count of contributors closed under k -> -k: the
    ``SpectrumLine`` checks, for every line at once."""
    mult = np.diff(starts)
    if (len(starts) != len(values) + 1 or starts[0] != 0 or starts[-1] != len(contributors)
            or np.any(mult < 0)):
        raise InvariantViolation("starts must run from 0 to the contributor count, one per line")
    if np.any(mult % 2):
        raise InvariantViolation("multiplicities are even (k and -k pair up)")
    if not np.all(values[1:] >= values[:-1]):
        raise InvariantViolation("lines must be in value order")
    k, n = contributors.T
    # even counts from 0 keep every row pair (2i, 2i+1) inside one line, and
    # rows that pair up as (k, n), (-k, n) are closed; otherwise compare each
    # line's rows with their mirror images, both sorted
    if np.array_equal(k[1::2], -k[0::2]) and np.array_equal(n[1::2], n[0::2]):
        return
    line = np.repeat(np.arange(len(mult)), mult)
    rows = np.lexsort((n, k, line))
    mirror = np.lexsort((n, -k, line))
    if not (np.array_equal(k[rows], -k[mirror]) and np.array_equal(n[rows], n[mirror])):
        raise InvariantViolation("contributors must be closed under k -> -k")


@dataclass(frozen=True, eq=False)
class AssembledSpectrum:
    """Spectrum below e_max as read-only columns (module docstring): line
    ``values``, contributor offsets ``starts`` (one more than the lines),
    ``contributors`` rows (k, n), and the exact ``keys`` (None for a numeric
    spectrum); also the largest |k| that contributes a line (0 if none), and
    the assembly mode ("exact" or "numeric"). Numeric line values sit within
    solver resolution of the true eigenvalues, so the e_max boundary is
    enforced up to that resolution."""

    e_max: float
    values: np.ndarray
    starts: np.ndarray
    contributors: np.ndarray
    k_cut: int
    mode: str
    keys: np.ndarray | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        columns = {"values": _readonly(self.values, np.float64),
                   "starts": _readonly(self.starts, np.int64),
                   "contributors": _readonly(np.reshape(self.contributors, (-1, 2)), np.int64)}
        if self.keys is not None:
            columns["keys"] = _readonly(self.keys, np.int64)
            if len(columns["keys"]) != len(columns["values"]):
                raise InvariantViolation("keys must give one key per line")
        for name, column in columns.items():
            object.__setattr__(self, name, column)
        _check_lines(self.values, self.starts, self.contributors)

    @cached_property
    def lines(self) -> tuple[SpectrumLine, ...]:
        """The lines as ``SpectrumLine``s, built on first use."""
        contributors = list(map(tuple, self.contributors.tolist()))
        bounds = self.starts.tolist()
        keys = [None] * len(self.values) if self.keys is None else self.keys.tolist()
        return tuple(SpectrumLine(value, tuple(contributors[a:b]),
                                  tuple(key) if isinstance(key, list) else key)
                     for value, a, b, key in zip(self.values.tolist(), bounds, bounds[1:], keys))


def _assemble_exact(potential: Potential, e_max: float) -> AssembledSpectrum:
    s2 = potential.profile.s2
    kn = enumerate_exact_pairs(s2, e_max)
    if not len(kn):
        return AssembledSpectrum(e_max=float(e_max), values=(), starts=(0,), contributors=(),
                                 k_cut=0, mode="exact",
                                 keys=np.empty((0,) if s2.is_rational else (0, 2), np.int64))
    k, n = kn.T
    keys = _level_keys(k, n, s2)
    if s2.is_rational:
        # equal keys are one line; the stable sort keeps its members in (k, n) order
        order = np.argsort(keys, kind="stable")
        k, n, keys = k[order], n[order], keys[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        keys = keys[first]
    else:
        # (lin, quad) is injective in (k, n): each line is one pair +-k
        first = np.arange(len(k))
    values = _key_values(keys, s2)
    if not s2.is_rational:
        keys = np.column_stack(keys)
    # (value, contributors) order: distinct lines differ in their first contributor
    order = np.lexsort((n[first], -k[first], values))
    counts = np.diff(np.r_[first, len(k)])[order]
    bounds = np.r_[0, np.cumsum(counts)]
    # the member rows in that line order: line i takes the run at first[order[i]]
    members = np.repeat(first[order] - bounds[:-1], counts) + np.arange(len(k))
    k, n = k[members], n[members]
    # each member's contributors (-k, n), (k, n), so a line lists them in |k| order
    contributors = np.column_stack((np.column_stack((-k, k)).ravel(), np.repeat(n, 2)))
    return AssembledSpectrum(e_max=float(e_max), values=values[order], starts=2 * bounds,
                             contributors=contributors, k_cut=int(kn[-1, 0]), mode="exact",
                             keys=keys[order])


def _distinct(a: tuple, b: tuple) -> bool:
    """Whether two entries (lam, err, k, n) are certified distinct levels."""
    return abs(a[0] - b[0]) > SEPARATION * (a[1] + b[1])


def _cluster(entries: list[tuple[float, float, int, int]]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Chain-link entries (lam, err, k, n) in value order until an entry is
    certified distinct from the previous one, as the columns (values, starts,
    contributors) of ``AssembledSpectrum``. Warn about each line whose chain
    joins two members certified distinct."""
    entries = sorted(entries, key=lambda e: (e[0], abs(e[2]), e[2], e[3]))
    lam, err, k, n = np.array(entries, dtype=np.float64).reshape(-1, 4).T
    k, n = k.astype(np.int64), n.astype(np.int64)
    new = np.ones(len(entries), dtype=bool)
    new[1:] = np.abs(lam[1:] - lam[:-1]) > SEPARATION * (err[1:] + err[:-1])
    starts = np.r_[np.flatnonzero(new), len(entries)]
    values, warnings = [], []
    for a, b in zip(starts.tolist(), starts[1:].tolist()):
        members = entries[a:b]
        value = sum(member[0] for member in members) / len(members)
        values.append(value)
        pair = next((ab for ab in combinations(members, 2) if _distinct(*ab)), None)
        if pair:
            warnings.append(f"line at {value!r} joins levels (k, n) = {pair[0][2:]} and "
                            f"{pair[1][2:]}, which are certified distinct")
    # each line's contributors in (|k|, k, n) order
    line = np.repeat(np.arange(len(values)), np.diff(starts))
    order = np.lexsort((n, k, np.abs(k), line))
    return np.array(values), starts, np.column_stack((k[order], n[order])), warnings


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
    values, starts, contributors, warnings = _cluster(entries)
    return AssembledSpectrum(e_max=float(e_max), values=values, starts=starts,
                             contributors=contributors, k_cut=k - 1, mode="numeric",
                             warnings=tuple(warnings))


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
    # row k - 1 holds mode k's first n levels: values, error estimates, and the
    # keys that decide equality (None where no two can be equal)
    keys = None
    if isinstance(potential.profile, ExactFamilyProfile):
        mode, s2 = "exact", potential.profile.s2
        levels = _level_keys(np.arange(1, k_range + 1)[:, None], np.arange(n), s2)
        lams, errs = _key_values(levels, s2), np.zeros((k_range, n))
        if s2.is_rational:  # irrational keys of distinct modes differ in k^2
            keys = levels
    else:
        mode = "numeric"
        levels = [[(p.lam, p.err_est) for p in solve_eigen(potential, k, n, tol)]
                  for k in range(1, k_range + 1)]
        lams, errs = np.moveaxis(np.array(levels), 2, 0)
    # blocks of at most _PAIR_BLOCK level pairs, in record order (k, l, i, j):
    # rows i of mode k against whole later modes l, several at a time if n^2 fits
    rows, modes = max(1, _PAIR_BLOCK // n), max(1, _PAIR_BLOCK // (n * n))
    records: list[PropertyPPair] = []
    for k in range(k_range - 1):
        for l in range(k + 1, k_range, modes):
            for i in range(0, n, rows):
                a, b = np.s_[k, i:i + rows, None], np.s_[l:l + modes, None, :]
                err_bound = SEPARATION * (errs[a] + errs[b])
                if keys is None:
                    gap = np.abs(lams[a] - lams[b])
                else:  # exact wherever it can be a record
                    gap = _key_gaps(keys[a], keys[b], s2, cluster_abs)
                hit = dl, di, dj = np.nonzero(gap <= np.maximum(cluster_abs, err_bound))
                columns = (l + 1 + dl, i + di, dj, lams[k, i + di], lams[l + dl, dj],
                           gap[hit], err_bound[hit])
                for kl, ii, jj, lam_k, lam_l, g, e in zip(*(c.tolist() for c in columns)):
                    # a zero exact gap is an equal key; a nonzero one is certified
                    status = ("FAIL" if keys is not None and g == 0 else
                              "PASS" if mode == "exact" or g > e else "UNDECIDED")
                    records.append(PropertyPPair(k + 1, kl, ii, jj, lam_k, lam_l, g, e, status))
    statuses = {r.status for r in records}
    verdict = next((v for v in ("FAIL", "UNDECIDED") if v in statuses), "PASS")
    return PropertyPReport(n=n, k_range=k_range, mode=mode,
                           collisions=tuple(records), verdict=verdict)
