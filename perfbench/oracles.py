"""Independent oracles for every benchmark operation.

Nothing here calls into ``grushin``. References come from closed forms
((2n+1)|k| + k^2 s2, the quartic-oscillator literature levels, Mathieu
characteristic values, oscillator eigenfunctions), from exact integer
arithmetic (lattice counts taken by columns where the program counts by
rows, divisor lists, exact decisions of quadratic irrationals), and from
adaptive quadrature.

An oracle reads one operation's output text and records each comparison
in a ``Checker`` as a deviation ratio |got - want| / tol; the answer is
accepted when every ratio is at most 1. ``corrupt`` produces the same output
with one checked value moved by ten times its tolerance, which the oracle
must reject (the self-check).
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.special
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

getcontext().prec = 50

EPS = float(np.finfo(float).eps)
EIG_TOL = 10.0       # eigenvalues: 10 x eig_rel, relative (1e-6 at the default)
DERIV_TOL = 1e-4     # derivatives: 1e-4 x max(1, |slope|)
FLOAT_TOL = 8 * EPS  # exact values printed as floats
CLUSTER_ABS = 1e-3   # the CLI default near-collision width

# quartic oscillator -u'' + x^4 u, k = 1 (ROADMAP reference levels)
QUARTIC = (1.0603620905, 3.7996730298, 7.4556979380, 11.6447455114)
QUARTIC_TOL = 1e-9   # relative accuracy of the ten-digit literature values


class WrongAnswer(Exception):
    pass


class Checker:
    """Collects deviation ratios for one operation."""

    def __init__(self, op_name: str):
        self.op_name = op_name
        self.worst = (0.0, "no checks")
        self.err_ratios: list[float] = []  # |lam - ref| / (eig_rel * ref)

    def _record(self, ratio: float, detail: str) -> None:
        if not ratio <= self.worst[0]:  # NaN counts as worst
            self.worst = (ratio, detail)

    def close(self, label: str, got: float, want: float, tol: float) -> None:
        self._record(abs(got - want) / tol, f"{label}: got {got!r}, want {want!r}, tol {tol:.3g}")

    def eigen(self, label: str, got: float, want: float, eig_rel: float,
              want_tol: float = 0.0) -> None:
        """An eigenvalue against a reference that is itself good to want_tol."""
        tol = EIG_TOL * eig_rel * abs(want) + want_tol
        self.close(label, got, want, tol)
        self.err_ratios.append(max(abs(got - want) - want_tol, 0.0) / (eig_rel * abs(want)))

    def equal(self, label: str, got, want) -> None:
        if got != want:
            self._record(math.inf, f"{label}: got {_short(got)}, want {_short(want)}")

    def within(self, label: str, got: float, lo: float, hi: float, tol: float) -> None:
        excess = max(lo - got, got - hi, 0.0)
        self._record(excess / tol if excess else 0.0,
                     f"{label}: {got!r} outside [{lo!r}, {hi!r}] by more than {tol:.3g}")

    def raise_if_wrong(self) -> None:
        ratio, detail = self.worst
        if not ratio <= 1.0:
            raise WrongAnswer(f"op={self.op_name} deviation={ratio:.3g}x tol ({detail})")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


# ---------------------------------------------------------------------------
# Exact shifted-parabola arithmetic
# ---------------------------------------------------------------------------

# tag -> (p, q, D): s = (p + sqrt(D)) / q
_IRR = {"sqrt2": (0, 1, 2), "sqrt3": (0, 1, 3), "sqrt5": (0, 1, 5), "golden": (1, 2, 5)}


class S2:
    """s2 as a Fraction or a quadratic irrational (p + sqrt(D)) / q."""

    def __init__(self, text: str):
        self.text = text
        if text.startswith("irr:"):
            self.rational = None
            self.p, self.q, self.d = _IRR[text[4:]]
            self.dec = (Decimal(self.p) + Decimal(self.d).sqrt()) / Decimal(self.q)
        else:
            self.rational = Fraction(text)
            self.dec = Decimal(self.rational.numerator) / Decimal(self.rational.denominator)
        self.approx = float(self.dec)

    def level_le(self, lin: int, quad_: int, e: Fraction) -> bool:
        """Exact decision of lin + quad * s2 <= e."""
        if self.rational is not None:
            return lin + quad_ * self.rational <= e
        rest = self.q * (e - lin) - quad_ * self.p  # quad * sqrt(D) <= rest
        return rest >= 0 and quad_ * quad_ * self.d <= rest * rest

    def key(self, lin: int, quad_: int):
        """Exact identity of the value lin + quad * s2."""
        if self.rational is not None:
            return lin + quad_ * self.rational
        return (lin, quad_)

    def value(self, lin: int, quad_: int) -> Decimal:
        return Decimal(lin) + Decimal(quad_) * self.dec


@lru_cache(maxsize=None)
def s2_of(text: str) -> S2:
    return S2(text)


def exact_pairs(s2: S2, e: Fraction) -> list[tuple[int, int]]:
    """Every (k > 0, n) with (2n+1) k + k^2 s2 <= e."""
    out = []
    k = 1
    while s2.level_le(k, k * k, e):
        n = 0
        while s2.level_le((2 * n + 1) * k, k * k, e):
            out.append((k, n))
            n += 1
        k += 1
    return out


@lru_cache(maxsize=None)
def exact_lines(s2: S2, e: Fraction) -> dict[frozenset, Decimal]:
    """Contributor set (with k -> -k) -> exact value, for every line <= e."""
    groups: dict = {}
    for k, n in exact_pairs(s2, e):
        lin, q = (2 * n + 1) * k, k * k
        groups.setdefault(s2.key(lin, q), (s2.value(lin, q), []))[1].extend([(k, n), (-k, n)])
    return {frozenset(members): value for value, members in groups.values()}


@lru_cache(maxsize=None)
def count_by_columns(s2: S2, e: Fraction) -> int:
    """N(E) = 2 #{(k >= 1, n >= 0) : (2n+1) k + k^2 s2 <= E}, summed over n
    (the program sums over k). Floats locate each column's top k; exact
    arithmetic decides every column whose top is within 1e-6 of an integer."""
    ef = float(e)
    nmax = int((ef - s2.approx - 1.0) // 2.0) + 2  # (2n+1) + s2 <= E bounds n
    if nmax < 1:
        return 0
    d = 2.0 * np.arange(nmax, dtype=float) + 1.0
    if s2.approx == 0.0:
        kf = ef / d
    else:
        kf = (-d + np.sqrt(d * d + 4.0 * s2.approx * ef)) / (2.0 * s2.approx)
    kf = np.maximum(kf, 0.0)
    k = np.floor(kf).astype(np.int64)
    near = np.nonzero(np.abs(kf - np.rint(kf)) < 1e-6)[0]
    for i in near:
        dd = 2 * int(i) + 1
        kk = max(int(k[i]) - 2, 0)
        while s2.level_le(dd * (kk + 1), (kk + 1) ** 2, e):
            kk += 1
        k[i] = kk
    return 2 * int(np.sum(k))


def odd_divisors(value: int) -> list[int]:
    out = set()
    d = 1
    while d * d <= value:
        if value % d == 0:
            out.update(x for x in (d, value // d) if x % 2 == 1)
        d += 1
    return sorted(out)


def parse_angle(text: str) -> float:
    """'pi/3', '2pi/5', 'pi', '0' -> radians."""
    if "pi" not in text:
        return float(text)
    coef, _, den = text.partition("pi")
    return (float(coef) if coef else 1.0) * math.pi / (float(den[1:]) if den else 1.0)


# ---------------------------------------------------------------------------
# Analytic references for the 1D operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mathieu_levels(k: int, m: int) -> tuple[float, ...]:
    """Lowest m eigenvalues of -u'' + k^2 (4 sin^2(x/2)) u on the circle:
    lambda = 2 k^2 + a / 4 over the even-order characteristic values
    a_0 < b_2 < a_2 < b_4 < ... at q = 4 k^2."""
    q = 4.0 * k * k
    chars = []
    for r in range(0, 2 * m + 2, 2):
        chars.append(float(scipy.special.mathieu_a(r, q)))
        if r > 0:
            chars.append(float(scipy.special.mathieu_b(r, q)))
    return tuple(2.0 * k * k + a / 4.0 for a in sorted(chars)[:m])


def _hermite_density(k: int, n: int, x: float) -> float:
    """|u|^2 for the normalized n-th eigenfunction of -u'' + k^2 x^2 u."""
    z = math.sqrt(k) * x
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    h = float(np.polynomial.hermite.hermval(z, coef))
    norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return math.sqrt(k) * (norm * h) ** 2 * math.exp(-z * z)


def _standard_bump(u: float) -> float:
    return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


_BUMP_MASS = quad(_standard_bump, -1.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]


def _mollifier_cdf(z: float) -> float:
    if z <= -1.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    return quad(_standard_bump, -1.0, z, epsabs=0.0, epsrel=1e-13)[0] / _BUMP_MASS


class Bump:
    """scale * (mollified indicator of [a, b] at width eps), from 'a,b,eps[,scale]'."""

    def __init__(self, text: str):
        nums = [float(p) for p in text.split(",")]
        self.a, self.b, self.eps = nums[:3]
        self.scale = nums[3] if len(nums) == 4 else 1.0

    def __call__(self, x: float) -> float:
        if self.a + self.eps <= x <= self.b - self.eps:
            return self.scale
        return self.scale * (_mollifier_cdf((x - self.a) / self.eps)
                             - _mollifier_cdf((x - self.b) / self.eps))

    def pieces(self) -> list[tuple[float, float]]:
        a, b, e = self.a, self.b, self.eps
        return [(a - e, a + e), (a + e, b - e), (b - e, b + e)]

    @lru_cache(maxsize=None)
    def sup_x2(self) -> float:
        """sup of x^2 * W(x): the plateau ends or a maximum in a transition."""
        best = self.scale * max((self.a + self.eps) ** 2, (self.b - self.eps) ** 2)
        for lo, hi in (self.pieces()[0], self.pieces()[2]):
            res = minimize_scalar(lambda x: -x * x * self(x), bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-13})
            best = max(best, -float(res.fun))
        return best

    @lru_cache(maxsize=None)
    def hf_slope(self, k: int, n: int) -> float:
        """k^2 * integral x^2 W(x) |u_{k,n}(x)|^2 dx for the oscillator levels."""
        total = 0.0
        for lo, hi in self.pieces():
            total += quad(lambda x: x * x * self(x) * _hermite_density(k, n, x), lo, hi,
                          epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        return k * k * total


@lru_cache(maxsize=None)
def bump_of(text: str) -> Bump:
    return Bump(text)


# ---------------------------------------------------------------------------
# Oracles, one per operation kind
# ---------------------------------------------------------------------------

def _numeric_spectrum(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    gamma, e_max, eig_rel = prm["gamma"], prm["e_max"], prm["eig_rel"]
    chk.equal("mode", out["mode"], "numeric")
    chk.equal("e_max", out["e_max"], e_max)
    lines = out["lines"]
    values = [ln["value"] for ln in lines]
    chk.equal("lines sorted", values, sorted(values))
    members = []
    for ln in lines:
        kn = frozenset((c["k"], c["n"]) for c in ln["contributors"])
        chk.equal(f"mult at {ln['value']!r}", ln["mult"], len(ln["contributors"]))
        chk.equal(f"k -> -k closure at {ln['value']!r}", kn, kn | {(-k, n) for k, n in kn})
        members.append(kn)

    if gamma == 1.0:
        ref = exact_lines(s2_of("0"), Fraction(e_max))
        chk.equal("line contributors", sorted(map(sorted, members)), sorted(map(sorted, ref)))
        for kn, ln in zip(members, lines):
            if kn in ref:
                chk.eigen(f"line {sorted(kn)[-1]}", ln["value"], float(ref[kn]), eig_rel)
        return

    # scaling law lambda_n(k) = k^p lambda_n(1); level-one values from the
    # literature when known, else from the output's own k = 1 lines
    p = 2.0 / (gamma + 1.0)
    base, base_tol = {}, {}
    for kn, ln in zip(members, lines):
        ks = {abs(k) for k, _ in kn}
        if ks == {1}:
            (n,) = {n for _, n in kn}
            base[n], base_tol[n] = ln["value"], EIG_TOL * eig_rel * ln["value"]
    if gamma == 2.0:
        chk.equal("quartic levels below e_max", sorted(base),
                  [n for n, lam in enumerate(QUARTIC) if lam <= e_max])
        base = {n: QUARTIC[n] for n in base if n < len(QUARTIC)}
        base_tol = {n: QUARTIC_TOL * base[n] for n in base}
    for kn, ln in zip(members, lines):
        pos = [(k, n) for k, n in kn if k > 0]
        if not all(n in base for _, n in pos):
            chk.equal(f"level-one partner of {sorted(pos)}", None, "present")
            continue
        want = sum(k ** p * base[n] for k, n in pos) / len(pos)
        want_tol = sum(k ** p * base_tol[n] for k, n in pos) / len(pos)
        if gamma == 2.0 or any(k > 1 for k, _ in pos):
            chk.eigen(f"line {sorted(pos)}", ln["value"], want, eig_rel, want_tol)
    # completeness: every (k, n) the scaling law puts clearly below e_max
    have = {kn for group in members for kn in group}
    for n, lam1 in base.items():
        k = 1
        while k ** p * lam1 <= e_max * (1.0 - 1e-5):
            chk.equal(f"level (k={k}, n={n}) present", (k, n) in have, True)
            k += 1
    for k, n in have:
        if n in base:
            chk.within(f"level (k={k}, n={n}) below e_max", abs(k) ** p * base[n],
                       0.0, e_max, 1e-5 * e_max)


def _exact_spectrum(op, text: str, chk: Checker) -> None:
    rows = text.splitlines()
    chk.equal("header", rows[0], "value,multiplicity,contributors")
    s2 = s2_of(op.params["s2"])
    e = Fraction(op.params["e_max"])
    ref = exact_lines(s2, e)
    got = {}
    values = []
    total = 0
    for row in rows[1:]:
        value, mult, contrib = row.split(",")
        kn = frozenset(tuple(int(v) for v in c.split(":")) for c in contrib.split(";"))
        got[kn] = float(value)
        values.append(float(value))
        chk.equal(f"mult at {value}", int(mult), len(contrib.split(";")))
        total += int(mult)
    chk.equal("rows sorted", values, sorted(values))
    chk.equal("line count", len(got), len(ref))
    missing = set(ref) - set(got)
    chk.equal("lines missing", sorted(map(sorted, missing))[:3], [])
    for kn, value in got.items():
        if kn not in ref:
            chk.equal("unexpected line", sorted(kn), None)
            continue
        want = float(ref[kn])
        chk.close(f"value of {sorted(kn)[-1]}", value, want, FLOAT_TOL * abs(want))
    chk.equal("total multiplicity vs lattice count", total, count_by_columns(s2, e))


@lru_cache(maxsize=None)
def _collisions(s2: S2, n: int, krange: int):
    """Brute-force near-collision list of the first n levels of modes
    1 <= k < l <= krange, plus the pairs whose gap sits within 1e-9 of the
    cluster width (either answer is accepted there)."""
    want = []
    ambiguous = set()
    for k in range(1, krange + 1):
        for l in range(k + 1, krange + 1):
            for i in range(n):
                for j in range(n):
                    ka, kb = s2.key((2 * i + 1) * k, k * k), s2.key((2 * j + 1) * l, l * l)
                    va, vb = s2.value((2 * i + 1) * k, k * k), s2.value((2 * j + 1) * l, l * l)
                    gap = abs(va - vb)
                    if ka == kb:
                        want.append((k, l, i, j, "FAIL", float(va), float(vb), 0.0))
                    elif abs(gap - Decimal(CLUSTER_ABS)) < Decimal("1e-9"):
                        ambiguous.add((k, l, i, j))
                    elif gap <= Decimal(CLUSTER_ABS):
                        want.append((k, l, i, j, "PASS", float(va), float(vb), float(gap)))
    return want, ambiguous


def _property_p(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    want, ambiguous = _collisions(s2_of(op.params["s2"]), op.params["n"], op.params["krange"])
    got = [r for r in out["collisions"] if (r["k"], r["l"], r["i"], r["j"]) not in ambiguous]
    chk.equal("collision records", [(r["k"], r["l"], r["i"], r["j"], r["status"]) for r in got],
              [w[:5] for w in want])
    for r, w in zip(got, want):
        scale = max(1.0, abs(w[5]), abs(w[6]))
        chk.close(f"lam_k of {w[:4]}", r["lam_k"], w[5], FLOAT_TOL * scale)
        chk.close(f"lam_l of {w[:4]}", r["lam_l"], w[6], FLOAT_TOL * scale)
        chk.close(f"gap of {w[:4]}", r["gap"], w[7], 4 * FLOAT_TOL * scale)
    chk.equal("verdict", out["verdict"], "FAIL" if any(w[4] == "FAIL" for w in want) else "PASS")


def _multiplicity(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    value = op.params["value"]
    divisors = odd_divisors(value)
    want = {(s * (value // d), (d - 1) // 2) for d in divisors for s in (1, -1)}
    chk.equal("value", out["value"], float(value))
    chk.equal("mult (divisor formula)", out["mult"], 2 * len(divisors))
    chk.equal("factorization_mult", out.get("factorization_mult"), 2 * len(divisors))
    chk.equal("contributors", sorted((c["k"], c["n"]) for c in out["contributors"]), sorted(want))


def _weyl(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    s2 = s2_of(op.params["s2"])
    samples = out["samples"]
    # the CLI's default four samples, a decade apart, ending at e_max
    chk.equal("sample points", [s["E"] for s in samples],
              [op.params["e_max"] * 10.0 ** (i - 3) for i in range(4)])
    for s in samples:
        e = s["E"]
        count = count_by_columns(s2, Fraction(e))
        chk.equal(f"N({e!r}) vs lattice count", s["N"], count)
        lead = e * math.log(e) if s2.rational == 0 else e * math.log(math.sqrt(e))
        want = (count - lead) / e
        chk.close(f"residual at {e!r}", s["residual"], want, 1e-12 * max(1.0, abs(want)))


def _concentration(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    s2 = s2_of(op.params["s2"])
    e = Fraction(op.params["e_max"])
    width = parse_angle(op.params["b"])
    chk.close("strip b", out["strip"]["b"], width, FLOAT_TOL * width)
    chk.equal("strip a", out["strip"]["a"], 0.0)
    ks = []
    k = 1
    while s2.level_le(k, k * k, e):
        ks.append(k)
        k += 1
    ratios = [((width - abs(math.sin(k * width)) / k) / (2.0 * math.pi), k) for k in ks]
    c_min, witness = min(ratios)
    chk.close("c_min (closed form)", out["c_min"], c_min, 1e-12)
    chk.equal("witness_k", out["witness_k"], witness)
    chk.close("limit_value", out["limit_value"], width / (2.0 * math.pi), 1e-15)
    chk.equal("e_max", out["e_max"], float(e))


def _slope_tol(slope: float) -> float:
    return DERIV_TOL * max(1.0, abs(slope))


def _branch(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    bump, k = bump_of(prm["bump"]), prm["k"]
    t = out["t_grid"]
    chk.equal("t_grid ends", (t[0], t[-1], len(t) >= prm["steps"] + 1), (0.0, prm["tmax"], True))
    chk.equal("t_grid increasing", all(b > a for a, b in zip(t, t[1:])), True)
    rate = k * k * bump.sup_x2()
    for level, lams, slope in zip(prm["levels"], out["lambdas"], out["slopes"]):
        lam0 = (2 * level + 1) * k
        chk.eigen(f"level {level} at t=0", lams[0], lam0, 1e-7)
        tol = 2 * EIG_TOL * 1e-7 * lams[-1]
        for i in range(1, len(lams)):
            step = lams[i] - lams[i - 1]
            chk.within(f"level {level} step {i} (monotone, slope bound)", step, 0.0,
                       rate * (t[i] - t[i - 1]), tol)
        want = bump.hf_slope(k, level)
        chk.close(f"level {level} slope", slope, want, _slope_tol(want))


def _hf(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    want = bump_of(prm["bump"]).hf_slope(prm["k"], prm["n"])
    chk.close("d lambda / dt", out["slopes"][0], want, _slope_tol(want))


def _split(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    bump, value, t = bump_of(prm["bump"]), prm["value"], prm["t"]
    s2 = Fraction(prm["s2"])
    want = sorted((k, n) for k, n in exact_pairs(s2_of(str(s2)), Fraction(value))
                  if (2 * n + 1) * k + k * k * s2 == value)
    chk.equal("contributors", sorted((c["k"], c["n"]) for c in out["lambdas"]), want)
    sup = bump.sup_x2()
    lams = []
    for c in out["lambdas"]:
        chk.within(f"perturbed ({c['k']}, {c['n']})", c["lambda"], value,
                   value + t * c["k"] ** 2 * sup, EIG_TOL * 1e-7 * value)
        lams.append((c["k"], c["lambda"]))
    for s in out["slopes"]:
        ref = bump.hf_slope(s["k"], s["n"])
        chk.close(f"slope ({s['k']}, {s['n']})", s["slope"], ref, _slope_tol(ref))
    gaps = [abs(a - b) for i, (ka, a) in enumerate(lams) for kb, b in lams[i + 1:] if ka != kb]
    chk.close("gap", out["gap"], min(gaps), 1e-12)
    chk.equal("verdict", out["verdict"], "SEPARATED")


def _gap(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    k, m, bump = prm["k"], prm["m"], bump_of(prm["bump"])
    lam_m = (2 * m + 1) * k
    chk.eigen("lambda_m", out["inputs"]["lambda_m"], lam_m, 1e-7)
    chk.close("kappa_m", out["gap"], 2.0 * k, EIG_TOL * 1e-7 * (2 * lam_m + 2 * k))
    radius = k * k * bump.sup_x2()
    chk.close("radius", out["inputs"]["radius"], radius, 1e-8 * radius)
    for w in out["lambdas"]:
        j = round((w["lambda"] / k - 1.0) / 2.0)
        lam_j = (2 * j + 1) * k
        if w["lambda"] < lam_j:
            j -= 1
            lam_j -= 2 * k
        chk.within(f"perturbed level {j}", w["lambda"], lam_j, lam_j + radius,
                   EIG_TOL * 1e-7 * lam_j)
    chk.equal("verdict", out["verdict"], "PASS")


def _continuity(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    k, m, count = prm["k"], prm["m"], prm["count"]
    bump = bump_of(prm["bump"])
    lam_m = (2 * m + 1) * k
    records = out["lambdas"]
    chk.equal("record count", len(records), count)
    for i, r in enumerate(records, start=1):
        chk.close(f"sup_w[{i}]", r["sup_w"], bump.scale / i, 1e-9)
        chk.eigen(f"lam_base[{i}]", r["lam_base"], lam_m, 1e-7)
        chk.within(f"lam_pert[{i}]", r["lam_pert"], lam_m, lam_m + k * k * bump.sup_x2() / i,
                   2 * EIG_TOL * 1e-7 * lam_m)
        chk.close(f"upper_margin[{i}]", r["upper_margin"],
                  r["lam_base"] * r["sup_w"] - (r["lam_pert"] - r["lam_base"]), 1e-12)
    chk.equal("verdict", out["verdict"], "PASS")


def _torus(op, text: str, chk: Checker) -> None:
    out = json.loads(text)
    prm = op.params
    levels = out["levels"]
    chk.equal("levels", [lv["n"] for lv in levels], list(range(prm["m"])))
    for lv, want in zip(levels, mathieu_levels(prm["k"], prm["m"])):
        chk.eigen(f"level {lv['n']} (Mathieu)", lv["lambda"], want, prm["eig_rel"], 1e-11 * want)


CHECKS = {
    "numeric_spectrum": _numeric_spectrum,
    "exact_spectrum": _exact_spectrum,
    "property_p": _property_p,
    "multiplicity": _multiplicity,
    "weyl": _weyl,
    "concentration": _concentration,
    "branch": _branch,
    "hf": _hf,
    "split": _split,
    "gap": _gap,
    "continuity": _continuity,
    "torus": _torus,
}


def clear_caches() -> None:
    """Drop the references built while checking, so that timed passes run on
    a heap the size of a plain CLI process (a larger heap slows the
    interpreter's cyclic garbage collection)."""
    for fn in (s2_of, exact_lines, count_by_columns, mathieu_levels, bump_of, _collisions,
               Bump.sup_x2, Bump.hf_slope):
        fn.cache_clear()


def check(op, text: str) -> Checker:
    """Run the operation's oracle; the caller raises on a wrong answer."""
    chk = Checker(op.name)
    try:
        CHECKS[op.oracle](op, text, chk)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        chk.equal("output shape", f"{type(exc).__name__}: {exc}", "parseable report")
    return chk


# ---------------------------------------------------------------------------
# Self-check: move one checked value by ten times its tolerance
# ---------------------------------------------------------------------------

def _shift_rel(x: float, rel: float) -> float:
    return x * (1.0 + rel)


def corrupt(op, text: str) -> str:
    if op.oracle == "exact_spectrum":
        rows = text.splitlines()
        value, rest = rows[1].split(",", 1)
        rows[1] = f"{_shift_rel(float(value), 10 * FLOAT_TOL)!r},{rest}"
        return "\n".join(rows) + "\n"
    out = json.loads(text)
    prm = op.params
    if op.oracle == "numeric_spectrum":
        ln = out["lines"][0]
        ln["value"] = _shift_rel(ln["value"], 10 * EIG_TOL * prm["eig_rel"] * 2)
    elif op.oracle == "property_p":
        if out["collisions"]:
            rec = out["collisions"][0]
            rec["lam_k"] += 10 * FLOAT_TOL * max(1.0, abs(rec["lam_k"]), abs(rec["lam_l"]))
        else:
            out["verdict"] = "FAIL"
    elif op.oracle == "multiplicity":
        out["mult"] += 2
    elif op.oracle == "weyl":
        s = out["samples"][-1]
        s["residual"] += 10 * 1e-12 * max(1.0, abs(s["residual"]))
    elif op.oracle == "concentration":
        out["c_min"] += 10 * 1e-12
    elif op.oracle in ("hf", "branch"):
        out["slopes"][0] += 10 * _slope_tol(out["slopes"][0])
    elif op.oracle == "split":
        out["slopes"][0]["slope"] += 10 * _slope_tol(out["slopes"][0]["slope"])
    elif op.oracle == "gap":
        out["inputs"]["lambda_m"] = _shift_rel(out["inputs"]["lambda_m"], 10 * EIG_TOL * 1e-7)
    elif op.oracle == "continuity":
        rec = out["lambdas"][0]
        rec["lam_base"] = _shift_rel(rec["lam_base"], 10 * EIG_TOL * 1e-7)
    elif op.oracle == "torus":
        lv = out["levels"][0]
        lv["lambda"] = _shift_rel(lv["lambda"], 10 * EIG_TOL * prm["eig_rel"])
    else:  # pragma: no cover - every oracle has a corruption
        raise KeyError(op.oracle)
    return json.dumps(out, sort_keys=True, indent=2) + "\n"
