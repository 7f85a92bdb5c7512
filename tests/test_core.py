import dataclasses
import math

import numpy as np
import pytest
from helpers import render_potential
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from grushin.assembler import check_property_p
from grushin.core import (
    IRRATIONAL_TAGS,
    ExactFamilyProfile,
    ExactScalar,
    InvariantViolation,
    Perturbation,
    Potential,
    PotentialSyntaxError,
    PreconditionError,
    SampledProfile,
    StructuredProfile,
    Tolerances,
    base_factor,
    eval_potential,
    parse_exact_scalar,
    parse_potential,
    standard_mollifier_cdf,
    sup_on_interval,
)


def test_parse_power_gives_pure_square():
    pot = parse_potential("power:gamma=1")
    assert pot.geometry == "cylinder"
    assert eval_potential(pot, 2.0) == pytest.approx(4.0)
    assert eval_potential(pot, -3.0) == pytest.approx(9.0)


def test_parse_shifted_family():
    pot = parse_potential("shifted:s2=1/1")
    assert eval_potential(pot, 0.0) == pytest.approx(1.0)
    assert eval_potential(pot, 2.0) == pytest.approx(5.0)
    assert pot.profile.s2.rational == 1


def test_parse_table_and_extrapolation(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("x,v\n-1,1\n0,0\n1,1\n", encoding="utf-8")
    pot = parse_potential(f"table:{path},ext=2")
    assert eval_potential(pot, 0.5) == pytest.approx(0.5)  # piecewise linear
    assert eval_potential(pot, 2.0) == pytest.approx(4.0)  # quadratic tail
    assert eval_potential(pot, -4.0) == pytest.approx(16.0)


def test_torus_base_factor_value():
    pot = parse_potential("torus:gamma=1")
    # 4 sin^2(pi/2) at the antipode of the degeneracy
    assert eval_potential(pot, math.pi) == pytest.approx(4.0)
    # wrap-around
    assert eval_potential(pot, 3 * math.pi) == pytest.approx(eval_potential(pot, math.pi))


@pytest.mark.parametrize("text", [
    "power:gamma=1",
    "power:gamma=2.5",
    "torus:gamma=1.0",
    "shifted:s2=0",
    "shifted:s2=7/3",
    "shifted:s2=irr:sqrt2",
])
def test_parse_render_round_trip(text):
    pot = parse_potential(text)
    assert parse_potential(render_potential(pot)) == pot


def test_parse_render_round_trip_table(tmp_path):
    path = tmp_path / "pot.csv"
    path.write_text("x,v\n-2,4\n0,0\n2,4\n", encoding="utf-8")
    pot = parse_potential(f"table:{path},ext=2,gamma=1.5")
    assert parse_potential(render_potential(pot)) == pot


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_RATIONAL = st.builds(ExactScalar.from_rational, st.integers(0, 10**30), st.integers(1, 10**30))
_TAGGED = st.sampled_from(sorted(IRRATIONAL_TAGS)).map(ExactScalar.irrational)
_GRAMMAR = st.one_of(
    st.builds(Potential, st.sampled_from(["cylinder", "torus"]), _POSITIVE,
              st.just(StructuredProfile())),
    st.builds(Potential, st.just("cylinder"), st.just(1.0),
              st.builds(ExactFamilyProfile, st.one_of(_RATIONAL, _TAGGED))),
)
_TABLE = st.tuples(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8,
             unique=True).map(sorted),
    st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=8, max_size=8),
    _POSITIVE, st.one_of(st.just(1.0), _POSITIVE))


@given(_GRAMMAR)
def test_parse_render_round_trip_property(pot):
    assert parse_potential(render_potential(pot)) == pot


@given(_TABLE)
def test_parse_render_round_trip_table_property(tmp_path_factory, table):
    xs, vs, ext, gamma = table
    path = tmp_path_factory.mktemp("table") / "pot.csv"
    path.write_text("x,v\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(xs, vs)),
                    encoding="utf-8")
    pot = Potential("cylinder", gamma, SampledProfile(
        nodes=tuple(zip(xs, vs)), extrapolation_exponent=ext, source=str(path)))
    assert parse_potential(render_potential(pot)) == pot


@pytest.mark.parametrize("bad", [
    "power",                      # no args
    "power:gama=1",               # unknown key
    "power:gamma=zero",           # bad number
    "power:gamma=-1",             # invalid value
    "what:x=1",                   # unknown kind
    "shifted:s2=1/0",             # zero denominator
    "table:nowhere.csv,ext=2",    # unreadable file
])
def test_parse_errors_carry_positions(bad):
    with pytest.raises(PotentialSyntaxError) as info:
        parse_potential(bad)
    assert info.value.position >= 0
    assert "position" in str(info.value)


@pytest.mark.parametrize("text, key, position", [
    ("power:gama=1", "gama", 11),
    ("torus:gamma=1,g=2", "g", 16),
    ("shifted:s2=1,x=2", "x", 15),
    ("table:p.csv,ext=2,foo=3", "foo", 22),   # rejected before the file is read
    ("power:zeta=1,alpha=2", "alpha", 19),    # the first unknown key in sorted order
])
def test_unknown_key_message_and_position(text, key, position):
    # the position is that of the unknown key's value
    with pytest.raises(PotentialSyntaxError) as info:
        parse_potential(text)
    assert info.value.position == position
    assert str(info.value) == f"unknown key {key!r} (at position {position})"


@pytest.mark.parametrize("text, message", [
    ("shifted:s2=1/0", "bad exact scalar '1/0': Fraction(1, 0)"),
    ("shifted:s2=x", "bad exact scalar 'x': invalid literal for int() with base 10: 'x'"),
])
def test_bad_shifted_scalar_message_and_position(text, message):
    # one position suffix, pointing at the s2 value in the full text
    with pytest.raises(PotentialSyntaxError) as info:
        parse_potential(text)
    assert info.value.position == 11
    assert str(info.value) == f"{message} (at position 11)"


def test_sampled_invariants_rejected(tmp_path):
    with pytest.raises(InvariantViolation, match="increasing"):
        SampledProfile(nodes=((0.0, 1.0), (0.0, 2.0)), extrapolation_exponent=2.0)
    with pytest.raises(InvariantViolation, match="V >= 0"):
        Potential("cylinder", 1.0,
                  SampledProfile(nodes=((-1.0, 1.0), (0.0, -0.5), (1.0, 1.0)),
                                 extrapolation_exponent=2.0))
    with pytest.raises(InvariantViolation, match="confinement"):
        Potential("cylinder", 1.0,
                  SampledProfile(nodes=((-1.0, 1.0), (1.0, 1.0)),
                                 extrapolation_exponent=0.0))


def test_exact_scalar_reduction_and_tags():
    s = ExactScalar.from_rational(2, 4)
    assert s.rational.numerator == 1 and s.rational.denominator == 2
    tag = parse_exact_scalar("irr:sqrt2")
    assert not tag.is_rational
    assert tag.approx == pytest.approx(math.sqrt(2.0))
    with pytest.raises(InvariantViolation):
        ExactScalar.irrational("sqrt7")


# --- mollified indicator ---------------------------------------------------

def test_mollifier_plateau_and_support():
    w = Perturbation(0.0, 2.0, 0.5)
    assert w(1.0) == pytest.approx(1.0)
    assert w(0.5) == pytest.approx(1.0)   # plateau edge a + eps
    assert w(3.0) == 0.0
    assert w(-0.6) == 0.0
    assert w.support == (-0.5, 2.5)


def test_mollifier_matches_convolution_quadrature():
    # independent oracle: direct convolution of the normalized bump with the
    # indicator, via adaptive quadrature
    a, b, eps = 0.0, 2.0, 0.5
    total = quad(lambda u: math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1 else 0.0,
                 -1, 1, epsabs=1e-14, epsrel=1e-14)[0]

    def phi_eps(u):
        z = u / eps
        return math.exp(-1.0 / (1.0 - z * z)) / (total * eps) if abs(z) < 1 else 0.0

    w = Perturbation(a, b, eps)
    for x in (-0.25, 0.1, 0.49, 1.9, 2.3):
        oracle = quad(lambda y: phi_eps(x - y), a, b, epsabs=1e-12, epsrel=1e-12)[0]
        assert w(x) == pytest.approx(oracle, abs=1e-8)


def test_mollifier_monotone_on_ramps():
    w = Perturbation(0.0, 2.0, 0.5)
    up = w(np.linspace(-0.5, 0.5, 200))
    down = w(np.linspace(1.5, 2.5, 200))
    assert np.all(np.diff(up) >= -1e-14)
    assert np.all(np.diff(down) <= 1e-14)
    assert np.all((up >= 0) & (up <= 1 + 1e-15))


_CDF_EDGES = [-1.5, -1.0, 1.0, 1.5, 0.0, -0.0, math.inf, -math.inf, math.nan,
              *(math.nextafter(e, d) for e in (-1.0, 1.0) for d in (-2.0, 2.0))]


@given(st.one_of(st.floats(-1.5, 1.5), st.sampled_from(_CDF_EDGES)))
def test_mollifier_cdf_scalar_path_matches_array_path(z):
    # the scalar branch (the sup search's path) returns exactly what the
    # array path returns, nan included (0 in both)
    scalar = standard_mollifier_cdf(z)
    assert type(scalar) is float
    assert scalar.hex() == float(standard_mollifier_cdf(np.array([z]))[0]).hex()


def test_mollifier_cdf_matches_a_40_digit_reference():
    # in-repo reference: the bump integrated at 40 digits between consecutive
    # sweep points (mpmath tanh-sinh), summed and divided by its total; the
    # sweep covers (-1, 1) and comes within 1e-12 of both ends
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    def bump(u):
        return mp.exp(-1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)

    edges = [1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-8, 1e-12]
    zs = sorted({*np.linspace(-1.0, 1.0, 402)[1:-1].tolist(),
                 *(-1.0 + e for e in edges), *(1.0 - e for e in edges)})
    ends = [mp.mpf(-1), *map(mp.mpf, zs), mp.mpf(1)]
    masses = [mp.quad(bump, [a, b]) for a, b in zip(ends, ends[1:])]
    total = mp.fsum(masses)
    got = standard_mollifier_cdf(np.array(zs))
    reference = (mp.fsum(masses[:i + 1]) / total for i in range(len(zs)))
    assert max(abs(float(mp.mpf(g) - r)) for g, r in zip(got.tolist(), reference)) <= 4.4e-16
    assert np.all(np.diff(got) >= 0.0)
    assert standard_mollifier_cdf(math.nextafter(1.0, 0.0)) == 1.0


def test_mollifier_preconditions():
    with pytest.raises(PreconditionError):
        Perturbation(2.0, 0.0, 0.1)
    with pytest.raises(PreconditionError):
        Perturbation(0.0, 1.0, 0.6)


# bumps that straddle 0, sit on one side of it, have a narrow ramp (eps
# 0.01), or put a plateau far from 0; all lie in [-pi, pi], as a torus bump must
_SUP_BUMPS = [
    Perturbation(-1.0, 1.0, 0.2),
    Perturbation(-0.3, 2.5, 0.4, 1.7),
    Perturbation(0.5, 2.0, 0.3),
    Perturbation(-2.5, -0.4, 0.2, 0.6),
    Perturbation(-0.3, 0.8, 0.01),
    Perturbation(2.0, 3.0, 0.1),
]
_FAR_PLATEAU = Perturbation(5.0, 9.0, 0.5)


def test_perturbation_sup_norms():
    assert Perturbation(-1.0, 1.0, 0.2).scale == pytest.approx(1.0, rel=1e-10)
    cylinders = [parse_potential(f"power:gamma={g}") for g in (0.5, 1, 2)]
    tori = [parse_potential(f"torus:gamma={g}") for g in (0.5, 1, 2)]
    for w, pots in [(w, cylinders + tori) for w in _SUP_BUMPS] + [(_FAR_PLATEAU, cylinders)]:
        # independent dense scan of base * w, w evaluated in chunks to bound memory
        xs = np.linspace(*w.support, 200001)
        ws = np.concatenate([w(x) for x in np.array_split(xs, 20)])
        for pot in pots:
            weighted = w.sup_weighted(pot)
            dense = float(np.max(base_factor(pot, xs) * ws))
            assert weighted >= dense * (1 - 1e-13), (pot, w)
            assert weighted == pytest.approx(dense, rel=1e-6), (pot, w)


def test_sup_weighted_evaluates_few_points(monkeypatch):
    # one golden-section search per side of 0, not a dense scan, evaluating
    # one scalar point at a time
    points, ndims = [], []
    w_of = Perturbation._w

    def counted(self, x):
        points.append(np.size(x))
        ndims.append(np.ndim(x))
        return w_of(self, x)

    monkeypatch.setattr(Perturbation, "_w", counted)
    Perturbation(-1.0, 1.0, 0.2).sup_weighted(parse_potential("power:gamma=1"))
    assert 0 < sum(points) <= 250
    assert set(ndims) == {0}


def test_perturbation_scaling():
    w = Perturbation(0.0, 2.0, 0.5).scaled(0.25)
    assert w(1.0) == pytest.approx(0.25)
    assert w.scale == pytest.approx(0.25, rel=1e-10)
    with pytest.raises(PreconditionError):
        w.scaled(-1.0)
    with pytest.raises(PreconditionError, match="bump numbers must be finite"):
        w.scaled(math.inf)


def test_perturbation_is_a_value():
    assert [f.name for f in dataclasses.fields(Perturbation)] == ["a", "b", "eps", "scale"]
    w = Perturbation(-1, 1, 0.2).scaled(0.5)
    assert w == Perturbation(-1.0, 1.0, 0.2, 0.5)
    assert hash(w) == hash(Perturbation(-1.0, 1.0, 0.2, 0.5))
    assert w != Perturbation(-1.0, 1.0, 0.2, 0.25)


@pytest.mark.parametrize("numbers", [
    (-1.0, 1.0, 0.2, math.nan),
    (-1.0, math.inf, 0.2, 1.0),
    (-math.inf, 1.0, 0.2, 1.0),
    (-1.0, 1.0, math.nan, 1.0),
    (math.nan, 1.0, 0.2, 1.0),
])
def test_perturbation_rejects_non_finite_numbers(numbers):
    with pytest.raises(PreconditionError, match="bump numbers must be finite"):
        Perturbation(*numbers)


FINITE = {"allow_nan": False, "allow_infinity": False}


@given(st.floats(-10.0, 10.0, **FINITE), st.floats(1e-3, 20.0, **FINITE),
       st.floats(1e-3, 1.0, **FINITE), st.floats(0.0, 10.0, **FINITE))
def test_perturbation_plateau_is_its_scale(a, length, frac, scale):
    b = a + length
    eps = frac * (b - a) / 2
    assume(a < b and 0 < eps <= (b - a) / 2)
    w = Perturbation(a, b, eps, scale)
    plateau = np.linspace(a + eps, b - eps, 257)
    vals = w(plateau)
    # exactly scale wherever both ramps have saturated in floating point;
    # within roundoff where (x - a)/eps lands one ulp short of 1 at the ends
    saturated = ((plateau - a) / eps >= 1.0) & ((plateau - b) / eps <= -1.0)
    assert np.all(vals[saturated] == scale)
    assert np.all(np.abs(vals - scale) <= 1e-15 * scale)
    lo, hi = w.support
    assert np.all(w(np.linspace(lo, hi, 1025)) <= scale * (1 + 1e-15))


def test_sup_on_interval_accuracy():
    # sharp interior maximum: f(x) = exp(-(x-0.3)^2 * 50)
    val = sup_on_interval(lambda x: np.exp(-50.0 * (x - 0.3) ** 2), -1.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_tolerances_validated():
    Tolerances()
    Tolerances(eig_rel=1e-320)
    for eig_rel in (0.0, -1e-7, 1.0, 2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantViolation, match=r"^eig_rel must lie in \(0, 1\)$"):
            Tolerances(eig_rel=eig_rel)
    with pytest.raises(InvariantViolation, match="cluster_abs must be strictly positive"):
        check_property_p(parse_potential("shifted:s2=0"), 3, 3, cluster_abs=-1.0)
