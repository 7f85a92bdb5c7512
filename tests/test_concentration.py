import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    ModeCoefficients,
    brute_force_min_ratio,
    certificate_by_line,
    kappa_coefficients,
    min_ratio_witness,
    ratio_closed_form,
    ratio_quadrature,
)

from grushin.assembler import assemble
from grushin.concentration import Strip, concentration_certificate, min_ratio
from grushin.core import (
    ExactFamilyProfile,
    ExactScalar,
    InvariantViolation,
    MultiplicityError,
    Potential,
    parse_potential,
)
from grushin.schrod1d import solve_eigen


def test_kappa_examples():
    assert kappa_coefficients(ModeCoefficients(1, 0, 0, 0)) == (1.0, 1.0, 0.0)
    assert kappa_coefficients(ModeCoefficients(1, 0, 1, 0)) == (4.0, 0.0, 0.0)
    # alpha = 1, beta = i
    assert kappa_coefficients(ModeCoefficients(1, 0, 0, 1)) == (2.0, 2.0, 2.0)


def test_mode_coefficients_not_all_zero():
    with pytest.raises(InvariantViolation):
        ModeCoefficients(0.0, 0.0, 0.0, 0.0)


def test_ratio_circulating_wave_is_width_fraction():
    w = Strip(-0.7, 1.9)
    c = ModeCoefficients(1, 0, 0, 0)  # beta = 0: |phi| is y-independent
    for k in (1, 2, 7, -3):
        assert ratio_closed_form(c, k, w) == pytest.approx(w.width / (2 * math.pi), rel=1e-14)


def test_ratio_standing_wave_half_circle():
    # alpha = beta = 1 on (0, pi): f(1) = 0, so the ratio is exactly 1/2,
    # matching int cos^2 over the half circle
    c = ModeCoefficients(1, 0, 1, 0)
    w = Strip(0.0, math.pi)
    assert ratio_closed_form(c, 1, w) == pytest.approx(0.5, abs=1e-15)
    ys = np.linspace(0, math.pi, 20001)
    full = np.linspace(-math.pi, math.pi, 40001)
    oracle = np.trapezoid(np.cos(ys) ** 2, ys) / np.trapezoid(np.cos(full) ** 2, full)
    assert ratio_closed_form(c, 1, w) == pytest.approx(oracle, abs=1e-8)


def test_ratio_full_circle_is_one():
    w = Strip(-math.pi, math.pi)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a0, a1, b0, b1 = rng.normal(size=4)
        c = ModeCoefficients(a0, a1, b0, b1)
        for k in (1, 2, 5):
            assert ratio_closed_form(c, k, w) == pytest.approx(1.0, abs=1e-12)


def test_ratio_scale_invariance():
    rng = np.random.default_rng(11)
    w = Strip(-0.3, 2.0)
    for _ in range(50):
        a0, a1, b0, b1 = rng.normal(size=4)
        c = ModeCoefficients(a0, a1, b0, b1)
        scaled = ModeCoefficients(3.7 * a0, 3.7 * a1, 3.7 * b0, 3.7 * b1)
        assert ratio_closed_form(c, 3, w) == pytest.approx(
            ratio_closed_form(scaled, 3, w), rel=1e-12)


def test_min_ratio_examples():
    assert min_ratio(1, Strip(0.0, math.pi)) == 0.5  # exact float equality
    assert min_ratio(2, Strip(0.0, math.pi / 2)) == pytest.approx(0.25, abs=1e-15)


def test_min_ratio_witness_attains_minimum():
    for k, (a, b) in ((1, (0.0, 1.0)), (3, (-0.5, 2.0)), (7, (0.2, 0.9))):
        w = Strip(a, b)
        value, coeffs = min_ratio_witness(k, w)
        assert ratio_closed_form(coeffs, k, w) == pytest.approx(value, abs=1e-13)


def test_min_ratio_against_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(6):
        k = int(rng.integers(1, 9))
        a = float(rng.uniform(-math.pi, math.pi - 0.3))
        b = float(rng.uniform(a + 0.2, math.pi))
        w = Strip(a, b)
        assert min_ratio(k, w) == pytest.approx(brute_force_min_ratio(k, w), abs=1e-8)


def test_min_ratio_positive_and_limit_rate():
    w = Strip(0.25, 1.75)
    limit = w.width / (2 * math.pi)
    for k in (1, 2, 3, 10, 100, 1000):
        val = min_ratio(k, w)
        assert val > 0.0
        assert abs(val - limit) <= 1.0 / (2 * math.pi * k) + 1e-15


def test_ratio_quadrature_matches_closed_form():
    pot = parse_potential("power:gamma=1")
    rng = np.random.default_rng(42)
    pairs = {k: solve_eigen(pot, k, 1)[0] for k in (1, 2, 3)}
    for _ in range(25):
        k = int(rng.integers(1, 4))
        a = float(rng.uniform(-math.pi, math.pi - 0.4))
        b = float(rng.uniform(a + 0.3, math.pi))
        c = ModeCoefficients(*rng.normal(size=4))
        w = Strip(a, b)
        got = ratio_quadrature(pot, pairs[k], c, w)
        assert got == pytest.approx(ratio_closed_form(c, k, w), abs=1e-8)


def test_ratio_quadrature_full_circle():
    pot = parse_potential("power:gamma=1")
    pair = solve_eigen(pot, 2, 1)[0]
    c = ModeCoefficients(0.3, -1.2, 0.8, 0.1)
    got = ratio_quadrature(pot, pair, c, Strip(-math.pi, math.pi))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_ratio_quadrature_x_factor_cancels():
    # the circulating ground mode on (0, pi) gives exactly 1/2
    pot = parse_potential("power:gamma=1")
    pair = solve_eigen(pot, 1, 1)[0]
    got = ratio_quadrature(pot, pair, ModeCoefficients(1, 0, 0, 0), Strip(0.0, math.pi))
    assert got == pytest.approx(0.5, abs=1e-10)


def test_kappa_bounds_random_sweep():
    rng = np.random.default_rng(2024)
    a0, a1, b0, b1 = rng.normal(size=(4, 20000))
    k1 = (a0 + b0) ** 2 + (a1 + b1) ** 2
    k2 = (a0 - b0) ** 2 + (a1 - b1) ** 2
    k3 = 2 * (a0 * b1 - a1 * b0)
    total = k1 + k2
    assert np.all(np.abs(k3) / total <= 0.5 + 1e-12)
    assert np.all(np.abs(k1 - k2) / total <= 1.0)


def test_certificate_irrational_family():
    spec = assemble(parse_potential("shifted:s2=irr:sqrt2"), 50.0, mode="exact")
    cert = concentration_certificate(spec, Strip(0.0, math.pi))
    assert cert.c_min == 0.5  # sin(k pi) = 0 for every integer mode
    assert cert.limit_value == pytest.approx(0.5, abs=1e-15)
    assert cert.lines_checked == len(spec.lines)

    narrow = concentration_certificate(spec, Strip(0.0, 1.0))
    ks = sorted({abs(line.contributors[0][0]) for line in spec.lines})
    oracle = min((1.0 - abs(math.sin(k)) / k) / (2 * math.pi) for k in ks)
    assert narrow.c_min == pytest.approx(oracle, rel=1e-14)
    assert narrow.c_min > 0.0


# strips whose per-|k| minima tie in exact arithmetic, then random ones
strips = st.one_of(
    st.sampled_from([(0.0, math.pi), (-math.pi, math.pi), (0.0, math.pi / 2),
                     (0.0, math.pi / 3), (0.0, 1e-9)]),
    st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    .filter(lambda ab: ab[0] < ab[1]))


@given(st.one_of(st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pi", "e"])
                 .map(ExactScalar.irrational),
                 st.tuples(st.integers(0, 12), st.integers(1, 12))
                 .map(lambda pq: ExactScalar.from_rational(*pq))),
       st.floats(1.0, 200.0), strips)
def test_certificate_matches_the_per_line_loop(s2, e, ab):
    spec = assemble(Potential(geometry="cylinder", gamma=1.0, profile=ExactFamilyProfile(s2=s2)),
                    e, mode="exact")
    want = certificate_by_line(spec, Strip(*ab))
    if want is None:
        with pytest.raises(MultiplicityError):
            concentration_certificate(spec, Strip(*ab))
        return
    cert = concentration_certificate(spec, Strip(*ab))
    assert (cert.c_min, cert.witness_k, cert.lines_checked) == want


def test_certificate_rejects_higher_multiplicity():
    spec = assemble(parse_potential("shifted:s2=0"), 5.0, mode="exact")
    with pytest.raises(MultiplicityError, match="3"):
        concentration_certificate(spec, Strip(0.0, math.pi))


def test_strip_validation():
    with pytest.raises(InvariantViolation):
        Strip(1.0, 1.0)
    with pytest.raises(InvariantViolation):
        Strip(-4.0, 1.0)
