import math
import time
import tracemalloc

import pytest
from helpers import brute_property_p, weighted_power
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grushin import assembler, schrod1d
from grushin.assembler import AssembledSpectrum, assemble, check_property_p
from grushin.core import (
    SEPARATION,
    ExactFamilyProfile,
    ExactScalar,
    InvariantViolation,
    Perturbation,
    Potential,
    PreconditionError,
    SampledProfile,
    Tolerances,
    parse_potential,
)
from grushin.exact_family import (
    SpectrumLine,
    counting_function,
    enumerate_exact_pairs,
    weyl_residual,
)
from grushin.schrod1d import solve_eigen, solve_levels_below, truncation_length

POWER1 = parse_potential("power:gamma=1")
POWER2 = parse_potential("power:gamma=2")
SHIFT0 = parse_potential("shifted:s2=0")
SHIFT1 = parse_potential("shifted:s2=1")
SQRT2 = parse_potential("shifted:s2=irr:sqrt2")
TORUS1 = parse_potential("torus:gamma=1")


def _table(xs):
    """V = 0.01 x^2 sampled at xs, with the quadratic tail beyond them; it
    lies below |x|^2, so the cylinder's scaling bound does not hold."""
    nodes = tuple((x, 0.01 * x * x) for x in xs)
    return Potential(geometry="cylinder", gamma=1.0,
                     profile=SampledProfile(nodes=nodes, extrapolation_exponent=2.0))


# on integer nodes the chords make V linear near x = 0; on a fine grid it is
# the harmonic oscillator of frequency 0.1 to within the clustering width
TABLE_COARSE = _table(range(-4, 5))
TABLE_FINE = _table([i / 100 for i in range(-400, 401)])


def _contributing_modes(spectrum):
    return {abs(k) for line in spectrum.lines for k, _ in line.contributors}


def test_k_cutoff_examples():
    assert assemble(POWER1, 10.0).k_cut == 10
    assert assemble(POWER1, 1.0).k_cut == 1
    cut2 = assemble(POWER2, 10.0).k_cut
    # c2 = quartic ground energy ~ 1.06; mode K contributes while c2 K^(2/3) <= 10
    c2 = solve_eigen(POWER2, 1, 1, Tolerances(eig_rel=1e-7))[0].lam
    assert c2 * (cut2 + 1) ** (2.0 / 3.0) > 10.0
    assert c2 * float(cut2) ** (2.0 / 3.0) <= 10.0


def test_cutoff_safety_nothing_beyond():
    # modes just past the cutoff contribute nothing below the cap
    for pot, e_max in ((POWER1, 6.0), (POWER2, 8.0), (TORUS1, 6.0), (TABLE_COARSE, 1.0)):
        cut = assemble(pot, e_max).k_cut
        for extra in (1, 2):
            lam = solve_eigen(pot, cut + extra, 1)[0]
            assert lam.lam - 10 * lam.err_est > e_max


def test_table_below_the_scaling_bound_keeps_every_mode():
    # the level 0.1 k (2n+1) reaches 3 at k = 30, which the solver resolves
    # just above the cap
    spec = assemble(TABLE_FINE, 3.0)
    assert spec.k_cut == 29
    assert _contributing_modes(spec) == set(range(1, 30))
    # the sampled table is not exactly 0.01 x^2, so the oscillator's exact
    # collisions, such as (1, 1) and (3, 0), split by more than their error
    # bound: every line is one +-k pair
    assert len(spec.lines) == 63
    assert all(len({abs(k) for k, _ in line.contributors}) == 1 and line.multiplicity == 2
               for line in spec.lines)
    assert sum(line.multiplicity for line in spec.lines) == 126


def test_torus_assembly_solves_each_mode_once(monkeypatch):
    # _pairs is the refinement of one mode's levels, for every geometry
    calls = []
    real = schrod1d._pairs

    def spy(potential, k, m, grid, tol, first=None):
        calls.append((k, tol.eig_rel))
        return real(potential, k, m, grid, tol, first)

    monkeypatch.setattr(schrod1d, "_pairs", spy)
    spec = assemble(TORUS1, 16.0)
    assert [k for k, _ in calls] == list(range(1, spec.k_cut + 2))
    assert all(eig_rel == Tolerances().eig_rel for _, eig_rel in calls)


def test_power_assembly_solves_mode_one_only(monkeypatch):
    calls = []
    real_eigen, real_below = schrod1d.solve_eigen, schrod1d.solve_levels_below

    def spy_eigen(potential, k, m, tol=Tolerances()):
        calls.append(("solve_eigen", k))
        return real_eigen(potential, k, m, tol)

    def spy_below(potential, k, e_max, tol=Tolerances()):
        calls.append(("solve_levels_below", k))
        return real_below(potential, k, e_max, tol)

    for module in (assembler, schrod1d):
        monkeypatch.setattr(module, "solve_eigen", spy_eigen)
        monkeypatch.setattr(module, "solve_levels_below", spy_below)
    spec = assemble(POWER2, 12.0)
    assert spec.k_cut > 1
    assert calls.count(("solve_levels_below", 1)) == 1
    assert {k for _, k in calls} == {1}


def _spy_solve_eigen(monkeypatch) -> list[int]:
    calls = []
    real = schrod1d.solve_eigen

    def spy(potential, k, m, tol=Tolerances()):
        calls.append(k)
        return real(potential, k, m, tol)

    monkeypatch.setattr(assembler, "solve_eigen", spy)
    return calls


@pytest.mark.parametrize("gamma", [0.75, 1.0, 2.0])
def test_power_property_p_solves_mode_one_only(monkeypatch, gamma):
    # property P reads a pure power's modes from one mode-1 solve, dilated as
    # in assembly; an infinite window records every level pair
    calls = _spy_solve_eigen(monkeypatch)
    pot = parse_potential(f"power:gamma={gamma}")
    n, k_range = 3, 5
    report = check_property_p(pot, n, k_range, cluster_abs=math.inf)
    assert calls == [1]
    rows = {}
    for r in report.collisions:
        rows.setdefault(r.k, {})[r.i] = r.lam_k
        rows.setdefault(r.l, {})[r.j] = r.lam_l
    mode1 = [p.lam for p in solve_eigen(pot, 1, n)]
    for k in range(1, k_range + 1):
        scale = float(k) ** (2.0 / (gamma + 1.0))
        assert [rows[k][i] for i in range(n)] == [scale * lam for lam in mode1]


def test_torus_property_p_solves_each_mode(monkeypatch):
    calls = _spy_solve_eigen(monkeypatch)
    check_property_p(TORUS1, 2, 3)
    assert calls == [1, 2, 3]


@pytest.mark.parametrize("gamma, e_max", [(0.5, 6.0), (0.75, 4.5), (1.5, 12.0), (2.0, 12.0)])
def test_scaled_power_levels_match_per_mode_solves(monkeypatch, gamma, e_max):
    # every level of mode k > 1 comes from mode 1 by dilation; an independent
    # solve of mode k must agree to within the two error estimates
    entries = []
    real = assembler._cluster

    def spy(levels):
        entries.extend(levels)
        return real(levels)

    monkeypatch.setattr(assembler, "_cluster", spy)
    pot = parse_potential(f"power:gamma={gamma}")
    spec = assemble(pot, e_max)
    assert spec.k_cut > 2
    by_mode = {}
    for lam, err, k, n in entries:
        if k > 0:
            by_mode.setdefault(k, {})[n] = (lam, err)
    assert set(by_mode) == set(range(1, spec.k_cut + 1))
    for k, levels in by_mode.items():
        solved = solve_eigen(pot, k, max(levels) + 1)
        for n, (lam, err) in levels.items():
            assert abs(lam - solved[n].lam) <= err + solved[n].err_est, (k, n)


@pytest.mark.parametrize("pot, e_max, k_cut", [
    (POWER1, 6.5, 6),
    (POWER1, 0.5, 0),
    (TORUS1, 8.0, 8),
    (TORUS1, 0.5, 0),
    (TABLE_COARSE, 1.0, 8),
    (SHIFT1, 30.0, 5),
    (SQRT2, 20.0, 3),
], ids=["power-6.5", "power-0.5", "torus-8", "torus-0.5", "table-1", "s2_1-30", "sqrt2-20"])
def test_numeric_k_cut_is_the_largest_contributing_mode(pot, e_max, k_cut):
    spec = assemble(pot, e_max, mode="numeric")
    assert spec.k_cut == k_cut
    assert spec.k_cut == max(_contributing_modes(spec), default=0)
    assert _contributing_modes(spec) == set(range(1, k_cut + 1))


@pytest.mark.parametrize("eig_rel, e_max, k_cut", [
    (1e-2, 5.999, 6),
    (1e-4, 5.9999, 6),
    (1e-7, 5.999, 5),
])
def test_shifted_k_cut_keeps_every_admitted_mode(eig_rel, e_max, k_cut):
    # lambda_0(6) = 6 of x^2 sits within the keep rule's margin of a cap just
    # below 6 once eig_rel is coarse, so mode 6 belongs to the spectrum there
    # and k_cut must reach it
    tol = Tolerances(eig_rel=eig_rel)
    spec = assemble(SHIFT0, e_max, tol=tol, mode="numeric")
    assert spec.k_cut == k_cut
    assert _contributing_modes(spec) == set(range(1, k_cut + 1))
    assert solve_levels_below(SHIFT0, k_cut + 1, e_max, tol) == []


def test_assemble_exact_small_spectrum():
    spec = assemble(SHIFT0, 5.0, mode="exact")
    got = {line.value: line.multiplicity for line in spec.lines}
    assert got == {1.0: 2, 2.0: 2, 3.0: 4, 4.0: 2, 5.0: 4}
    line3 = spec.lines[2]
    assert set(line3.contributors) == {(1, 1), (-1, 1), (3, 0), (-3, 0)}
    line5 = spec.lines[4]
    assert set(line5.contributors) == {(1, 2), (-1, 2), (5, 0), (-5, 0)}
    assert spec.mode == "exact"


def test_assemble_exact_shifted_top_line():
    spec = assemble(SHIFT1, 6.0, mode="exact")
    top = spec.lines[-1]
    assert top.value == 6.0
    assert top.multiplicity == 4
    assert set(top.contributors) == {(1, 2), (-1, 2), (2, 0), (-2, 0)}


def test_assemble_numeric_matches_exact():
    num = assemble(POWER1, 5.0, mode="numeric")
    ex = assemble(SHIFT0, 5.0, mode="exact")
    assert len(num.lines) == len(ex.lines)
    for a, b in zip(num.lines, ex.lines):
        assert a.value == pytest.approx(b.value, abs=1e-4)
        assert a.multiplicity == b.multiplicity
        assert set(a.contributors) == set(b.contributors)
        assert a.key is None
    assert num.keys is None
    assert num.warnings == ()


def test_cluster_chain_that_joins_distinct_levels_warns():
    # a ~ b ~ c chain into one line, though a and c are certified distinct
    err = 1.0
    a, b, c = 10.0, 10.0 + 1.5 * SEPARATION * err, 10.0 + 3.0 * SEPARATION * err
    entries = [(lam, err, sign * k, 0) for lam, k in ((a, 1), (b, 2), (c, 3)) for sign in (1, -1)]
    values, starts, contributors, warnings = assembler._cluster(entries)
    assert values.tolist() == [(a + b + c) / 3]
    assert starts.tolist() == [0, 6]
    assert contributors.tolist() == [[-1, 0], [1, 0], [-2, 0], [2, 0], [-3, 0], [3, 0]]
    assert warnings == [f"line at {(a + b + c) / 3!r} joins levels (k, n) = (-1, 0) and "
                        "(-3, 0), which are certified distinct"]


def _numeric_spectrum(values, lines):
    """A numeric spectrum whose line i has the value values[i] and the
    contributors lines[i]."""
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    return AssembledSpectrum(e_max=10.0, values=values, starts=starts,
                             contributors=[kn for line in lines for kn in line],
                             k_cut=3, mode="numeric")


def test_spectrum_check_accepts_two_levels_of_one_mode():
    # near-degenerate levels n = 0, 1 of mode 1 form one numeric line, whose
    # rows (-1, 0), (-1, 1) do not pair up with their neighbours
    two_levels = ((-1, 0), (-1, 1), (1, 0), (1, 1))
    spec = _numeric_spectrum([2.0, 3.0], [((-2, 0), (2, 0)), two_levels])
    assert spec.lines[1] == SpectrumLine(3.0, two_levels)
    assert spec.contributors.tolist() == [[-2, 0], [2, 0], *map(list, two_levels)]


@pytest.mark.parametrize("values, lines, match", [
    ([1.0], [((-1, 0), (1, 0), (2, 0))], "even"),
    ([1.0], [((-1, 0), (2, 0))], "closed"),
    ([1.0], [((-1, 0), (-1, 1), (1, 0), (2, 1))], "closed"),
    # closed over the whole spectrum, but not within each line
    ([1.0, 2.0], [((-1, 0), (2, 0)), ((-2, 0), (1, 0))], "closed"),
    ([1.0, 2.0], [((-1, 0), (1, 0)), ((-1, 1), (-1, 1))], "closed"),
    ([2.0, 1.0], [((-1, 0), (1, 0)), ((-2, 0), (2, 0))], "order"),
], ids=["odd", "unpaired", "unpaired-two-levels", "split-across-lines", "one-sign", "order"])
def test_spectrum_check_rejects_what_a_line_rejects(values, lines, match):
    with pytest.raises(InvariantViolation, match=match):
        _numeric_spectrum(values, lines)
    if match != "order":  # each of these lines also fails its own check
        with pytest.raises(InvariantViolation, match=match):
            for value, line in zip(values, lines):
                SpectrumLine(value, line)


def test_assemble_multiplicities_even_and_counts():
    spec = assemble(SHIFT1, 20.0, mode="exact")
    assert all(line.multiplicity % 2 == 0 for line in spec.lines)
    total = sum(line.multiplicity for line in spec.lines)
    assert total == counting_function(20, ExactScalar.from_rational(1))


def test_assemble_validation():
    with pytest.raises(PreconditionError):
        assemble(POWER1, 5.0, mode="exact")
    with pytest.raises(PreconditionError):
        assemble(POWER1, -1.0)
    with pytest.raises(PreconditionError):
        assemble(POWER1, 5.0, mode="nonsense")


def test_infinite_cap_rejected():
    inf = float("inf")
    calls = [
        lambda: assemble(SHIFT0, inf, mode="exact"),
        lambda: assemble(POWER1, inf),
        lambda: counting_function(inf, ExactScalar.from_rational(0)),
        lambda: counting_function(inf, ExactScalar.irrational("sqrt2")),
        lambda: enumerate_exact_pairs(ExactScalar.from_rational(1), inf),
        lambda: weyl_residual([10.0, inf], ExactScalar.from_rational(0)),
        lambda: solve_levels_below(POWER1, 1, inf),
        lambda: truncation_length(POWER1, 1, inf),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="must be finite"):
            call()


def test_coarse_tolerance_assembles_the_exact_lines():
    # lines form from the achieved error estimates, so a coarse eig_rel still
    # joins the oscillator's exact collisions and nothing else
    num = assemble(POWER1, 5.0, tol=Tolerances(eig_rel=1e-4))
    ex = assemble(SHIFT0, 5.0, mode="exact")
    assert [(ln.contributors, ln.multiplicity) for ln in num.lines] == \
        [(ln.contributors, ln.multiplicity) for ln in ex.lines]
    for a, b in zip(num.lines, ex.lines):
        assert a.value == pytest.approx(b.value, rel=1e-4)
    assert num.warnings == ()


def _line_of(spectrum, k, n):
    return next(line for line in spectrum.lines if (k, n) in line.contributors)


def test_certified_distinct_levels_form_separate_lines():
    # (7, 1) and (32, 0) of |x|^3 are 1.9e-4 apart, far outside their error
    # bound: property P certifies them distinct and assembly keeps them apart
    pot = parse_potential("power:gamma=1.5")
    spec = assemble(pot, 20.0)
    a, b = _line_of(spec, 7, 1), _line_of(spec, 32, 0)
    assert a is not b
    assert a.contributors == ((-7, 1), (7, 1))
    assert b.contributors == ((-32, 0), (32, 0))
    report = check_property_p(pot, 2, 32)
    (pair,) = [r for r in report.collisions if (r.k, r.i, r.l, r.j) == (7, 1, 32, 0)]
    assert pair.status == "PASS"
    assert pair.gap > pair.err_bound


def test_torus_lines_follow_the_error_bound():
    # mode 1 of the circle: levels 5 and 6 differ by 1.4e-4, far outside their
    # bound, while levels 7 and 8 differ by less than theirs
    spec = assemble(TORUS1, 32.0)
    assert _line_of(spec, 1, 5) is not _line_of(spec, 1, 6)
    assert _line_of(spec, 1, 7) is _line_of(spec, 1, 8)


def test_zero_interval_table_fails_fast():
    # V = 0 on [-1, 1]: every mode has a level at or below (pi/2)^2 < 5
    nodes = ((-2.0, 1.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 1.0))
    pot = Potential(geometry="cylinder", gamma=1.0,
                    profile=SampledProfile(nodes=nodes, extrapolation_exponent=2.0))
    start = time.perf_counter()
    with pytest.raises(PreconditionError) as info:
        assemble(pot, 5.0)
    assert time.perf_counter() - start < 1.0
    bound = (math.pi / 2.0) ** 2
    assert "vanishes on [-1.0, 1.0]" in str(info.value)
    assert repr(bound) in str(info.value)


# --- property (P) ------------------------------------------------------------

def test_property_p_exact_collision_fails():
    report = check_property_p(SHIFT0, 3, 3)
    assert report.verdict == "FAIL"
    assert any(r.k == 1 and r.l == 3 and r.lam_k == 3.0 for r in report.collisions)


def test_property_p_irrational_passes():
    report = check_property_p(SQRT2, 10, 5)
    assert report.verdict == "PASS"
    assert report.mode == "exact"


def test_property_p_numeric_report():
    bump = Perturbation(-1.0, 1.0, 0.3)
    pot = weighted_power(1.0, lambda x: 1.0 + 0.05 * bump(x))
    report = check_property_p(pot, 2, 3)
    assert report.mode == "numeric"
    assert report.verdict in ("PASS", "UNDECIDED")
    for r in report.collisions:
        assert r.status in ("PASS", "UNDECIDED")


def test_property_p_numeric_collision_is_undecided_not_fail():
    # V = x^2 has true collisions; numerics must not claim FAIL or PASS there
    report = check_property_p(POWER1, 2, 3)
    assert report.verdict == "UNDECIDED"
    hits = [r for r in report.collisions if r.k == 1 and r.l == 3]
    assert hits and all(r.status == "UNDECIDED" for r in hits)


@pytest.mark.parametrize("s2, n, k_range, cluster_abs, verdict, count", [
    ("1/1009", 30, 20, 1e-2, "PASS", 10),
    ("irr:golden", 30, 20, 1e-2, "PASS", 2),
    ("0", 12, 12, 1e-3, "FAIL", 38),
])
def test_property_p_records_match_pair_oracle(s2, n, k_range, cluster_abs, verdict, count):
    pot = parse_potential(f"shifted:s2={s2}")
    report = check_property_p(pot, n, k_range, cluster_abs=cluster_abs)
    expected = brute_property_p(pot.profile.s2, n, k_range, cluster_abs)
    assert list(report.collisions) == expected
    assert report.verdict == verdict
    assert sum(r.status == verdict for r in report.collisions) == count


@settings(max_examples=25)
@given(st.one_of(st.tuples(st.integers(0, 60), st.integers(1, 60)),
                 # keys q * level pass 2^53 = 9007199254740992
                 st.tuples(st.integers(0, 3), st.integers(2**53 // 4, 7**19)))
       .map(lambda pq: ExactScalar.from_rational(*pq))
       | st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pi"]).map(ExactScalar.irrational),
       st.integers(1, 30), st.integers(2, 20), st.sampled_from([1e-3, 1e-2, 0.5]),
       st.sampled_from([3, 64, 1000, 2**14]))
@example(ExactScalar.irrational("golden"), 30, 20, 1e-2, 1000)
@example(ExactScalar.from_rational(0), 12, 12, 1e-3, 7)
# keys of both signs, two of which lie more than 2^63 apart; every pair is a record
@example(ExactScalar.from_rational(-(2**61 - 1), (2**63 - 1) // 10), 3, 2, 1e300, 2**14)
# the gap (q + 3p)/q of levels (1, 0) and (2, 0) rounds to this cluster_abs, while
# float(q + 3p) / float(q) lands one ulp above it: still a record; one ulp
# lower, none
@example(ExactScalar.from_rational(8454518695147911, 7**19), 1, 2, 3.2250889821313375, 2**14)
@example(ExactScalar.from_rational(8454518695147911, 7**19), 1, 2, 3.225088982131337, 2**14)
def test_property_p_matches_pair_oracle_in_any_blocks(s2, n, k_range, cluster_abs, block):
    # small blocks split one mode's rows across blocks and later modes; the
    # records still come in (k, l, i, j) order
    pot = Potential("cylinder", 1.0, ExactFamilyProfile(s2=s2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembler, "_PAIR_BLOCK", block)
        report = check_property_p(pot, n, k_range, cluster_abs=cluster_abs)
    assert list(report.collisions) == brute_property_p(s2, n, k_range, cluster_abs)


def test_property_p_memory_stays_bounded():
    # 64 million level pairs of two modes; an n x n float64 array would be 488 MiB
    tracemalloc.start()
    try:
        report = check_property_p(SHIFT0, 8000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "PASS" and report.collisions == ()
    assert peak < 8 * 2**20


def test_property_p_validation():
    with pytest.raises(PreconditionError):
        check_property_p(SHIFT0, 0, 3)
    with pytest.raises(PreconditionError):
        check_property_p(SHIFT0, 3, 1)
