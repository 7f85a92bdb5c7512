"""Property tests of exact counting, enumeration, multiplicities and
assembly for rational s2 = p/q and tagged irrationals against brute-force
lattice oracles."""

import hashlib
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import brute_count, brute_exact_lines

from grushin.assembler import assemble
from grushin.cli import run
from grushin.core import (
    ExactFamilyProfile,
    ExactScalar,
    IntegerOverflowError,
    Potential,
    parse_exact_scalar,
)
from grushin.exact_family import counting_function, enumerate_exact_pairs, multiplicity_enumeration

shifts = st.tuples(st.integers(0, 60), st.integers(1, 50))


def _shifted(s2: ExactScalar) -> Potential:
    return Potential(geometry="cylinder", gamma=1.0, profile=ExactFamilyProfile(s2=s2))

# ints, rationals, and floats, which mostly fall off the 1/q lattice
caps = st.one_of(
    st.integers(1, 300),
    st.fractions(Fraction(1, 60), 300, max_denominator=60),
    st.floats(0.01, 300.0),
)


@given(shifts, caps)
def test_counting_matches_brute_lattice_count(pq, e):
    p, q = pq
    assert counting_function(e, ExactScalar.from_rational(p, q)) == brute_count(Fraction(e), p, q)


@given(shifts, caps)
def test_enumeration_is_half_the_count_in_k_n_order(pq, e):
    s2 = ExactScalar.from_rational(*pq)
    pairs = [tuple(kn) for kn in enumerate_exact_pairs(s2, e).tolist()]
    assert 2 * len(pairs) == counting_function(e, s2)
    assert pairs == sorted(set(pairs))


@given(st.tuples(st.integers(0, 20), st.integers(1, 8)),
       st.fractions(Fraction(1, 10), 30, max_denominator=20))
def test_multiplicities_on_the_lattice_sum_to_the_count(pq, e):
    # every level is a multiple of 1/q, so these values hold the whole count
    s2 = ExactScalar.from_rational(*pq)
    q = s2.rational.denominator
    total = sum(multiplicity_enumeration(Fraction(j, q), s2).multiplicity
                for j in range(1, int(e * q) + 1))
    assert total == counting_function(e, s2)


@given(shifts, st.fractions(Fraction(1, 200), 300, max_denominator=200))
def test_off_lattice_target_has_no_contributors(pq, t):
    s2 = ExactScalar.from_rational(*pq)
    if (t * s2.rational.denominator).denominator == 1:
        t += Fraction(1, 2 * s2.rational.denominator)
    line = multiplicity_enumeration(t, s2)
    assert line.multiplicity == 0 and line.contributors == ()


@given(st.integers(50 * 2**63, 2**72), st.integers(1, 50), st.integers(1, 100))
def test_counting_beyond_64_bits_raises(p, q, extra):
    # the reduced numerator of s2 passes 64 bits, and mode 1 has a level
    # below the cap
    s2 = ExactScalar.from_rational(p, q)
    with pytest.raises(IntegerOverflowError):
        counting_function(s2.rational + extra, s2)


@given(st.integers(50 * 2**63, 2**72), st.integers(1, 50), st.integers(1, 100))
def test_exact_assembly_beyond_64_bits_raises(p, q, extra):
    s2 = ExactScalar.from_rational(p, q)
    with pytest.raises(IntegerOverflowError):
        assemble(_shifted(s2), s2.rational + extra, mode="exact")


@given(st.one_of(shifts.map(lambda pq: ExactScalar.from_rational(*pq)),
                 # keys q * level pass 2^53 = 9007199254740992
                 st.tuples(st.integers(0, 3), st.integers(2**53 // 4, 7**19))
                 .map(lambda pq: ExactScalar.from_rational(*pq)),
                 st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pi"])
                 .map(ExactScalar.irrational)),
       st.one_of(st.integers(1, 150), st.fractions(Fraction(1, 12), 150, max_denominator=12),
                 st.floats(0.01, 150.0)))
@example(ExactScalar.from_rational(0), 0.5)  # caps below the first level
@example(ExactScalar.from_rational(3, 11398895185373143), Fraction(1, 2))
@example(ExactScalar.irrational("sqrt2"), 0.5)
def test_exact_assembly_matches_brute_grouping(s2, e):
    # a tagged irrational's levels lie within rounding of none of these caps,
    # so the oracle's float cap test agrees with the library's
    spectrum = assemble(_shifted(s2), e, mode="exact")
    got = [(ln.value, ln.contributors, ln.multiplicity, ln.key) for ln in spectrum.lines]
    want = brute_exact_lines(s2, e)
    assert got == want
    assert spectrum.k_cut == max((abs(k) for _, kn, *_ in want for k, _ in kn), default=0)
    # the columns, which the lines view above is built from
    assert spectrum.values.tolist() == [value for value, *_ in want]
    assert spectrum.starts.tolist() == [0, *accumulate(mult for _, _, mult, _ in want)]
    assert spectrum.contributors.shape == (spectrum.starts[-1], 2)
    assert spectrum.contributors.tolist() == [list(kn) for _, kns, _, _ in want for kn in kns]
    if s2.is_rational:
        assert spectrum.keys.shape == (len(want),)
        assert spectrum.keys.tolist() == [key for *_, key in want]
    else:
        assert spectrum.keys.shape == (len(want), 2)
        assert spectrum.keys.tolist() == [list(key) for *_, key in want]


def test_values_past_2_53_are_correctly_rounded_quotients(capsys):
    # s2 = 1/7^19: the keys q * level pass 2^53, where an int64 true division
    # key / q rounds twice and lands one ulp off for about half of them
    s2 = "1/11398895185373143"
    q = 7**19
    spectrum = assemble(_shifted(parse_exact_scalar(s2)), 30, mode="exact")
    assert len(spectrum.lines) == 62
    exact = [Fraction(ln.key, q) for ln in spectrum.lines]
    assert max(level.numerator for level in exact) > 2**53
    assert all(ln.value == float(level) for ln, level in zip(spectrum.lines, exact))
    assert run(["spectrum", "--potential", f"shifted:s2={s2}", "--emax", "30", "--mode", "exact",
                "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 63
    assert hashlib.sha256(out.encode()).hexdigest().startswith("79782013f1a78037")
