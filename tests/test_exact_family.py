import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import brute_count, enumeration_multiplicities

from grushin.assembler import assemble
from grushin.core import (
    ExactFamilyProfile,
    ExactScalar,
    IntegerOverflowError,
    InvariantViolation,
    Potential,
    PreconditionError,
)
from grushin.exact_family import (
    SpectrumLine,
    _key_values,
    _level_keys,
    counting_function,
    enumerate_exact_pairs,
    multiplicity_enumeration,
    multiplicity_factorization,
    weyl_residual,
)

S0 = ExactScalar.from_rational(0)
S1 = ExactScalar.from_rational(1)
SQRT2 = ExactScalar.irrational("sqrt2")


def _level(k: int, n: int, s2: ExactScalar) -> tuple[float, int | tuple[int, int]]:
    """(value, key) of level n of mode k, through the array path."""
    keys = _level_keys(np.array([k], dtype=np.int64), np.array([n], dtype=np.int64), s2)
    value = float(_key_values(keys, s2)[0])
    return value, int(keys[0]) if s2.is_rational else (int(keys[0][0]), int(keys[1][0]))


def test_exact_eigenvalue_examples():
    # level n of mode k is (2n+1)|k| + k^2 s2, keyed by q * level for s2 = p/q
    assert _level(1, 0, S0) == (1.0, 1)
    assert _level(-2, 3, S0) == (14.0, 14)
    assert _level(2, 0, S1) == (6.0, 6)
    assert _level(1, 1, ExactScalar.from_rational(1, 2)) == (3.5, 7)
    assert _level(-3, 2, SQRT2) == (15.0 + 9.0 * math.sqrt(2.0), (15, 9))


def test_exact_eigenvalue_guards():
    with pytest.raises(PreconditionError):
        _level(0, 1, S0)
    with pytest.raises(PreconditionError):
        _level(1, -1, S0)
    with pytest.raises(IntegerOverflowError):
        _level(2**40, 2**40, S0)
    with pytest.raises(IntegerOverflowError):
        _level(2**32, 0, SQRT2)  # k^2 passes 64 bits while (2n+1)|k| does not


@pytest.mark.parametrize("k, n, s2", [(2**40, 2**40, S0), (2**32, 0, SQRT2),
                                      (-2**63, 0, SQRT2), (1, 2**62, SQRT2), (1, 2**62, S0),
                                      (2, 0, ExactScalar.from_rational(2**62)),
                                      (3, 0, ExactScalar.from_rational(1, 2**62))])
def test_level_keys_raise_where_level_key_raises(k, n, s2):
    # each key passes 64 bits in Python ints; the keys are checked before
    # they are multiplied out, so no int64 product wraps
    lin, quad = (2 * n + 1) * abs(k), k * k
    assert max(lin, quad, s2.rational.denominator * lin + s2.rational.numerator * quad
               if s2.is_rational else 0) > 2**63 - 1
    fine = np.array([1, 3], dtype=np.int64)
    with pytest.raises(IntegerOverflowError):
        _level_keys(np.r_[fine, k], np.r_[fine, n], s2)


def test_level_keys_match_level_key_elementwise():
    # the keys and values of the array path against Python-int arithmetic:
    # q (2n+1)|k| + p k^2 and its Fraction, or the pair and its float
    k = np.array([1, -2, 3, 10**9, -5], dtype=np.int64)
    n = np.array([0, 3, 7, 0, 2], dtype=np.int64)
    # at s2 = 1/(2^32 + 1) the key of k = 10^9 passes 2^53
    for s2 in (S0, S1, ExactScalar.from_rational(7, 3), ExactScalar.from_rational(1, 2**32 + 1),
               SQRT2):
        keys = _level_keys(k, n, s2)
        values = _key_values(keys, s2)
        for j, (kk, nn) in enumerate(zip(k.tolist(), n.tolist())):
            lin, quad = (2 * nn + 1) * abs(kk), kk * kk
            if s2.is_rational:
                level = lin + quad * s2.rational
                assert keys[j] == level * s2.rational.denominator
                assert values[j] == float(level)
            else:
                assert (keys[0][j], keys[1][j]) == (lin, quad)
                assert values[j] == float(lin + quad * s2.approx)


@pytest.mark.parametrize("q", [3, 7**19, 2**53 + 1, 2**63 - 1])
def test_key_values_round_keys_and_their_differences_once(q):
    # keys and differences of keys past 2^53, of either sign and up to 2^64 - 1
    # (a difference of two int64 keys in uint64): the correctly rounded key / q
    s2 = ExactScalar.from_rational(1, q)
    keys = [0, 1, 2**53 + 1, 3 * 2**60 + 7, 2**63 - 1]
    signed = np.array(keys + [-key for key in keys], dtype=np.int64)
    assert _key_values(signed, s2).tolist() == [key / q for key in signed.tolist()]
    wide = np.array(keys + [2**64 - 1, 2**63 + 2**53 + 1], dtype=np.uint64)
    assert _key_values(wide, s2).tolist() == [key / q for key in wide.tolist()]


def test_level_keys_guard_the_rational_key_itself():
    # lin and k^2 fit in 64 bits but q lin + p k^2 does not; on the edge of
    # 64 bits the key still fits
    one = np.array([1], dtype=np.int64)
    s2 = ExactScalar.from_rational(2**62, 3)
    assert _level_keys(one, 0 * one, s2).tolist() == [3 + 2**62]
    with pytest.raises(IntegerOverflowError):
        _level_keys(2 * one, 0 * one, s2)
    edge = ExactScalar.from_rational(2**63 - 2, 1)
    assert _level_keys(one, 0 * one, edge).tolist() == [2**63 - 1]
    with pytest.raises(IntegerOverflowError):
        _level_keys(one, 0 * one, ExactScalar.from_rational(2**63 - 1, 1))
    with pytest.raises(IntegerOverflowError):
        _level_keys(one, 0 * one, ExactScalar.from_rational(1, 2**63))


def test_irrational_mode_cut_guards_k_squared():
    # sqrt(E/s2) passes 2^31.5, so k * k of the mode table would wrap
    with pytest.raises(IntegerOverflowError):
        counting_function(1e20, SQRT2)


def test_exact_eigenvalue_pair_invariants():
    # a (lin, quad) pair is a level only with a (k, n) preimage
    assert multiplicity_enumeration((1, 2), SQRT2).multiplicity == 0  # 2 is not a square
    assert multiplicity_enumeration((4, 4), SQRT2).multiplicity == 0  # 4/2 = 2 is even
    line = multiplicity_enumeration((15, 9), SQRT2)
    assert line.contributors == ((-3, 2), (3, 2))
    assert line.key == (15, 9)


@pytest.mark.parametrize("lin, quad", [
    (99999999999999999999999, 1),  # an odd multiple of k = 1: a preimage past 64 bits
    (3, 10**38),
    (-2**63, 1),
])
def test_pair_past_64_bits_raises(lin, quad):
    # the guard of _level_keys on (2n+1)|k| and k^2, on the pair given
    big = ("lin", lin) if abs(lin) > 2**63 - 1 else ("quad", quad)
    with pytest.raises(IntegerOverflowError, match="^%s = %d exceeds the 64-bit guard$" % big):
        multiplicity_enumeration((lin, quad), SQRT2)


def test_pair_on_the_64_bit_edge_has_its_preimage():
    line = multiplicity_enumeration((2**63 - 1, 1), SQRT2)
    assert line.contributors == ((-1, 2**62 - 1), (1, 2**62 - 1))


def test_spectrum_line_invariants():
    # a line is its value, contributors and key; the multiplicity is derived
    assert [f.name for f in dataclasses.fields(SpectrumLine)] == ["value", "contributors", "key"]
    assert SpectrumLine(value=1.0, contributors=((-1, 0), (1, 0)), key=1).multiplicity == 2
    with pytest.raises(InvariantViolation):
        SpectrumLine(value=1.0, contributors=((1, 0),))
    with pytest.raises(InvariantViolation):
        SpectrumLine(value=1.0, contributors=((1, 0), (2, 0)))


# --- multiplicity -----------------------------------------------------------

def test_multiplicity_factorization_examples():
    assert multiplicity_factorization(1) == 2
    assert multiplicity_factorization(3) == 4
    assert multiplicity_factorization(45) == 12
    with pytest.raises(PreconditionError):
        multiplicity_factorization(0)


def test_multiplicity_factorization_matches_enumeration():
    table = enumeration_multiplicities(2000)
    for value in range(1, 2001):
        assert multiplicity_factorization(value) == table[value], value


def test_multiplicity_enumeration_examples():
    line = multiplicity_enumeration(6, S1)
    assert line.multiplicity == 4
    assert set(line.contributors) == {(1, 2), (-1, 2), (2, 0), (-2, 0)}

    pair = multiplicity_enumeration((1, 1), SQRT2)
    assert pair.multiplicity == 2
    assert set(pair.contributors) == {(1, 0), (-1, 0)}

    two = multiplicity_enumeration(2, S0)
    assert two.multiplicity == 2
    assert set(two.contributors) == {(2, 0), (-2, 0)}


def test_multiplicity_enumeration_rational_shift():
    # s2 = 1/2: E = (2n+1)k + k^2/2 hits 5/2 hmm: k=1,n=1 -> 3.5; k=2,n=0 -> 4
    line = multiplicity_enumeration(Fraction(7, 2), ExactScalar.from_rational(1, 2))
    assert set(line.contributors) == {(1, 1), (-1, 1)}
    line4 = multiplicity_enumeration(4, ExactScalar.from_rational(1, 2))
    assert set(line4.contributors) == {(2, 0), (-2, 0)}


def test_unbounded_multiplicity_witness():
    # odd primorials 3, 3*5, 3*5*7, 3*5*7*11
    witnesses = [3, 15, 105, 1155]
    expected = [4, 8, 16, 32]
    got_formula = [multiplicity_factorization(e) for e in witnesses]
    got_enum = [multiplicity_enumeration(e, S0).multiplicity for e in witnesses]
    assert got_formula == expected
    assert got_enum == expected
    assert all(b > a for a, b in zip(got_formula, got_formula[1:]))


def test_irrational_rigidity_small_range():
    for k, n in enumerate_exact_pairs(SQRT2, 60.0).tolist():
        value, key = _level(k, n, SQRT2)
        line = multiplicity_enumeration(key, SQRT2)
        assert line.multiplicity == 2
        assert line.contributors == ((-k, n), (k, n)) and line.value == value


def test_evenness_property():
    rng = np.random.default_rng(3)
    for value in rng.integers(1, 500, size=40):
        assert multiplicity_enumeration(int(value), S0).multiplicity % 2 == 0
        assert multiplicity_enumeration(int(value), S1).multiplicity % 2 == 0


# --- counting ---------------------------------------------------------------

def test_counting_examples():
    assert counting_function(1, S0) == 2
    # frozen from the brute enumeration oracle
    assert counting_function(10, S0) == 34
    assert counting_function(10, S0) == brute_count(10)
    assert counting_function(6, S1) == brute_count(6, 1)


def test_counting_matches_brute_enumeration():
    for e in range(1, 121):
        assert counting_function(e, S0) == brute_count(e), e
        assert counting_function(e, S1) == brute_count(e, 1), e
    # non-integer rational caps
    for num in (21, 35, 99):
        assert counting_function(Fraction(num, 2), S0) == _brute_count_frac(num, 2, 0)


def _brute_count_frac(e_num: int, e_den: int, s2: int) -> int:
    total = 0
    k = 1
    while (k + k * k * s2) * e_den <= e_num:
        n = 0
        while ((2 * n + 1) * k + k * k * s2) * e_den <= e_num:
            n += 1
        total += n
        k += 1
    return 2 * total


def test_counting_matches_assembled_multiplicity():
    for s2 in (S0, S1):
        for e in range(1, 61):
            total = sum(multiplicity_enumeration(v, s2).multiplicity
                        for v in range(1, e + 1))
            assert counting_function(e, s2) == total


def test_counting_irrational_tag():
    # for irrational s2 the count is evaluated through the approximation
    got = counting_function(30.0, SQRT2)
    brute = 0
    s2 = math.sqrt(2.0)
    k = 1
    while k + k * k * s2 <= 30.0:
        n = 0
        while (2 * n + 1) * k + k * k * s2 <= 30.0:
            n += 1
        brute += 2 * n
        k += 1
    assert got == brute


# --- Weyl residuals ---------------------------------------------------------

def _assemble(s2, e_max):
    return assemble(Potential("cylinder", 1.0, ExactFamilyProfile(s2=s2)), e_max, mode="exact")


# the levels (2n+1)|k| - k^2/10 fall without bound, so no cap, small or large,
# holds finitely many
@pytest.mark.parametrize("call", [
    lambda s2: counting_function(5, s2),
    lambda s2: enumerate_exact_pairs(s2, 5),
    lambda s2: weyl_residual([5], s2),
    lambda s2: multiplicity_enumeration(3, s2),
    lambda s2: multiplicity_enumeration(Fraction(3, 7), s2),  # off the lattice
    lambda s2: _assemble(s2, 2.0),
    lambda s2: _assemble(s2, 50.0),
], ids=["counting", "enumeration", "weyl", "multiplicity", "off-lattice", "assemble-2",
        "assemble-50"])
def test_negative_s2_is_refused_by_the_cap_table(call):
    with pytest.raises(PreconditionError, match="s2 must be >= 0"):
        call(ExactScalar.from_rational(-1, 10))


def test_weyl_residual_windows_small():
    samples = weyl_residual([10.0**3, 10.0**4], S0)
    for s in samples:
        assert 0.0 <= s.residual <= 3.0
    samples1 = weyl_residual([10.0**3, 10.0**4], S1)
    for s in samples1:
        assert abs(s.residual) <= 3.0


def test_weyl_residual_harmonic_lower_bound():
    # residual >= sum(1/k) - ln(E) >= 0 for the s2 = 0 count
    for e in range(2, 1001, 7):
        n_e = counting_function(e, S0)
        residual = (n_e - e * math.log(e)) / e
        harmonic = float(np.sum(1.0 / np.arange(1, e + 1))) - math.log(e)
        assert residual >= harmonic - 1e-12
        assert harmonic >= 0.0


def test_weyl_residual_validation():
    with pytest.raises(PreconditionError):
        weyl_residual([10.0, 5.0], S0)
    with pytest.raises(PreconditionError):
        weyl_residual([-1.0], S0)


def test_enumerate_exact_pairs_bounds():
    pairs = enumerate_exact_pairs(S1, 6)
    assert pairs.dtype == np.int64 and pairs.shape == (4, 2)
    assert pairs.tolist() == [[1, 0], [1, 1], [1, 2], [2, 0]]
    keys = _level_keys(*pairs.T, S1)
    assert keys.tolist() == [2, 4, 6, 6]
    assert _key_values(keys, S1).tolist() == [2.0, 4.0, 6.0, 6.0]
