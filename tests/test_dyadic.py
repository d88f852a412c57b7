"""Exact dyadic arithmetic and the extended line."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from limsupgames.dyadic import (NEG_INF, POS_INF, Dyadic, ExtValue, as_dyadic,
                                crowd_depth, half_pow)
from limsupgames.strategies import eventually_zero_instance

dyadics = st.builds(Dyadic, st.integers(-4000, 4000), st.integers(0, 10))


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def test_normalization():
    assert Dyadic(2, 1) == Dyadic(1, 0)
    assert Dyadic(-8, 3) == Dyadic(-1, 0)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    d = Dyadic(6, 4)
    assert d.num == 3 and d.exp == 3


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@given(dyadics)
def test_parse_str_round_trip(d):
    assert Dyadic.parse(str(d)) == d


@pytest.mark.parametrize("text", ["\u0661", "1/2^\u0662", "+1", "1_0", "1\n2"])
def test_parse_accepts_ascii_digits_only(text):
    with pytest.raises(ValueError):
        Dyadic.parse(text)


@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    assert frac(a + b) == frac(a) + frac(b)
    assert frac(a - b) == frac(a) - frac(b)
    assert frac(a * b) == frac(a) * frac(b)
    assert frac(-a) == -frac(a)
    assert (a < b) == (frac(a) < frac(b))
    assert (a == b) == (frac(a) == frac(b))


@given(dyadics, st.integers(0, 8))
def test_ceil_to_grid_properties(d, n):
    g = d.ceil_to_grid(n)
    assert g.exp <= n
    assert d <= g
    assert g - d < half_pow(n)


def test_ceil_to_grid_examples():
    assert Dyadic(3, 2).ceil_to_grid(1) == Dyadic(1, 0)
    assert Dyadic(3, 2).ceil_to_grid(2) == Dyadic(3, 2)
    assert Dyadic(-3, 2).ceil_to_grid(1) == Dyadic(-1, 1)
    assert Dyadic(5, 0).ceil_to_grid(3) == Dyadic(5, 0)


def test_half_pow():
    assert half_pow(0) == Dyadic(1)
    assert half_pow(3) == Dyadic(1, 3)
    assert half_pow(3) + half_pow(3) == half_pow(2)


def test_as_dyadic_coercions():
    assert as_dyadic(5) == Dyadic(5)
    assert as_dyadic(Dyadic(1, 1)) == Dyadic(1, 1)
    with pytest.raises(TypeError):
        as_dyadic(0.5)


@pytest.mark.parametrize("bad", [True, False])
def test_bools_are_not_dyadics(bad):
    # True would print as True/2^0, which parse cannot read back
    with pytest.raises(TypeError):
        as_dyadic(bad)
    with pytest.raises(TypeError):
        Dyadic(bad)
    with pytest.raises(TypeError):
        Dyadic(1, bad)
    assert Dyadic(int(bad)) != bad


def normal(d: Dyadic) -> bool:
    return d.exp >= 0 and (d.exp == 0 or d.num % 2 == 1)


@given(dyadics, dyadics)
def test_comparisons_match_fractions(a, b):
    fa, fb = frac(a), frac(b)
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == \
        (fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb, fa != fb)


@given(dyadics, st.integers(-5000, 5000))
def test_comparisons_with_an_int_on_either_side(a, n):
    fa = frac(a)
    assert (a < n, a <= n, a > n, a >= n, a == n) == \
        (fa < n, fa <= n, fa > n, fa >= n, fa == n)
    assert (n < a, n <= a, n > a, n >= a, n == a) == \
        (n < fa, n <= fa, n > fa, n >= fa, n == fa)


@given(st.integers(-4000, 4000), st.integers(0, 10), st.integers(0, 6))
def test_equal_values_hash_alike(num, exp, k):
    # the same value written with k extra factors of two
    a, b = Dyadic(num, exp), Dyadic(num << k, exp + k)
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.exp) == (b.num, b.exp)
    # a finite ExtValue equals its Dyadic, and an integral one its int, so
    # each works as a key for the others
    keys = [ExtValue.finite(b)] + ([a.num] if a.exp == 0 else [])
    for key in keys:
        assert {a: 0}.get(key) == 0 and {key: 0}.get(b) == 0
        assert hash(key) == hash(a)


@given(dyadics, dyadics)
def test_arithmetic_results_are_normal(a, b):
    for d in (a + b, a - b, a * b, -a, abs(a), a + 3, a - 3, a * 4):
        assert normal(d), d


@given(st.integers(-4000, 4000), st.integers(0, 10))
def test_construction_normalizes(num, exp):
    d = Dyadic(num, exp)
    assert normal(d)
    assert frac(d) == Fraction(num, 1 << exp)


@given(st.lists(dyadics, min_size=1, max_size=8))
def test_max_min_sorted_match_fractions(values):
    fracs = [frac(v) for v in values]
    assert frac(max(values)) == max(fracs)
    assert frac(min(values)) == min(fracs)
    assert [frac(v) for v in sorted(values)] == sorted(fracs)
    assert [frac(v) for v in sorted(values, reverse=True)] == \
        sorted(fracs, reverse=True)


def test_order_against_other_types_is_refused():
    with pytest.raises(TypeError):
        Dyadic(1) < 0.5
    with pytest.raises(TypeError):
        Dyadic(1) <= "1"
    assert Dyadic(1) != "1/2^0"
    assert ExtValue.finite(Dyadic(1)) > Dyadic(1, 1)


def test_extended_line_ordering():
    mid = ExtValue.finite(Dyadic(1, 1))
    assert NEG_INF < mid < POS_INF
    assert max([NEG_INF, mid]) == mid
    assert min([mid, POS_INF]) == mid
    assert max([NEG_INF, POS_INF]) == POS_INF
    with pytest.raises(ValueError):
        NEG_INF.require_finite()
    assert mid.require_finite() == Dyadic(1, 1)


@given(st.lists(dyadics, min_size=1, max_size=6))
def test_ext_extremes_agree_with_finite(values):
    exts = [ExtValue.finite(v) for v in values]
    assert max(exts).require_finite() == max(values)
    assert min(exts).require_finite() == min(values)


def _near(r: Dyadic):
    """Values within 2^-k of r, k up to 64, on grids up to 64 bits finer."""
    def build(k, finer, z):
        return r - Dyadic(z % ((2 << finer) + 1) - (1 << finer), k + finer)
    return st.builds(build, st.integers(0, 64), st.integers(0, 64),
                     st.integers(0, 1 << 66))


R = eventually_zero_instance().r
crowding_values = st.one_of(
    st.builds(Dyadic, st.integers(-(1 << 70), -1), st.integers(0, 70)),
    st.builds(lambda d: R + d, st.builds(Dyadic, st.integers(0, 1 << 70),
                                         st.integers(0, 70))),
    _near(R))


@given(crowding_values, st.integers(0, 300))
def test_crowd_depth_matches_the_dyadic_threshold(v, m):
    # the attacker's test r - 2^-m < v, as one integer comparison
    assert (m <= crowd_depth(R, v)) == (R - half_pow(m) < v)


@given(dyadics, dyadics, st.integers(0, 40))
def test_crowd_depth_at_any_target(r, v, m):
    assert (m <= crowd_depth(r, v)) == (r - half_pow(m) < v)


def test_crowd_depth_at_the_boundaries():
    # v = r - 2^-k crowds r exactly at the depths m < k
    for k in range(70):
        for r in (R, Dyadic(-5, 3)):
            assert crowd_depth(r, r - half_pow(k)) == k - 1
            assert crowd_depth(r, r - half_pow(k) + half_pow(k + 1)) == k
            assert crowd_depth(r, r - half_pow(k + 2) * 3) == k
    assert crowd_depth(R, R) == crowd_depth(R, R + 1) == float("inf")
