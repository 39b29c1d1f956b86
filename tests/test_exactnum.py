"""Exact-arithmetic substrate: integer square roots, squarefree splits,
surd algebra, and the Pythagorean parametrization round trip."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heronquad.exactnum import (
    DomainError,
    LegForm,
    Surd,
    check_generator_pair,
    classify_triple,
    common_denominator,
    euclid_triple,
    exact_sqrt,
    fraction_sqrt,
    scaled_floats,
    sqrt_approx,
    squarefree_decompose,
    surd_sqrt_ints,
)
from heronquad.geometry import construct_quad


class TestScaledFloats:
    @given(st.fractions(min_value=-(10**150), max_value=10**150, max_denominator=10**150))
    def test_zero_inside_the_float_range(self, value):
        assert scaled_floats(value) == (0, [float(value)])

    @given(
        st.integers(min_value=1, max_value=10**200), st.integers(min_value=-3000, max_value=3000)
    )
    def test_scaled_value_is_a_float(self, coef, shift):
        for value in (coef * Fraction(2) ** shift, Fraction(-coef, 3) * Fraction(2) ** shift):
            s, (scaled,) = scaled_floats(value)
            assert scaled == float(value / Fraction(2) ** s) and scaled != 0
            assert math.isfinite(scaled)
            assert s == 0 or not 2**-500 <= abs(value) < 2**500

    @pytest.mark.parametrize(
        "value, shift",
        [
            (Fraction(2**500), 0),
            (Fraction(2**501), 501),
            (Fraction(1, 2**500), 0),
            (Fraction(1, 2**501), -501),
        ],
    )
    def test_shifts_only_past_500_bits(self, value, shift):
        assert scaled_floats(value) == (shift, [float(value / Fraction(2) ** shift)])

    @pytest.mark.parametrize(
        "value, shift",
        [
            (Fraction(2**501 - 1), 0),
            (Fraction(-(2**501) + 1, 3), 0),
            (Fraction(2**502 - 1), 501),
            (Fraction(3, 2**501), 0),
            (Fraction(1, 2**501 - 1), 0),
            (Fraction(-1, 2**502 - 1), -501),
        ],
    )
    def test_the_500_bit_edges(self, value, shift):
        # s is the difference of bit lengths: 2^501 - 1 reads 500, 2^502 - 1 reads 501
        assert scaled_floats(value) == (shift, [float(value / Fraction(2) ** shift)])

    @given(
        st.integers(min_value=1, max_value=10**200),
        st.integers(min_value=1, max_value=10**200),
        st.integers(min_value=-3000, max_value=3000),
    )
    def test_product_of_the_two_largest_is_finite_and_nonzero(self, p, q, shift):
        big, other = sorted((Fraction(p, q), Fraction(q, p)), reverse=True)
        _, (first, second) = scaled_floats(big * Fraction(2) ** shift, other * Fraction(2) ** shift)
        product = first * first
        assert math.isfinite(product) and product >= sys.float_info.min
        assert math.isfinite(first * second)

    def test_the_largest_value_sets_one_shift(self):
        tiny = Fraction(3, 2**1200)
        assert scaled_floats(tiny, 0, -tiny / 4) == (-1199, [1.5, 0.0, -0.375])


class TestCommonDenominator:
    def test_mixed_denominators(self):
        values = (Fraction(1, 6), Fraction(-3, 4), 5, Fraction(7, 10))
        assert common_denominator(values) == (60, [10, -45, 300, 42])

    def test_integers_keep_denominator_one(self):
        assert common_denominator((3, Fraction(-4), 0)) == (1, [3, -4, 0])

    @given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=6))
    def test_ints_over_d_are_the_values(self, values):
        d, ints = common_denominator(values)
        assert [Fraction(n, d) for n in ints] == values
        assert all(d % v.denominator == 0 for v in values)


class TestSqrtApprox:
    @given(
        st.fractions(min_value=0, max_value=10**300, max_denominator=10**300)
        | st.floats(min_value=0, max_value=1.7e308).map(Fraction)
    )
    def test_sqrt_approx_equals_the_float_root(self, value):
        assert sqrt_approx(value) == math.sqrt(float(value))


class TestExactSqrt:
    def test_perfect_squares(self):
        for k in range(1, 2000):
            assert exact_sqrt(k * k) == k

    def test_non_squares(self):
        for c in (2, 3, 5, 6, 7, 8, 10, 99, 10**12 + 1):
            assert exact_sqrt(c) is None

    def test_near_square_boundaries(self):
        # k^2 +- 1 is never a square for k > 1, even at magnitudes where
        # floating sqrt would round to k
        for k in (2, 10, 10**6, 10**9, 10**12):
            assert exact_sqrt(k * k) == k
            assert exact_sqrt(k * k + 1) is None
            assert exact_sqrt(k * k - 1) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            exact_sqrt(0)
        with pytest.raises(DomainError):
            exact_sqrt(-4)

    @given(st.integers(min_value=1, max_value=10**15))
    def test_agrees_with_isqrt(self, c):
        r = math.isqrt(c)
        assert exact_sqrt(c) == (r if r * r == c else None)


class TestFractionSqrt:
    def test_exact_square(self):
        assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert fraction_sqrt(Fraction(1)) == 1

    def test_non_square(self):
        assert fraction_sqrt(Fraction(2)) is None
        assert fraction_sqrt(Fraction(9, 5)) is None

    def test_zero_and_negative(self):
        # outside its domain of positive rationals: exact_sqrt refuses the numerator
        for value in (Fraction(0), Fraction(-1), Fraction(-9, 4)):
            with pytest.raises(DomainError, match="exact_sqrt needs a positive integer"):
                fraction_sqrt(value)


class TestSquarefreeDecompose:
    def test_small_cases(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(4) == (2, 1)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(18) == (3, 2)
        # a small prime with an even power hiding behind a larger cofactor
        assert squarefree_decompose(98) == (7, 2)
        assert squarefree_decompose(2 * 3**2 * 5**4) == (75, 2)

    def test_large_square(self):
        k = 123_456_789
        assert squarefree_decompose(k * k) == (k, 1)

    def test_large_prime_squared_times_squarefree(self):
        p = 1_000_003
        s, d = squarefree_decompose(p * p * 6)
        assert (s, d) == (p, 6)

    def test_trial_division_budget(self):
        # below 2^60 every integer splits, even a product of two primes near 2^30
        p, q = 1_073_741_789, 1_073_741_783
        assert squarefree_decompose(p * q) == (1, p * q)
        # the 25-digit prime hypotenuse of m = 1e12+7 would need divisors past 2^20
        m = 10**12 + 7
        with pytest.raises(DomainError, match="trial division"):
            squarefree_decompose(m * m + 4)
        assert squarefree_decompose((m * m + 4) ** 2) == (m * m + 4, 1)

    @given(st.integers(min_value=1, max_value=200_000))
    def test_reconstructs_and_d_squarefree(self, c):
        s, d = squarefree_decompose(c)
        assert s * s * d == c
        for p in range(2, 450):
            if p * p > d:
                break
            assert d % (p * p) != 0


class TestSurd:
    def test_normalization_pulls_square_factor(self):
        # sqrt(12) = 2*sqrt(3) and sqrt(8/9) = (2/3)*sqrt(2)
        assert surd_sqrt_ints(12, 1) == (2, 1, 3)
        assert surd_sqrt_ints(8, 9) == (2, 3, 2)

    def test_sqrt_of_fraction(self):
        # sqrt(9/5) = (3/5)*sqrt(5); sqrt(49/4) = 7/2 is rational: radicand 1
        assert surd_sqrt_ints(9, 5) == (3, 5, 5)
        assert surd_sqrt_ints(49, 4) == (7, 2, 1)

    @given(st.integers(min_value=1, max_value=2_000), st.integers(min_value=1, max_value=2_000))
    def test_sqrt_matches_brute_force(self, p, q):
        g = math.gcd(p, q)
        p, q = p // g, q // g
        s, tu, ru = surd_sqrt_ints(p, q)
        # (s/tu)^2 * ru == p/q, with s/tu in lowest terms and ru squarefree
        assert s * s * ru * q == p * tu * tu
        assert math.gcd(s, tu) == 1
        assert all(ru % (k * k) for k in range(2, math.isqrt(ru) + 1))

    def test_float(self):
        assert math.isclose(float(Surd(Fraction(3), 10)), 3 * math.sqrt(10))
        assert math.isclose(float(Surd(Fraction(12, 5), 10)), 12 / 5 * math.sqrt(10))

    def test_surd_eq_structural(self):
        # a construction's surds come from surd_sqrt_ints with a squarefree
        # radicand, so a value built from other ints has the same fields:
        # the hypotenuse 3*sqrt(10) of (3, 4, 5) over 2, 4 and 10
        hypotenuses = {
            construct_quad(Fraction(3, k), Fraction(4, k), Fraction(5, k)).side_gamma2_gamma1
            for k in (2, 4, 10)
        }
        assert hypotenuses == {Surd(Fraction(3, k), 10) for k in (2, 4, 10)}


class TestTripleParametrization:
    def test_generator_pair_validation_messages(self):
        with pytest.raises(DomainError, match="m > n"):
            check_generator_pair(3, 3)
        with pytest.raises(DomainError, match="gcd"):
            check_generator_pair(4, 2)
        with pytest.raises(DomainError, match="odd"):
            check_generator_pair(5, 3)
        with pytest.raises(DomainError, match="n >= 1"):
            check_generator_pair(2, 0)

    def test_primitive_example(self):
        assert euclid_triple(1, 2, 1) == (4, 3, 5)
        assert classify_triple(4, 3, 5).leg_form is LegForm.EVEN_LEG_FIRST

    def test_scaled_even_and_odd_forms(self):
        even, odd, c = euclid_triple(5, 4, 3)
        assert (even, odd, c) == (120, 35, 125)
        assert classify_triple(odd, even, c).leg_form is LegForm.ODD_LEG_FIRST

    def test_classify_worked_example(self):
        t = classify_triple(120, 35, 125)
        assert (t.delta, t.m, t.n) == (5, 4, 3)
        assert t.leg_form is LegForm.EVEN_LEG_FIRST
        u = classify_triple(35, 120, 125)
        assert (u.delta, u.m, u.n) == (5, 4, 3)
        assert u.leg_form is LegForm.ODD_LEG_FIRST

    def test_classify_rejects_non_triples(self):
        with pytest.raises(DomainError):
            classify_triple(3, 4, 6)
        with pytest.raises(DomainError):
            classify_triple(0, 4, 4)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=29),
        st.sampled_from(list(LegForm)),
    )
    def test_classify_inverts_scaled(self, delta, m, n, form):
        if not (m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1):
            return
        a, b, c = euclid_triple(delta, m, n)
        if form is LegForm.ODD_LEG_FIRST:
            a, b = b, a
        assert a * a + b * b == c * c
        back = classify_triple(a, b, c)
        assert (back.delta, back.m, back.n, back.leg_form) == (delta, m, n, form)
