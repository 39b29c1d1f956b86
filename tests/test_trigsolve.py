"""Half-angle classification of a sin x + b cos x = c: every branch, the
enumeration contract, and residual bounds on random exact inputs."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from heronquad.exactnum import DomainError
from heronquad.trigsolve import (
    FLOAT_ZERO_TOL,
    BaseAngle,
    EquationCoeffs,
    FamilyTag,
    SolutionKind,
    classify,
    enumerate_solutions,
    half_angle_quadratic,
    residual,
)


def exact(a, b, c) -> EquationCoeffs:
    return EquationCoeffs(Fraction(a), Fraction(b), Fraction(c))


class TestCoeffs:
    def test_exactness_flag(self):
        assert exact(3, 4, 5).is_exact
        assert not EquationCoeffs(3.0, Fraction(4), Fraction(5)).is_exact

    def test_int_coerces_to_fraction(self):
        coeffs = EquationCoeffs(3, 4, 5)
        assert coeffs.is_exact
        assert isinstance(coeffs.alpha, Fraction)

    def test_bool_rejected(self):
        with pytest.raises(DomainError):
            EquationCoeffs(True, 1, 1)


class TestHalfAngleQuadratic:
    def test_pythagorean_coefficients(self):
        quad = half_angle_quadratic(exact(3, 4, 5))
        assert (quad.c2, quad.c1, quad.c0) == (9, -6, 1)
        assert quad.discriminant == 0

    def test_discriminant_form(self):
        quad = half_angle_quadratic(exact(2, 3, 1))
        assert quad.discriminant == 4 * (4 + 9 - 1)


class TestBranches:
    def test_all_reals(self):
        assert classify(exact(0, 0, 0)).kind is SolutionKind.ALL_REALS

    def test_odd_pi_only(self):
        s = classify(exact(0, 1, -1))
        assert s.kind is SolutionKind.FAMILIES
        assert [f.tag for f in s.families] == [FamilyTag.ODD_PI]
        assert s.families[0].tan_half is None
        assert s.families[0].base == math.pi

    def test_odd_pi_plus_double_angle(self):
        s = classify(exact(1, 1, -1))
        assert [f.tag for f in s.families] == [FamilyTag.ODD_PI, FamilyTag.DOUBLE_ANGLE]
        assert s.families[1].tan_half == Fraction(-1)
        # the second family solves the equation away from the odd-pi points
        x = s.families[1].base
        assert abs(residual(exact(1, 1, -1), x)) < 1e-12

    def test_empty(self):
        s = classify(exact(1, 2, 5))
        assert s.kind is SolutionKind.EMPTY
        assert s.families == ()

    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            (exact(7, 24, 20), (Fraction(1, 2), Fraction(-2, 11))),
            (exact(-7, 24, 20), (Fraction(2, 11), Fraction(-1, 2))),
            (EquationCoeffs(1.0, 3.0, 2.0), ((1 + math.sqrt(6)) / 5, (1 - math.sqrt(6)) / 5)),
            (EquationCoeffs(-1.0, 3.0, 2.0), ((-1 + math.sqrt(6)) / 5, (-1 - math.sqrt(6)) / 5)),
        ],
        ids=["exact-positive-a", "exact-negative-a", "float-positive-a", "float-negative-a"],
    )
    def test_two_roots_in_plus_minus_order(self, coeffs, roots):
        # (a + root)/(b + c) first, then (a - root)/(b + c), for either sign of a
        got = [f.tan_half for f in classify(coeffs).families]
        assert got == pytest.approx(roots, rel=1e-15)

    def test_tangency_single_family(self):
        s = classify(exact(3, 4, 5))
        assert [f.tag for f in s.families] == [FamilyTag.DOUBLE_ANGLE]
        fam = s.families[0]
        assert fam.exact and fam.tan_half == Fraction(1, 3)
        assert math.isclose(fam.base, 2 * math.atan(1 / 3))

    def test_two_families_rational_roots(self):
        # 7^2 + 24^2 - 20^2 = 225 = 15^2: both roots stay rational
        s = classify(exact(7, 24, 20))
        assert len(s.families) == 2
        tans = [f.tan_half for f in s.families]
        assert tans == [Fraction(7 + 15, 44), Fraction(7 - 15, 44)]
        assert all(f.exact for f in s.families)

    def test_two_families_takes_plus_root_first(self):
        s = classify(exact(2, 1, 1))
        first, second = (f.tan_half for f in s.families)
        assert first > second

    def test_two_families_irrational_roots(self):
        # 1 + 9 - 4 = 6 is not a perfect square, so tan(x/2) = (1 +- sqrt 6)/5
        s = classify(exact(1, 3, 2))
        assert len(s.families) == 2
        for fam in s.families:
            assert not fam.exact
            assert isinstance(fam.tan_half, float)
            assert abs(residual(exact(1, 3, 2), fam.base)) < 1e-12


class TestFloatPath:
    def test_float_coefficients_classify(self):
        s = classify(EquationCoeffs(3.0, 4.0, 5.0))
        assert s.kind is SolutionKind.FAMILIES
        assert len(s.families) == 1  # discriminant zero within tolerance
        assert not s.families[0].exact

    def test_near_degenerate_beta_gamma(self):
        s = classify(EquationCoeffs(1.0, 1.0, -1.0 + 1e-15))
        assert [f.tag for f in s.families] == [
            FamilyTag.ODD_PI,
            FamilyTag.DOUBLE_ANGLE,
        ]

    def test_zero_tol_scales_with_magnitude(self):
        # same geometry at 1e8 scale: still recognized as the tangent case
        s = classify(EquationCoeffs(3e8, 4e8, 5e8))
        assert len(s.families) == 1

    def test_empty_float(self):
        assert classify(EquationCoeffs(1.0, 2.0, 5.0)).kind is SolutionKind.EMPTY


class TestEnumerate:
    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            enumerate_solutions(classify(exact(3, 4, 5)), 2, 1)

    def test_all_reals_refused(self):
        with pytest.raises(DomainError):
            enumerate_solutions(classify(exact(0, 0, 0)), 0, 0)

    def test_empty_set_enumerates_to_nothing(self):
        assert enumerate_solutions(classify(exact(1, 2, 5)), -3, 3) == []

    def test_sorted_and_period_structure(self):
        xs = enumerate_solutions(classify(exact(2, 1, 1)), -2, 2)
        assert xs == sorted(xs)
        assert len(xs) == 10  # two families, five periods, no collisions
        for x in xs:
            assert abs(residual(exact(2, 1, 1), x)) < 1e-9

    def test_duplicate_merge(self):
        # both families land on the same base angle: x = pi (tan undefined)
        # and x = pi from the double angle of tan(x/2) -> infinity cannot
        # collide, so build a collision explicitly instead
        fam = classify(exact(3, 4, 5)).families[0]
        twin = BaseAngle(fam.base, fam.tan_half, fam.tag, fam.exact)
        from heronquad.trigsolve import SolutionSet

        xs = enumerate_solutions(
            SolutionSet(SolutionKind.FAMILIES, (fam, twin)), 0, 1
        )
        assert len(xs) == 2

    def test_empty_case_residual_floor(self):
        # for (1, 2, 5) the defect |a sin + b cos - c| never drops below
        # 5 - sqrt(5) anywhere on the reals
        coeffs = exact(1, 2, 5)
        floor = 5 - math.sqrt(5)
        for i in range(0, 2000):
            x = -math.pi + i * (2 * math.pi / 2000)
            assert abs(residual(coeffs, x)) > floor - 1e-9


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_every_enumerated_solution_satisfies_equation(a, b, c):
    coeffs = exact(a, b, c)
    solutions = classify(coeffs)
    if solutions.kind is SolutionKind.ALL_REALS:
        return
    for x in enumerate_solutions(solutions, -1, 1):
        assert abs(residual(coeffs, x)) < 1e-9


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_exact_and_float_paths_agree(a, b, c):
    exact_set = classify(exact(a, b, c))
    float_set = classify(EquationCoeffs(float(a), float(b), float(c)))
    assert exact_set.kind == float_set.kind
    assert len(exact_set.families) == len(float_set.families)
    for fe, ff in zip(exact_set.families, float_set.families):
        assert fe.tag == ff.tag
        assert math.isclose(fe.base, ff.base, rel_tol=0, abs_tol=1e-9)


class TestMagnitude:
    def test_float_overflowing_squares_classify(self):
        # a*a and c*c overflow a float here; the verdict is still empty
        s = classify(EquationCoeffs(-3.78e279, 9.9e278, 5.91e279))
        assert s.kind is SolutionKind.EMPTY

    def test_huge_exact_irrational_roots(self):
        big = 10**200
        s = classify(exact(big, big, 1))
        assert [f.tag for f in s.families] == [FamilyTag.DOUBLE_ANGLE] * 2
        assert s.families[0].tan_half == pytest.approx(1 + math.sqrt(2))
        assert s.families[1].tan_half == pytest.approx(1 - math.sqrt(2))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_tangent_past_float_range(self, sign):
        # b + c = 0, tan(x/2) = -b/a = sign * 10^598: the base angle is pi
        # for either sign, since base lies in (-pi, pi]
        big = 10**299
        s = classify(exact(Fraction(-sign, big), big, -big))
        odd_pi, family = s.families
        assert odd_pi.tag is FamilyTag.ODD_PI
        assert family.tan_half == sign * big * big
        assert family.base == math.pi

    def test_tiny_exact_coefficients_keep_their_roots(self):
        tiny = Fraction(1, 10**200)
        assert classify(exact(15 * tiny, 23 * tiny, 18 * tiny)) == classify(exact(15, 23, 18))


_small_fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


@given(
    _small_fractions,
    _small_fractions,
    _small_fractions,
    st.integers(min_value=-1000, max_value=1000),
)
def test_exact_classification_is_invariant_under_powers_of_two(a, b, c, j):
    scale = Fraction(2) ** j
    assert classify(exact(a * scale, b * scale, c * scale)) == classify(exact(a, b, c))


# magnitudes from 10^-350 to 10^350, so tan(x/2) often lies past the float range
_wide_fractions = st.builds(
    lambda num, den, e: Fraction(num, den) * Fraction(10) ** e,
    st.integers(-1000, 1000),
    st.integers(1, 1000),
    st.integers(-350, 350),
)


@given(_wide_fractions, _wide_fractions, _wide_fractions, st.booleans())
@example(Fraction(1, 10**20), Fraction(10**20), Fraction(0), True)
@example(Fraction(1, 10**299), Fraction(10**299), Fraction(0), True)
def test_base_angle_lies_in_half_open_interval(a, b, c, odd_pi):
    if odd_pi:  # b + c = 0: tan(x/2) = -b/a
        c = -b
    try:
        s = classify(exact(a, b, c))
    except DomainError:  # an irrational root whose float b + c vanished
        return
    for family in s.families:
        assert -math.pi < family.base <= math.pi


# float coefficients from 10^-10 to 10^303; the second kind has c = -b(1 + eps),
# so b + c is small beside a and (a -+ root)/(b + c) used to cancel
_wide_float = st.builds(lambda m, e: m * 10.0**e, st.floats(-1, 1), st.floats(-10, 303))
_float_coeffs = st.tuples(_wide_float, _wide_float, _wide_float) | st.builds(
    lambda a, b, e: (a, b, -b * (1 + 10.0**e)), _wide_float, _wide_float, st.floats(-16, -2)
)


@given(_float_coeffs)
@example((9.061408820618398, 0.0018544031648170143, -0.0018544031610538))
def test_float_roots_have_small_residuals(coeffs):
    top = max(map(abs, coeffs))
    assume(top >= 1)
    # near a double root the roots themselves are ill-conditioned: left out
    a, b, c = map(Fraction, coeffs)
    assume(abs(a * a + b * b - c * c) > Fraction(1, 10**9) * Fraction(top) ** 2)
    equation = EquationCoeffs(*coeffs)
    for family in classify(equation).families:
        if family.tag is FamilyTag.DOUBLE_ANGLE:
            assert abs(residual(equation, family.base)) <= FLOAT_ZERO_TOL * top
