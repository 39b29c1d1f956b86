"""Complete solver for a*sin(x) + b*cos(x) = c over the reals.

The substitution t = tan(x/2) (which excludes x = pi + 2*k*pi, handled as
its own family) turns the equation into

    (b + c) t^2 - 2 a t + (c - b) = 0,

so the solution set is classified by the sign of the discriminant
D = 4 (a^2 + b^2 - c^2) once the degenerate b + c = 0 branch is split off:

* b + c = 0, a = b = c = 0      -> every real x
* b + c = 0, a = 0, b != 0      -> the odd-pi family x = pi + 2*k*pi
* b + c = 0, a != 0             -> odd-pi plus tan(x/2) = -b/a
* b + c != 0, D < 0             -> no solutions
* b + c != 0, D = 0             -> one family, tan(x/2) = a/(b+c)
* b + c != 0, D > 0             -> two families, tan(x/2) = (a ± sqrt(D)/2)/(b+c)

Rational and float coefficients share one case analysis (``classify``),
run on the coefficients divided by a power of two so that no square leaves
the float range: rational coefficients classify exactly, float ones with
the fixed tolerance ``FLOAT_ZERO_TOL``, scaled, for the zero tests.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .exactnum import K_ABS_MAX, K_PERIODS_MAX, DomainError, fraction_sqrt

__all__ = [
    "BaseAngle",
    "EquationCoeffs",
    "FLOAT_ZERO_TOL",
    "FamilyTag",
    "HalfAngleQuadratic",
    "SolutionKind",
    "SolutionSet",
    "classify",
    "enumerate_solutions",
    "half_angle_quadratic",
    "residual",
]

Number = Fraction | float

# adjacent enumerated solutions closer than this merge into one
_MERGE_TOL = 1e-12

# relative tolerance of the zero tests on float coefficients
FLOAT_ZERO_TOL = 1e-12


def _coerce(value: Number | int, name: str) -> Number:
    if isinstance(value, bool):
        raise DomainError(f"{name} must be a number, got a bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise DomainError(f"{name} must be a Fraction, int, or float, got {type(value).__name__}")


class _EquationFields(NamedTuple):
    alpha: Number
    beta: Number
    gamma: Number


class EquationCoeffs(_EquationFields):
    """Coefficients of a*sin(x) + b*cos(x) = c; ints promote to Fractions."""

    __slots__ = ()

    def __new__(
        cls, alpha: Number | int, beta: Number | int, gamma: Number | int
    ) -> EquationCoeffs:
        coerced = (_coerce(alpha, "alpha"), _coerce(beta, "beta"), _coerce(gamma, "gamma"))
        return tuple.__new__(cls, coerced)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in (self.alpha, self.beta, self.gamma))


class HalfAngleQuadratic(NamedTuple):
    """The quadratic in t = tan(x/2): c2*t^2 + c1*t + c0 = 0."""

    c2: Number
    c1: Number
    c0: Number
    discriminant: Number


def half_angle_quadratic(coeffs: EquationCoeffs) -> HalfAngleQuadratic:
    """Coefficients (b+c, -2a, c-b) and discriminant 4(a^2 + b^2 - c^2)."""
    a, b, c = coeffs.alpha, coeffs.beta, coeffs.gamma
    try:
        discriminant = 4 * (a * a + b * b - c * c)
    except OverflowError:  # an exact square past the float range meets a float one
        raise DomainError(
            "the half-angle quadratic's discriminant mixes a float with an exact square "
            "past the float range"
        ) from None
    return HalfAngleQuadratic(b + c, -2 * a, c - b, discriminant)


class SolutionKind(Enum):
    ALL_REALS = "all-reals"
    EMPTY = "empty"
    FAMILIES = "families"


class FamilyTag(Enum):
    ODD_PI = "odd-pi"          # x = pi + 2*k*pi, where tan(x/2) is undefined
    DOUBLE_ANGLE = "double-angle"  # x = 2*atan(t) + 2*k*pi for a root t


class BaseAngle(NamedTuple):
    """One family of solutions {base + 2*k*pi : k integer}.

    ``base`` lies in (-pi, pi]. ``tan_half`` is tan(base/2): an exact
    Fraction when the classification stayed rational, a float otherwise,
    and None for the odd-pi family (undefined there). ``exact`` records
    whether the family was derived without floating arithmetic.
    """

    base: float
    tan_half: Fraction | float | None
    tag: FamilyTag
    exact: bool


class SolutionSet(NamedTuple):
    kind: SolutionKind
    families: tuple[BaseAngle, ...] = ()


_ODD_PI = BaseAngle(math.pi, None, FamilyTag.ODD_PI, True)


def _double_angle(tan_half: Fraction | float) -> BaseAngle:
    if abs(tan_half) <= sys.float_info.max:
        base = 2.0 * math.atan(float(tan_half))
    else:  # an exact tangent past the float range: base is +-pi - 2*atan(1/t)
        base = (math.pi if tan_half > 0 else -math.pi) - 2.0 * math.atan(float(1 / tan_half))
    if base == -math.pi:  # a tangent below about -1e16 rounds to -pi; base is in (-pi, pi]
        base = math.pi
    return BaseAngle(base, tan_half, FamilyTag.DOUBLE_ANGLE, isinstance(tan_half, Fraction))


def classify(coeffs: EquationCoeffs) -> SolutionSet:
    """Classify the full solution set of a*sin(x) + b*cos(x) = c.

    The coefficients are first divided by a power of two 2^k, which changes
    no zero test, sign or root and keeps every square in the float range.
    Rational coefficients take k of either sign, so max|coef| lies in
    (1/2, 2), and exact zero tests. Float coefficients take the least
    k >= 0 that brings max|coef| below 2^511, where a sum of two squares is
    still finite; their b+c, a, b and discriminant zero tests compare with
    ``FLOAT_ZERO_TOL`` times the magnitudes involved, floored at 1.0 before
    the division.
    """
    exact = coeffs.is_exact
    a, b, c = coeffs.alpha, coeffs.beta, coeffs.gamma
    if exact:
        tol = 0  # is_zero(v, ...) is then v == 0
        top = max(abs(a), abs(b), abs(c))
        k = top.numerator.bit_length() - top.denominator.bit_length()
        unit = Fraction(2) ** -k
    else:
        tol = FLOAT_ZERO_TOL
        a, b, c = float(a), float(b), float(c)
        k = max(0, math.frexp(max(abs(a), abs(b), abs(c)))[1] - 511)
        unit = math.ldexp(1.0, -k)
    a, b, c = a * unit, b * unit, c * unit

    def is_zero(value: Number, *magnitudes: Number) -> bool:
        return abs(value) <= tol * max(magnitudes)

    b_plus_c = b + c
    if is_zero(b_plus_c, abs(b), abs(c), unit):
        scale = max(abs(a), abs(b), abs(c), unit)
        if is_zero(a, scale) and is_zero(b, scale):
            return SolutionSet(SolutionKind.ALL_REALS)
        if is_zero(a, scale):
            return SolutionSet(SolutionKind.FAMILIES, (_ODD_PI,))
        return SolutionSet(SolutionKind.FAMILIES, (_ODD_PI, _double_angle(-b / a)))
    aa, bb, cc = a * a, b * b, c * c
    quarter_disc = aa + bb - cc
    if is_zero(quarter_disc, aa, bb, cc, unit * unit):
        return SolutionSet(SolutionKind.FAMILIES, (_double_angle(a / b_plus_c),))
    if quarter_disc < 0:
        return SolutionSet(SolutionKind.EMPTY)
    root = fraction_sqrt(quarter_disc) if exact else None
    if root is None:  # float input, or an irrational root: the roots are floats
        a, b_plus_c, root = float(a), float(b_plus_c), math.sqrt(float(quarter_disc))
        if b_plus_c == 0:  # only exact b + c can be this far below max|coef|
            raise DomainError("b + c is too small beside a, b, c for a float root of tan(x/2)")
    # (a +- root)/(b+c) in float cancels on the side opposite the sign of a;
    # that root is Vieta's (c-b)/far: the two roots multiply to (c-b)/(b+c)
    far = a + root if a >= 0 else a - root
    near = (c - b) / far
    plus, minus = (far / b_plus_c, near) if a >= 0 else (near, far / b_plus_c)
    return SolutionSet(SolutionKind.FAMILIES, (_double_angle(plus), _double_angle(minus)))


def enumerate_solutions(solutions: SolutionSet, k_min: int, k_max: int) -> list[float]:
    """Concrete solutions base + 2*k*pi for k in [k_min, k_max], sorted.

    Near-duplicates (within 1e-12) merge. An empty set enumerates to an
    empty list; the all-reals set is uncountable and refused, and so is a
    range past |k| = K_ABS_MAX or wider than K_PERIODS_MAX periods.
    """
    if k_min > k_max:
        raise DomainError(f"empty k range: k_min={k_min} > k_max={k_max}")
    if max(-k_min, k_max) > K_ABS_MAX:
        raise DomainError(f"the k range reaches past |k| = {K_ABS_MAX}")
    if k_max - k_min >= K_PERIODS_MAX:
        raise DomainError(f"the k range spans more than {K_PERIODS_MAX} periods")
    if solutions.kind is SolutionKind.ALL_REALS:
        raise DomainError("every real x is a solution; enumeration is uncountable")
    if solutions.kind is SolutionKind.EMPTY:
        return []
    xs = sorted(
        2.0 * math.pi * k + family.base
        for family in solutions.families
        for k in range(k_min, k_max + 1)
    )
    merged: list[float] = []
    for x in xs:
        if merged and abs(x - merged[-1]) <= _MERGE_TOL:
            continue
        merged.append(x)
    return merged


def residual(coeffs: EquationCoeffs, x: float) -> float:
    """Float defect a*sin(x) + b*cos(x) - c at a candidate solution x."""
    a, b, c = (float(v) for v in (coeffs.alpha, coeffs.beta, coeffs.gamma))
    return a * math.sin(x) + b * math.cos(x) - c
