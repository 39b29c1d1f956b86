"""Exact arithmetic substrate for the quadrilateral constructions.

Three layers live here:

* arbitrary-precision rationals (the stdlib ``Fraction``) plus exact
  square-root helpers,
* quadratic surds ``coefficient * sqrt(radicand)``: ``surd_sqrt_ints``
  splits sqrt(p/q) into ints with a squarefree radicand, and ``Surd`` is
  the value a construction's closed form shows,
* the Euclid parametrization of Pythagorean triples and its inverse.

Everything downstream (coordinates, lengths, areas, oracles) is built on
these so that derived quantities compare exactly, never by tolerance.
The input caps (``MEMBERS_MAX``, ``INPUT_BYTES_MAX``, ``K_ABS_MAX``,
``K_PERIODS_MAX``) live here too, so the CLI's help can name them without
loading ``family`` or ``trigsolve``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

# math.gcd already follows the convention the generators rely on: gcd(0, 0) == 0.
from math import gcd

__all__ = [
    "DomainError",
    "INPUT_BYTES_MAX",
    "K_ABS_MAX",
    "K_PERIODS_MAX",
    "LegForm",
    "MEMBERS_MAX",
    "PythTriple",
    "Surd",
    "classify_triple",
    "common_denominator",
    "euclid_triple",
    "exact_sqrt",
    "fraction_sqrt",
    "gcd",
    "scaled_floats",
    "sqrt_approx",
    "squarefree_decompose",
    "surd_sqrt_ints",
]


class DomainError(ValueError):
    """An argument violates a documented precondition."""


def exact_sqrt(c: int) -> int | None:
    """Integer square root of ``c`` when ``c`` is a perfect square, else None.

    ``None`` is an ordinary outcome, not an error; only ``c < 1`` raises.
    """
    if c < 1:
        raise DomainError(f"exact_sqrt needs a positive integer, got {c}")
    r = math.isqrt(c)
    return r if r * r == c else None


def common_denominator(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(d, [value * d for value in values]): d, the lcm of the denominators,
    writes every value as an int over d."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[den for _, den in ratios])
    return d, [num * (d // den) for num, den in ratios]


def scaled_floats(*values: Fraction | int) -> tuple[int, list[float]]:
    """``(s, [float(value / 2^s) for value in values])``, where s is the
    largest binary exponent of the nonzero values when that lies outside
    +-500, else 0.

    Dividing by a power of two is exact, so neither the largest value nor
    its square overflows or underflows, and a float computed from the
    scaled values scales back by 2^s without rounding. Where s = 0 the
    floats are ``float(value)`` themselves.
    """
    s = max([v.numerator.bit_length() - v.denominator.bit_length() for v in values if v], default=0)
    if -500 <= s <= 500:
        return 0, [float(value) for value in values]
    return s, [float(value / Fraction(2) ** s) for value in values]


def sqrt_approx(value: Fraction | int) -> float:
    """sqrt(value) as a float, also where value itself lies outside the
    float range; ``math.sqrt(float(value))`` wherever value fits in it."""
    s, (scaled,) = scaled_floats(value)
    # an odd s leaves one factor of 2 under the root; doubling a float is exact
    return math.ldexp(math.sqrt(scaled * 2 ** (s % 2)), s // 2)


def fraction_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a positive rational, or None when irrational.

    A reduced p/q is a rational square exactly when p and q are both
    perfect squares.
    """
    num = exact_sqrt(value.numerator)
    if num is None:
        return None
    den = exact_sqrt(value.denominator)
    if den is None:
        return None
    return Fraction(num, den)


# Largest trial divisor squarefree_decompose may try: every integer below 2^60
# (the m = 1e9+7 hypotenuse 1000000014000000053 among them) still splits.
_TRIAL_DIVISION_LIMIT = 2**20

# the most members (or heron-table rows) one family window may hold
MEMBERS_MAX = 100_000

# the most bytes ``verify --input`` reads from its file
INPUT_BYTES_MAX = 2**20

# Enumeration bounds of ``trigsolve.enumerate_solutions``: |k| past K_ABS_MAX
# leaves too few float digits for x = base + 2*k*pi to mean much, and
# K_PERIODS_MAX periods already print tens of thousands of solutions.
K_ABS_MAX = 10**6
K_PERIODS_MAX = 10**4


def squarefree_decompose(c: int) -> tuple[int, int]:
    """Write ``c = s*s*d`` with ``d`` squarefree; returns ``(s, d)``.

    Fast path: perfect squares fall out of one ``isqrt``. Otherwise trial
    division up to the cube root peels off small square factors; the
    cofactor then has at most two prime factors, so a single ``exact_sqrt``
    settles whether a large square remains. A cube root past
    ``_TRIAL_DIVISION_LIMIT`` (once the small factors are out) is a
    ``DomainError``, so the cost stays bounded.
    """
    if c < 1:
        raise DomainError(f"squarefree_decompose needs a positive integer, got {c}")
    whole = exact_sqrt(c)
    if whole is not None:
        return whole, 1
    outside = 1
    radicand = 1
    rest = c
    p = 2
    while p * p * p <= rest:
        if p > _TRIAL_DIVISION_LIMIT:
            raise DomainError(
                f"squarefree split of an integer of {c.bit_length()} bits needs trial "
                f"division past {_TRIAL_DIVISION_LIMIT}; its square root is out of reach"
            )
        if rest % p == 0:
            exponent = 0
            while rest % p == 0:
                rest //= p
                exponent += 1
            outside *= p ** (exponent // 2)
            if exponent % 2:
                radicand *= p
        p += 1 if p == 2 else 2
    tail_root = exact_sqrt(rest)
    if tail_root is not None:
        outside *= tail_root
    else:
        radicand *= rest
    return outside, radicand


class Surd(NamedTuple):
    """The exact value ``coefficient * sqrt(radicand)``: the view of a
    construction's (n, d, r) closed form. Its ints come from
    :func:`surd_sqrt_ints`, so ``radicand`` is squarefree and equal values
    have equal fields; ``radicand == 1`` marks a rational value."""

    coefficient: Fraction
    radicand: int

    def __float__(self) -> float:
        return float(self.coefficient) * math.sqrt(self.radicand)


def surd_sqrt_ints(p: int, q: int) -> tuple[int, int, int]:
    """sqrt(p/q) = s/(t*u) * sqrt(r*u) as the ints (s, t*u, r*u), for coprime
    p, q >= 1, from p = s^2 * r and q = t^2 * u split apart: s/(t*u) is in lowest
    terms and r*u squarefree because gcd(p, q) = 1; a square p or q costs one isqrt."""
    s, r = squarefree_decompose(p)
    t, u = squarefree_decompose(q)
    return s, t * u, r * u


class LegForm(Enum):
    """Which slot of (a, b) holds the even leg 2*delta*m*n."""

    EVEN_LEG_FIRST = "even-leg-first"
    ODD_LEG_FIRST = "odd-leg-first"


class PythTriple(NamedTuple):
    """A Pythagorean triple a^2 + b^2 = c^2 with its Euclid parameters.

    ``(m, n)`` satisfy m > n >= 1, gcd(m, n) = 1, m + n odd; ``delta`` is the
    common scale; ``leg_form`` records whether ``a`` or ``b`` is the even leg.
    """

    a: int
    b: int
    c: int
    delta: int
    m: int
    n: int
    leg_form: LegForm


def check_generator_pair(m: int, n: int) -> None:
    """Validate an Euclid generator pair; each violation gets its own message."""
    if n < 1:
        raise DomainError(f"generator pair needs n >= 1, got n={n}")
    if m <= n:
        raise DomainError(f"generator pair needs m > n, got m={m}, n={n}")
    if gcd(m, n) != 1:
        raise DomainError(f"generator pair needs gcd(m, n) = 1, got gcd({m}, {n}) = {gcd(m, n)}")
    if (m + n) % 2 == 0:
        raise DomainError(f"generator pair needs m + n odd, got {m} + {n} = {m + n}")


def euclid_triple(delta: int, m: int, n: int) -> tuple[int, int, int]:
    """(2*delta*m*n, delta*(m^2 - n^2), delta*(m^2 + n^2)); callers validate."""
    return 2 * delta * m * n, delta * (m * m - n * n), delta * (m * m + n * n)


def classify_triple(a: int, b: int, c: int) -> PythTriple:
    """Invert the parametrization: recover (delta, m, n, leg_form) from a triple.

    delta = gcd(a, b) (which divides c because delta^2 divides c^2); the
    reduced triple is primitive, so exactly one reduced leg is even and

        m^2 = (c0 + odd) / 2,   n^2 = (c0 - odd) / 2.
    """
    if a < 1 or b < 1 or c < 1:
        raise DomainError(f"triple entries must be positive, got ({a}, {b}, {c})")
    if a * a + b * b != c * c:
        raise DomainError(f"not a Pythagorean triple: {a}^2 + {b}^2 != {c}^2")
    delta = gcd(a, b)
    a0, b0, c0 = a // delta, b // delta, c // delta
    if a0 % 2 == 0:
        even, odd, form = a0, b0, LegForm.EVEN_LEG_FIRST
    else:
        even, odd, form = b0, a0, LegForm.ODD_LEG_FIRST
    m = exact_sqrt((c0 + odd) // 2)
    n = exact_sqrt((c0 - odd) // 2)
    if m is None or n is None or 2 * m * n != even or m * m - n * n != odd:
        # unreachable for genuine triples; guards the primitive-structure assumption
        raise DomainError(f"({a}, {b}, {c}) does not reduce to a primitive triple")
    return PythTriple(a, b, c, delta, m, n, form)
