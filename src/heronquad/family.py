"""The parametric family of these quadrilaterals, and its Heron members.

A generator pair (m, n) with m > n >= 1, gcd(m, n) = 1, m + n odd, and
m^2 + n^2 = L^2 a perfect square feeds the even-leg-first right triple
(2*d*m*n, d*(m^2 - n^2), d*(m^2 + n^2)) for a scale d >= 1. Closed forms
for the member:

    sides      2*d*m*n, 2*d*m*n, 2*d*m*L, 2*d*m*(m^2 - n^2)/L
    diagonals  2*d*m^2, 4*d*m^2*n/L
    tangents   -2mn/(m^2 - n^2), -m/n, 2mn/(m^2 - n^2), m/n
    area       4*d^2*m^5*n/L^2

All six lengths and the area are integers exactly when L divides d (the
Heron members). ``_row``, their one home, gives a member as a ``MemberRow``,
the one member type: a member is its ints, each length, the area and each
tangent one (p, q) in lowest terms, q >= 1. ``enumerate_family``
(``family``: a delta range per pair) and ``heron_multiples``
(``heron-table``: delta = j*L) take their rows from one walker. It refuses
a window of more than ``MEMBERS_MAX`` members, counted from the t-pairs
alone, before any row is built; then it reads each pair once and builds its
four tangents once. Only ``family_member``, which takes outside (delta, m,
n), checks the pair and finds L. No member is checked here: ``verify`` runs
the oracles and checks the closed forms.

Pairs (m, n) themselves come from a second Euclid layer:
(t1, t2) with t1 > t2 >= 1, gcd = 1, t1 + t2 odd gives the legs
t1^2 - t2^2 and 2*t1*t2 of a triple with hypotenuse L = t1^2 + t2^2; m is
the larger leg. Both the t-pair and its form (odd-m: m = t1^2 - t2^2, or
even-m: m = 2*t1*t2) follow from (m, n, L), so a member derives them.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .exactnum import (
    MEMBERS_MAX,
    DomainError,
    check_generator_pair,
    classify_triple,
    euclid_triple,
    exact_sqrt,
    gcd,
)

__all__ = [
    "MemberRow",
    "TForm",
    "enumerate_family",
    "family_member",
    "generating_pairs",
    "heron_multiples",
    "mnl_from_t",
]


class TForm(Enum):
    """Which of (m, n) receives the even value 2*t1*t2."""

    ODD_M = "odd-m"    # m = t1^2 - t2^2, n = 2*t1*t2
    EVEN_M = "even-m"  # m = 2*t1*t2,     n = t1^2 - t2^2


class MemberRow(NamedTuple):
    """A family member as its ints: (delta, m, n, L), its pair's one tuple of
    tangents (at B, Gamma, Gamma1 and Gamma2), the triple, and each length and
    the area, every rational one as (numerator, denominator) in lowest terms,
    q >= 1, the form ``QuadConstruction.forms`` uses."""

    delta: int
    m: int
    n: int
    L: int
    tangents: tuple[tuple[int, int], ...]
    alpha: int
    beta: int
    gamma: int
    side_gamma_b: tuple[int, int]
    side_b_gamma2: tuple[int, int]
    side_gamma2_gamma1: tuple[int, int]  # k = sqrt(alpha^2 + (beta + gamma)^2) = 2*d*m*L
    side_gamma_gamma1: tuple[int, int]
    diag_b_gamma1: tuple[int, int]
    diag_gamma_gamma2: tuple[int, int]
    area: tuple[int, int]
    is_heron: bool

    @property
    def t_pair(self) -> tuple[int, int]:
        """(t1, t2), which ``mnl_from_t`` maps to (m, n, L): the Euclid pair of (m, n, L)."""
        trip = classify_triple(self.m, self.n, self.L)
        return trip.m, trip.n

    @property
    def t_form(self) -> TForm:
        """Which of (m, n) is the even value 2*t1*t2."""
        return TForm.ODD_M if self.m % 2 else TForm.EVEN_M

    @property
    def label(self) -> str:
        """The member as every message names it: (m=..., n=..., delta=...)."""
        return f"(m={self.m}, n={self.n}, delta={self.delta})"


def mnl_from_t(t1: int, t2: int) -> tuple[int, int, int]:
    """Map a t-pair (a generator pair itself) to (m, n, L), m the larger leg."""
    check_generator_pair(t1, t2)
    double_prod, square_diff, L = euclid_triple(1, t1, t2)
    return max(double_prod, square_diff), min(double_prod, square_diff), L


def _tangents(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The tangents at B, Gamma, Gamma1 and Gamma2 of every member of (m, n),
    in lowest terms: m^2 - n^2 is odd and prime to m and n."""
    mn2, mm_nn = 2 * m * n, m * m - n * n
    return (-mn2, mm_nn), (-m, n), (mn2, mm_nn), (m, n)


def _row(delta: int, m: int, n: int, L: int, tangents: tuple) -> MemberRow:
    """The row of ``delta`` (>= 1) for a valid pair (m, n) with m^2 + n^2 = L^2
    and ``tangents = _tangents(m, n)``; its closed forms unchecked. L is prime
    to 2m(m^2 - n^2) and to 4nm^2 (tests/test_acceptance.py, criterion 6), so
    g = gcd(delta, L) puts each rational one in lowest terms."""
    dm, g = 2 * delta * m, gcd(delta, L)
    dmn, q = dm * n, L // g
    return MemberRow(
        delta, m, n, L, tangents,
        *euclid_triple(delta, m, n),
        # the sides in traversal order, then the diagonals, as in the table above
        (dmn, 1), (dmn, 1), (dm * L, 1), (dm * (m * m - n * n) // g, q),
        (dm * m, 1), (2 * m * dmn // g, q),
        (4 * delta * delta * m**5 * n // (g * g), q * q),
        delta % L == 0,
    )


def family_member(delta: int, m: int, n: int) -> MemberRow:
    """Build the member for (delta, m, n), unchecked; (m, n) must have integral L."""
    if delta < 1:
        raise DomainError(f"delta must be >= 1, got {delta}")
    check_generator_pair(m, n)
    L = exact_sqrt(m * m + n * n)
    if L is None:
        raise DomainError(
            f"m^2 + n^2 = {m * m + n * n} is not a perfect square; "
            f"(m={m}, n={n}) does not generate a family member"
        )
    return _row(delta, m, n, L, _tangents(m, n))


def _t_pairs(t_max: int) -> Iterator[tuple[int, int]]:
    """Yield the t-pairs (t1, t2), t_max >= t1 > t2 >= 1, in (t1, t2) order."""
    if t_max < 2:
        raise DomainError(f"t_max must be >= 2, got {t_max}")
    for t1 in range(2, t_max + 1):
        for t2 in range(1, t1):
            if gcd(t1, t2) == 1 and (t1 + t2) % 2:
                yield t1, t2


def generating_pairs(t_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (t1, t2, m, n, L) in (t1, t2) order."""
    for t1, t2 in _t_pairs(t_max):
        yield (t1, t2, *mnl_from_t(t1, t2))


def _walk(t_max: int, deltas: Callable[[int], range]) -> Iterator[MemberRow]:
    """The rows (delta, m, n) with delta in ``deltas(L)``, by (t1, t2, delta).

    ``deltas(L)`` must not grow with L: the count from the t-pairs stops at
    the first t1 whose least L, t1^2 + 1, has no delta.
    """
    pairs = total = 0
    for t1, t2 in _t_pairs(t_max):
        if not deltas(t1 * t1 + 1):
            break
        total += len(deltas(t1 * t1 + t2 * t2))
        if total > MEMBERS_MAX:
            raise DomainError(
                f"the window has more than {MEMBERS_MAX} members; lower t_max or the delta range"
            )
        pairs += 1
    for _t1, _t2, m, n, L in islice(generating_pairs(t_max), pairs):
        span = deltas(L)
        if span:
            tangents = _tangents(m, n)
            for delta in span:
                yield _row(delta, m, n, L, tangents)


def enumerate_family(
    t_max: int, delta_max: int, *, heron_only: bool = False
) -> Iterator[MemberRow]:
    """Enumerate the rows of members ordered by (t1, t2, delta), each exactly
    once; with ``heron_only`` the delta loop walks the multiples of L up to
    delta_max.

    Only the even-leg-first family exists: with the odd leg first,
    |Gamma2 Gamma1|^2 = 2*d^2*(m + n)^2*(m^2 + n^2). A generator pair makes
    m^2 + n^2 odd, so 2*(m^2 + n^2) is never a square and that side is never
    rational.
    """
    if delta_max < 1:
        raise DomainError(f"delta_max must be >= 1, got {delta_max}")
    yield from _walk(
        t_max, lambda L: range(L, delta_max + 1, L) if heron_only else range(1, delta_max + 1)
    )


def heron_multiples(t_max: int, multiples: int) -> Iterator[MemberRow]:
    """The rows of the Heron members delta = j*L, j = 1..multiples, by (t1, t2, j)."""
    if multiples < 1:
        raise DomainError(f"delta_multiples must be >= 1, got {multiples}")
    yield from _walk(t_max, lambda L: range(L, multiples * L + 1, L))
