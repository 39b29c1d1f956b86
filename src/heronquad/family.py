"""The parametric family of these quadrilaterals, and its Heron members.

A generator pair (m, n) with m > n >= 1, gcd(m, n) = 1, m + n odd, and
m^2 + n^2 = L^2 a perfect square feeds the even-leg-first right triple
(2*d*m*n, d*(m^2 - n^2), d*(m^2 + n^2)) for a scale d >= 1. Closed forms
for the member (cross-checked against its coordinate construction on every
call; the member keeps that construction as ``quad`` so ``verify_member``
runs its oracles on it instead of building it again):

    sides      2*d*m*n, 2*d*m*n, 2*d*m*L, 2*d*m*(m^2 - n^2)/L
    diagonals  2*d*m^2, 4*d*m^2*n/L
    tangents   2mn/(n^2 - m^2), -m/n, 2mn/(m^2 - n^2), m/n
    area       4*d^2*m^5*n/L^2

All six lengths and the area are integers exactly when L divides d (the
Heron members). ``enumerate_family`` does the delta-free work once per
generating pair: it validates the pair, finds L and builds m^2 - n^2 and
the four tangents. Once per member it builds the delta-scaled closed forms,
the member's own construction and its full cross-check, the shoelace area
included.

Pairs (m, n) themselves come from a second Euclid layer:
(t1, t2) with t1 > t2 >= 1, gcd = 1, t1 + t2 odd gives the legs
t1^2 - t2^2 and 2*t1*t2 of a triple with hypotenuse L = t1^2 + t2^2; m is
the larger leg. Both the t-pair and its form (odd-m: m = t1^2 - t2^2, or
even-m: m = 2*t1*t2) follow from (m, n, L), so a member derives them.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .exactnum import (
    MEMBERS_MAX,
    DomainError,
    Surd,
    check_generator_pair,
    classify_triple,
    euclid_triple,
    exact_sqrt,
    gcd,
)
from .geometry import ANGLES, SEGMENTS, QuadConstruction, construct_quad, quad_area

__all__ = [
    "FamilyMember",
    "GeneratorParams",
    "TForm",
    "check_member_count",
    "coprimality_certificate",
    "enumerate_family",
    "family_member",
    "generating_pairs",
    "mnl_from_t",
]


class TForm(Enum):
    """Which of (m, n) receives the even value 2*t1*t2."""

    ODD_M = "odd-m"    # m = t1^2 - t2^2, n = 2*t1*t2
    EVEN_M = "even-m"  # m = 2*t1*t2,     n = t1^2 - t2^2


class GeneratorParams(NamedTuple):
    """Generator data of a member: the scale and the pair with m^2 + n^2 = L^2."""

    delta: int
    m: int
    n: int
    L: int

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
    def k(self) -> int:
        """The integral hypotenuse-like length sqrt(a^2 + (b+g)^2) = 2*d*m*L."""
        return 2 * self.delta * self.m * self.L

    def triple(self) -> tuple[int, int, int]:
        """The even-leg-first triple (2*d*m*n, d*(m^2 - n^2), d*(m^2 + n^2))."""
        return euclid_triple(self.delta, self.m, self.n)


class FamilyMember(NamedTuple):
    """One quadrilateral of the family, in exact closed form."""

    params: GeneratorParams
    side_gamma_b: int
    side_b_gamma2: int
    side_gamma2_gamma1: int
    side_gamma_gamma1: Fraction
    diag_b_gamma1: int
    diag_gamma_gamma2: Fraction
    tan_b: Fraction
    tan_gamma: Fraction
    tan_gamma1: Fraction
    tan_gamma2: Fraction
    area: Fraction
    is_heron: bool
    quad: QuadConstruction


def mnl_from_t(t1: int, t2: int) -> tuple[int, int, int]:
    """Map a t-pair (a generator pair itself) to (m, n, L), m the larger leg."""
    check_generator_pair(t1, t2)
    double_prod, square_diff, L = euclid_triple(1, t1, t2)
    return max(double_prod, square_diff), min(double_prod, square_diff), L


class _PairForms(NamedTuple):
    """The delta-free closed forms of a generating pair (m, n)."""

    m: int
    n: int
    L: int
    mm_nn: int  # m^2 - n^2
    tan_b: Fraction
    tan_gamma: Fraction
    tan_gamma1: Fraction
    tan_gamma2: Fraction


def _pair_forms(m: int, n: int) -> _PairForms:
    """Validate (m, n), find L and build the closed forms no delta changes."""
    check_generator_pair(m, n)
    L = exact_sqrt(m * m + n * n)
    if L is None:
        raise DomainError(
            f"m^2 + n^2 = {m * m + n * n} is not a perfect square; "
            f"(m={m}, n={n}) does not generate a family member"
        )
    mm_nn = m * m - n * n
    return _PairForms(
        m=m,
        n=n,
        L=L,
        mm_nn=mm_nn,
        tan_b=Fraction(2 * m * n, n * n - m * m),
        tan_gamma=Fraction(-m, n),
        tan_gamma1=Fraction(2 * m * n, mm_nn),
        tan_gamma2=Fraction(m, n),
    )


def _member(delta: int, pair: _PairForms) -> FamilyMember:
    """The member for ``delta`` (>= 1) of a validated pair, constructed and
    cross-checked."""
    m, n, L, mm_nn = pair.m, pair.n, pair.L, pair.mm_nn
    params = GeneratorParams(delta, m, n, L)
    member = FamilyMember(
        params=params,
        side_gamma_b=2 * delta * m * n,
        side_b_gamma2=2 * delta * m * n,
        side_gamma2_gamma1=params.k,
        side_gamma_gamma1=Fraction(2 * delta * m * mm_nn, L),
        diag_b_gamma1=2 * delta * m * m,
        diag_gamma_gamma2=Fraction(4 * delta * m * m * n, L),
        tan_b=pair.tan_b,
        tan_gamma=pair.tan_gamma,
        tan_gamma1=pair.tan_gamma1,
        tan_gamma2=pair.tan_gamma2,
        area=Fraction(4 * delta * delta * m**5 * n, L * L),
        is_heron=delta % L == 0,
        quad=construct_quad(*params.triple()),
    )
    _cross_check(member)
    return member


def family_member(delta: int, m: int, n: int) -> FamilyMember:
    """Build the member for (delta, m, n); (m, n) must have integral L."""
    if delta < 1:
        raise DomainError(f"delta must be >= 1, got {delta}")
    return _member(delta, _pair_forms(m, n))


# every closed form a member shares, by attribute name, with its construction
_SHARED_ATTRIBUTES = tuple(attr for *_, attr in SEGMENTS) + tuple(attr for _, attr in ANGLES)


def _cross_check(member: FamilyMember) -> None:
    # closed forms must agree with the coordinate construction
    q = member.quad
    for attr in _SHARED_ATTRIBUTES:
        built, closed = getattr(q, attr), getattr(member, attr)
        if isinstance(built, Surd) and built.is_rational:
            built = built.coefficient
        if built != closed:
            raise RuntimeError(
                f"closed form {attr} disagrees with coordinates for {member.params}"
            )
    if quad_area(q) != member.area:
        raise RuntimeError(f"closed-form area disagrees with coordinates for {member.params}")


def generating_pairs(t_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (t1, t2, m, n, L) in (t1, t2) order."""
    if t_max < 2:
        raise DomainError(f"t_max must be >= 2, got {t_max}")
    for t1 in range(2, t_max + 1):
        for t2 in range(1, t1):
            if gcd(t1, t2) != 1 or (t1 + t2) % 2 == 0:
                continue
            yield (t1, t2, *mnl_from_t(t1, t2))


def check_member_count(counts: Iterable[int]) -> None:
    """Refuse a window whose per-pair member counts sum past ``MEMBERS_MAX``.

    Reading stops as soon as the sum passes the cap, so an over-cap window
    is refused in time bounded by the cap, not by the window.
    """
    total = 0
    for count in counts:
        total += count
        if total > MEMBERS_MAX:
            raise DomainError(
                f"the window has more than {MEMBERS_MAX} members; lower t_max or the delta range"
            )


def _window(
    t_max: int, delta_max: int, heron_only: bool
) -> Iterator[tuple[tuple[int, int, int, int, int], range]]:
    """Each generating pair of the window, with the deltas of its members."""
    for pair in generating_pairs(t_max):
        if not heron_only:
            yield pair, range(1, delta_max + 1)
        elif pair[0] * pair[0] < delta_max:
            yield pair, range(pair[-1], delta_max + 1, pair[-1])
        else:
            # L = t1^2 + t2^2 > delta_max here and at every later pair
            return


def enumerate_family(
    t_max: int, delta_max: int, *, heron_only: bool = False
) -> Iterator[FamilyMember]:
    """Enumerate members ordered by (t1, t2, delta), each exactly once.

    With ``heron_only`` the delta loop walks the multiples of L up to
    delta_max. A window of more than ``MEMBERS_MAX`` members raises
    ``DomainError`` before the first member is built.

    Only the even-leg-first family exists: with the odd leg first,
    |Gamma2 Gamma1|^2 = 2*d^2*(m + n)^2*(m^2 + n^2). A generator pair makes
    m^2 + n^2 odd, so 2*(m^2 + n^2) is never a square and that side is never
    rational.
    """
    if delta_max < 1:
        raise DomainError(f"delta_max must be >= 1, got {delta_max}")
    check_member_count(len(deltas) for _, deltas in _window(t_max, delta_max, heron_only))
    for (_t1, _t2, m, n, _L), deltas in _window(t_max, delta_max, heron_only):
        pair = _pair_forms(m, n)
        for delta in deltas:
            yield _member(delta, pair)


def coprimality_certificate(m: int, n: int, L: int) -> tuple[int, int]:
    """Certify gcd(L, 2m(m^2 - n^2)) = gcd(L, 4nm^2) = 1 for a generating triple.

    A non-1 gcd would falsify the coprimality claim behind the Heron
    criterion, so it raises instead of returning quietly.
    """
    check_generator_pair(m, n)
    if exact_sqrt(m * m + n * n) != L:
        raise DomainError(f"(m={m}, n={n}, L={L}) does not satisfy m^2 + n^2 = L^2")
    g1 = gcd(L, 2 * m * (m * m - n * n))
    g2 = gcd(L, 4 * n * m * m)
    if (g1, g2) != (1, 1):
        raise AssertionError(
            f"coprimality claim falsified at (m={m}, n={n}, L={L}): gcds {(g1, g2)}"
        )
    return g1, g2
