"""Exact construction of the cyclic quadrilateral over a right triple.

Given positive rationals with alpha^2 + beta^2 = gamma^2, the plane
embedding puts

    B      = (0, 0)
    A      = (gamma, 0)            (helper point on the base)
    Gamma  = (alpha^2/gamma, alpha*beta/gamma)   (apex, above the base)
    Gamma2 = (0, -alpha)           (reflected leg endpoint, below)
    Gamma1 = (beta + gamma, 0)     (base extension beyond A)

The quadrilateral is traversed Gamma -> B -> Gamma2 -> Gamma1. Every
vertex is rational, Gamma1-Gamma2 is a diameter of the circumcircle, and
all lengths are rationals or quadratic surds, so downstream oracles can
compare exactly.

A construction is its ints. It keeps its triple as (D, A, B, G), the
triple (A, B, G)/D with D the least common denominator. Its ``POINTS``
(the four vertices, the circumcentre and A) are one integer lattice,
``lattice``: int pairs over one scale S, the least that makes every
coordinate an int. ``construct_quad`` computes them as ints over 2GD and
reduces them once; the oracles measure those ints as they are. Its
``FORMS`` (lengths, tangents, squared radius) are int pairs, (n, d, r) for
a surd. ``alpha``, ``beta``, ``gamma``, ``v_gamma``, ..., ``radius_squared``
are views that build the Fraction, Point2 or Surd on access.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import DomainError, Surd, common_denominator, scaled_floats, surd_sqrt_ints

__all__ = [
    "ANGLES",
    "FORMS",
    "POINTS",
    "Point2",
    "QuadConstruction",
    "SEGMENTS",
    "Vertex",
    "angle_spread_degrees",
    "closed_area",
    "construct_quad",
    "corner",
    "dist_squared",
    "dot_cross",
    "interior_angle_degrees",
    "lattice",
    "theta_degrees",
    "twice_area",
]


class Point2(NamedTuple):
    """Exact point in the plane (int coordinates on the integer lattice).

    The oracles' hot helpers unpack a point as ``x, y = p``: a tuple unpack
    is cheaper than two attribute reads.
    """

    x: int | Fraction
    y: int | Fraction


def dist_squared(p: Point2, q: Point2) -> int | Fraction:
    (px, py), (qx, qy) = p, q
    dx, dy = px - qx, py - qy
    return dx * dx + dy * dy


def dot_cross(here: Point2, p: Point2, q: Point2) -> tuple[int | Fraction, int | Fraction]:
    """(u . v, u x v) of the vectors u = p - here and v = q - here."""
    (hx, hy), (px, py), (qx, qy) = here, p, q
    ux, uy = px - hx, py - hy
    vx, vy = qx - hx, qy - hy
    return ux * vx + uy * vy, ux * vy - uy * vx


def lattice(points: Sequence[tuple[int, int]], denominator: int) -> tuple[int, tuple[Point2, ...]]:
    """(S, the points times S) of int points over ``denominator``: S, the
    least scale that makes every coordinate an int, is ``denominator`` in
    lowest terms; squared lengths and areas scale by S^2."""
    coords = [c for p in points for c in p]
    g = math.gcd(denominator, *coords)
    ints = [c // g for c in coords]
    return denominator // g, tuple(map(Point2, ints[::2], ints[1::2]))


def closed_area(D: int, A: int, B: int, G: int) -> tuple[int, int]:
    """The closed-form area of the construction of the triple (A, B, G)/D, as
    (numerator, denominator): ab/2 + (b^2/2)(a/g) + a(b+g)/2 = A(B+G)^2 / (2 G D^2)."""
    return A * (B + G) ** 2, 2 * G * D * D


class Vertex(Enum):
    """The four vertices, in traversal order."""

    GAMMA = "Gamma"
    B = "B"
    GAMMA2 = "Gamma2"
    GAMMA1 = "Gamma1"


# The six lengths as (kind, label, endpoints, attribute): the four sides in
# traversal order, then the two diagonals. ``QuadConstruction`` and
# ``family.MemberRow`` name each length by the same attribute.
SEGMENTS = (
    ("side", "Gamma-B", (Vertex.GAMMA, Vertex.B), "side_gamma_b"),
    ("side", "B-Gamma2", (Vertex.B, Vertex.GAMMA2), "side_b_gamma2"),
    ("side", "Gamma2-Gamma1", (Vertex.GAMMA2, Vertex.GAMMA1), "side_gamma2_gamma1"),
    ("side", "Gamma-Gamma1", (Vertex.GAMMA, Vertex.GAMMA1), "side_gamma_gamma1"),
    ("diagonal", "B-Gamma1", (Vertex.B, Vertex.GAMMA1), "diag_b_gamma1"),
    ("diagonal", "Gamma-Gamma2", (Vertex.GAMMA, Vertex.GAMMA2), "diag_gamma_gamma2"),
)

# The four interior-angle tangents as (vertex, attribute), in report order
# (B and Gamma1 are opposite, as are Gamma and Gamma2).
ANGLES = (
    (Vertex.B, "tan_b"),
    (Vertex.GAMMA, "tan_gamma"),
    (Vertex.GAMMA1, "tan_gamma1"),
    (Vertex.GAMMA2, "tan_gamma2"),
)
_INDEX = {vertex: i for i, vertex in enumerate(Vertex)}

# a construction's points, in ``lattice`` order: the vertices in traversal
# order, then the circumcentre and A
POINTS = ("v_gamma", "v_b", "v_gamma2", "v_gamma1", "circumcenter", "v_a")
# its closed forms, in ``forms`` order: the SEGMENTS lengths, the ANGLES
# tangents, tan theta and the squared circumradius
FORMS = (
    *[attr for *_, attr in SEGMENTS], *[attr for _, attr in ANGLES], "tan_theta", "radius_squared"
)


class _Stored(NamedTuple):
    triple: tuple[int, int, int, int]  # (D, A, B, G): the triple (A, B, G)/D
    lattice: tuple[int, tuple[Point2, ...]]  # (S, the POINTS times S: int pairs)
    forms: tuple[tuple[int, ...], ...]  # the FORMS: (n, d) is n/d, (n, d, r) is (n/d)*sqrt(r)


def _leg(i: int) -> property:
    def view(q: QuadConstruction) -> Fraction:
        return Fraction(q.triple[i], q.triple[0])

    name = ("alpha", "beta", "gamma")[i - 1]
    return property(view, doc=f"{name}: a Fraction, built from the triple's ints.")


def _point(i: int) -> property:
    def view(q: QuadConstruction) -> Point2:
        scale, points = q.lattice
        x, y = points[i]
        return Point2(Fraction(x, scale), Fraction(y, scale))

    return property(view, doc=f"{POINTS[i]}: a Point2 of Fractions, built from the lattice.")


def _form(i: int) -> property:
    def view(q: QuadConstruction) -> Fraction | Surd:
        n, d, *radicand = q.forms[i]
        return Surd(Fraction(n, d), *radicand) if radicand else Fraction(n, d)

    return property(view, doc=f"{FORMS[i]}: a Fraction or Surd, built from its ints.")


class QuadConstruction(_Stored):
    """The embedded quadrilateral with its exact lengths and angle tangents.

    ``SEGMENTS`` names the six lengths and ``ANGLES`` the four interior
    angle tangents, which are the exact closed forms -a/b, a/(b-g), a/b,
    (b+g)/a at B, Gamma, Gamma1, Gamma2; coordinates reproduce them (see
    the verifier). The triple, the ``POINTS`` and the ``FORMS`` are stored
    as ints and read as views.
    """

    __slots__ = ()

    alpha, beta, gamma = map(_leg, range(1, 4))
    v_gamma, v_b, v_gamma2, v_gamma1, circumcenter, v_a = map(_point, range(len(POINTS)))
    (
        side_gamma_b, side_b_gamma2, side_gamma2_gamma1, side_gamma_gamma1, diag_b_gamma1,
        diag_gamma_gamma2, tan_b, tan_gamma, tan_gamma1, tan_gamma2, tan_theta, radius_squared,
    ) = map(_form, range(len(FORMS)))

    @property
    def area(self) -> Fraction:
        """Closed-form area from the triple alone, computed on access; the
        oracles recompute it from the coordinates."""
        return Fraction(*closed_area(*self.triple))

    @property
    def theta_degrees(self) -> float:
        """``theta_degrees`` of this triple, for display: no check decides on it."""
        return theta_degrees(self.alpha, self.diag_b_gamma1)

    def vertices(self) -> tuple[Point2, Point2, Point2, Point2]:
        """Traversal order Gamma, B, Gamma2, Gamma1."""
        return (self.v_gamma, self.v_b, self.v_gamma2, self.v_gamma1)


def theta_degrees(alpha: Fraction | int, beta_plus_gamma: Fraction | int) -> float:
    """theta = atan2(alpha, beta + gamma) in degrees."""
    return math.degrees(math.atan2(float(alpha), float(beta_plus_gamma)))


def _as_rational(value: Fraction | int | str, name: str) -> Fraction | int:
    """``value`` as an exact rational: an int as it is, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise DomainError(
            f"{name} must be rational (an int, Fraction or decimal string), not a float"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"{name} is not a rational value: {value!r}") from exc


def construct_quad(
    alpha: Fraction | int | str, beta: Fraction | int | str, gamma: Fraction | int | str
) -> QuadConstruction:
    """Build the quadrilateral for a positive rational right triple."""
    a = _as_rational(alpha, "alpha")
    b = _as_rational(beta, "beta")
    g = _as_rational(gamma, "gamma")
    for name, value in (("alpha", a), ("beta", b), ("gamma", g)):
        if value.numerator <= 0:
            raise DomainError(f"{name} must be positive, got {value}")
    D, (A, B, G) = common_denominator((a, b, g))
    if A * A + B * B != G * G:
        raise DomainError(
            f"alpha^2 + beta^2 != gamma^2: {a}^2 + {b}^2 = {a * a + b * b}, gamma^2 = {g * g}"
        )
    BG, G2 = B + G, 2 * G
    # hyp^2 = 2g(b+g), so hyp = (b+g)*sqrt(2G/(B+G)); the other surds are hyp*b/g
    # and hyp*a/g. For a scaled Euclid triple 2G/(B+G) is c0/m^2 or 2c0/(m+n)^2:
    # only c0 is split. With sqrt(2G/(B+G)) = (s/t)*sqrt(r), hyp = (p/q)*sqrt(r)
    # for p/q = s(B+G)/(tD)
    common = math.gcd(G2, BG)
    s, t, r = surd_sqrt_ints(G2 // common, BG // common)
    p, q = s * BG, t * D
    # the POINTS over 2GD: (a^2/g, ab/g), (0, 0), (0, -a), (b+g, 0), ((b+g)/2, -a/2), (g, 0)
    over_2gd = (
        (2 * A * A, 2 * A * B), (0, 0), (0, -A * G2), (G2 * BG, 0), (G * BG, -A * G), (G2 * G, 0)
    )
    forms = (  # in FORMS order: a, a, hyp, hyp*b/g, b+g, hyp*a/g, the tangents, r^2
        (A, D), (A, D), (p, q, r), (p * B, q * G, r), (BG, D), (p * A, q * G, r),
        (-A, B), (A, B - G), (A, B), (BG, A),
        (A, BG), (G * BG, 2 * D * D),
    )
    return QuadConstruction((D, A, B, G), lattice(over_2gd, G2 * D), forms)


def corner(points: Sequence[Point2], i: int) -> tuple[int | Fraction, int | Fraction]:
    """``dot_cross`` at vertex i to its neighbours in the traversal order: the
    interior angle's tangent is |cross|/dot at any scale (none where dot = 0)."""
    return dot_cross(points[i], points[i - 1], points[(i + 1) % len(points)])


def interior_angle_degrees(q: QuadConstruction, which: Vertex) -> float:
    """The interior angle at a vertex in degrees, from coordinates alone."""
    scale, points = q.lattice
    dot, cross = corner(points[:4], _INDEX[which])
    # the values at scale 1, so that the floats are those of the coordinates'
    # own products; the angle depends only on their ratio, so both may move
    # into the float range
    s2 = scale * scale
    _, (dot, cross) = scaled_floats(Fraction(dot, s2), Fraction(cross, s2))
    return math.degrees(math.atan2(abs(cross), dot))


def twice_area(points: Sequence[Point2]) -> int:
    """Twice the signed area of a polygon in traversal order, by the shoelace
    sum: the helper the verifier's own shoelace is checked against."""
    return sum(px * ry - rx * py for (px, py), (rx, ry) in zip(points, points[1:] + points[:1]))


def angle_spread_degrees(q: QuadConstruction) -> float:
    """The spread of three independent computations of the one base angle,
    in degrees: phi (the isosceles base angle at Gamma2, from float
    coordinates), omega (half the apex double angle, atan2(a, b)/2) and
    theta (atan2(a, b+g)); they agree up to float noise. The coordinates
    move into the float range together (``scaled_floats``), which leaves
    phi unchanged, so that their products neither overflow nor underflow."""
    _, xy = scaled_floats(*(v for p in (q.v_gamma2, q.v_b, q.v_gamma) for v in (p.x, p.y)))
    dot, cross = dot_cross(*map(Point2, xy[::2], xy[1::2]))
    phi = math.degrees(math.atan2(abs(cross), dot))
    omega = math.degrees(math.atan2(float(q.alpha), float(q.beta))) / 2.0
    values = (phi, omega, q.theta_degrees)
    return max(values) - min(values)
