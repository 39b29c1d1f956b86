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
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import DomainError, Surd, common_denominator, scaled_floats, surd_sqrt

__all__ = [
    "ANGLES",
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
    "quad_area",
    "theta_degrees",
    "twice_area",
]


class Point2(NamedTuple):
    """Exact point in the plane (int coordinates on the integer lattice).

    The oracles' hot helpers unpack a point as ``x, y = p``: a tuple unpack
    is cheaper than two attribute reads.
    """

    x: Fraction
    y: Fraction


def dist_squared(p: Point2, q: Point2) -> Fraction:
    (px, py), (qx, qy) = p, q
    dx, dy = px - qx, py - qy
    return dx * dx + dy * dy


def dot_cross(here: Point2, p: Point2, q: Point2) -> tuple[Fraction, Fraction]:
    """(u . v, u x v) of the vectors u = p - here and v = q - here."""
    (hx, hy), (px, py), (qx, qy) = here, p, q
    ux, uy = px - hx, py - hy
    vx, vy = qx - hx, qy - hy
    return ux * vx + uy * vy, ux * vy - uy * vx


def lattice(points: Sequence[Point2]) -> tuple[int, tuple[Point2, ...]]:
    """(S, the points times S): S, the lcm of their coordinate denominators,
    makes them int pairs; squared lengths and areas scale by S^2."""
    s, ints = common_denominator([c for p in points for c in p])
    return s, tuple(map(Point2, ints[::2], ints[1::2]))


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


class QuadConstruction(NamedTuple):
    """The embedded quadrilateral with its exact lengths and angle tangents.

    ``SEGMENTS`` names the six lengths and ``ANGLES`` the four interior
    angle tangents, which are the exact closed forms -a/b, a/(b-g), a/b,
    (b+g)/a at B, Gamma, Gamma1, Gamma2; coordinates reproduce them (see
    the verifier).
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    v_gamma: Point2
    v_b: Point2
    v_gamma2: Point2
    v_gamma1: Point2
    v_a: Point2
    side_gamma_b: Fraction
    side_b_gamma2: Fraction
    side_gamma2_gamma1: Surd
    side_gamma_gamma1: Surd
    diag_b_gamma1: Fraction
    diag_gamma_gamma2: Surd
    tan_b: Fraction
    tan_gamma: Fraction
    tan_gamma1: Fraction
    tan_gamma2: Fraction
    tan_theta: Fraction
    circumcenter: Point2
    radius_squared: Fraction

    @property
    def area(self) -> Fraction:
        """Closed-form area from the triple alone, computed on access; the
        oracles recompute it from the coordinates."""
        D, (A, B, G) = common_denominator((self.alpha, self.beta, self.gamma))
        return Fraction(*closed_area(D, A, B, G))

    @property
    def theta_degrees(self) -> float:
        """``theta_degrees`` of this triple, for display: no check decides on it."""
        return theta_degrees(self.alpha, self.diag_b_gamma1)

    def vertices(self) -> tuple[Point2, Point2, Point2, Point2]:
        """Traversal order Gamma, B, Gamma2, Gamma1."""
        return (self.v_gamma, self.v_b, self.v_gamma2, self.v_gamma1)


# The six lengths as (kind, label, endpoints, attribute): the four sides in
# traversal order, then the two diagonals. ``QuadConstruction`` and
# ``FamilyMember`` name each length by the same attribute.
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
_ZERO = Fraction(0)


def theta_degrees(alpha: Fraction | int, beta_plus_gamma: Fraction | int) -> float:
    """theta = atan2(alpha, beta + gamma) in degrees."""
    return math.degrees(math.atan2(float(alpha), float(beta_plus_gamma)))


def _as_rational(value: Fraction | int | str, name: str) -> Fraction:
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
    BG = B + G
    bg = Fraction(BG, D)
    # each value is one Fraction of ints from (A, B, G, D). hyp^2 = 2g(b+g), so
    # hyp = (b+g)*sqrt(2G/(B+G)); the other surds are hyp*b/g and hyp*a/g. For a
    # scaled Euclid triple 2G/(B+G) is c0/m^2 or 2c0/(m+n)^2: only c0 is split.
    # With sqrt(2G/(B+G)) = coef*sqrt(r), hyp = (p/q)*sqrt(r) for p/q = coef*(B+G)/D
    coef, r = surd_sqrt(Fraction(2 * G, BG))
    p, q = coef.numerator * BG, coef.denominator * D
    return QuadConstruction(
        alpha=a,
        beta=b,
        gamma=g,
        v_gamma=Point2(Fraction(A * A, G * D), Fraction(A * B, G * D)),
        v_b=Point2(_ZERO, _ZERO),
        v_gamma2=Point2(_ZERO, -a),
        v_gamma1=Point2(bg, _ZERO),
        v_a=Point2(g, _ZERO),
        side_gamma_b=a,
        side_b_gamma2=a,
        side_gamma2_gamma1=Surd(Fraction(p, q), r),
        side_gamma_gamma1=Surd(Fraction(p * B, q * G), r),
        diag_b_gamma1=bg,
        diag_gamma_gamma2=Surd(Fraction(p * A, q * G), r),
        tan_b=Fraction(-A, B),
        tan_gamma=Fraction(A, B - G),
        tan_gamma1=Fraction(A, B),
        tan_gamma2=Fraction(BG, A),
        tan_theta=Fraction(A, BG),
        circumcenter=Point2(Fraction(BG, 2 * D), Fraction(-A, 2 * D)),
        radius_squared=Fraction(G * BG, 2 * D * D),
    )


def corner(points: Sequence[Point2], i: int) -> tuple[Fraction, Fraction]:
    """``dot_cross`` at vertex i to its neighbours in the traversal order: the
    interior angle's tangent is |cross|/dot at any scale (none where dot = 0)."""
    return dot_cross(points[i], points[i - 1], points[(i + 1) % len(points)])


def interior_angle_degrees(q: QuadConstruction, which: Vertex) -> float:
    """The interior angle at a vertex in degrees, from coordinates alone."""
    dot, cross = corner(q.vertices(), _INDEX[which])
    # the angle depends only on the ratio, so both may move into the float range
    _, (dot, cross) = scaled_floats(dot, cross)
    return math.degrees(math.atan2(abs(cross), dot))


def quad_area(q: QuadConstruction) -> Fraction:
    """Exact area by the shoelace sum over the traversal order, taken on the
    integer lattice of the vertices."""
    scale, pts = lattice(q.vertices())
    return Fraction(abs(twice_area(pts)), 2 * scale * scale)


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
