"""Independent oracles and verification reports for the constructions.

The oracles work from vertex coordinates and exact arithmetic only: a 4x4
concyclicity determinant, the Ptolemy identity decided by squaring products
of squared coordinate distances, and a general shoelace with an exact
self-intersection test. None consults the closed forms it checks, so a bug
in them cannot hide. A verification measures each coordinate quantity once
and compares every claim with that one measurement. It runs on Python ints,
the points scaled by S, the lcm of their coordinate denominators (never read
from a closed form); each check is decided on ints by cross-multiplying,
never by a float, and a value turns back into a Fraction only where a check
reports it.

A family member is the quadrilateral of delta*(2mn, m^2 - n^2, m^2 + n^2),
and ``construct_quad`` is homogeneous: a triple scaled by s > 0 scales its
coordinates, lengths and surd coefficients by s and its squared radius and
area by s^2, and keeps its radicands and tangents. Each check but the Heron
criterion is homogeneous in these, so ``verify_scaling`` skips no oracle: a
member whose triple and closed forms scale from a verified member of its pair
(degree 1 in delta, the area 2, the tangents 0) gets the same verdict from each.
``verify_window``, the one home of that policy for ``family`` and ``heron-table``,
runs ``verify_member`` once per pair and ``verify_scaling`` on each other member.

Known misprints in the published reference values are kept in a small
registry (``errata``). When a verification touches one of those quantities
the report carries an ``erratum`` entry (printed value vs oracle value)
instead of a failure, so implementation bugs stay distinguishable from
source typos.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errata import errata_for_member, errata_for_triple
from .exactnum import DomainError, Surd, common_denominator
from .geometry import (
    ANGLES,
    SEGMENTS,
    Point2,
    QuadConstruction,
    Vertex,
    angle_spread_degrees,
    construct_quad,
    dist_squared,
    dot_cross,
    interior_tangent_from_coords,
    lattice,
    quad_area,
)

if TYPE_CHECKING:
    from .errata import Erratum
    from .family import FamilyMember

__all__ = [
    "Check",
    "CheckStatus",
    "Measurement",
    "VerificationReport",
    "concyclic",
    "concyclicity_determinant",
    "measure",
    "ptolemy_check",
    "shoelace",
    "verify_construction",
    "verify_member",
    "verify_scaling",
    "verify_window",
]


# ---------------------------------------------------------------------------
# oracles


def _det3(rows: Sequence[tuple[Fraction, Fraction, Fraction]]) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def concyclicity_determinant(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> Fraction:
    """det of rows (x^2 + y^2, x, y, 1); zero iff the points share a circle
    (or a line, which the caller must exclude).

    Translating every point by -p4 is a column operation, so it keeps the
    determinant; the last row becomes (0, 0, 0, 1), which leaves one 3x3
    determinant of the translated first three rows.
    """
    x4, y4 = p4
    moved = [(x - x4, y - y4) for x, y in (p1, p2, p3)]
    return _det3([(dx * dx + dy * dy, dx, dy) for dx, dy in moved])


def _orient(a: Point2, b: Point2, c: Point2) -> int:
    v = dot_cross(a, b, c)[1]
    return (v > 0) - (v < 0)


def _no_collinear_triple(pts: Sequence[Point2]) -> bool:
    # a collinear triple can zero the determinant, yet no circle passes through it
    distinct = [p for i, p in enumerate(pts) if p not in pts[:i]]
    if len(distinct) < 3:
        raise DomainError("concyclicity needs at least three distinct points")
    return all(_orient(*trio) != 0 for trio in combinations(distinct, 3))


def concyclic(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> bool:
    """Whether four points lie on one circle, decided exactly.

    Degenerate inputs: fewer than three distinct points is an error; a
    collinear triple returns False because no circle passes through it.
    """
    return _no_collinear_triple((p1, p2, p3, p4)) and concyclicity_determinant(p1, p2, p3, p4) == 0


def ptolemy_check(lengths_squared: Sequence[Fraction | int]) -> bool:
    """Ptolemy identity from the six squared coordinate lengths, in
    ``SEGMENTS`` order and at any common scale: for a cyclic quadrilateral
    the diagonal product equals the sum of the opposite-side products.

    With squared products P (diagonals), A and B (opposite sides),
    sqrt(P) = sqrt(A) + sqrt(B) holds exactly when P - A - B >= 0 and
    (P - A - B)^2 = 4AB, so the test stays in rationals.
    """
    side0, side1, side2, side3, diag0, diag1 = lengths_squared
    diag_sq, first_sq, second_sq = diag0 * diag1, side0 * side2, side1 * side3
    gap = diag_sq - first_sq - second_sq
    return gap >= 0 and gap * gap == 4 * first_sq * second_sq


def _on_segment(a: Point2, b: Point2, p: Point2) -> bool:
    # p is known collinear with a-b
    (ax, ay), (bx, by), (px, py) = a, b, p
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_intersect(points: Sequence[Point2], i: int, j: int) -> bool:
    """Whether edge i (points i to i + 1) meets edge j."""
    n = len(points)
    a, b, c, d = points[i], points[(i + 1) % n], points[j], points[(j + 1) % n]
    o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
    return (o1 != o2 and o3 != o4) or any(
        o == 0 and _on_segment(one, other, p)
        for o, one, other, p in ((o1, a, b, c), (o2, a, b, d), (o3, c, d, a), (o4, c, d, b))
    )


def shoelace(points: Sequence[Point2]) -> Fraction:
    """Exact area of a simple polygon given in traversal order.

    Zero-length edges and self-intersections (tested exactly on every
    non-adjacent edge pair) are errors, not silently wrong areas.
    """
    n = len(points)
    if n < 3:
        raise DomainError(f"a polygon needs at least 3 vertices, got {n}")
    for i in range(n):
        if points[i] == points[(i + 1) % n]:
            raise DomainError(f"zero-length edge at vertex {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(points, i, j):
                raise DomainError(
                    f"traversal order self-intersects (edges {i} and {j}); not a simple polygon"
                )
    twice = sum(px * ry - rx * py for (px, py), (rx, ry) in zip(points, points[1:] + points[:1]))
    return Fraction(abs(twice), 2)


# ---------------------------------------------------------------------------
# integer-lattice measurement

# the endpoints of each of the six SEGMENTS as vertex indices
_ENDS = tuple(tuple(map(list(Vertex).index, ends)) for _, _, ends, _ in SEGMENTS)


class Measurement(NamedTuple):
    """Coordinate measurements of one quadrilateral, in check order."""

    scale: int  # S, the lcm of the measured coordinates' denominators
    points: tuple[Point2, ...]  # the measured points times S: int pairs
    determinant: Fraction
    concyclic: bool
    ptolemy: bool
    lengths_squared: tuple[Fraction, ...]  # SEGMENTS
    tangents: tuple[Fraction | None, ...]  # ANGLES
    area: Fraction  # shoelace


def measure(points: Sequence[Point2]) -> Measurement:
    """The oracles on the quadrilateral ``points[:4]``, in int arithmetic on
    the lattice of all ``points`` (later ones only share the scale). Squared
    lengths and the area rescale by S^2, the determinant by S^4."""
    scale, pts = lattice(points)
    quad, s2 = pts[:4], scale * scale
    det = concyclicity_determinant(*quad)
    concyclic_quad = _no_collinear_triple(quad) and det == 0
    lengths = [dist_squared(quad[i], quad[j]) for i, j in _ENDS]
    tangents = tuple(interior_tangent_from_coords(quad, vertex) for vertex, _ in ANGLES)
    area = shoelace(quad) / s2
    return Measurement(
        scale, pts, Fraction(det, s2 * s2), concyclic_quad, ptolemy_check(lengths),
        tuple(Fraction(d, s2) for d in lengths), tangents, area,
    )


# ---------------------------------------------------------------------------
# reports


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    ERRATUM = "erratum"


PASS, FAIL = CheckStatus.PASS, CheckStatus.FAIL


class Check(NamedTuple):
    """One comparison. It keeps the two values it compared; ``to_payload``
    is the one place that renders them, with ``str``."""

    name: str
    status: CheckStatus
    expected: object
    actual: object

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "status": self.status.value,
            "expected": str(self.expected),
            "actual": str(self.actual),
        }


class VerificationReport(NamedTuple):
    subject: str
    checks: tuple[Check, ...]
    errata: tuple[Erratum, ...]

    @property
    def has_failures(self) -> bool:
        return any(c.status is CheckStatus.FAIL for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if c.status is CheckStatus.FAIL]

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "erratum": 0}
        for c in self.checks:
            out[c.status.value] += 1
        return out

    def to_payload(self) -> dict:
        return {
            "subject": self.subject,
            "counts": self.counts(),
            "checks": [c.to_payload() for c in self.checks],
        }


def _check(name: str, ok: bool, expected: object, actual: object) -> Check:
    return Check(name, PASS if ok else FAIL, expected, actual)


def _same(name: str, expected: object, actual: object) -> Check:
    """An equality check: passes exactly when ``expected == actual``."""
    return Check(name, PASS if expected == actual else FAIL, expected, actual)


def _equal(name: str, expected: tuple[int, int], actual: tuple[int, int], kept: object) -> Check:
    """An equality of two rationals, each an int (numerator, denominator)
    pair, decided by cross-multiplying. A pass keeps ``kept``, the value of
    one side, as both values; a failure keeps each side as a Fraction."""
    (en, ed), (an, ad) = expected, actual
    if en * ad == an * ed:
        return Check(name, PASS, kept, kept)
    return Check(name, FAIL, Fraction(en, ed), Fraction(an, ad))


def _parts(value: Fraction | int) -> tuple[int, int]:
    return value.numerator, value.denominator


def _squared(value: Fraction | int | Surd) -> tuple[int, int]:
    """The exact square of a rational or surd length, as (numerator, denominator)."""
    c, r = (value.coefficient, value.radicand) if isinstance(value, Surd) else (value, 1)
    return c.numerator * c.numerator * r, c.denominator * c.denominator


class _OnRender(partial):
    """A check value computed only when the check is rendered."""

    def __str__(self) -> str:
        return str(self())


# check names with the stored attribute each one reads; the member twins
# compare the member's own closed forms
_RADIUS_NAMES = tuple(f"circumradius-{vertex.value}" for vertex in Vertex)
_LENGTH_CHECKS = tuple((f"{kind}-{label}", attr) for kind, label, _, attr in SEGMENTS)
_TANGENT_CHECKS = tuple((f"tangent-{vertex.value}", attr) for vertex, attr in ANGLES)
_MEMBER_LENGTH_CHECKS = tuple(("member-" + name, attr) for name, attr in _LENGTH_CHECKS)
_MEMBER_TANGENT_CHECKS = tuple(("member-" + name, attr) for name, attr in _TANGENT_CHECKS)


def _construction_checks(q: QuadConstruction) -> tuple[list[Check], Measurement, Fraction]:
    """The construction's checks, its measurement and alpha/(beta+gamma)."""
    measured = measure(q.vertices() + (q.circumcenter, q.v_a))
    g, b, g2, g1, center, v_a = measured.points
    s2 = measured.scale * measured.scale
    checks = [
        _same("concyclicity-determinant", 0, measured.determinant),
        _same("concyclic", True, measured.concyclic),
        _same("ptolemy-identity", "holds", "holds" if measured.ptolemy else "violated"),
        _equal("right-angle-at-B", (0, 1), (dot_cross(b, g2, g1)[0], s2), 0),
    ]
    radius = q.radius_squared
    stored = _parts(radius)
    for name, point in zip(_RADIUS_NAMES, (g, b, g2, g1)):
        checks.append(_equal(name, stored, (dist_squared(point, center), s2), radius))
    # stored lengths vs coordinate distances (compared on squares: exact)
    for (name, attr), coord_sq in zip(_LENGTH_CHECKS, measured.lengths_squared):
        checks.append(_equal(name, _parts(coord_sq), _squared(getattr(q, attr)), coord_sq))
    for (name, attr), tangent in zip(_TANGENT_CHECKS, measured.tangents):
        checks.append(_same(name, tangent, getattr(q, attr)))
    for name, (u, v) in (
        ("tangent-sum-B-Gamma1", (q.tan_b, q.tan_gamma1)),
        ("tangent-sum-Gamma-Gamma2", (q.tan_gamma, q.tan_gamma2)),
    ):
        total = u.numerator * v.denominator + v.numerator * u.denominator
        checks.append(_equal(name, (0, 1), (total, u.denominator * v.denominator), 0))

    # the triple on its own lattice: (alpha, beta, gamma) = (A, B, G)/D
    D, (A, B, G) = common_denominator((q.alpha, q.beta, q.gamma))
    BG, area = B + G, measured.area
    checks.append(_equal("area-shoelace-vs-closed", _parts(q.area), _parts(area), area))
    checks.append(_equal("area-helper-agrees", _parts(area), _parts(quad_area(q)), area))
    theta = Fraction(A, BG)
    checks.append(_equal("theta-tangent", (A, BG), _parts(q.tan_theta), theta))
    checks.append(_equal("shared-base-angle-identity", (A, BG), (G - B, A), theta))
    # phi, the base angle at Gamma2, and omega = atan2(a, b)/2 equal theta when
    # tan phi = a/(b+g) and tan 2theta = 2t/(1 - t^2) = a/b for t = a/(b+g)
    dot, cross = dot_cross(g2, b, g)
    spread_ok = dot > 0 and abs(cross) * BG == dot * A and 2 * B * BG == BG * BG - A * A
    spread = _OnRender(angle_spread_degrees, q)
    checks.append(_check("angle-spread-below-1e-10-deg", spread_ok, "< 1e-10", spread))

    # the apex coordinates encode the double angle: cos = beta/gamma, sin = alpha/gamma
    dot, cross = dot_cross(v_a, b, g)
    prod = G * B * s2  # |A-B| * |A-Gamma| for this embedding, on the lattice, times D^2
    checks.append(_equal("double-angle-cos", (B, G), (dot * D * D, prod), Fraction(B, G)))
    checks.append(_equal("double-angle-sin", (A, G), (abs(cross) * D * D, prod), Fraction(A, G)))
    return checks, measured, theta


def _erratum_checks(errata: tuple[Erratum, ...]) -> list[Check]:
    return [
        Check(f"published-value:{er.ident}", CheckStatus.ERRATUM, er.printed, er.computed)
        for er in errata
    ]


def verify_construction(q: QuadConstruction) -> VerificationReport:
    """Full oracle pass over one construction."""
    errata = errata_for_triple(q.alpha, q.beta, q.gamma)
    checks = _construction_checks(q)[0] + _erratum_checks(errata)
    subject = f"construction({q.alpha}, {q.beta}, {q.gamma})"
    return VerificationReport(subject, tuple(checks), errata)


def _heron_facts(member: FamilyMember) -> tuple[bool, bool]:
    """(delta % L == 0, whether the rational lengths and the area are integers)."""
    rational = member.side_gamma_gamma1, member.diag_gamma_gamma2, member.area
    return member.params.delta % member.params.L == 0, all(v.denominator == 1 for v in rational)


def _heron_check(is_heron: bool, criterion: bool, integral: bool) -> Check:
    ok = is_heron == criterion == integral
    actual = f"delta%L==0: {criterion}, all integral: {integral}"
    return _check("heron-criterion-matches-integrality", ok, f"is_heron={is_heron}", actual)


def verify_member(member: FamilyMember) -> VerificationReport:
    """Full oracle pass over the construction of a family member's triple:
    the generic construction checks plus the member closed forms, the Heron
    criterion, and the registered errata."""
    p = member.params
    checks, measured, theta = _construction_checks(construct_quad(*p.triple()))

    for (name, attr), coord_sq in zip(_MEMBER_LENGTH_CHECKS, measured.lengths_squared):
        checks.append(_equal(name, _parts(coord_sq), _squared(getattr(member, attr)), coord_sq))
    for (name, attr), tangent in zip(_MEMBER_TANGENT_CHECKS, measured.tangents):
        checks.append(_same(name, tangent, getattr(member, attr)))

    m, n, L, delta = p.m, p.n, p.L, p.delta
    mm_nn, mmnn = m * m - n * n, m * m + n * n
    # delta^2 m n (m^2 - n^2 + (m^2 - n^2)^2/(m^2 + n^2) + 2m^2), over m^2 + n^2
    bracket = (delta * delta * m * n * ((mm_nn + 2 * m * m) * mmnn + mm_nn * mm_nn), mmnn)
    reduced = (4 * delta * delta * m**5 * n, L * L)
    area, stored = member.area, _parts(member.area)
    checks.append(_equal("member-area-vs-shoelace", _parts(measured.area), stored, area))
    checks.append(_equal("member-area-bracket-form", bracket, stored, area))
    checks.append(_equal("member-area-reduced-form", reduced, stored, area))
    checks.append(_heron_check(member.is_heron, *_heron_facts(member)))
    checks.append(_equal("member-theta-n-over-m", _parts(theta), (n, m), theta))

    errata = errata_for_member(member)
    checks += _erratum_checks(errata)
    subject = f"member(delta={delta}, m={m}, n={n})"
    return VerificationReport(subject, tuple(checks), errata)


# (check name, degree in delta) of each leaf: the triple, then ``_LEAVES``
_SCALING = (
    *((f"member-scaling-{leg}", 1) for leg in ("alpha", "beta", "gamma")),
    *((f"member-scaling-{name}", 1) for name, _ in _LENGTH_CHECKS),
    ("member-scaling-area", 2),
    *((f"member-scaling-{name}", 0) for name, _ in _TANGENT_CHECKS),
)
_LEAVES = attrgetter(*[a for _, a in _LENGTH_CHECKS], "area", *[a for _, a in _TANGENT_CHECKS])


def verify_scaling(member: FamilyMember, base: FamilyMember) -> tuple[Check, ...]:
    """The failing checks of ``member`` against ``base``, a member of its pair
    that ``verify_member`` passed: each leaf must be the base's times s^degree,
    s = delta/base delta, decided on ints; and the Heron criterion must hold."""
    d, d0 = member.params.delta, base.params.delta
    leaves = zip(member.params.triple() + _LEAVES(member), base.params.triple() + _LEAVES(base))
    failed = []
    for (name, k), (v, v0) in zip(_SCALING, leaves):
        if v.numerator * v0.denominator * d0**k != v0.numerator * v.denominator * d**k:
            failed.append(Check(name, FAIL, Fraction(v0 * d**k, d0**k), v))
    criterion, integral = _heron_facts(member)
    if not member.is_heron == criterion == integral:
        failed.append(_heron_check(member.is_heron, criterion, integral))
    return tuple(failed)


def verify_window(members: Iterable[FamilyMember]) -> Iterator[tuple[FamilyMember, list[str]]]:
    """Each member of a window in pair order, with its failing checks' names:
    ``verify_member`` until one of its pair passes, then scaling from that one."""
    base = None
    for member in members:
        if base is not None and base.params[1:] == member.params[1:]:
            failed = [check.name for check in verify_scaling(member, base)]
        else:
            failed = verify_member(member).failed_names()
            base = None if failed else member
        yield member, failed
