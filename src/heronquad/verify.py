"""Independent oracles and verification reports for the constructions.

The oracles work from vertex coordinates and exact arithmetic only: a 4x4
concyclicity determinant, the Ptolemy identity decided by squaring products
of squared coordinate distances, and a general shoelace with an exact
self-intersection test. None consults the closed forms it checks, so a bug
in them cannot hide. A verification measures each coordinate quantity once,
on one integer lattice: the construction's own vertex fields (a moved vertex
is measured where it is) times S, the lcm of their denominators. S is read
from those coordinates, never from a closed form, and scaling by S is a
similarity: lengths grow by S; squared lengths, areas and the corners' dot
and cross products by S^2; the concyclicity determinant by S^4; angles not at
all. So a claim p/q on a quantity of degree k is decided on ints, by
p * S^k == q * measured, never by a float; a Fraction is built only where a
check fails or is rendered.

A family member is the quadrilateral of delta*(2mn, m^2 - n^2, m^2 + n^2),
and ``construct_quad`` is homogeneous: a triple scaled by s > 0 scales its
coordinates, lengths and surd coefficients by s and its squared radius and
area by s^2, and keeps its radicands and tangents. Each check but the Heron
criterion is homogeneous in these, so ``verify_scaling`` skips no oracle: a
member whose triple and closed forms scale from a verified member of its pair
(degree 1 in delta, the area 2, the tangents 0) gets the same verdict from each.
``verify_window``, the one home of that policy for ``family`` and ``heron-table``,
takes a window's members as int rows (``family.MemberRow``): it runs
``verify_member`` on the ``FamilyMember`` of a pair's first row, and
``verify_scaling`` decides each other row on its ints alone.

Known misprints in the published reference values are kept in a small
registry (``errata``): a verification that touches one reports an
``erratum`` entry (printed vs oracle value) instead of a failure, so
implementation bugs stay distinguishable from source typos.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from operator import attrgetter, methodcaller
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
    closed_area,
    construct_quad,
    corner,
    dist_squared,
    dot_cross,
    lattice,
    twice_area,
)

if TYPE_CHECKING:
    from .errata import Erratum
    from .family import FamilyMember, MemberRow

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


def _orient(cross: Fraction | int) -> int:
    """The orientation of a vertex triple, the sign of a cross product at one of its corners."""
    return (cross > 0) - (cross < 0)


def _no_collinear_triple(pts: Sequence[Point2], signs: Sequence[int]) -> bool:
    """Whether no three distinct points of a quadrilateral are collinear (such a
    triple can zero the determinant, yet no circle passes through it), from its
    corner orientations: with three distinct points, a corner holding both
    copies of one has cross 0, and every other corner holds exactly the three."""
    distinct = len(set(pts))
    if distinct < 3:
        raise DomainError("concyclicity needs at least three distinct points")
    return all(signs) if distinct == 4 else any(signs)


def concyclic(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> bool:
    """Whether four points lie on one circle, decided exactly.

    Degenerate inputs: fewer than three distinct points is an error; a
    collinear triple returns False because no circle passes through it.
    """
    pts = (p1, p2, p3, p4)
    signs = [_orient(corner(pts, i)[1]) for i in range(4)]
    return _no_collinear_triple(pts, signs) and concyclicity_determinant(*pts) == 0


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


def shoelace(points: Sequence[Point2], signs: Sequence[int] = ()) -> Fraction | int:
    """Twice the signed area of a simple polygon in traversal order, by the
    shoelace sum; ``signs``, if given, are a quadrilateral's corner orientations.
    Zero-length edges and self-intersections (tested exactly on every
    non-adjacent edge pair) are errors, not silently wrong areas."""
    n = len(points)
    if n < 3:
        raise DomainError(f"a polygon needs at least 3 vertices, got {n}")
    for i in range(n):
        if points[i] == points[(i + 1) % n]:
            raise DomainError(f"zero-length edge at vertex {i}")
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            a, b, c, d = points[i], points[(i + 1) % n], points[j], points[(j + 1) % n]
            if signs:  # the corners at i + 1, i, j + 1, j orient (a, b, c), (a, b, d), ... negated
                o1, o2, o3, o4 = signs[i + 1], signs[i], signs[(j + 1) % 4], signs[j]
            else:
                trios = ((a, b, c), (a, b, d), (c, d, a), (c, d, b))
                o1, o2, o3, o4 = (_orient(dot_cross(*trio)[1]) for trio in trios)
            # a proper crossing, or (searched only then) an endpoint on the other edge
            if (o1 != o2 and o3 != o4) or not (o1 and o2 and o3 and o4) and any(
                o == 0 and _on_segment(one, other, p)
                for o, one, other, p in ((o1, a, b, c), (o2, a, b, d), (o3, c, d, a), (o4, c, d, b))
            ):
                raise DomainError(
                    f"traversal order self-intersects (edges {i} and {j}); not a simple polygon"
                )
    return sum(px * ry - rx * py for (px, py), (rx, ry) in zip(points, points[1:] + points[:1]))


# ---------------------------------------------------------------------------
# integer-lattice measurement

# the endpoints of each of the six SEGMENTS, and the vertex of each of the
# four ANGLES, as vertex indices
_ENDS = tuple(tuple(map(list(Vertex).index, ends)) for _, _, ends, _ in SEGMENTS)
_AT = tuple(list(Vertex).index(vertex) for vertex, _ in ANGLES)


class Measurement(NamedTuple):
    """Coordinate measurements of one quadrilateral, in check order, as ints
    on its lattice: the determinant over S^4, the rest over S^2."""

    scale: int  # S, the lcm of the measured coordinates' denominators
    points: tuple[Point2, ...]  # the measured points times S: int pairs
    det: int
    concyclic: bool
    ptolemy: bool
    squares: tuple[int, ...]  # squared lengths, SEGMENTS
    corners: tuple[tuple[int, int], ...]  # (dot, cross) at each Vertex
    shoelace_sum: int  # twice the signed area


def measure(points: Sequence[Point2]) -> Measurement:
    """The oracles on the quadrilateral ``points[:4]``, in int arithmetic on the
    lattice of all ``points`` (later ones only share the scale). Each vertex triple
    is a corner: the corners give every orientation the degeneracy tests read."""
    scale, pts = lattice(points)
    quad = pts[:4]
    corners = tuple([corner(quad, i) for i in range(4)])
    signs = [_orient(cross) for _, cross in corners]
    det = concyclicity_determinant(*quad)
    concyclic_quad = _no_collinear_triple(quad, signs) and det == 0
    squares = tuple([dist_squared(quad[i], quad[j]) for i, j in _ENDS])
    twice = shoelace(quad, signs)
    return Measurement(
        scale, pts, det, concyclic_quad, ptolemy_check(squares), squares, corners, twice
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
        return any(c.status is FAIL for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if c.status is FAIL]

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


def _equal(name: str, expected: tuple[int, int], actual: tuple[int, int], kept: object) -> Check:
    """An equality of two rationals, each an int (numerator, denominator)
    pair, decided by cross-multiplying. A pass keeps ``kept``, the value of
    one side, as both values; a failure keeps each side as a Fraction."""
    (en, ed), (an, ad) = expected, actual
    if en * ad == an * ed:
        return Check(name, PASS, kept, kept)
    return Check(name, FAIL, Fraction(en, ed), Fraction(an, ad))


# the (numerator, denominator) of an int or a Fraction, in one call
_ratio = methodcaller("as_integer_ratio")


def _squared(value: Fraction | int | Surd) -> tuple[int, int]:
    """The exact square of a rational or surd length, as (numerator, denominator)."""
    c, r = value if isinstance(value, Surd) else (value, 1)
    n, d = _ratio(c)
    return n * n * r, d * d


class _OnRender(partial):
    """A check value computed only when the check is rendered."""

    def __str__(self) -> str:
        return str(self())


# check names with the stored attribute each one reads
_RADIUS_NAMES = tuple(f"circumradius-{vertex.value}" for vertex in Vertex)
_LENGTH_CHECKS = tuple((f"{kind}-{label}", attr) for kind, label, _, attr in SEGMENTS)
_TANGENT_CHECKS = tuple((f"tangent-{vertex.value}", attr) for vertex, attr in ANGLES)


def _form_checks(prefix: str, forms: object, measured: Measurement, lengths: list) -> list[Check]:
    """The stored lengths and tangents of ``forms``, a construction or a
    member, against the measured squares (lengths compare exactly on squares,
    rendered by ``lengths``) and corners (tan = |cross|/dot; none at dot 0)."""
    s2 = measured.scale * measured.scale
    checks = [
        _equal(prefix + name, (sq, s2), _squared(getattr(forms, attr)), length)
        for (name, attr), sq, length in zip(_LENGTH_CHECKS, measured.squares, lengths)
    ]
    for (name, attr), i in zip(_TANGENT_CHECKS, _AT):
        (dot, cross), stored = measured.corners[i], getattr(forms, attr)
        check = _equal(prefix + name, (abs(cross), dot), _ratio(stored), stored) if dot else None
        checks.append(check or Check(prefix + name, FAIL, None, stored))
    return checks


def _construction_checks(q: QuadConstruction, D: int, A: int, B: int, G: int) -> tuple:
    """The construction's checks, on one lattice of its vertex fields and on its
    triple (A, B, G)/D; and what a member's checks read: the measurement, the
    rendered squared lengths, the shoelace area as an int pair and theta."""
    measured = measure(q.vertices() + (q.circumcenter, q.v_a))
    g, b, g2, g1, center, v_a = measured.points
    s2 = measured.scale * measured.scale
    ptolemy = measured.ptolemy
    checks = [
        _equal("concyclicity-determinant", (0, 1), (measured.det, s2 * s2), 0),
        _check("concyclic", measured.concyclic, True, measured.concyclic),
        _check("ptolemy-identity", ptolemy, "holds", "holds" if ptolemy else "violated"),
        _equal("right-angle-at-B", (0, 1), (dot_cross(b, g2, g1)[0], s2), 0),
    ]
    radius, stored = q.radius_squared, _ratio(q.radius_squared)
    for name, point in zip(_RADIUS_NAMES, (g, b, g2, g1)):
        checks.append(_equal(name, stored, (dist_squared(point, center), s2), radius))
    lengths = [_OnRender(Fraction, square, s2) for square in measured.squares]
    checks += _form_checks("", q, measured, lengths)
    for name, (u, v) in (
        ("tangent-sum-B-Gamma1", (q.tan_b, q.tan_gamma1)),
        ("tangent-sum-Gamma-Gamma2", (q.tan_gamma, q.tan_gamma2)),
    ):
        (un, ud), (vn, vd) = _ratio(u), _ratio(v)
        checks.append(_equal(name, (0, 1), (un * vd + vn * ud, ud * vd), 0))

    BG, area = B + G, (abs(measured.shoelace_sum), 2 * s2)
    shown = _OnRender(Fraction, *area)
    checks.append(_equal("area-shoelace-vs-closed", closed_area(D, A, B, G), area, shown))
    helper = (abs(twice_area(measured.points[:4])), 2 * s2)
    checks.append(_equal("area-helper-agrees", area, helper, shown))
    checks.append(_equal("theta-tangent", (A, BG), _ratio(q.tan_theta), q.tan_theta))
    theta = Fraction(A, BG)
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
    cos, sin = _OnRender(Fraction, B, G), _OnRender(Fraction, A, G)
    checks.append(_equal("double-angle-cos", (B, G), (dot * D * D, prod), cos))
    checks.append(_equal("double-angle-sin", (A, G), (abs(cross) * D * D, prod), sin))
    return checks, measured, lengths, area, theta


def _erratum_checks(errata: tuple[Erratum, ...]) -> list[Check]:
    return [
        Check(f"published-value:{er.ident}", CheckStatus.ERRATUM, er.printed, er.computed)
        for er in errata
    ]


def verify_construction(q: QuadConstruction) -> VerificationReport:
    """Full oracle pass over one construction."""
    errata = errata_for_triple(q.alpha, q.beta, q.gamma)
    D, (A, B, G) = common_denominator((q.alpha, q.beta, q.gamma))
    checks = _construction_checks(q, D, A, B, G)[0] + _erratum_checks(errata)
    subject = f"construction({q.alpha}, {q.beta}, {q.gamma})"
    return VerificationReport(subject, tuple(checks), errata)


def _heron_check(is_heron: bool, criterion: bool, integral: bool) -> Check:
    ok = is_heron == criterion == integral
    actual = f"delta%L==0: {criterion}, all integral: {integral}"
    return _check("heron-criterion-matches-integrality", ok, f"is_heron={is_heron}", actual)


def verify_member(member: FamilyMember) -> VerificationReport:
    """Full oracle pass over the construction of a family member's triple:
    the generic construction checks plus the member closed forms, the Heron
    criterion, and the registered errata."""
    p, triple = member.params, member.params.triple()  # ints: over D = 1
    q = construct_quad(*triple)
    checks, measured, lengths, measured_area, theta = _construction_checks(q, 1, *triple)
    checks += _form_checks("member-", member, measured, lengths)

    m, n, L, delta = p.m, p.n, p.L, p.delta
    mm_nn, mmnn = m * m - n * n, m * m + n * n
    # delta^2 m n (m^2 - n^2 + (m^2 - n^2)^2/(m^2 + n^2) + 2m^2), over m^2 + n^2
    bracket = (delta * delta * m * n * ((mm_nn + 2 * m * m) * mmnn + mm_nn * mm_nn), mmnn)
    reduced = (4 * delta * delta * m**5 * n, L * L)
    area, stored = member.area, _ratio(member.area)
    checks.append(_equal("member-area-vs-shoelace", measured_area, stored, area))
    checks.append(_equal("member-area-bracket-form", bracket, stored, area))
    checks.append(_equal("member-area-reduced-form", reduced, stored, area))
    rational = member.side_gamma_gamma1, member.diag_gamma_gamma2, member.area
    integral = all(v.denominator == 1 for v in rational)
    checks.append(_heron_check(member.is_heron, delta % L == 0, integral))
    checks.append(_equal("member-theta-n-over-m", _ratio(theta), (n, m), theta))

    errata = errata_for_member(delta, m, n)
    checks += _erratum_checks(errata)
    subject = f"member(delta={delta}, m={m}, n={n})"
    return VerificationReport(subject, tuple(checks), errata)


# (check name, degree in delta) of each leaf of ``_LEAVES``: the triple, the
# six lengths and the area of a row
_SCALING = (
    *((f"member-scaling-{leg}", 1) for leg in ("alpha", "beta", "gamma")),
    *((f"member-scaling-{name}", 1) for name, _ in _LENGTH_CHECKS),
    ("member-scaling-area", 2),
)
_LEAVES = attrgetter("alpha", "beta", "gamma", *[a for _, a in _LENGTH_CHECKS], "area")


def _scaling_parts(base: MemberRow) -> tuple:
    """The base of ``verify_scaling``: for each leaf, its check name, its degree
    and its value in ``base`` over delta^degree, in lowest terms, as (numerator,
    denominator); and the tangents of ``base``. For a verified row the triple
    and the four integral lengths have denominator 1."""
    d0, parts = base.delta, []
    for (name, k), leaf in zip(_SCALING, _LEAVES(base)):
        value = Fraction(*leaf) if type(leaf) is tuple else Fraction(leaf)
        parts.append((name, k, *_ratio(value / d0**k)))
    return parts, base.tangents


def verify_scaling(row: MemberRow, parts: tuple) -> tuple:
    """The failing checks of ``row`` against ``parts``, the ``_scaling_parts``
    of a row of its pair that ``verify_member`` passed: each leaf, an int or
    (p, q), must be n0/d0 * delta^degree for its part (n0, d0), decided on ints
    by cross-multiplying; its tangents must be the base's; and the Heron
    criterion must hold."""
    delta = row.delta
    powers = (1, delta, delta * delta)
    scaled, tangents = parts
    failed = []
    integral = True
    for (name, k, n0, d0), leaf in zip(scaled, _LEAVES(row)):
        if type(leaf) is tuple:
            p, q = leaf
            integral = integral and q == 1
        else:
            p, q = leaf, 1
        if p * d0 != n0 * powers[k] * q:
            failed.append(Check(name, FAIL, Fraction(n0 * powers[k], d0), Fraction(p, q)))
    if row.tangents != tangents:
        failed += [
            Check(f"member-scaling-{name}", FAIL, t0, t)
            for (name, _), t0, t in zip(_TANGENT_CHECKS, tangents, row.tangents)
            if t0 != t
        ]
    criterion = delta % row.L == 0
    if not row.is_heron == criterion == integral:
        failed.append(_heron_check(row.is_heron, criterion, integral))
    return tuple(failed)


def verify_window(rows: Iterable[MemberRow], with_errata: bool = True) -> Iterator[tuple]:
    """Each row of a window in pair order, with its failing checks' names
    and its errata: ``verify_member`` until a row of its pair passes, then
    scaling from that one. A scaled row's errata are looked up only
    ``with_errata``, else they are ()."""
    base = parts = None
    for row in rows:
        if base is not None and (base.m, base.n) == (row.m, row.n):
            parts = parts or _scaling_parts(base)
            checks = verify_scaling(row, parts)
            failed = [check.name for check in checks] if checks else []
            errata = errata_for_member(row.delta, row.m, row.n) if with_errata else ()
        else:
            report = verify_member(row.member())
            failed, errata = report.failed_names(), report.errata
            base, parts = None if failed else row, None
        yield row, failed, errata
