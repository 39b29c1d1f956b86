"""Independent oracles and verification reports for the constructions.

The oracles work from vertex coordinates and exact arithmetic only: a 4x4
concyclicity determinant, the Ptolemy identity decided by squaring products of
squared coordinate distances, and the quadrilateral's shoelace with an exact
self-intersection test. None consults the closed forms it checks, so a bug in
them cannot hide. A verification measures each coordinate quantity once, on one
integer lattice: the construction's own (``QuadConstruction.lattice``, its
points times S, the least scale that makes them ints; a moved point is measured
where it is). S is read from the construction, never rebuilt from a closed
form, and scaling by S is a similarity: lengths grow by S; squared lengths,
areas and the corners' dot and cross products by S^2; the concyclicity
determinant by S^4; angles not at all. So a claim p/q on a quantity of degree
k, read from the construction's ints, is decided on ints, by
p * S^k == q * measured, never by a float.

Each check is decided once, in report order, into a decision: its name, the
bool and the two values it compared (int pairs where it is an equality of
rationals). Two readers share the decisions. ``verify_window`` reads the
names of the failing ones (``member_failures``), so a passing check builds
no ``Check`` and no Fraction there. ``verify_construction`` and
``verify_member`` return a report to render: they build a ``Check`` for each
decision, keep an int pair as a Fraction, and compute the one float shown
(the angle spread) and the Heron criterion's texts when the report is built.

A family member (``family.MemberRow``) is its ints: the quadrilateral of its
stored triple delta*(2mn, m^2 - n^2, m^2 + n^2), the one its payload prints,
and each closed form that ``family._pair_rows`` derives from (delta, m, n) as
one (p, q). ``verify_member`` builds that triple's construction and checks
those pairs against it, as it checks the construction's own.
``construct_quad`` is homogeneous: a triple scaled by s > 0 scales its
coordinates, lengths and surd coefficients by s and its squared radius and
area by s^2, and keeps its radicands and tangents. Each check but the Heron
criterion is homogeneous in these, so scaling skips no oracle: a member whose
triple and closed forms scale from a verified member of its pair (degree 1
in delta, the area 2, the tangents 0) gets the same verdict from each.

``verify_window``, the one home of that policy for ``family`` and
``heron-table``, reads a window pair by pair. It decides the checks of
``verify_member`` on a pair's first row (``member_failures``), and on the
next while a row fails. If the pair has more rows, it builds one scaler
(``_scaler``) from the first row that passes: that row's ten leaves times
its powers of delta, and its tangents. The scaler decides each later row by
cross-multiplying the row's ints with those, and the Heron criterion as a
bool (its texts are formatted only for a report). Neither builds a
Fraction. It yields each row's verdict only: the errata registry runs no
oracle, and the printers look up the errata of the rows they print.

Known misprints in the published reference values are kept in a small
registry (``errata``): a verification that touches one reports an
``erratum`` entry (printed vs oracle value) instead of a failure, so
implementation bugs stay distinguishable from source typos.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errata import errata_for_member, errata_for_triple
from .exactnum import DomainError
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
    twice_area,
)

if TYPE_CHECKING:
    from .errata import Erratum
    from .family import MemberRow

__all__ = [
    "Check",
    "CheckStatus",
    "Measurement",
    "VerificationReport",
    "concyclicity_determinant",
    "member_failures",
    "ptolemy_check",
    "shoelace",
    "verify_construction",
    "verify_member",
    "verify_window",
]


# ---------------------------------------------------------------------------
# oracles


def _det3(rows: Sequence[tuple[int | Fraction, ...]]) -> int | Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def concyclicity_determinant(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> int | Fraction:
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


def shoelace(quad: Sequence[Point2], signs: Sequence[int]) -> int:
    """Twice the signed area of a quadrilateral in traversal order, by the
    shoelace sum; ``signs`` are its corner orientations. Zero-length edges and
    self-intersections (tested exactly on both pairs of opposite edges) are
    errors, not silently wrong areas."""
    for i in range(4):
        if quad[i] == quad[(i + 1) % 4]:
            raise DomainError(f"zero-length edge at vertex {i}")
    for i, j in ((0, 2), (1, 3)):
        a, b, c, d = quad[i], quad[i + 1], quad[j], quad[(j + 1) % 4]
        # the corners at i + 1, i, j + 1, j orient (a, b, c), (a, b, d), ... negated
        o1, o2, o3, o4 = signs[i + 1], signs[i], signs[(j + 1) % 4], signs[j]
        # a proper crossing, or (searched only then) an endpoint on the other edge
        if (o1 != o2 and o3 != o4) or not (o1 and o2 and o3 and o4) and any(
            o == 0 and _on_segment(one, other, p)
            for o, one, other, p in ((o1, a, b, c), (o2, a, b, d), (o3, c, d, a), (o4, c, d, b))
        ):
            raise DomainError(
                f"traversal order self-intersects (edges {i} and {j}); not a simple polygon"
            )
    return sum(px * ry - rx * py for (px, py), (rx, ry) in zip(quad, quad[1:] + quad[:1]))


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


def _measure(scale: int, pts: tuple[Point2, ...]) -> Measurement:
    """The oracles on the quadrilateral of ``pts[:4]``, in int arithmetic on a
    lattice as it is: int ``pts`` at ``scale`` (later points only share the
    scale). Each vertex triple is a corner: the corners give every orientation
    the degeneracy tests read."""
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


# ---------------------------------------------------------------------------
# decisions: (name, ok, expected, actual), in report order


def _equal(name: str, expected: tuple[int, int], actual: tuple[int, int]) -> tuple:
    """The decision of an equality of two rationals, each an int (numerator,
    denominator) pair: by cross-multiplying."""
    (en, ed), (an, ad) = expected, actual
    return name, en * ad == an * ed, expected, actual


def _squared(form: tuple[int, ...]) -> tuple[int, int]:
    """The exact square of a length kept as ints, (n, d) for n/d or (n, d, r)
    for (n/d)*sqrt(r), as (numerator, denominator)."""
    n, d, *radicand = form
    return n * n * (radicand[0] if radicand else 1), d * d


def _checks(decisions: list[tuple], q: QuadConstruction) -> list[Check]:
    """The ``Check`` of each decision. An equality that holds keeps its one
    value as both; an int pair is kept as a Fraction, and a callable (the float
    angle spread, the Heron criterion's texts) is computed from ``q``."""
    checks = []
    for name, ok, expected, actual in decisions:
        if ok and type(expected) is tuple:
            expected = actual = Fraction(*expected)
        else:
            expected, actual = _kept(expected, q), _kept(actual, q)
        checks.append(Check(name, PASS if ok else FAIL, expected, actual))
    return checks


def _kept(value: object, q: QuadConstruction) -> object:
    if type(value) is tuple:
        return Fraction(*value)
    return value(q) if callable(value) else value


# the check names of the circumradii, the SEGMENTS lengths and the ANGLES tangents
_RADIUS_NAMES = tuple(f"circumradius-{vertex.value}" for vertex in Vertex)
_LENGTH_NAMES = tuple(f"{kind}-{label}" for kind, label, _, _ in SEGMENTS)
_TANGENT_NAMES = tuple(f"tangent-{vertex.value}" for vertex, _ in ANGLES)
# a member's closed forms of those lengths, and its area
_LENGTHS_AREA = attrgetter(*[attr for *_, attr in SEGMENTS], "area")


def _form_decisions(
    prefix: str, lengths: Iterable[tuple], tangents: Iterable[tuple], measured: Measurement
) -> list[tuple]:
    """Stored lengths and tangents, as int pairs or (n, d, r) surds, against
    the measured squares (lengths compare exactly on squares) and corners
    (tan = |cross|/dot; none at dot 0)."""
    s2 = measured.scale * measured.scale
    decisions = [
        _equal(prefix + name, (sq, s2), _squared(length))
        for name, sq, length in zip(_LENGTH_NAMES, measured.squares, lengths)
    ]
    for name, i, stored in zip(_TANGENT_NAMES, _AT, tangents):
        dot, cross = measured.corners[i]
        decisions.append(
            _equal(prefix + name, (abs(cross), dot), stored)
            if dot
            else (prefix + name, False, None, stored)
        )
    return decisions


def _construction_decisions(q: QuadConstruction) -> tuple:
    """The construction's decisions, on its lattice and on its triple
    (A, B, G)/D; and what a member's decisions read: the measurement, the
    shoelace area as an int pair and tan theta as (A, B + G)."""
    D, A, B, G = q.triple
    scale, points = q.lattice
    measured = _measure(scale, points)
    g, b, g2, g1, center, v_a = points
    s2 = scale * scale
    concyclic, ptolemy = measured.concyclic, measured.ptolemy
    decisions = [
        _equal("concyclicity-determinant", (0, 1), (measured.det, s2 * s2)),
        ("concyclic", concyclic, True, concyclic),
        ("ptolemy-identity", ptolemy, "holds", "holds" if ptolemy else "violated"),
        _equal("right-angle-at-B", (0, 1), (dot_cross(b, g2, g1)[0], s2)),
    ]
    *lengths, tan_b, tan_gamma, tan_gamma1, tan_gamma2, tan_theta, radius = q.forms
    for name, point in zip(_RADIUS_NAMES, (g, b, g2, g1)):
        decisions.append(_equal(name, radius, (dist_squared(point, center), s2)))
    tangents = tan_b, tan_gamma, tan_gamma1, tan_gamma2
    decisions += _form_decisions("", lengths, tangents, measured)
    for name, (un, ud), (vn, vd) in (
        ("tangent-sum-B-Gamma1", tan_b, tan_gamma1),
        ("tangent-sum-Gamma-Gamma2", tan_gamma, tan_gamma2),
    ):
        decisions.append(_equal(name, (0, 1), (un * vd + vn * ud, ud * vd)))

    BG, area = B + G, (abs(measured.shoelace_sum), 2 * s2)
    decisions.append(_equal("area-shoelace-vs-closed", closed_area(D, A, B, G), area))
    helper = (abs(twice_area(points[:4])), 2 * s2)
    decisions.append(_equal("area-helper-agrees", area, helper))
    theta = (A, BG)
    decisions.append(_equal("theta-tangent", theta, tan_theta))
    decisions.append(_equal("shared-base-angle-identity", theta, (G - B, A)))
    # phi, the base angle at Gamma2, and omega = atan2(a, b)/2 equal theta when
    # tan phi = a/(b+g) and tan 2theta = 2t/(1 - t^2) = a/b for t = a/(b+g);
    # the float spread of the three is shown, never decides
    dot, cross = dot_cross(g2, b, g)
    spread_ok = dot > 0 and abs(cross) * BG == dot * A and 2 * B * BG == BG * BG - A * A
    decisions.append(("angle-spread-below-1e-10-deg", spread_ok, "< 1e-10", angle_spread_degrees))

    # the apex coordinates encode the double angle: cos = beta/gamma, sin = alpha/gamma
    dot, cross = dot_cross(v_a, b, g)
    prod = G * B * s2  # |A-B| * |A-Gamma| for this embedding, on the lattice, times D^2
    decisions.append(_equal("double-angle-cos", (B, G), (dot * D * D, prod)))
    decisions.append(_equal("double-angle-sin", (A, G), (abs(cross) * D * D, prod)))
    return decisions, measured, area, theta


def _erratum_checks(errata: tuple[Erratum, ...]) -> list[Check]:
    return [
        Check(f"published-value:{er.ident}", CheckStatus.ERRATUM, er.printed, er.computed)
        for er in errata
    ]


def verify_construction(q: QuadConstruction) -> VerificationReport:
    """Full oracle pass over one construction."""
    errata = errata_for_triple(q.alpha, q.beta, q.gamma)
    checks = _checks(_construction_decisions(q)[0], q) + _erratum_checks(errata)
    subject = f"construction({q.alpha}, {q.beta}, {q.gamma})"
    return VerificationReport(subject, tuple(checks), errata)


# a member's rational closed forms, in lowest terms: Gamma-Gamma1, Gamma-Gamma2 and the area
_RATIONAL = attrgetter("side_gamma_gamma1", "diag_gamma_gamma2", "area")
_HERON = "heron-criterion-matches-integrality"


def _heron(row: MemberRow) -> tuple[bool, bool]:
    """What the Heron criterion compares ``is_heron`` with: delta%L == 0, and
    whether every rational closed form is an int. It holds when all three agree."""
    gg1, gg2, area = _RATIONAL(row)
    return row.delta % row.L == 0, gg1[1] == gg2[1] == area[1] == 1


def _member_decisions(row: MemberRow) -> tuple[QuadConstruction, list[tuple]]:
    """The construction of a member's stored triple (``row.alpha``, ``beta``,
    ``gamma``: the triple its payload prints) and the decisions of its oracle
    pass: the generic construction checks, then the closed forms that
    ``family._pair_rows`` derives from (delta, m, n) (the lengths, the area
    and the ``tangents``, each a (p, q) pair), and the Heron criterion."""
    m, n, L, delta = row.m, row.n, row.L, row.delta
    q = construct_quad(row.alpha, row.beta, row.gamma)
    decisions, measured, measured_area, theta = _construction_decisions(q)
    *lengths, area = _LENGTHS_AREA(row)
    decisions += _form_decisions("member-", lengths, row.tangents, measured)

    mm_nn, mmnn = m * m - n * n, m * m + n * n
    # delta^2 m n (m^2 - n^2 + (m^2 - n^2)^2/(m^2 + n^2) + 2m^2), over m^2 + n^2
    bracket = (delta * delta * m * n * ((mm_nn + 2 * m * m) * mmnn + mm_nn * mm_nn), mmnn)
    reduced = (4 * delta * delta * m**5 * n, L * L)
    decisions.append(_equal("member-area-vs-shoelace", measured_area, area))
    decisions.append(_equal("member-area-bracket-form", bracket, area))
    decisions.append(_equal("member-area-reduced-form", reduced, area))
    # the criterion's texts are formatted when a report is built
    criterion, integral = _heron(row)
    decisions.append((
        _HERON,
        row.is_heron == criterion == integral,
        lambda _: f"is_heron={row.is_heron}",
        lambda _: f"delta%L==0: {criterion}, all integral: {integral}",
    ))
    decisions.append(_equal("member-theta-n-over-m", theta, (n, m)))
    return q, decisions


def verify_member(row: MemberRow) -> VerificationReport:
    """Full oracle pass over the construction of a family member's triple:
    the generic construction checks plus the member closed forms, the Heron
    criterion, and the registered errata."""
    q, decisions = _member_decisions(row)
    errata = errata_for_member(row.delta, row.m, row.n)
    checks = _checks(decisions, q) + _erratum_checks(errata)
    subject = f"member(delta={row.delta}, m={row.m}, n={row.n})"
    return VerificationReport(subject, tuple(checks), errata)


def member_failures(row: MemberRow) -> list[str]:
    """``verify_member(row).failed_names()``: the same decisions, with no
    ``Check`` built and no errata looked up."""
    return [name for name, ok, _, _ in _member_decisions(row)[1] if not ok]


# (check name, degree in delta) of each leaf of ``_leaves``
_SCALING = (
    *((f"member-scaling-{leg}", 1) for leg in ("alpha", "beta", "gamma")),
    *((f"member-scaling-{name}", 1) for name in _LENGTH_NAMES),
    ("member-scaling-area", 2),
)
_SCALED_TANGENTS = tuple(f"member-scaling-{name}" for name in _TANGENT_NAMES)


def _leaves(row: MemberRow) -> tuple[tuple[int, int], ...]:
    """The triple, the six lengths and the area of a row, each as (p, q)."""
    return ((row.alpha, 1), (row.beta, 1), (row.gamma, 1), *_LENGTHS_AREA(row))


def _scaler(base: MemberRow) -> tuple:
    """What each other row of the pair of ``base``, a row that
    ``verify_member`` passed, is decided against: each leaf p0/q0 of the base
    with its check name, degree k and q0 * delta0^k, and the base's tangents."""
    powers0 = (1, base.delta, base.delta * base.delta)
    leaves = zip(_SCALING, _leaves(base))
    return [(name, k, p0, q0 * powers0[k]) for (name, k), (p0, q0) in leaves], base.tangents


def _scaled_failures(scaler: tuple, row: MemberRow) -> list[str]:
    """The names of the failing checks of ``row`` by the ``_scaler`` of a row
    of its pair: each leaf p/q must be p0/q0 * (delta/delta0)^k, decided on
    ints by cross-multiplying; its tangents must be the base's; and the Heron
    criterion must hold."""
    leaves0, tangents0 = scaler
    delta = row.delta
    powers = (1, delta, delta * delta)
    failed = [
        name
        for (name, k, p0, q0), (p, q) in zip(leaves0, _leaves(row))
        if p * q0 != p0 * q * powers[k]
    ]
    if row.tangents != tangents0:  # a pair's rows share one tuple
        for name, (p0, q0), (p, q) in zip(_SCALED_TANGENTS, tangents0, row.tangents):
            if p * q0 != p0 * q:
                failed.append(name)
    criterion, integral = _heron(row)
    if not row.is_heron == criterion == integral:
        failed.append(_HERON)
    return failed


def verify_window(pairs: Iterable[Iterable[MemberRow]]) -> Iterator[tuple[MemberRow, list[str]]]:
    """Each row of a window of pairs, each pair the rows of one (m, n), in
    order, with its failing checks' names: the checks of ``verify_member``
    (``member_failures``) until a row of its pair passes, then one
    ``_scaler`` of that row decides each later row."""
    for rows in pairs:
        base = scaler = None
        for row in rows:
            if base is None:
                try:
                    failed = member_failures(row)
                except DomainError as exc:  # construct_quad refuses a triple that is not right
                    raise DomainError(f"{exc} for {row.label}") from None
                base = None if failed else row
            else:
                if scaler is None:  # built at the next row, so a one-row pair builds none
                    scaler = _scaler(base)
                failed = _scaled_failures(scaler, row)
            yield row, failed
