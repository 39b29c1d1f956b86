"""The oracles must accept every valid construction and, just as
importantly, reject perturbed ones. Errata are flagged as errata, never as
passes or failures."""

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from heronquad import verify
from heronquad.cli import main
from heronquad.exactnum import DomainError, Surd, euclid_triple
from heronquad.family import (
    enumerate_family,
    family_member,
    generating_pairs,
    heron_multiples,
)
from heronquad.geometry import (
    ANGLES,
    SEGMENTS,
    Point2,
    Vertex,
    angle_spread_degrees,
    construct_quad,
    corner,
    dist_squared,
    twice_area,
)
from heronquad.verify import (
    CheckStatus,
    _measure,
    _no_collinear_triple,
    _orient,
    concyclicity_determinant,
    errata_for_member,
    errata_for_triple,
    ptolemy_check,
    shoelace,
    verify_construction,
    verify_member,
    verify_scaling,
    verify_window,
)
from constructions import edited as edited_quad
from constructions import rational_lattice
from member_rows import edited, value


def P(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def signs(pts) -> list[int]:
    """The corner orientations of a quadrilateral, as ``verify._measure`` reads them."""
    return [_orient(corner(pts, i)[1]) for i in range(4)]


def concyclic(*pts) -> bool:
    """``Measurement.concyclic`` of four points, decided as ``verify._measure``
    decides it, without its simple-polygon test: no collinear triple, then a
    zero determinant."""
    return _no_collinear_triple(pts, signs(pts)) and concyclicity_determinant(*pts) == 0


def measure(pts):
    """``verify._measure`` on the lattice of rational points."""
    return _measure(*rational_lattice(pts))


def lengths_squared(q) -> list[Fraction]:
    """The six squared coordinate lengths of a construction, in SEGMENTS order."""
    pts = dict(zip(Vertex, q.vertices()))
    return [dist_squared(pts[one], pts[other]) for _, _, (one, other), _ in SEGMENTS]


class TestConcyclicity:
    def test_unit_square_offsets(self):
        assert concyclic(P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_generic_non_circle(self):
        assert not concyclic(P(0, 0), P(1, 0), P(1, 1), P(0, 2))

    def test_collinear_points_no_circle(self):
        assert not concyclic(P(0, 0), P(1, 0), P(2, 0), P(3, 0))
        # three collinear among four zero the determinant; still no circle
        assert not concyclic(P(0, 0), P(1, 0), P(2, 0), P(1, 5))

    def test_too_few_distinct_points(self):
        with pytest.raises(DomainError):
            concyclic(P(0, 0), P(0, 0), P(1, 1), P(1, 1))

    @pytest.mark.parametrize("repeat", [1, 2, 3])
    def test_three_distinct_points_decide_on_their_triangle(self, repeat):
        # with P(0, 0) repeated, the three distinct points share a circle
        # exactly when they are not collinear
        for third, expected in ((P(0, 1), True), (P(2, 0), False)):
            pts = [P(0, 0), P(1, 0), third]
            pts.insert(repeat, P(0, 0))
            assert concyclic(*pts) is expected

    def test_determinant_sign_consistency(self):
        # inside vs outside the circle through the first three points
        inside = concyclicity_determinant(P(0, 0), P(2, 0), P(0, 2), P(1, 1))
        outside = concyclicity_determinant(P(0, 0), P(2, 0), P(0, 2), P(5, 5))
        assert inside != 0 and outside != 0
        assert (inside > 0) != (outside > 0)

    def test_construction_vertices_concyclic(self):
        q = construct_quad(3, 4, 5)
        assert concyclic(*q.vertices())

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-50, max_value=50, max_denominator=60),
                st.fractions(min_value=-50, max_value=50, max_denominator=60),
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_determinant_matches_cofactor_expansion(self, coords):
        # reference: the 4x4 determinant of rows (x^2 + y^2, x, y, 1),
        # expanded along its column of ones
        rows = [(x * x + y * y, x, y) for x, y in coords]

        def det3(r):
            (a, b, c), (d, e, f), (g, h, i) = r
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

        expected = sum(
            (-1) ** (i + 1) * det3([rows[j] for j in range(4) if j != i]) for i in range(4)
        )
        assert concyclicity_determinant(*(Point2(x, y) for x, y in coords)) == expected


# -- a plain-Fraction reference for the integer-lattice kernel


def _ref_orient(a, b, c) -> int:
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (v > 0) - (v < 0)


def _ref_determinant(pts) -> Fraction:
    rows = [(p.x * p.x + p.y * p.y, p.x, p.y) for p in pts]

    def det3(r):
        (a, b, c), (d, e, f), (g, h, i) = r
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    return sum((-1) ** (i + 1) * det3([rows[j] for j in range(4) if j != i]) for i in range(4))


def _ref_tangent(pts, i):
    here, prev, nxt = pts[i], pts[i - 1], pts[(i + 1) % 4]
    ux, uy, vx, vy = prev.x - here.x, prev.y - here.y, nxt.x - here.x, nxt.y - here.y
    dot = ux * vx + uy * vy
    return None if dot == 0 else abs(ux * vy - uy * vx) / dot


def _ref_domain_error(pts) -> str | None:
    """The DomainError message of a degenerate 4-gon: too few distinct
    points, a zero-length edge, or two opposite edges that meet."""
    if len(set(pts)) < 3:
        return "concyclicity needs at least three distinct points"
    for i in range(4):
        if pts[i] == pts[(i + 1) % 4]:
            return f"zero-length edge at vertex {i}"

    def on_segment(a, b, p):
        return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)

    for i, j in ((0, 2), (1, 3)):
        a, b, c, d = pts[i], pts[i + 1], pts[j], pts[(j + 1) % 4]
        o1, o2, o3, o4 = (_ref_orient(*t) for t in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)))
        if (o1 != o2 and o3 != o4) or any(
            o == 0 and on_segment(*seg, p)
            for o, seg, p in ((o1, (a, b), c), (o2, (a, b), d), (o3, (c, d), a), (o4, (c, d), b))
        ):
            return f"traversal order self-intersects (edges {i} and {j}); not a simple polygon"
    return None


# coordinates up to 300 digits over denominators up to 10^12, mixed with a
# small grid on which duplicate, collinear and crossing vertices are common
_coordinate = st.one_of(
    st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**12)),
    st.integers(-2, 2).map(Fraction),
)
_point = st.builds(Point2, _coordinate, _coordinate)


def rationals(got) -> tuple:
    """What a measurement's ints stand for: the determinant over S^4, the
    squared lengths and the area over S^2, and the ANGLES tangents |cross|/dot
    (None at a right angle)."""
    s2 = got.scale**2
    corners = [got.corners[i] for i in (1, 0, 3, 2)]
    return (
        Fraction(got.det, s2 * s2),
        tuple(Fraction(square, s2) for square in got.squares),
        tuple(Fraction(abs(cross), dot) if dot else None for dot, cross in corners),
        Fraction(abs(got.shoelace_sum), 2 * s2),
    )


class TestLatticeKernel:
    @given(st.lists(_point, min_size=4, max_size=4))
    def test_matches_fraction_reference(self, pts):
        expected_error = _ref_domain_error(pts)
        if expected_error is not None:
            with pytest.raises(DomainError) as raised:
                measure(pts)
            assert str(raised.value) == expected_error
            return
        got = measure(pts)
        determinant, lengths_sq, tangents, area = rationals(got)
        assert determinant == _ref_determinant(pts)
        assert lengths_sq == tuple(
            (pts[i].x - pts[j].x) ** 2 + (pts[i].y - pts[j].y) ** 2
            for i, j in ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2))
        )
        assert tangents == tuple(_ref_tangent(pts, i) for i in (1, 0, 3, 2))
        twice = sum(p.x * r.y - r.x * p.y for p, r in zip(pts, pts[1:] + pts[:1]))
        assert area == abs(twice) / 2
        distinct = list(dict.fromkeys(pts))
        collinear = any(_ref_orient(*t) == 0 for t in combinations(distinct, 3))
        assert got.concyclic == (not collinear and determinant == 0)

    def test_right_angle_tangent_is_none(self):
        # the unit square: every interior angle is right
        got = measure([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        _, _, tangents, area = rationals(got)
        assert tangents == (None,) * 4
        assert got.concyclic and area == 1

    @pytest.mark.parametrize(
        "pts, message",
        [
            ([P(0, 0), P(1, 1), P(0, 0), P(1, 1)], "three distinct points"),
            ([P(0, 0), P(0, 0), P(1, 1), P(2, 0)], "zero-length edge at vertex 0"),
            ([P(0, 0), P(2, 2), P(2, 0), P(0, 2)], "(edges 0 and 2)"),
            ([P(0, 0), P(1, 0), P(2, 0), P(3, 0)], "(edges 1 and 3)"),
        ],
    )
    def test_degenerate_inputs_raise(self, pts, message):
        with pytest.raises(DomainError) as raised:
            measure(pts)
        assert message in str(raised.value)
        assert str(raised.value) == _ref_domain_error(pts)

    def test_lattice_scale_comes_from_the_coordinates(self):
        q = construct_quad(3, 4, 5)
        got = _measure(*q.lattice)
        # Gamma = (9/5, 12/5) and the circumcenter (9/2, -3/2): S = lcm(5, 2)
        assert got.scale == 10
        assert got.points[0] == Point2(18, 24)
        assert got.points[4] == Point2(45, -15)


class TestPtolemy:
    def test_holds_on_constructions(self):
        for triple in ((3, 4, 5), (120, 35, 125), (20, 21, 29), (12, 35, 37)):
            assert ptolemy_check(lengths_squared(construct_quad(*triple)))

    def test_detects_perturbed_vertex(self):
        q = construct_quad(3, 4, 5)
        # move Gamma1 along the x-axis by 1/1000: floats barely notice,
        # the exact identity must
        tampered = edited_quad(
            q, v_gamma1=Point2(q.v_gamma1.x + Fraction(1, 1000), q.v_gamma1.y)
        )
        assert not ptolemy_check(lengths_squared(tampered))

    def test_detects_scaled_diagonal_claim(self):
        q = construct_quad(120, 35, 125)
        # tiny moves give 20-digit squared products, which the check must
        # decide without factoring them
        for move in (Fraction(1, 10**6), Fraction(1, 10**7)):
            tampered = edited_quad(
                q, v_gamma=Point2(q.v_gamma.x, q.v_gamma.y + move)
            )
            assert not ptolemy_check(lengths_squared(tampered))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=29),
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=0, max_value=5, max_denominator=10**7),
        ),
    )
    def test_agrees_with_concyclicity_under_moves(self, delta, m, n, eps):
        # Ptolemy's equality holds exactly for the cyclic order, so moving
        # Gamma1 along the x-axis must flip both oracles together
        assume(m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1)
        q = construct_quad(*euclid_triple(delta, m, n))
        moved = edited_quad(
            q, v_gamma1=Point2(q.v_gamma1.x + eps, q.v_gamma1.y)
        )
        concyclic_moved = concyclicity_determinant(*moved.vertices()) == 0
        assert ptolemy_check(lengths_squared(moved)) == concyclic_moved


def signed_shoelace(pts):
    return shoelace(pts, signs(pts))


class TestShoelace:
    def test_orientation_invariant(self):
        square = [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]
        assert signed_shoelace(square) == -signed_shoelace(square[::-1]) == 2 * 4

    def test_rejects_repeated_consecutive(self):
        with pytest.raises(DomainError, match="zero-length"):
            signed_shoelace([P(0, 0), P(0, 0), P(1, 1), P(2, 0)])

    def test_rejects_bowtie(self):
        with pytest.raises(DomainError, match="self-intersects"):
            signed_shoelace([P(0, 0), P(2, 2), P(2, 0), P(0, 2)])

    def test_rejects_edge_through_vertex(self):
        # fourth vertex sits on the first edge
        with pytest.raises(DomainError):
            signed_shoelace([P(0, 0), P(4, 0), P(4, 4), P(2, 0)])

    def test_matches_quad_area(self):
        q = construct_quad(120, 35, 125)
        assert abs(signed_shoelace(q.vertices())) == abs(twice_area(q.vertices())) == 2 * 12288


class TestErrataRegistry:
    def test_worked_example_triple(self):
        errata = errata_for_triple(Fraction(120), Fraction(35), Fraction(125))
        assert [er.ident for er in errata] == [
            "worked-example-diagonal-92",
            "worked-example-tangent-gamma",
            "worked-example-tangent-gamma2",
        ]
        by_id = {er.ident: er for er in errata}
        assert by_id["worked-example-diagonal-92"].printed == "92"
        assert by_id["worked-example-diagonal-92"].computed == "192"
        assert by_id["worked-example-tangent-gamma"].printed == "-8/3"
        assert by_id["worked-example-tangent-gamma"].computed == "-4/3"

    def test_other_triples_clean(self):
        assert errata_for_triple(Fraction(3), Fraction(4), Fraction(5)) == ()
        assert errata_for_triple(Fraction(35), Fraction(120), Fraction(125)) == ()

    def test_member_registry(self):
        worked = errata_for_member(5, 4, 3)
        idents = [er.ident for er in worked]
        assert "published-table-area-12888" in idents
        assert "family-tangent-closed-form" in idents
        generic = errata_for_member(1, 4, 3)
        assert [er.ident for er in generic] == ["family-tangent-closed-form"]

    def test_erratum_payload_shape(self):
        (erratum,) = errata_for_member(1, 12, 5)
        payload = erratum.to_payload()
        assert set(payload) == {"id", "quantity", "printed", "computed", "note"}
        assert payload["printed"] == "-2m/n = -24/5 and 2m/n = 24/5"
        assert payload["computed"] == "-m/n = -12/5 and m/n = 12/5"


class TestVerifyConstruction:
    def test_clean_pass(self):
        report = verify_construction(construct_quad(3, 4, 5))
        assert not report.has_failures
        assert report.errata == ()
        assert report.counts()["fail"] == 0
        assert report.counts()["erratum"] == 0

    def test_worked_example_has_errata_not_failures(self):
        report = verify_construction(construct_quad(120, 35, 125))
        assert not report.has_failures
        counts = report.counts()
        assert counts["erratum"] == 3
        erratum_checks = [c for c in report.checks if c.status is CheckStatus.ERRATUM]
        assert {c.name for c in erratum_checks} == {
            "published-value:worked-example-diagonal-92",
            "published-value:worked-example-tangent-gamma",
            "published-value:worked-example-tangent-gamma2",
        }

    def test_detects_tampered_tangent(self):
        q = construct_quad(120, 35, 125)
        tampered = edited_quad(q, tan_gamma=Fraction(-8, 3))
        report = verify_construction(tampered)
        assert report.has_failures
        failing = {c.name for c in report.checks if c.status is CheckStatus.FAIL}
        assert "tangent-Gamma" in failing

    def test_detects_tampered_length(self):
        q = construct_quad(3, 4, 5)
        tampered = edited_quad(q, side_gamma2_gamma1=Surd(Fraction(4), 10))
        report = verify_construction(tampered)
        assert report.has_failures

    def test_detects_tampered_vertex(self):
        q = construct_quad(3, 4, 5)
        tampered = edited_quad(q, v_gamma=Point2(Fraction(2), Fraction(12, 5)))
        report = verify_construction(tampered)
        failing = {c.name for c in report.checks if c.status is CheckStatus.FAIL}
        assert failing  # concyclicity, circumradius, lengths all blow up
        assert "circumradius-Gamma" in failing

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=1, max_value=24),
    )
    def test_generic_pairs_all_pass(self, delta, m, n):
        if not (m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1):
            return
        report = verify_construction(construct_quad(*euclid_triple(delta, m, n)))
        assert not report.has_failures


class TestScaleInvariance:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=11),
        st.booleans(),
        st.integers(min_value=-1000, max_value=1000),
    )
    @example(1, 2, 1, False, -1000)
    @example(1, 2, 1, True, -531)
    @example(4, 12, 11, False, 1000)
    def test_power_of_two_scale_keeps_the_verdict(self, delta, m, n, odd_first, j):
        # tiny coordinates once underflowed in the angle identity's products
        assume(m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1)
        even, odd, hyp = euclid_triple(delta, m, n)
        legs = (odd, even) if odd_first else (even, odd)
        unit = Fraction(2) ** j
        plain = verify_construction(construct_quad(*legs, hyp))
        scaled = verify_construction(construct_quad(*(v * unit for v in legs), hyp * unit))
        assert not plain.has_failures and not scaled.has_failures
        assert [c.name for c in scaled.checks] == [c.name for c in plain.checks]


class TestAngleSpreadCheck:
    def test_a_move_below_the_float_tolerance_fails_it(self):
        # the float spread of this edit reads 0.0; the exact identities do not hold
        q = construct_quad(3, 4, 5)
        moved = edited_quad(q, v_gamma=Point2(q.v_gamma.x + Fraction(1, 10**30), q.v_gamma.y))
        assert "angle-spread-below-1e-10-deg" in verify_construction(moved).failed_names()

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=1, max_value=49),
        st.booleans(),
        st.integers(min_value=-300, max_value=300),
    )
    @example(1, 2, 1, True, -200)  # 3/k, 4/k, 5/k with k = 10^200
    @example(1, 50, 49, True, 151)  # 99k, 4900k, 4901k with k = 10^151
    def test_exact_decision_agrees_with_the_float_spread(self, delta, m, n, odd_first, power):
        assume(m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1)
        even, odd, hyp = euclid_triple(delta, m, n)
        legs = (odd, even) if odd_first else (even, odd)
        unit = Fraction(10) ** power
        q = construct_quad(*(v * unit for v in legs), hyp * unit)
        report = verify_construction(q)
        spread = next(c for c in report.checks if c.name == "angle-spread-below-1e-10-deg")
        assert (spread.status is CheckStatus.PASS) == (angle_spread_degrees(q) < 1e-10)
        assert str(spread.actual) == str(angle_spread_degrees(q))


class TestVerifyMember:
    def test_worked_example_member(self):
        report = verify_member(family_member(5, 4, 3))
        assert not report.has_failures
        assert report.counts()["erratum"] == 5

    def test_non_heron_member(self):
        report = verify_member(family_member(2, 4, 3))
        assert not report.has_failures
        names = {c.name for c in report.checks}
        assert "heron-criterion-matches-integrality" in names

    def test_small_window_members_all_pass(self):
        for row in enumerate_family(4, 6):
            report = verify_member(row)
            assert not report.has_failures, report.subject

    def test_report_payload_shape(self):
        report = verify_member(family_member(5, 4, 3))
        payload = report.to_payload()
        assert set(payload) == {"subject", "counts", "checks"}
        assert payload["counts"]["fail"] == 0
        assert all(
            set(c) == {"name", "status", "expected", "actual"} for c in payload["checks"]
        )

    @given(
        st.integers(min_value=1, max_value=200),
        st.sampled_from([(m, n) for *_, m, n, _ in generating_pairs(8)]),
    )
    def test_payload_renders_every_value(self, delta, pair):
        report = verify_member(family_member(delta, *pair))
        assert not report.has_failures
        assert_rendered(report)


# the member closed forms verify_scaling compares, and the name of its check
_SCALED = {
    **{attr: f"member-scaling-{kind}-{label}" for kind, label, _, attr in SEGMENTS},
    "area": "member-scaling-area",
    **{attr: f"member-scaling-tangent-{vertex.value}" for vertex, attr in ANGLES},
}


def _edit(row, attr, k):
    """``row`` with ``is_heron`` negated, or with the closed form ``attr`` times ``k``."""
    if attr == "is_heron":
        return row._replace(is_heron=not row.is_heron)
    return edited(row, **{attr: value(row, attr) * k})


class TestVerifyScaling:
    def test_a_row_is_its_member(self):
        for row in enumerate_family(5, 12):
            assert family_member(row.delta, row.m, row.n) == row

    def test_every_member_scales_from_the_first_of_its_pair(self):
        bases = {}
        for row in enumerate_family(5, 12):
            base = bases.setdefault((row.m, row.n), row)
            assert verify_scaling(row, base) == []

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([(m, n) for *_, m, n, _ in generating_pairs(8)]),
        st.sampled_from(sorted(_SCALED) + ["is_heron"]),
        st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
    )
    def test_fails_exactly_where_the_oracles_fail(self, delta, delta0, pair, attr, k):
        # an edited closed form of a member, checked against a verified member
        # of its pair, fails the scaling check exactly when the oracles fail it
        assume(k != 1)
        row = _edit(family_member(delta, *pair), attr, k)
        failed = verify_scaling(row, family_member(delta0, *pair))
        assert bool(failed) == verify_member(row).has_failures
        if attr != "is_heron":
            assert failed[0] == _SCALED[attr]

    @pytest.mark.parametrize("delta", [1, 5, 13, 10**20])
    def test_a_triple_scaled_alone_fails_each_legs_scaling(self, delta):
        # the triple of delta + 1, a right triple, in a row whose other leaves are delta's
        member = family_member(delta, 12, 5)
        row = edited(member, **{
            leg: getattr(member, leg) * (delta + 1) // delta for leg in ("alpha", "beta", "gamma")
        })
        assert (row.alpha, row.beta, row.gamma) == euclid_triple(delta + 1, 12, 5)
        assert verify_scaling(row, family_member(2, 12, 5)) == [
            "member-scaling-alpha", "member-scaling-beta", "member-scaling-gamma"
        ]
        assert verify_member(row).has_failures

    @pytest.mark.parametrize(
        "attr",
        [
            # of q = 1 at every delta
            "side_gamma_b",
            "side_b_gamma2",
            "side_gamma2_gamma1",
            "diag_b_gamma1",
            # of q = 1 at a multiple of L
            "side_gamma_gamma1",
            "diag_gamma_gamma2",
            "area",
        ],
    )
    def test_an_int_leaf_and_its_equal_fraction_are_one_value(self, attr):
        # a row keeps an int v as (v, 1), the one form of the Fraction v too
        base, member = family_member(1, 12, 5), family_member(3 * 13, 12, 5)
        number = value(member, attr)
        assert number.denominator == 1
        row = edited(member, **{attr: int(number)})
        assert row == edited(member, **{attr: Fraction(number)}) == member
        assert verify_scaling(row, base) == []
        assert not verify_member(row).has_failures
        # one more fails the scaling of that leaf alone
        assert verify_scaling(edited(member, **{attr: number + 1}), base) == [_SCALED[attr]]


# small windows in pair order, of both commands' shapes
_WINDOWS = st.one_of(
    st.builds(heron_multiples, st.integers(2, 4), st.integers(1, 3)),
    st.builds(enumerate_family, st.integers(2, 3), st.integers(1, 30), heron_only=st.booleans()),
).map(list)


class TestVerifyWindow:
    @given(
        _WINDOWS,
        st.integers(0, 200),
        st.sampled_from(sorted(_SCALED) + ["is_heron"]),
        st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
    )
    # the first member of the second pair, and of the first
    @example(list(heron_multiples(3, 3)), 3, "tan_gamma", Fraction(2))
    @example(list(enumerate_family(2, 4)), 0, "is_heron", Fraction(2))
    def test_each_verdict_is_the_oracles_verdict(self, window, i, attr, k):
        # one member edited: the window's verdict on every member is the one
        # verify_member gives it alone
        assume(window and k != 1)
        i %= len(window)
        window[i] = _edit(window[i], attr, k)
        verdicts = [(row, bool(failed)) for row, failed in verify_window(window)]
        assert verdicts == [(row, verify_member(row).has_failures) for row in window]

    def test_a_failing_first_member_is_never_the_base(self, monkeypatch):
        checked = []
        failures = verify.member_failures
        monkeypatch.setattr(verify, "member_failures", lambda m: checked.append(m) or failures(m))
        window = list(heron_multiples(2, 3))
        for i in (0, 2):
            window[i] = edited(window[i], area=value(window[i], "area") + 1)
        failed = [names for _, names in verify_window(window)]
        # the next member runs the oracles and becomes the base the third scales from
        assert checked == window[:2]
        assert failed == [
            ["member-area-vs-shoelace", "member-area-bracket-form", "member-area-reduced-form"],
            [],
            ["member-scaling-area"],
        ]


def assert_rendered(report) -> None:
    """Every expected/actual of the payload is a string: ``str`` of the value
    the check keeps."""
    checks = report.to_payload()["checks"]
    assert [c["name"] for c in checks] == [c.name for c in report.checks]
    for check, rendered in zip(report.checks, checks):
        assert isinstance(rendered["expected"], str) and isinstance(rendered["actual"], str)
        assert rendered["expected"] == str(check.expected)
        assert rendered["actual"] == str(check.actual)


class TestReportRendering:
    def test_checks_keep_the_compared_values(self):
        report = verify_member(family_member(5, 4, 3))
        assert len(report.checks) == 47
        theta = next(c for c in report.checks if c.name == "member-theta-n-over-m")
        assert theta.expected == theta.actual == Fraction(3, 4)
        assert isinstance(theta.expected, Fraction)

    def test_passing_payload_values_are_strings(self):
        assert_rendered(verify_member(family_member(5, 4, 3)))
        assert_rendered(verify_construction(construct_quad("3/2", "2", "5/2")))

    @pytest.mark.parametrize("name", ["tampered-vertex", "tampered-tangent", "moved-vertex"])
    def test_failing_payload_values_are_strings(self, name):
        report = verify_construction(_tampered(name))
        assert report.has_failures
        assert_rendered(report)


def _tampered(name: str):
    if name == "tampered-vertex":
        q = construct_quad(3, 4, 5)
        return edited_quad(q, v_gamma=P(2, Fraction(12, 5)))
    q = construct_quad(120, 35, 125)
    if name == "tampered-tangent":
        return edited_quad(q, tan_gamma=Fraction(-8, 3))
    moved = Point2(q.v_gamma.x, q.v_gamma.y + Fraction(1, 10**7))
    return edited_quad(q, v_gamma=moved)


@pytest.mark.parametrize("name", ["tampered-vertex", "tampered-tangent", "moved-vertex"])
def test_failing_check_payload_is_pinned(name):
    # every expected/actual string of a failing run, byte for byte, as the
    # Fraction oracles printed them before the integer-lattice kernel
    pinned = Path(__file__).with_name("golden") / f"payload-{name}.json"
    report = verify_construction(_tampered(name))
    assert report.has_failures
    got = json.dumps(report.to_payload(), indent=2) + "\n"
    assert got == pinned.read_text(encoding="utf-8")


# one closed form of the worked-example member edited: a non-integral side,
# and the printed area and tangent of the published errata
_EDITED_MEMBER_VALUES = {
    "side_gamma_gamma1": Fraction(113, 2),
    "area": Fraction(12888),
    "tan_gamma": Fraction(-8, 3),
}


@pytest.mark.parametrize("attr", sorted(_EDITED_MEMBER_VALUES))
def test_failing_member_payload_is_pinned(attr):
    # every expected/actual string of a failing member run, byte for byte, as
    # the Fraction comparisons printed them before checks were decided on ints
    pinned = Path(__file__).with_name("golden") / f"payload-member-{attr.replace('_', '-')}.json"
    report = verify_member(edited(family_member(5, 4, 3), **{attr: _EDITED_MEMBER_VALUES[attr]}))
    assert report.has_failures
    got = json.dumps(report.to_payload(), indent=2) + "\n"
    assert got == pinned.read_text(encoding="utf-8")


# -- the whole report, rebuilt in plain Fractions from the reference helpers

_REF_ENDS = ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2))  # SEGMENTS order


def _ref_square(length) -> Fraction:
    """The square of a stored length, rational or surd."""
    if hasattr(length, "radicand"):
        return length.coefficient**2 * length.radicand
    return Fraction(length) ** 2


def _ref_construction_checks(q) -> list[tuple]:
    """(name, passed, expected, actual) of each construction check, in order,
    each value a Fraction computed from the construction's fields."""
    pts = list(q.vertices())
    g, b, g2, g1 = pts
    alpha, beta, gamma = q.alpha, q.beta, q.gamma
    checks = []

    def same(name, expected, actual):
        checks.append((name, expected == actual, expected, actual))

    def dot_cross(here, p, r):
        ux, uy, vx, vy = p.x - here.x, p.y - here.y, r.x - here.x, r.y - here.y
        return ux * vx + uy * vy, ux * vy - uy * vx

    det = _ref_determinant(pts)
    collinear = any(_ref_orient(*t) == 0 for t in combinations(dict.fromkeys(pts), 3))
    squares = [(pts[i].x - pts[j].x) ** 2 + (pts[i].y - pts[j].y) ** 2 for i, j in _REF_ENDS]
    s0, s1, s2, s3, d0, d1 = squares
    gap = d0 * d1 - s0 * s2 - s1 * s3
    same("concyclicity-determinant", 0, det)
    same("concyclic", True, not collinear and det == 0)
    ptolemy = gap >= 0 and gap * gap == 4 * s0 * s2 * s1 * s3
    same("ptolemy-identity", "holds", "holds" if ptolemy else "violated")
    same("right-angle-at-B", 0, dot_cross(b, g2, g1)[0])
    center = q.circumcenter
    for vertex, p in zip(Vertex, pts):
        radius_squared = (p.x - center.x) ** 2 + (p.y - center.y) ** 2
        same(f"circumradius-{vertex.value}", q.radius_squared, radius_squared)
    for (kind, label, _, attr), square in zip(SEGMENTS, squares):
        same(f"{kind}-{label}", square, _ref_square(getattr(q, attr)))
    for (vertex, attr), i in zip(ANGLES, (1, 0, 3, 2)):
        same(f"tangent-{vertex.value}", _ref_tangent(pts, i), getattr(q, attr))
    same("tangent-sum-B-Gamma1", 0, q.tan_b + q.tan_gamma1)
    same("tangent-sum-Gamma-Gamma2", 0, q.tan_gamma + q.tan_gamma2)
    area = abs(sum(p.x * r.y - r.x * p.y for p, r in zip(pts, pts[1:] + pts[:1]))) / 2
    same("area-shoelace-vs-closed", q.area, area)
    same("area-helper-agrees", area, abs(twice_area(pts)) / 2)
    theta = alpha / (beta + gamma)
    same("theta-tangent", theta, q.tan_theta)
    same("shared-base-angle-identity", theta, (gamma - beta) / alpha)
    # the base angle at Gamma2 has tangent theta, whose double angle has a/b
    dot, cross = dot_cross(g2, b, g)
    spread_ok = dot > 0 and abs(cross) / dot == theta and 2 * theta / (1 - theta**2) == alpha / beta
    checks.append(("angle-spread-below-1e-10-deg", spread_ok, "< 1e-10", angle_spread_degrees(q)))
    dot, cross = dot_cross(q.v_a, b, g)  # |A-B| |A-Gamma| = gamma beta
    same("double-angle-cos", beta / gamma, dot / (gamma * beta))
    same("double-angle-sin", alpha / gamma, abs(cross) / (gamma * beta))
    return checks


def _ref_member_checks(member, q) -> list[tuple]:
    """The member's own checks after its construction's, as above."""
    pts = list(q.vertices())
    squares = [(pts[i].x - pts[j].x) ** 2 + (pts[i].y - pts[j].y) ** 2 for i, j in _REF_ENDS]
    area = abs(sum(p.x * r.y - r.x * p.y for p, r in zip(pts, pts[1:] + pts[:1]))) / 2
    m, n, L, delta = member.m, member.n, member.L, member.delta
    checks = []

    def same(name, expected, actual):
        checks.append((name, expected == actual, expected, actual))

    for (kind, label, _, attr), square in zip(SEGMENTS, squares):
        same(f"member-{kind}-{label}", square, _ref_square(value(member, attr)))
    for (vertex, attr), i in zip(ANGLES, (1, 0, 3, 2)):
        same(f"member-tangent-{vertex.value}", _ref_tangent(pts, i), value(member, attr))
    member_area = value(member, "area")
    same("member-area-vs-shoelace", area, member_area)
    diff, total = m * m - n * n, m * m + n * n
    bracket = delta**2 * m * n * (diff + Fraction(diff**2, total) + 2 * m * m)
    same("member-area-bracket-form", bracket, member_area)
    same("member-area-reduced-form", Fraction(4 * delta**2 * m**5 * n, L * L), member_area)
    criterion = delta % L == 0
    rational = [value(member, attr) for attr in ("side_gamma_gamma1", "diag_gamma_gamma2", "area")]
    integral = all(Fraction(v).denominator == 1 for v in rational)
    checks.append((
        "heron-criterion-matches-integrality",
        member.is_heron == criterion == integral,
        f"is_heron={member.is_heron}",
        f"delta%L==0: {criterion}, all integral: {integral}",
    ))
    same("member-theta-n-over-m", q.alpha / (q.beta + q.gamma), Fraction(n, m))
    return checks


def _ref_payload(subject: str, checks: list[tuple], errata) -> dict:
    rows = [
        {"name": name, "status": "pass" if ok else "fail", "expected": str(e), "actual": str(a)}
        for name, ok, e, a in checks
    ]
    rows += [
        {
            "name": f"published-value:{er.ident}",
            "status": "erratum",
            "expected": er.printed,
            "actual": er.computed,
        }
        for er in errata
    ]
    statuses = [row["status"] for row in rows]
    counts = {status: statuses.count(status) for status in ("pass", "fail", "erratum")}
    return {"subject": subject, "counts": counts, "checks": rows}


def _edited(value, k: Fraction):
    """A stored value times k: a surd's coefficient, or the rational itself."""
    if hasattr(value, "radicand"):
        return value._replace(coefficient=value.coefficient * k)
    return value * k


_POINTS = ["v_gamma", "v_b", "v_gamma2", "v_gamma1", "v_a", "circumcenter"]
_FORMS = [attr for *_, attr in SEGMENTS] + [attr for _, attr in ANGLES]
_CONSTRUCTION_EDITS = [None, "radius_squared", "tan_theta"] + _POINTS + _FORMS
_MEMBER_EDITS = [None, "area", "is_heron"] + _FORMS
_TINY = Fraction(1, 10**30)


class TestReportEqualsFractionReference:
    """The integer-lattice report renders, byte for byte, the payload that
    plain Fraction arithmetic on the same fields gives."""

    @given(
        st.integers(1, 4),
        st.sampled_from([(m, n) for *_, m, n, _ in generating_pairs(9)]),
        st.booleans(),
        st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
        st.integers(-40, 40),
        st.sampled_from(_CONSTRUCTION_EDITS),
        st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
        st.booleans(),
    )
    @example(1, (4, 3), False, Fraction(1), 0, "v_gamma", Fraction(2), False)  # a move of 10^-30
    # the worked example, with its errata
    @example(5, (4, 3), False, Fraction(1), 0, None, Fraction(1), False)
    def test_construction(self, delta, pair, odd_first, scale, j, edit, k, along_y):
        even, odd, hyp = euclid_triple(delta, *pair)
        legs = (odd, even) if odd_first else (even, odd)
        unit = scale * Fraction(2) ** j
        q = construct_quad(*(v * unit for v in legs), hyp * unit)
        if edit in _POINTS:
            x, y = getattr(q, edit)
            q = edited_quad(q, **{edit: Point2(x, y + _TINY) if along_y else Point2(x + _TINY, y)})
        elif edit is not None:
            assume(k != 1)
            q = edited_quad(q, **{edit: _edited(getattr(q, edit), k)})
        subject = f"construction({q.alpha}, {q.beta}, {q.gamma})"
        errata = errata_for_triple(q.alpha, q.beta, q.gamma)
        expected = _ref_payload(subject, _ref_construction_checks(q), errata)
        assert json.dumps(verify_construction(q).to_payload()) == json.dumps(expected)

    @given(
        st.integers(1, 200),
        st.sampled_from([(m, n) for *_, m, n, _ in generating_pairs(9)]),
        st.sampled_from(_MEMBER_EDITS),
        st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
    )
    @example(5, (4, 3), "area", Fraction(12888, 12288))  # the published area misprint
    def test_member(self, delta, pair, edit, k):
        member = family_member(delta, *pair)
        if edit == "is_heron":
            member = member._replace(is_heron=not member.is_heron)
        elif edit is not None:
            assume(k != 1)
            member = edited(member, **{edit: _edited(value(member, edit), k)})
        q = construct_quad(member.alpha, member.beta, member.gamma)
        checks = _ref_construction_checks(q) + _ref_member_checks(member, q)
        subject = f"member(delta={delta}, m={member.m}, n={member.n})"
        expected = _ref_payload(subject, checks, errata_for_member(delta, member.m, member.n))
        assert json.dumps(verify_member(member).to_payload()) == json.dumps(expected)


def _moved(point: str, step: str, along_y: bool):
    """A ``construct_quad`` whose construction has ``point`` moved along x or
    y by 10^-30 or by one unit of its lattice."""

    def construct(*triple):
        q = construct_quad(*triple)
        d = _TINY if step == "tiny" else Fraction(1, q.lattice[0])
        x, y = getattr(q, point)
        return edited_quad(q, **{point: Point2(x, y + d) if along_y else Point2(x + d, y)})

    return construct


class TestWindowNamesTheReportsFailures:
    """The failing names ``verify_window`` yields for a pair's first row, which
    ``family`` and ``heron-table`` print, are ``verify_member(...).failed_names()``:
    both read the same decisions."""

    @given(
        st.integers(1, 60),
        st.sampled_from([(m, n) for *_, m, n, _ in generating_pairs(8)]),
        st.sampled_from(sorted(_SCALED) + ["is_heron"]),
        st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
    )
    def test_an_edited_closed_form(self, delta, pair, attr, k):
        row = _edit(family_member(delta, *pair), attr, k)
        ((_, failed),) = verify_window([row])
        assert failed == verify_member(row).failed_names()
        assert bool(failed) == (k != 1 or attr == "is_heron")

    @pytest.mark.parametrize("attr", sorted(_EDITED_MEMBER_VALUES))
    def test_an_edited_member_value(self, attr):
        row = edited(family_member(5, 4, 3), **{attr: _EDITED_MEMBER_VALUES[attr]})
        ((_, failed),) = verify_window([row])
        assert failed == verify_member(row).failed_names() != []

    @given(
        st.integers(1, 60),
        st.sampled_from([(m, n) for *_, m, n, _ in generating_pairs(8)]),
        st.sampled_from(_POINTS),
        st.sampled_from(["tiny", "unit"]),
        st.booleans(),
    )
    @example(1, (4, 3), "v_gamma", "tiny", False)  # the move of 10^-30 that floats miss
    def test_a_moved_point(self, delta, pair, point, step, along_y):
        row = family_member(delta, *pair)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "construct_quad", _moved(point, step, along_y))
            ((_, failed),) = verify_window([row])
            assert failed == verify_member(row).failed_names() != []

    @pytest.mark.parametrize("csv", [False, True])
    def test_heron_table_prints_the_reports_names(self, monkeypatch, capsys, csv):
        monkeypatch.setattr(verify, "construct_quad", _moved("v_gamma", "unit", False))
        argv = ["heron-table", "--t-max", "3"] + ["--format", "csv"] * csv
        assert main(argv) == 4
        lines = capsys.readouterr().err.splitlines()
        rows = list(heron_multiples(3, 1))
        for line, row in zip(lines, rows):
            names = verify_member(row).failed_names()
            where = f"(m={row.m}, n={row.n}, delta={row.delta})"
            assert line.endswith(f"for {where}: {len(names)} check(s): {', '.join(names)}")
        assert lines[len(rows):] == [f"heron-quad: {len(rows)} row(s) failed verification"]
