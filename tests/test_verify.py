"""The oracles must accept every valid construction and, just as
importantly, reject perturbed ones. Errata are flagged as errata, never as
passes or failures."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from heronquad.exactnum import DomainError, scaled_triple, surd_normalize
from heronquad.family import enumerate_family, family_member
from heronquad.geometry import Point2, construct_quad, quad_area
from heronquad.verify import (
    CheckStatus,
    concyclic,
    concyclicity_determinant,
    errata_for_member,
    errata_for_triple,
    ptolemy_check,
    shoelace,
    verify_construction,
    verify_member,
)


def P(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


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


class TestPtolemy:
    def test_holds_on_constructions(self):
        for triple in ((3, 4, 5), (120, 35, 125), (20, 21, 29), (12, 35, 37)):
            assert ptolemy_check(construct_quad(*triple))

    def test_detects_perturbed_vertex(self):
        q = construct_quad(3, 4, 5)
        # move Gamma1 along the x-axis by 1/1000: floats barely notice,
        # the exact identity must
        tampered = dataclasses.replace(
            q, v_gamma1=Point2(q.v_gamma1.x + Fraction(1, 1000), q.v_gamma1.y)
        )
        assert not ptolemy_check(tampered)

    def test_detects_scaled_diagonal_claim(self):
        q = construct_quad(120, 35, 125)
        # tiny moves give 20-digit squared products, which the check must
        # decide without factoring them
        for move in (Fraction(1, 10**6), Fraction(1, 10**7)):
            tampered = dataclasses.replace(
                q, v_gamma=Point2(q.v_gamma.x, q.v_gamma.y + move)
            )
            assert not ptolemy_check(tampered)

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
        t = scaled_triple(delta, m, n)
        q = construct_quad(t.a, t.b, t.c)
        moved = dataclasses.replace(
            q, v_gamma1=Point2(q.v_gamma1.x + eps, q.v_gamma1.y)
        )
        assert ptolemy_check(moved) == (concyclicity_determinant(*moved.vertices()) == 0)


class TestShoelace:
    def test_triangle(self):
        assert shoelace([P(0, 0), P(4, 0), P(0, 3)]) == 6

    def test_orientation_invariant(self):
        square = [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]
        assert shoelace(square) == shoelace(list(reversed(square))) == 4

    def test_rejects_too_few(self):
        with pytest.raises(DomainError):
            shoelace([P(0, 0), P(1, 1)])

    def test_rejects_repeated_consecutive(self):
        with pytest.raises(DomainError, match="zero-length"):
            shoelace([P(0, 0), P(0, 0), P(1, 1), P(2, 0)])

    def test_rejects_bowtie(self):
        with pytest.raises(DomainError, match="self-intersects"):
            shoelace([P(0, 0), P(2, 2), P(2, 0), P(0, 2)])

    def test_rejects_edge_through_vertex(self):
        # fourth vertex sits on the first edge
        with pytest.raises(DomainError):
            shoelace([P(0, 0), P(4, 0), P(4, 4), P(2, 0)])

    def test_matches_quad_area(self):
        q = construct_quad(120, 35, 125)
        assert shoelace(list(q.vertices())) == quad_area(q) == 12288


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
        worked = errata_for_member(family_member(5, 4, 3))
        idents = [er.ident for er in worked]
        assert "published-table-area-12888" in idents
        assert "family-tangent-closed-form" in idents
        generic = errata_for_member(family_member(1, 4, 3))
        assert [er.ident for er in generic] == ["family-tangent-closed-form"]

    def test_erratum_payload_shape(self):
        (erratum,) = errata_for_member(family_member(1, 12, 5))
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
        tampered = dataclasses.replace(q, tan_gamma=Fraction(-8, 3))
        report = verify_construction(tampered)
        assert report.has_failures
        failing = {c.name for c in report.checks if c.status is CheckStatus.FAIL}
        assert "tangent-Gamma" in failing

    def test_detects_tampered_length(self):
        q = construct_quad(3, 4, 5)
        tampered = dataclasses.replace(q, side_gamma2_gamma1=surd_normalize(4, 10))
        report = verify_construction(tampered)
        assert report.has_failures

    def test_detects_tampered_vertex(self):
        q = construct_quad(3, 4, 5)
        tampered = dataclasses.replace(q, v_gamma=Point2(Fraction(2), Fraction(12, 5)))
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
        t = scaled_triple(delta, m, n)
        report = verify_construction(construct_quad(t.a, t.b, t.c))
        assert not report.has_failures


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
        for mem in enumerate_family(4, 6):
            report = verify_member(mem)
            assert not report.has_failures, report.subject

    def test_report_payload_shape(self):
        report = verify_member(family_member(5, 4, 3))
        payload = report.to_payload()
        assert set(payload) == {"subject", "counts", "checks"}
        assert payload["counts"]["fail"] == 0
        assert all(
            set(c) == {"name", "status", "expected", "actual"} for c in payload["checks"]
        )
