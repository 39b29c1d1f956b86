"""The coordinate embedding: exact vertices, lengths, tangents, the
circumcircle, and the rejection of non-Pythagorean or float inputs."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heronquad.exactnum import (
    DomainError,
    Surd,
    euclid_triple,
    surd_sqrt_ints,
)
from heronquad.geometry import (
    ANGLES,
    FORMS,
    POINTS,
    Point2,
    QuadConstruction,
    Vertex,
    angle_spread_degrees,
    construct_quad,
    dist_squared,
    dot_cross,
    interior_angle_degrees,
    corner,
    twice_area,
)
from constructions import rational_lattice

# every exact value of a construction, by name: the triple, the points (views
# of its lattice) and the closed forms (views of its ints)
VALUES = ("alpha", "beta", "gamma", *POINTS, *FORMS)


class TestPoint2:
    def test_vector_ops(self):
        here = Point2(Fraction(1), Fraction(1))
        p = Point2(Fraction(3), Fraction(4))
        # u = p - here = (2, 3)
        assert dot_cross(here, p, p) == (13, 0)
        assert dot_cross(here, p, Point2(Fraction(2), Fraction(1))) == (2, -3)
        assert dot_cross(here, Point2(Fraction(2), Fraction(1)), p) == (2, 3)

    def test_dist_squared(self):
        assert dist_squared(Point2(Fraction(0), Fraction(0)), Point2(Fraction(3), Fraction(4))) == 25


class TestConstructSmallTriple:
    def test_3_4_5(self):
        q = construct_quad(3, 4, 5)
        assert q.v_gamma == Point2(Fraction(9, 5), Fraction(12, 5))
        assert q.v_b == Point2(Fraction(0), Fraction(0))
        assert q.v_gamma2 == Point2(Fraction(0), Fraction(-3))
        assert q.v_gamma1 == Point2(Fraction(9), Fraction(0))
        assert q.v_a == Point2(Fraction(5), Fraction(0))
        assert q.side_gamma_b == 3
        assert q.side_b_gamma2 == 3
        assert q.side_gamma2_gamma1 == Surd(Fraction(3), 10)
        assert q.side_gamma_gamma1 == Surd(Fraction(12, 5), 10)
        assert q.diag_b_gamma1 == 9
        assert q.diag_gamma_gamma2 == Surd(Fraction(9, 5), 10)
        assert (q.tan_b, q.tan_gamma, q.tan_gamma1, q.tan_gamma2) == (
            Fraction(-3, 4),
            Fraction(-3),
            Fraction(3, 4),
            Fraction(3),
        )
        assert q.tan_theta == Fraction(1, 3)
        assert q.circumcenter == Point2(Fraction(9, 2), Fraction(-3, 2))
        assert q.radius_squared == Fraction(90, 4)
        # right triangle B-Gamma2-Gamma1 contributes 27/2, the upper
        # triangle Gamma-B-Gamma1 contributes 9 * (12/5) / 2 = 54/5
        assert abs(twice_area(q.vertices())) / 2 == Fraction(243, 10)

    def test_accepts_rational_triples(self):
        q = construct_quad(Fraction(3, 2), 2, Fraction(5, 2))
        assert q.side_gamma_b == Fraction(3, 2)
        assert abs(twice_area(q.vertices())) > 0

    def test_accepts_string_inputs(self):
        q = construct_quad("3/2", "2", "5/2")
        assert q.side_gamma_b == Fraction(3, 2)

    def test_theta_degrees(self):
        q = construct_quad(3, 4, 5)
        assert math.isclose(q.theta_degrees, math.degrees(math.atan(1 / 3)), abs_tol=1e-12)


class TestConstructValidation:
    def test_rejects_non_pythagorean(self):
        with pytest.raises(DomainError, match="alpha\\^2 \\+ beta\\^2"):
            construct_quad(3, 4, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError, match="positive"):
            construct_quad(0, 4, 4)
        with pytest.raises(DomainError, match="positive"):
            construct_quad(3, -4, 5)

    def test_rejects_floats_pointing_at_float_api(self):
        with pytest.raises(DomainError, match="not a float"):
            construct_quad(3.0, 4, 5)


class TestRightAngleAndCircle:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=29),
    )
    def test_invariants_across_primitive_pairs(self, delta, m, n):
        if not (m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1):
            return
        q = construct_quad(*euclid_triple(delta, m, n))
        g, b, g2, g1 = q.vertices()
        # right angle at B, so Gamma2-Gamma1 must be a diameter
        assert dot_cross(b, g2, g1)[0] == 0
        assert dist_squared(g2, g1) == 4 * q.radius_squared
        # all four vertices on the circumcircle
        for p in (g, b, g2, g1):
            assert dist_squared(p, q.circumcenter) == q.radius_squared
        # A is the double-angle carrier: |BA| = gamma and |A Gamma| = beta
        assert dist_squared(q.v_a, b) == q.gamma * q.gamma
        assert dist_squared(q.v_a, g) == q.beta * q.beta

    def test_gamma_on_circle_apex_angle(self):
        q = construct_quad(120, 35, 125)
        assert angle_spread_degrees(q) < 1e-10

    def test_theta_degrees_is_derived_not_stored(self):
        q = construct_quad(120, 35, 125)
        assert "theta_degrees" not in QuadConstruction._fields
        with pytest.raises(ValueError, match="theta_degrees"):
            q._replace(theta_degrees=q.theta_degrees + 1e-9)

    def test_a_construction_is_its_ints(self):
        # the triple as (D, A, B, G), the lattice and the closed forms: ints only
        q = construct_quad(Fraction(3, 2), 2, "5/2")
        assert q.triple == (2, 3, 4, 5)
        assert (q.alpha, q.beta, q.gamma) == (Fraction(3, 2), 2, Fraction(5, 2))
        scale, points = q.lattice
        stored = [*q.triple, scale, *(c for p in points for c in p), *(v for f in q.forms for v in f)]
        assert all(type(v) is int for v in stored)


def interior_tangent(q, vertex) -> Fraction:
    """|cross|/dot of the corner at ``vertex``, from the coordinates alone."""
    dot, cross = corner(q.vertices(), list(Vertex).index(vertex))
    return Fraction(abs(cross), dot)


class TestInteriorTangents:
    def test_tangents_match_stored_closed_forms(self):
        for triple in ((3, 4, 5), (120, 35, 125), (20, 21, 29)):
            q = construct_quad(*triple)
            for vertex, attr in ANGLES:
                assert interior_tangent(q, vertex) == getattr(q, attr)

    def test_right_angle_returns_none(self):
        # isosceles right-triangle-like quadrilateral cannot arise from a
        # Pythagorean triple; check the contract on the raw helper instead
        # by constructing a quadrilateral whose angle at B is right: it is
        # always right by the embedding, but B's interior angle spans the
        # traversal neighbours Gamma and Gamma2, not Gamma2 and Gamma1.
        q = construct_quad(3, 4, 5)
        assert interior_tangent(q, Vertex.B) == Fraction(-3, 4)

    def test_opposite_angles_supplementary(self):
        q = construct_quad(12, 35, 37)
        assert q.tan_b + q.tan_gamma1 == 0
        assert q.tan_gamma + q.tan_gamma2 == 0
        for one, other in ((Vertex.B, Vertex.GAMMA1), (Vertex.GAMMA, Vertex.GAMMA2)):
            total = interior_angle_degrees(q, one) + interior_angle_degrees(q, other)
            assert math.isclose(total, 180.0, rel_tol=1e-12)


class TestQuadArea:
    def test_worked_example_area(self):
        q = construct_quad(120, 35, 125)
        assert abs(twice_area(q.vertices())) / 2 == 12288

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=19),
    )
    def test_area_closed_form(self, delta, m, n):
        if not (m > n and math.gcd(m, n) == 1 and (m + n) % 2 == 1):
            return
        q = construct_quad(*euclid_triple(delta, m, n))
        a, b, g = q.alpha, q.beta, q.gamma
        area = abs(twice_area(q.vertices())) / 2
        assert area == a * b / 2 + (b * b / 2) * (a / g) + a * (b + g) / 2
        assert q.area == area


def _ref_construction(alpha, beta, gamma) -> dict:
    """Every field of the construction, and its area, by plain Fraction
    arithmetic on the triple (the formulas of the geometry module docstring)."""
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    for name, value in (("alpha", a), ("beta", b), ("gamma", g)):
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value}")
    if a * a + b * b != g * g:
        raise DomainError(
            f"alpha^2 + beta^2 != gamma^2: {a}^2 + {b}^2 = {a * a + b * b}, gamma^2 = {g * g}"
        )
    zero, bg = Fraction(0), b + g
    s, tu, ru = surd_sqrt_ints(*(2 * g / bg).as_integer_ratio())
    hyp = _times(Surd(Fraction(s, tu), ru), bg)
    return {
        "alpha": a,
        "beta": b,
        "gamma": g,
        "v_gamma": Point2(a * a / g, a * b / g),
        "v_b": Point2(zero, zero),
        "v_gamma2": Point2(zero, -a),
        "v_gamma1": Point2(bg, zero),
        "v_a": Point2(g, zero),
        "side_gamma_b": a,
        "side_b_gamma2": a,
        "side_gamma2_gamma1": hyp,
        "side_gamma_gamma1": _times(hyp, b / g),
        "diag_b_gamma1": bg,
        "diag_gamma_gamma2": _times(hyp, a / g),
        "tan_b": -a / b,
        "tan_gamma": a / (b - g),
        "tan_gamma1": a / b,
        "tan_gamma2": bg / a,
        "tan_theta": a / bg,
        "theta_degrees": math.degrees(math.atan2(float(a), float(bg))),
        "circumcenter": Point2(bg / 2, -a / 2),
        "radius_squared": g * bg / 2,
        "area": a * b / 2 + (b * b / 2) * (a / g) + a * (b + g) / 2,
    }


def _exact_parts(value):
    """The Fractions an exact field is made of."""
    if isinstance(value, Point2):
        return [value.x, value.y]
    if isinstance(value, Surd):
        return [value.coefficient]
    return [value]


@st.composite
def _rational_triples(draw):
    """(A, B, G) / D: a Euclid triple scaled to up to 300 digits, in either
    leg order, over a D whose factors reduce each component differently;
    sometimes made non-positive or non-Pythagorean."""
    m = draw(st.integers(2, 10**4))
    n = draw(st.integers(1, m - 1))
    scale = draw(st.integers(1, 10**290))
    legs = [2 * m * n * scale, (m * m - n * n) * scale]
    if draw(st.booleans()):
        legs.reverse()
    den = draw(
        st.one_of(
            st.integers(1, 10**12),
            st.lists(st.sampled_from([2, 3, 5, 7]), max_size=12).map(math.prod),
        )
    )
    triple = [Fraction(v, den) for v in (*legs, (m * m + n * n) * scale)]
    slot = draw(st.integers(0, 2))
    corruption = draw(st.sampled_from(["none"] * 5 + ["zero", "negate", "nudge"]))
    if corruption == "zero":
        triple[slot] = Fraction(0)
    elif corruption == "negate":
        triple[slot] = -triple[slot]
    elif corruption == "nudge":
        triple[slot] += Fraction(1, draw(st.integers(1, 10**6)))
    return [draw(st.sampled_from([v, str(v)])) for v in triple]


class TestConstructionReference:
    @given(_rational_triples())
    def test_matches_fraction_reference(self, triple):
        try:
            expected = _ref_construction(*triple)
        except DomainError as error:
            with pytest.raises(DomainError) as raised:
                construct_quad(*triple)
            assert str(raised.value) == str(error)
            return
        q = construct_quad(*triple)
        for name in VALUES:
            got, want = getattr(q, name), expected[name]
            assert got == want, name
            assert all(type(part) is Fraction for part in _exact_parts(got)), name
        # the stored lattice is the least one of the points
        assert q.lattice == rational_lattice([expected[name] for name in POINTS])
        assert q.theta_degrees.hex() == expected["theta_degrees"].hex()
        assert q.area == expected["area"]
        assert type(q.area) is Fraction


def _times(value, k: Fraction):
    """A construction field times the rational k > 0: a point by coordinates,
    a surd by its coefficient, with the radicand kept."""
    if isinstance(value, Point2):
        return Point2(value.x * k, value.y * k)
    if isinstance(value, Surd):
        return Surd(value.coefficient * k, value.radicand)
    return value * k


_positive_rationals = st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9))


class TestHomogeneity:
    """construct_quad(s * triple) is construct_quad(triple) scaled by s; the
    scaling check of ``verify_window`` (a pair's ``verify._scaler``) rests on this."""

    @given(
        st.integers(2, 10**4).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
        _positive_rationals,
        _positive_rationals,
        st.booleans(),
    )
    def test_scaled_triple_scales_the_construction(self, pair, r, s, odd_first):
        m, n = pair
        legs = [2 * m * n * r, (m * m - n * n) * r]
        if odd_first:
            legs.reverse()
        triple = (*legs, (m * m + n * n) * r)
        q = construct_quad(*triple)
        scaled = construct_quad(*(s * v for v in triple))
        for name in VALUES:
            # tangents keep their value, the squared radius scales by s^2,
            # every coordinate, length and surd coefficient by s
            degree = 0 if name.startswith("tan_") else 2 if name == "radius_squared" else 1
            assert getattr(scaled, name) == _times(getattr(q, name), s**degree), name
        assert scaled.area == s * s * q.area
