"""The parametric family: closed forms vs the generic construction, the
Heron divisibility criterion, and the two-parameter (t1, t2) layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heronquad.exactnum import DomainError, Surd, euclid_triple, exact_sqrt
from heronquad.geometry import construct_quad
from heronquad.verify import verify_member
from heronquad import family
from heronquad.family import (
    MEMBERS_MAX,
    MemberRow,
    TForm,
    enumerate_family,
    family_member,
    generating_pairs,
    heron_multiples,
    mnl_from_t,
)
from member_rows import FORMS, TANGENTS, edited, value


class TestMnlFromT:
    def test_even_m_form_first_pair(self):
        # (2, 1): 2*t1*t2 = 4 is the larger leg
        assert mnl_from_t(2, 1) == (4, 3, 5)

    def test_even_m_form_second_pair(self):
        assert mnl_from_t(3, 2) == (12, 5, 13)

    def test_odd_m_accepted_when_larger(self):
        # (4, 1): t1^2 - t2^2 = 15 is the larger leg, n = 8, L = 17
        assert mnl_from_t(4, 1) == (15, 8, 17)

    def test_l_is_hypotenuse(self):
        for t1, t2 in ((2, 1), (4, 1)):
            m, n, L = mnl_from_t(t1, t2)
            assert m * m + n * n == L * L
        assert mnl_from_t(2, 1)[2] == 5

    def test_t_pair_validation(self):
        # the t pair is checked as a generator pair, with the same wording
        with pytest.raises(DomainError, match="n >= 1"):
            mnl_from_t(2, 0)
        with pytest.raises(DomainError, match="m > n"):
            mnl_from_t(2, 2)
        with pytest.raises(DomainError, match="gcd"):
            mnl_from_t(4, 2)
        with pytest.raises(DomainError, match="odd"):
            mnl_from_t(3, 1)


T_MAX = 60


def _literal_triple(delta, m, n):
    return 2 * delta * m * n, delta * (m * m - n * n), delta * (m * m + n * n)


def _is_generator_pair(t1, t2):
    return math.gcd(t1, t2) == 1 and (t1 + t2) % 2 == 1


class TestOneEuclidFormula:
    """The t layer and the member triples agree with the formula written out."""

    def test_t_layer_over_every_pair_and_form(self):
        for t1 in range(2, T_MAX + 1):
            for t2 in range(1, t1):
                if not _is_generator_pair(t1, t2):
                    with pytest.raises(DomainError, match="generator pair needs"):
                        mnl_from_t(t1, t2)
                    continue
                odd, even, L = t1 * t1 - t2 * t2, 2 * t1 * t2, t1 * t1 + t2 * t2
                m, n = max(odd, even), min(odd, even)
                assert mnl_from_t(t1, t2) == (m, n, L)
                row = family_member(1, m, n)
                assert row.L == L
                assert row.t_pair == (t1, t2)
                assert row.t_form is (TForm.ODD_M if odd > even else TForm.EVEN_M)

    def test_member_triple_matches_scaled_triple(self):
        for _t1, _t2, m, n, L in generating_pairs(T_MAX):
            for delta in (1, 7, L):
                row = family_member(delta, m, n)
                assert (row.alpha, row.beta, row.gamma) == _literal_triple(delta, m, n)

    def test_generating_pairs_match_brute_force(self):
        expected = []
        for t1 in range(2, T_MAX + 1):
            for t2 in range(1, t1):
                if not _is_generator_pair(t1, t2):
                    continue
                odd, even, L = t1 * t1 - t2 * t2, 2 * t1 * t2, t1 * t1 + t2 * t2
                expected.append((t1, t2, max(odd, even), min(odd, even), L))
        assert list(generating_pairs(T_MAX)) == expected


class TestFamilyMember:
    def test_worked_example_member(self):
        mem = family_member(5, 4, 3)
        assert (mem.alpha, mem.beta, mem.gamma) == (120, 35, 125)
        assert value(mem, "side_gamma_b") == 120
        assert value(mem, "side_b_gamma2") == 120
        assert value(mem, "side_gamma2_gamma1") == 200
        assert mem.side_gamma_gamma1 == (56, 1)
        assert value(mem, "diag_b_gamma1") == 160
        assert mem.diag_gamma_gamma2 == (192, 1)
        assert tuple(value(mem, attr) for attr in TANGENTS) == (
            Fraction(-24, 7), Fraction(-4, 3), Fraction(24, 7), Fraction(4, 3)
        )
        assert mem.area == (12288, 1)
        assert mem.is_heron

    def test_tangent_closed_forms_are_m_over_n(self):
        # the Gamma/Gamma2 tangents reduce to -m/n and m/n, independent of
        # delta; the other pair is +-2mn/(m^2 - n^2)
        for delta, m, n in ((1, 4, 3), (7, 12, 5), (3, 8, 1)):
            if exact_sqrt(m * m + n * n) is None:
                mem = None
                with pytest.raises(DomainError):
                    family_member(delta, m, n)
                continue
            mem = family_member(delta, m, n)
            assert value(mem, "tan_gamma") == Fraction(-m, n)
            assert value(mem, "tan_gamma2") == Fraction(m, n)
            assert value(mem, "tan_b") == Fraction(-2 * m * n, m * m - n * n)

    def test_requires_square_hypotenuse(self):
        # (m, n) = (2, 1): m^2 + n^2 = 5 is not a perfect square, so the
        # fourth side x = 2 delta m (m^2 - n^2)/L would be irrational
        with pytest.raises(DomainError, match="perfect square"):
            family_member(1, 2, 1)

    def test_delta_scaling_is_linear_in_lengths_quadratic_in_area(self):
        base = family_member(1, 4, 3)
        scaled = family_member(7, 4, 3)
        assert value(scaled, "side_gamma_b") == 7 * value(base, "side_gamma_b")
        for attr in ("side_gamma_gamma1", "diag_gamma_gamma2"):
            assert value(scaled, attr) == 7 * value(base, attr)
        assert value(scaled, "area") == 49 * value(base, "area")
        # tangents are scale invariants
        assert value(scaled, "tan_b") == value(base, "tan_b")

    # verify_member is the one cross-check of a member's closed forms against
    # the construction of its triple
    @pytest.mark.parametrize(
        "attr, changed, name",
        [
            ("side_gamma2_gamma1", Surd(Fraction(200), 2), "member-side-Gamma2-Gamma1"),
            ("diag_gamma_gamma2", Fraction(193), "member-diagonal-Gamma-Gamma2"),
            ("tan_gamma", Fraction(-8, 3), "member-tangent-Gamma"),
        ],
        ids=["irrational-side", "rational-diagonal", "tangent"],
    )
    def test_cross_check_names_the_disagreeing_closed_form(self, attr, changed, name):
        member = edited(family_member(5, 4, 3), **{attr: changed})
        assert verify_member(member).failed_names() == [name]

    def test_cross_check_compares_the_shoelace_area(self):
        member = family_member(5, 4, 3)
        failed = verify_member(edited(member, area=value(member, "area") + 1)).failed_names()
        assert failed[0] == "member-area-vs-shoelace"

    def test_k_parameter(self):
        # k, the side Gamma2-Gamma1
        mem = family_member(5, 4, 3)
        k = value(mem, "side_gamma2_gamma1")
        assert k == 2 * 5 * 4 * 5
        a, b, g = (Fraction(v) for v in (mem.alpha, mem.beta, mem.gamma))
        assert k * k == a * a + (b + g) ** 2


def _ints(leaf) -> bool:
    """Whether ``leaf`` is an int, or a tuple of them at any depth."""
    return type(leaf) is int or type(leaf) is tuple and all(map(_ints, leaf))


class TestMemberRow:
    """``family._row`` is the one home of the closed forms; a row keeps them as ints."""

    @given(
        st.sampled_from(list(generating_pairs(8))),
        st.integers(min_value=1, max_value=10**30),
        st.booleans(),
    )
    @example((2, 1, 4, 3, 5), 5, False)  # the worked example
    @example((2, 1, 4, 3, 5), 10**30, True)
    def test_row_is_the_members_closed_forms(self, pair, delta, multiple_of_l):
        _t1, _t2, m, n, L = pair
        if multiple_of_l:
            delta = max(1, delta // L) * L
        row = family._row(delta, m, n, L, family._tangents(m, n))
        member = family_member(delta, m, n)
        # the closed forms of the module docstring, written out
        closed = {
            "alpha": 2 * delta * m * n,
            "beta": delta * (m * m - n * n),
            "gamma": delta * (m * m + n * n),
            "side_gamma_b": 2 * delta * m * n,
            "side_b_gamma2": 2 * delta * m * n,
            "side_gamma2_gamma1": 2 * delta * m * L,
            "side_gamma_gamma1": Fraction(2 * delta * m * (m * m - n * n), L),
            "diag_b_gamma1": 2 * delta * m * m,
            "diag_gamma_gamma2": Fraction(4 * delta * m * m * n, L),
            "area": Fraction(4 * delta * delta * m**5 * n, L * L),
        }
        for attr, closed_form in closed.items():
            leaf = getattr(row, attr)
            if attr in FORMS:
                p, q = leaf
                assert q >= 1 and math.gcd(p, q) == 1, (attr, leaf)
                leaf = Fraction(p, q)
            else:
                assert type(leaf) is int
            assert leaf == closed_form
            assert value(member, attr) == closed_form
        assert (row.alpha, row.beta, row.gamma) == euclid_triple(delta, m, n)
        assert row[:4] == member[:4] == (delta, m, n, L)
        assert row.tangents == member.tangents
        assert tuple(value(row, attr) for attr in TANGENTS) == (
            Fraction(-2 * m * n, m * m - n * n), Fraction(-m, n),
            Fraction(2 * m * n, m * m - n * n), Fraction(m, n),
        )
        assert row.is_heron is member.is_heron is (delta % L == 0)
        assert row == member

    @pytest.mark.parametrize(
        "window",
        [lambda: enumerate_family(8, 30), lambda: heron_multiples(8, 3)],
        ids=["family", "heron-table"],
    )
    def test_every_rational_leaf_is_in_lowest_terms(self, window):
        # a member is its ints; the Heron decision reads the denominators, so
        # it needs each (p, q) reduced
        rows = list(window())
        assert rows
        for row in rows:
            for leaf in row:
                assert type(leaf) is bool or _ints(leaf), (row, leaf)
            for attr in FORMS:
                p, q = row.tangents[TANGENTS.index(attr)] if attr in TANGENTS else getattr(row, attr)
                assert q >= 1 and math.gcd(p, q) == 1, (row, attr)
            assert family_member(row.delta, row.m, row.n) == row


class TestHeronCriterion:
    def test_heron_iff_l_divides_delta(self):
        for delta in range(1, 21):
            mem = family_member(delta, 4, 3)
            assert mem.is_heron == (delta % 5 == 0)

    def test_delta_multiple_of_l_is_heron(self):
        base = family_member(5, 4, 3)
        for j in (1, 2, 3):
            mem = family_member(j * 5, 4, 3)
            assert mem.delta == j * 5
            assert mem.is_heron
            assert value(mem, "area") == j * j * value(base, "area")

    def test_family_member_validates(self):
        with pytest.raises(DomainError, match="not a perfect square"):
            family_member(5, 2, 1)
        with pytest.raises(DomainError, match="delta must be >= 1"):
            family_member(0, 4, 3)

    def test_integrality_follows_divisibility(self):
        for delta in (1, 2, 5, 10, 13):
            mem = family_member(delta, 4, 3)
            integral = (
                value(mem, "side_gamma_gamma1").denominator == 1
                and value(mem, "diag_gamma_gamma2").denominator == 1
                and value(mem, "area").denominator == 1
            )
            assert integral == mem.is_heron


def member_quad(delta, m, n):
    return construct_quad(*euclid_triple(delta, m, n))


class TestTheta:
    def test_theta_is_n_over_m(self):
        quad = member_quad(5, 4, 3)
        assert quad.tan_theta == Fraction(3, 4)
        assert math.isclose(quad.theta_degrees, math.degrees(math.atan(3 / 4)), abs_tol=1e-12)

    def test_theta_independent_of_delta(self):
        assert member_quad(1, 4, 3).tan_theta == member_quad(9, 4, 3).tan_theta


class TestGeneratingPairs:
    def test_t_max_3(self):
        assert list(generating_pairs(3)) == [(2, 1, 4, 3, 5), (3, 2, 12, 5, 13)]

    def test_exactly_one_form_per_pair(self):
        seen = set()
        for t1, t2, m, n, L in generating_pairs(10):
            assert (t1, t2) not in seen
            seen.add((t1, t2))
            assert m > n >= 1
            assert m * m + n * n == L * L
            assert math.gcd(m, n) == 1 and (m + n) % 2 == 1

    def test_rejects_tiny_t_max(self):
        with pytest.raises(DomainError):
            list(generating_pairs(1))


class TestEnumerateFamily:
    def test_heron_only_count_small_window(self):
        members = list(enumerate_family(3, 13, heron_only=True))
        got = [(mem.delta, mem.m, mem.n) for mem in members]
        assert got == [(5, 4, 3), (10, 4, 3), (13, 12, 5)]
        assert all(mem.is_heron for mem in members)

    def test_full_enumeration_counts(self):
        members = list(enumerate_family(3, 6))
        # deltas 1..6 for both generating pairs
        assert len(members) == 12
        assert sum(mem.is_heron for mem in members) == 1  # only (5, 4, 3)

    def test_ordering_by_pair_then_delta(self):
        members = list(enumerate_family(3, 3))
        keys = [(*mem.t_pair, mem.delta) for mem in members]
        assert keys == sorted(keys)

    def test_cap_is_inclusive_and_stops_reading(self, monkeypatch):
        # exactly MEMBERS_MAX members is a window, in one pair or summed over two
        assert next(enumerate_family(2, MEMBERS_MAX))[:4] == (1, 4, 3, 5)
        assert next(heron_multiples(3, MEMBERS_MAX // 2))[:4] == (5, 4, 3, 5)
        for over in (enumerate_family(2, MEMBERS_MAX + 1), heron_multiples(2, MEMBERS_MAX + 1)):
            with pytest.raises(DomainError, match=f"more than {MEMBERS_MAX} members"):
                next(over)

        def t_pairs(t_max):
            yield 2, 1
            yield 3, 2
            raise AssertionError("read past the cap")

        monkeypatch.setattr(family, "_t_pairs", t_pairs)
        half = MEMBERS_MAX // 2 + 1
        for over in (enumerate_family(10**9, half), heron_multiples(10**9, half)):
            with pytest.raises(DomainError, match=f"more than {MEMBERS_MAX} members"):
                next(over)

    @pytest.mark.parametrize(
        "window",
        [lambda: enumerate_family(3, MEMBERS_MAX), lambda: heron_multiples(3, MEMBERS_MAX // 2 + 1)],
        ids=["family", "heron-table"],
    )
    def test_over_cap_window_builds_no_member(self, monkeypatch, window):
        built = []
        monkeypatch.setattr(family, "_row", lambda *a, **k: built.append(a))
        with pytest.raises(DomainError, match="more than"):
            next(window())
        assert built == []


class TestDerivedTLayer:
    """A member's t-pair and form come from (m, n, L); nothing can claim others."""

    @settings(max_examples=200)
    @given(
        st.sampled_from([(m, n) for _t1, _t2, m, n, _L in generating_pairs(30)]),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_t_pair_and_form_round_trip(self, pair, delta):
        p = family_member(delta, *pair)
        t1, t2 = p.t_pair
        assert mnl_from_t(t1, t2) == (p.m, p.n, p.L)
        # the form names which of (m, n) is the even value 2*t1*t2
        assert (p.n if p.t_form is TForm.ODD_M else p.m) == 2 * t1 * t2

    def test_t_data_cannot_be_supplied(self):
        with pytest.raises(TypeError):
            family_member(5, 4, 3, t1=9, t2=7)
        with pytest.raises(TypeError):
            MemberRow(*family_member(5, 4, 3), 9, 7, TForm.ODD_M)
