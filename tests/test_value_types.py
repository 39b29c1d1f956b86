"""The value types are immutable named tuples: the one that checks its
input keeps checking it, no field can be set, and equal values hash equal."""

import pickle
from fractions import Fraction

import pytest

from heronquad.exactnum import DomainError, Surd
from heronquad.family import family_member
from heronquad.geometry import Point2, construct_quad
from heronquad.trigsolve import EquationCoeffs
from heronquad.verify import Check, CheckStatus


class TestSurd:
    def test_pickle_round_trip(self):
        u = Surd(Fraction(4), 3)
        assert pickle.loads(pickle.dumps(u)) == u


class TestEquationCoeffsCoerces:
    @pytest.mark.parametrize("position", range(3))
    def test_bool_rejected_in_every_position(self, position):
        values = [1, 2, 3]
        values[position] = True
        with pytest.raises(DomainError, match="got a bool"):
            EquationCoeffs(*values)

    def test_int_promotes_to_fraction(self):
        coeffs = EquationCoeffs(3, 4, 5)
        assert [type(v) for v in coeffs] == [Fraction] * 3
        assert coeffs == EquationCoeffs(Fraction(3), Fraction(4), Fraction(5))

    def test_float_stays_float(self):
        assert type(EquationCoeffs(1.5, 2, 3).alpha) is float

    def test_other_types_rejected(self):
        with pytest.raises(DomainError, match="must be a Fraction, int, or float, got str"):
            EquationCoeffs("1", 2, 3)


def _values():
    """Two equal, separately built values of each type, and a field to set."""
    member = family_member(5, 4, 3)
    return [
        (Point2(Fraction(1, 2), Fraction(3)), Point2(Fraction(1, 2), Fraction(3)), "x"),
        (Surd(Fraction(2), 3), Surd(Fraction(2), 3), "radicand"),
        (construct_quad(3, 4, 5), construct_quad(3, 4, 5), "alpha"),
        (member, family_member(5, 4, 3), "area"),
        (
            Check("concyclic", CheckStatus.PASS, True, True),
            Check("concyclic", CheckStatus.PASS, True, True),
            "status",
        ),
    ]


@pytest.mark.parametrize(
    "index", range(5), ids=["Point2", "Surd", "QuadConstruction", "MemberRow", "Check"]
)
class TestImmutable:
    def test_setting_a_field_raises(self, index):
        value, _, field = _values()[index]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            value.unknown = 1  # no instance dict either

    def test_equal_values_hash_equal(self, index):
        first, second, _ = _values()[index]
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
