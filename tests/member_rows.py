"""Reading and editing a family member's row (``family.MemberRow``) in tests."""

from fractions import Fraction

from heronquad.geometry import ANGLES

# the names of a row's ``tangents``, in their order
TANGENTS = tuple(attr for _, attr in ANGLES)


def value(row, attr):
    """The number a row stores under ``attr`` (or the tangent ``attr``): an
    int, bool or Surd as it is, a (p, q) leaf as the Fraction p/q."""
    if attr in TANGENTS:
        return row.tangents[TANGENTS.index(attr)]
    leaf = getattr(row, attr)
    return Fraction(*leaf) if type(leaf) is tuple else leaf


def edited(row, **changes):
    """``row`` with ``changes``, each a number: a Fraction stored as its
    (numerator, denominator), in lowest terms with q >= 1; an int, bool or
    Surd as it is; a tangent put in its place in ``tangents``."""
    tangents = tuple(changes.pop(attr, t) for attr, t in zip(TANGENTS, row.tangents))
    leaves = {
        attr: v.as_integer_ratio() if isinstance(v, Fraction) else v for attr, v in changes.items()
    }
    return row._replace(tangents=tangents, **leaves)
