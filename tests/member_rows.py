"""Reading and editing a family member's row (``family.MemberRow``) in tests."""

from fractions import Fraction

from constructions import form_ints
from heronquad.exactnum import Surd
from heronquad.geometry import ANGLES, SEGMENTS

# the names of a row's ``tangents``, in their order
TANGENTS = tuple(attr for _, attr in ANGLES)
# the numbers a row keeps as (p, q): its six lengths, its area and its tangents
FORMS = (*[attr for *_, attr in SEGMENTS], "area", *TANGENTS)


def value(row, attr):
    """The number a row stores under ``attr`` (or the tangent ``attr``): an
    int or bool as it is, a (p, q) leaf as the Fraction p/q and an (n, d, r)
    leaf as the Surd (n/d)*sqrt(r)."""
    leaf = row.tangents[TANGENTS.index(attr)] if attr in TANGENTS else getattr(row, attr)
    if type(leaf) is not tuple:
        return leaf
    n, d, *radicand = leaf
    return Surd(Fraction(n, d), *radicand) if radicand else Fraction(n, d)


def edited(row, **changes):
    """``row`` with ``changes``, each a number: one of the ``FORMS`` stored
    as its (numerator, denominator), in lowest terms with q >= 1, or a Surd as
    its (n, d, r), as a construction stores its closed forms; any other as it
    is; a tangent put in its place in ``tangents``."""
    stored = {attr: form_ints(v) if attr in FORMS else v for attr, v in changes.items()}
    tangents = tuple(stored.pop(attr, t) for attr, t in zip(TANGENTS, row.tangents))
    return row._replace(tangents=tangents, **stored)
