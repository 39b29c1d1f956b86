"""The registry of known misprints in the published reference values.

When a construction or a family member touches one of these quantities,
its output carries an ``erratum`` entry (printed value vs oracle value)
instead of a failure, so implementation bugs stay distinguishable from
source typos. The registry runs no oracle: ``construct`` reads it without
loading ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

__all__ = ["Erratum", "errata_for_member", "errata_for_triple"]


class Erratum(NamedTuple):
    """A documented misprint: published value vs oracle-verified value."""

    ident: str
    quantity: str
    printed: str
    computed: str
    note: str

    def to_payload(self) -> dict:
        return {
            "id": self.ident,
            "quantity": self.quantity,
            "printed": self.printed,
            "computed": self.computed,
            "note": self.note,
        }


_ERR_DIAG_92 = Erratum(
    ident="worked-example-diagonal-92",
    quantity="diagonal |Gamma Gamma2| of the (120, 35, 125) construction",
    printed="92",
    computed="192",
    note=(
        "The published worked example prints 92; the exact coordinate distance and "
        "the closed form 4*delta*m^2*n/L both give 192, and the published summary "
        "table itself lists 192."
    ),
)

_ERR_AREA_12888 = Erratum(
    ident="published-table-area-12888",
    quantity="area of the delta=5, m=4, n=3 member",
    printed="12888",
    computed="12288",
    note=(
        "The published table prints 12888; the shoelace oracle and the reduced "
        "area form 4*n*m^5 both give 12288."
    ),
)

_ERR_TAN_GAMMA = Erratum(
    ident="worked-example-tangent-gamma",
    quantity="interior angle tangent at Gamma of the (120, 35, 125) construction",
    printed="-8/3",
    computed="-4/3",
    note=(
        "Follows the -2m/n closed-form misprint; the coordinate oracle and "
        "alpha/(beta-gamma) give -4/3."
    ),
)

_ERR_TAN_GAMMA2 = Erratum(
    ident="worked-example-tangent-gamma2",
    quantity="interior angle tangent at Gamma2 of the (120, 35, 125) construction",
    printed="8/3",
    computed="4/3",
    note=(
        "Follows the 2m/n closed-form misprint; the coordinate oracle and "
        "(beta+gamma)/alpha give 4/3."
    ),
)

_WORKED_TRIPLE = (Fraction(120), Fraction(35), Fraction(125))


@lru_cache(maxsize=1024)  # the erratum depends on (m, n) alone: built once per pair
def _tangent_form_erratum(m: int, n: int) -> Erratum:
    return Erratum(
        ident="family-tangent-closed-form",
        quantity=f"tangent closed forms at Gamma and Gamma2 for (m={m}, n={n})",
        printed=f"-2m/n = {Fraction(-2 * m, n)} and 2m/n = {Fraction(2 * m, n)}",
        computed=f"-m/n = {Fraction(-m, n)} and m/n = {Fraction(m, n)}",
        note=(
            "The published family table lists -2m/n and 2m/n; the coordinate oracle "
            "and the per-triple forms alpha/(beta-gamma) and (beta+gamma)/alpha "
            "reduce to -m/n and m/n."
        ),
    )


def errata_for_triple(alpha: Fraction, beta: Fraction, gamma: Fraction) -> tuple[Erratum, ...]:
    """Registry hits for a construction given by its right triple."""
    if (Fraction(alpha), Fraction(beta), Fraction(gamma)) == _WORKED_TRIPLE:
        return (_ERR_DIAG_92, _ERR_TAN_GAMMA, _ERR_TAN_GAMMA2)
    return ()


def errata_for_member(delta: int, m: int, n: int) -> tuple[Erratum, ...]:
    """Registry hits for the family member (delta, m, n) (the tangent
    closed-form misprint touches every member; the worked example adds its
    value-level entries)."""
    tangent_form = _tangent_form_erratum(m, n)
    if (m, n, delta) == (4, 3, 5):
        return _ERR_DIAG_92, _ERR_AREA_12888, _ERR_TAN_GAMMA, _ERR_TAN_GAMMA2, tangent_form
    return (tangent_form,)
