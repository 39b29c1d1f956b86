"""Editing a construction (``geometry.QuadConstruction``) in tests."""

from heronquad.exactnum import Surd, common_denominator
from heronquad.geometry import FORMS, POINTS, lattice


def rational_lattice(points):
    """``geometry.lattice`` of rational points: their coordinates as ints over
    their common denominator, then that lattice in lowest terms."""
    d, ints = common_denominator([c for p in points for c in p])
    return lattice(list(zip(ints[::2], ints[1::2])), d)


def form_ints(value):
    """A closed form as ``QuadConstruction.forms`` keeps it: (n, d) for a
    Fraction or int, (n, d, r) for a Surd."""
    if isinstance(value, Surd):
        return (*value.coefficient.as_integer_ratio(), value.radicand)
    return value.as_integer_ratio()


def edited(q, **changes):
    """``q`` with ``changes``, each a point of ``POINTS`` or a closed form of
    ``FORMS``: a moved point puts all the points on a fresh lattice, so it is
    measured where it is, and a closed form is stored as its ints."""
    stored = {}
    if not changes.keys().isdisjoint(POINTS):
        points = [changes.pop(name, getattr(q, name)) for name in POINTS]
        stored["lattice"] = rational_lattice(points)
    if not changes.keys().isdisjoint(FORMS):
        stored["forms"] = tuple(
            form_ints(changes.pop(name)) if name in changes else ints
            for name, ints in zip(FORMS, q.forms)
        )
    return q._replace(**stored, **changes)
