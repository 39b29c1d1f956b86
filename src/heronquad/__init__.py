"""Exact solutions of a sin x + b cos x = c and the cyclic quadrilaterals
they generate from Pythagorean triples, with independent verification.

The library keeps every derived quantity exact (rationals and quadratic
surds); floats appear only in approximations for display and in the
floating-point fallback paths that are explicitly labeled as such.
"""

__version__ = "0.1.0"
