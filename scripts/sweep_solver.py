#!/usr/bin/env python3
"""Stress the equation solver on random rational coefficients.

Draws (alpha, beta, gamma) uniformly from bounded rationals, classifies
alpha*sin(x) + beta*cos(x) = gamma for each draw, checks every enumerated
solution against the float residual, and (optionally) sweeps a fine grid
over [-pi, 3*pi) to confirm the classifier missed no solution family.
Prints a histogram of classification outcomes plus the worst residual.

Usage:
    python3 scripts/sweep_solver.py --cases 1000 --seed 7 --scan
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from heronquad.trigsolve import (
    EquationCoeffs,
    SolutionKind,
    classify,
    enumerate_solutions,
    residual,
)


def random_coefficient(rng: random.Random, bound: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def case_label(solutions) -> str:
    if solutions.kind is SolutionKind.ALL_REALS:
        return "all-reals"
    if solutions.kind is SolutionKind.EMPTY:
        return "empty"
    tags = sorted(f.tag.value for f in solutions.families)
    return f"families[{len(tags)}]: " + ", ".join(tags)


def scan_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 1e-5 grid over [-pi, 3*pi), with its sines and cosines."""
    grid = np.arange(-math.pi, 3 * math.pi, 1e-5)
    return grid, np.sin(grid), np.cos(grid)


def crossing_gap(coeffs: EquationCoeffs, xs: list[float], scan) -> float | None:
    """The largest distance from a sign change of alpha*sin(x) + beta*cos(x)
    - gamma on the ``scan`` grid to its nearest solution in ``xs``: None where
    the grid has no sign change, inf where it has one and ``xs`` is empty."""
    grid, sin_grid, cos_grid = scan
    a, b, c = map(float, coeffs)
    signs = np.signbit(a * sin_grid + b * cos_grid - c)
    crossings = grid[np.nonzero(signs[:-1] != signs[1:])[0]]
    if not crossings.size:
        return None
    if not xs:
        return math.inf
    return float(np.min(np.abs(crossings[:, None] - np.array(xs)[None, :]), axis=1).max())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000, help="number of random draws")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument("--bound", type=int, default=20, help="max |coefficient|")
    parser.add_argument("--max-den", type=int, default=8, help="max denominator drawn")
    parser.add_argument(
        "--scan",
        action="store_true",
        help="also sweep a 1e-5 grid over [-pi, 3*pi) and cross-check crossings",
    )
    parser.add_argument(
        "--residual-tol", type=float, default=1e-9, help="max allowed |residual|"
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    histogram: Counter[str] = Counter()
    worst_residual = 0.0
    worst_case = None
    scan_failures = 0

    scan = scan_grid() if args.scan else None

    for index in range(args.cases):
        a = random_coefficient(rng, args.bound, args.max_den)
        b = random_coefficient(rng, args.bound, args.max_den)
        c = random_coefficient(rng, args.bound, args.max_den)
        coeffs = EquationCoeffs(a, b, c)
        solutions = classify(coeffs)
        histogram[case_label(solutions)] += 1

        if solutions.kind is SolutionKind.ALL_REALS:
            continue
        xs = enumerate_solutions(solutions, -1, 1)
        for x in xs:
            r = abs(residual(coeffs, x))
            if r > worst_residual:
                worst_residual = r
                worst_case = (index, a, b, c, x)

        gap = crossing_gap(coeffs, xs, scan) if args.scan else None
        if gap == math.inf:
            scan_failures += 1
            print(f"MISSED FAMILY at case {index}: {(a, b, c)}", file=sys.stderr)
        elif gap is not None and gap >= 1e-4:
            scan_failures += 1
            print(
                f"UNMATCHED CROSSING at case {index}: {(a, b, c)} gap={gap:.2e}",
                file=sys.stderr,
            )

    print(f"cases: {args.cases} (seed {args.seed}, |coef| <= {args.bound})")
    for label in sorted(histogram):
        print(f"  {histogram[label]:6d}  {label}")
    print(f"worst |residual|: {worst_residual:.3e} (tolerance {args.residual_tol:.1e})")
    if worst_case is not None:
        index, a, b, c, x = worst_case
        print(f"  at case {index}: ({a}, {b}, {c}), x = {x:.12f}")
    if args.scan:
        print(f"scan cross-check failures: {scan_failures}")

    ok = worst_residual < args.residual_tol and scan_failures == 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
