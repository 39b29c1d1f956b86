#!/usr/bin/env python3
"""Regenerate every frozen reference value from scratch and report drift.

Runs the three canonical computations end to end — the small (3, 4, 5)
construction, the (120, 35, 125) worked example, and the two-row Heron
table — then prints each computed value next to the expected one. Where a
published source value disagrees with the oracle, the erratum registry
entry is shown alongside. Exits nonzero if any recomputed value drifts.

Usage:
    python3 scripts/reproduce_reference_values.py [--verbose]
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from heronquad.exactnum import Surd
from heronquad.family import family_member, generating_pairs
from heronquad.geometry import construct_quad, twice_area
from heronquad.verify import verify_construction, verify_member


def _check(label: str, computed, expected, failures: list[str], verbose: bool) -> None:
    ok = computed == expected
    if not ok:
        failures.append(label)
    if verbose or not ok:
        mark = "ok  " if ok else "DRIFT"
        print(f"  [{mark}] {label}: computed={computed!r} expected={expected!r}")


def _rational(u: Surd) -> Fraction | Surd:
    """The coefficient of a rational surd (radicand 1); an irrational one as it
    is, so that it shows as drift against a rational expected value."""
    return u.coefficient if u.radicand == 1 else u


def report_small_triple(failures: list[str], verbose: bool) -> None:
    print("construction (3, 4, 5):")
    q = construct_quad(3, 4, 5)
    _check("|Gamma2 Gamma1|", q.side_gamma2_gamma1, Surd(Fraction(3), 10), failures, verbose)
    _check("|Gamma Gamma1|", q.side_gamma_gamma1, Surd(Fraction(12, 5), 10), failures, verbose)
    _check("|B Gamma1|", q.diag_b_gamma1, Fraction(9), failures, verbose)
    _check("|Gamma Gamma2|", q.diag_gamma_gamma2, Surd(Fraction(9, 5), 10), failures, verbose)
    _check(
        "tangents (B, Gamma, Gamma1, Gamma2)",
        (q.tan_b, q.tan_gamma, q.tan_gamma1, q.tan_gamma2),
        (Fraction(-3, 4), Fraction(-3), Fraction(3, 4), Fraction(3)),
        failures,
        verbose,
    )
    _check("tan(theta)", q.tan_theta, Fraction(1, 3), failures, verbose)
    area = Fraction(abs(twice_area(q.vertices())), 2)
    _check("area", area, Fraction(243, 10), failures, verbose)
    print(f"  theta = {q.theta_degrees:.10f} degrees")


def report_worked_example(failures: list[str], verbose: bool) -> None:
    print("construction (120, 35, 125):")
    q = construct_quad(120, 35, 125)
    _check(
        "sides",
        (
            q.side_gamma_b,
            q.side_b_gamma2,
            _rational(q.side_gamma2_gamma1),
            _rational(q.side_gamma_gamma1),
        ),
        (Fraction(120), Fraction(120), Fraction(200), Fraction(56)),
        failures,
        verbose,
    )
    _check(
        "diagonals",
        (q.diag_b_gamma1, _rational(q.diag_gamma_gamma2)),
        (Fraction(160), Fraction(192)),
        failures,
        verbose,
    )
    _check(
        "tangents (B, Gamma, Gamma1, Gamma2)",
        (q.tan_b, q.tan_gamma, q.tan_gamma1, q.tan_gamma2),
        (Fraction(-24, 7), Fraction(-4, 3), Fraction(24, 7), Fraction(4, 3)),
        failures,
        verbose,
    )
    print(f"  theta = {q.theta_degrees:.10f} degrees")

    report = verify_construction(q)
    counts = report.counts()
    if report.has_failures:
        failures.append("verify_construction(120, 35, 125)")
    print(f"  verifier: {counts['pass']} pass, {counts['fail']} fail, {counts['erratum']} errata")
    for er in report.errata:
        print(f"    erratum {er.ident}: printed {er.printed} -> computed {er.computed}")


def report_heron_table(failures: list[str], verbose: bool) -> None:
    print("Heron table (t up to 3, first delta multiple):")
    expected_rows = {
        (4, 3): (120, 56, 200, 120, 160, 192, 12288),
        (12, 5): (1560, 2856, 4056, 1560, 3744, 2880, 4976640),
    }
    seen = set()
    for _t1, _t2, m, n, L in generating_pairs(3):
        member = family_member(L, m, n)
        # each leaf is (numerator, denominator), of denominator 1 at delta = L
        leaves = (
            member.side_gamma_b,
            member.side_gamma_gamma1,
            member.side_gamma2_gamma1,
            member.side_b_gamma2,
            member.diag_b_gamma1,
            member.diag_gamma_gamma2,
            member.area,
        )
        row = tuple(int(Fraction(*leaf)) for leaf in leaves)
        _check(f"row (m={m}, n={n})", row, expected_rows[(m, n)], failures, verbose)
        seen.add((m, n))

        report = verify_member(member)
        if report.has_failures:
            failures.append(f"verify_member(m={m}, n={n})")
        for er in report.errata:
            print(f"    erratum {er.ident}: printed {er.printed} -> computed {er.computed}")
    _check("rows emitted", sorted(seen), [(4, 3), (12, 5)], failures, verbose)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true", help="print every comparison, not just drift"
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    report_small_triple(failures, args.verbose)
    report_worked_example(failures, args.verbose)
    report_heron_table(failures, args.verbose)

    if failures:
        print(f"\n{len(failures)} reference value(s) drifted:", file=sys.stderr)
        for label in failures:
            print(f"  - {label}", file=sys.stderr)
        return 1
    print("\nall reference values reproduced exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
