"""Acceptance gate: the seven criteria the package must meet, each with
its stated tolerance and runtime budget, printing one PASS/FAIL line per
criterion.

Criterion 2 note: the published worked example prints the tangents at
Gamma and Gamma2 as -8/3 and 8/3 and the diagonal y as 92. The coordinate
oracle (and the construction's own type contract, criterion 5) forces
-4/3, 4/3 and 192, so this suite asserts the oracle values and requires
the verification report to flag the printed ones as errata. The erratum
registry in heronquad.verify documents each value pair.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from heronquad.cli import main
from heronquad.exactnum import Surd, exact_sqrt
from heronquad.family import family_member, generating_pairs
from heronquad.geometry import construct_quad
from heronquad.trigsolve import (
    EquationCoeffs,
    SolutionKind,
    classify,
    enumerate_solutions,
    residual,
)
from heronquad.verify import CheckStatus, verify_member
from member_rows import value
from script_loader import load_script


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")


def run_cli_json(capsys, *argv) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code} for {argv}"
    return json.loads(out)


def test_criterion_1_small_triple_construction(capsys):
    with criterion(1, "construct 3 4 5 exact values", budget=1.0):
        q = construct_quad(3, 4, 5)
        assert q.side_gamma2_gamma1 == Surd(Fraction(3), 10)  # 3*sqrt(10)
        assert q.side_gamma_gamma1 == Surd(Fraction(12, 5), 10)
        assert q.diag_b_gamma1 == 9
        assert q.diag_gamma_gamma2 == Surd(Fraction(9, 5), 10)
        assert (q.tan_b, q.tan_gamma, q.tan_gamma1, q.tan_gamma2) == (
            Fraction(-3, 4),
            Fraction(-3),
            Fraction(3, 4),
            Fraction(3),
        )
        assert abs(q.theta_degrees - 18.43494882) < 1e-7

        doc = run_cli_json(capsys, "construct", "3", "4", "5")
        sides = doc["result"]["sides"]
        assert sides["Gamma2-Gamma1"]["exact"] == {"coef": "3", "radicand": 10}
        assert sides["Gamma-Gamma1"]["exact"] == {"coef": "12/5", "radicand": 10}
        assert doc["result"]["diagonals"]["B-Gamma1"]["exact"] == "9"
        assert doc["result"]["diagonals"]["Gamma-Gamma2"]["exact"] == {
            "coef": "9/5",
            "radicand": 10,
        }
        assert doc["result"]["tangents"] == {
            "B": "-3/4",
            "Gamma": "-3",
            "Gamma1": "3/4",
            "Gamma2": "3",
        }
        assert abs(doc["result"]["theta"]["degrees"] - 18.43494882) < 1e-7


def test_criterion_2_worked_example_with_errata(capsys):
    with criterion(2, "construct 120 35 125 with erratum flags"):
        q = construct_quad(120, 35, 125)
        # every length is rational: each surd has radicand 1
        assert (
            q.side_gamma_b,
            q.side_b_gamma2,
            q.side_gamma2_gamma1,
            q.side_gamma_gamma1,
        ) == (120, 120, Surd(Fraction(200), 1), Surd(Fraction(56), 1))
        assert (q.diag_b_gamma1, q.diag_gamma_gamma2) == (160, Surd(Fraction(192), 1))
        # oracle values; the published -8/3 and 8/3 are registered errata
        assert (q.tan_b, q.tan_gamma, q.tan_gamma1, q.tan_gamma2) == (
            Fraction(-24, 7),
            Fraction(-4, 3),
            Fraction(24, 7),
            Fraction(4, 3),
        )
        assert abs(q.theta_degrees - 36.86989765) < 1e-7

        doc = run_cli_json(capsys, "construct", "120", "35", "125")
        assert doc["result"]["tangents"] == {
            "B": "-24/7",
            "Gamma": "-4/3",
            "Gamma1": "24/7",
            "Gamma2": "4/3",
        }
        errata = {er["id"]: er for er in doc["errata"]}
        assert errata["worked-example-diagonal-92"]["printed"] == "92"
        assert errata["worked-example-diagonal-92"]["computed"] == "192"
        assert errata["worked-example-tangent-gamma"]["printed"] == "-8/3"
        assert errata["worked-example-tangent-gamma"]["computed"] == "-4/3"
        assert errata["worked-example-tangent-gamma2"]["printed"] == "8/3"
        assert errata["worked-example-tangent-gamma2"]["computed"] == "4/3"

        report = run_cli_json(capsys, "verify", "--triple", "120", "35", "125")
        assert report["result"]["verdict"] == "pass"
        flagged = {
            c["name"]
            for c in report["result"]["checks"]
            if c["status"] == "erratum"
        }
        assert "published-value:worked-example-diagonal-92" in flagged


def test_criterion_3_heron_table_two_rows(capsys):
    with criterion(3, "heron-table --t-max 3 verbatim rows", budget=1.0):
        doc = run_cli_json(capsys, "heron-table", "--t-max", "3")
        rows = doc["result"]["rows"]
        assert len(rows) == 2

        length_columns = (
            "B_Gamma",
            "Gamma_Gamma1",
            "Gamma1_Gamma2",
            "Gamma2_B",
            "B_Gamma1",
            "Gamma_Gamma2",
        )
        first, second = rows
        assert [first[c] for c in length_columns] == [
            "120",
            "56",
            "200",
            "120",
            "160",
            "192",
        ]
        assert [second[c] for c in length_columns] == [
            "1560",
            "2856",
            "4056",
            "1560",
            "3744",
            "2880",
        ]
        assert first["Area"] == "12288"
        assert "published-table-area-12888" in first["errata"]
        assert second["Area"] == "4976640"
        assert int(second["Area"]) == 4 * 12**5 * 5
        assert all(row["verified"] for row in rows)


# --------------------------------------------------------------------------
# criterion 4: stratified random equation sweep with a brute-force scan


def _random_fraction(rng: random.Random, bound: int, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def _nonzero_fraction(rng: random.Random, bound: int) -> Fraction:
    while True:
        value = _random_fraction(rng, bound)
        if value != 0:
            return value


_PRIMITIVE_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))


def _solver_cases(rng: random.Random):
    """1000 exact-coefficient cases covering every classification branch,
    all entries bounded by 20 in absolute value."""
    cases = []
    for _ in range(5):
        cases.append((Fraction(0), Fraction(0), Fraction(0)))
    for _ in range(195):  # beta + gamma = 0 with alpha = 0: odd-pi only
        b = _nonzero_fraction(rng, 20)
        cases.append((Fraction(0), b, -b))
    for _ in range(200):  # beta + gamma = 0, alpha != 0: odd-pi + double angle
        b = _random_fraction(rng, 20)
        cases.append((_nonzero_fraction(rng, 20), b, -b))
    for _ in range(200):  # strictly no solutions: |gamma| > sqrt(a^2 + b^2)
        a = _random_fraction(rng, 9)
        b = _random_fraction(rng, 9)
        c = (abs(a) + abs(b) + 1) * rng.choice((1, -1))
        cases.append((a, b, c))
    for _ in range(200):  # tangency: scaled Pythagorean triples, disc = 0
        e, o, h = rng.choice(_PRIMITIVE_TRIPLES)
        scale = Fraction(rng.randint(1, 20), h * rng.randint(1, 3))
        legs = (e, o) if rng.random() < 0.5 else (o, e)
        a = legs[0] * scale * rng.choice((1, -1))
        b = legs[1] * scale * rng.choice((1, -1))
        c = h * scale * rng.choice((1, -1))
        cases.append((a, b, c))
    for _ in range(200):  # two families: gamma strictly inside the amplitude
        a = _nonzero_fraction(rng, 20)
        b = _nonzero_fraction(rng, 20)
        c = max(abs(a), abs(b)) * Fraction(rng.randint(-4, 4), 5)
        cases.append((a, b, c))
    return cases


def test_criterion_4_solver_sweep_with_scan():
    with criterion(4, "1000-case solver sweep + 1e-5 scan", budget=30.0):
        rng = random.Random(20250819)
        cases = _solver_cases(rng)
        assert len(cases) == 1000

        sweep = load_script("sweep_solver")
        scan = sweep.scan_grid()

        kinds_seen = set()
        family_counts_seen = set()
        for a, b, c in cases:
            coeffs = EquationCoeffs(a, b, c)
            solutions = classify(coeffs)
            kinds_seen.add(solutions.kind)
            if solutions.kind is SolutionKind.ALL_REALS:
                assert a == b == c == 0
                continue
            family_counts_seen.add(len(solutions.families))

            xs = enumerate_solutions(solutions, -1, 1)
            for x in xs:
                assert abs(residual(coeffs, x)) < 1e-9, (a, b, c, x)

            worst = sweep.crossing_gap(coeffs, xs, scan)
            assert worst != math.inf, f"scan found solutions the classifier missed: {(a, b, c)}"
            assert worst is None or worst < 1e-4, (a, b, c, worst)

        assert kinds_seen == {
            SolutionKind.ALL_REALS,
            SolutionKind.EMPTY,
            SolutionKind.FAMILIES,
        }
        assert {1, 2} <= family_counts_seen


# --------------------------------------------------------------------------
# criterion 5: exhaustive family invariants for every generating pair m <= 50


def _family_pairs_up_to(m_limit: int):
    """All primitive hypotenuse pairs (m, n, L) with m <= m_limit, via the
    two-parameter generator (t up to m_limit covers every m <= m_limit)."""
    pairs = sorted(
        (m, n, L) for _t1, _t2, m, n, L in generating_pairs(m_limit) if m <= m_limit
    )
    return pairs


def test_criterion_5_family_invariant_sweep():
    with criterion(5, "family invariants, m <= 50, delta in {1, L, 2L}", budget=60.0):
        pairs = _family_pairs_up_to(50)
        assert pairs == [
            (4, 3, 5),
            (12, 5, 13),
            (15, 8, 17),
            (21, 20, 29),
            (24, 7, 25),
            (35, 12, 37),
            (40, 9, 41),
            (45, 28, 53),
        ]

        required = {
            "concyclicity-determinant",
            "ptolemy-identity",
            "member-area-vs-shoelace",
            "member-area-bracket-form",
            "member-area-reduced-form",
            "member-tangent-B",
            "member-tangent-Gamma",
            "member-tangent-Gamma1",
            "member-tangent-Gamma2",
            "tangent-sum-B-Gamma1",
            "tangent-sum-Gamma-Gamma2",
            "member-theta-n-over-m",
        }
        checked = 0
        for m, n, L in pairs:
            for delta in (1, L, 2 * L):
                report = verify_member(family_member(delta, m, n))
                assert not report.has_failures, report.subject
                passed = {
                    c.name for c in report.checks if c.status is CheckStatus.PASS
                }
                assert required <= passed, report.subject
                checked += 1
        assert checked == 24


def test_criterion_6_heron_criterion_equivalence():
    with criterion(6, "Heron <=> L | delta <=> integral, plus coprimality"):
        members_checked = 0
        for _t1, _t2, m, n, L in generating_pairs(10):
            for delta in range(1, 3 * L + 1):
                member = family_member(delta, m, n)
                divisible = delta % L == 0
                integral = (
                    value(member, "side_gamma_gamma1").denominator == 1
                    and value(member, "diag_gamma_gamma2").denominator == 1
                    and value(member, "area").denominator == 1
                )
                # both directions of both equivalences
                assert member.is_heron == divisible == integral, (m, n, delta)
                members_checked += 1
        assert members_checked > 0

        # L is prime to 2m(m^2 - n^2) and to 4nm^2 on every generating pair, so
        # gcd(delta, L) puts each rational closed form in lowest terms
        pairs = {(m, n, L) for _t1, _t2, m, n, L in generating_pairs(30)}
        for m, n, L in pairs:
            assert m * m + n * n == L * L, (m, n, L)
            assert math.gcd(L, 2 * m * (m * m - n * n)) == 1, (m, n, L)
            assert math.gcd(L, 4 * n * m * m) == 1, (m, n, L)
        # every pair with m <= 60 that a brute-force search finds is among them
        brute = {
            (m, n, exact_sqrt(m * m + n * n))
            for m in range(2, 61)
            for n in range(1, m)
            if math.gcd(m, n) == 1 and (m + n) % 2 and exact_sqrt(m * m + n * n)
        }
        assert brute and brute <= pairs


def test_criterion_7_number_theory_facts():
    with criterion(7, "divides-via-power brute force + exact_sqrt samples"):
        # a^n | b^n exactly when a | b, on the powers as written
        for a in range(1, 201):
            for b in range(1, 201):
                assert (b**2 % a**2 == 0) == (b % a == 0)
        assert 12**3 % 6**3 == 0 and 12**3 % 7**3 != 0

        ks = range(1, 10**6 + 1, 100)
        assert len(ks) == 10**4
        for k in ks:
            assert exact_sqrt(k * k) == k
            assert exact_sqrt(k * k + 1) is None
