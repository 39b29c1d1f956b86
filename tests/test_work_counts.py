"""Work counts: each subject is constructed once, each member's closed
forms are checked once, each oracle is evaluated once per verification,
each coordinate quantity is measured once per verification on one integer
lattice, verifying a built construction factors nothing and writes no
rational over a common denominator, and ``family`` and ``heron-table`` run
the oracles once per pair, check every other member by its scaling and look
up each member's errata once, where they are printed; a passing window
builds no ``Check`` and no ``verify`` Fraction, and ``verify`` one ``Check``
per rendered check."""

import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from heronquad import cli, errata, exactnum, family, geometry, verify
from heronquad.cli import main
from heronquad.family import family_member

COUNTED = (
    (exactnum, "squarefree_decompose"),
    (exactnum, "check_generator_pair"),
    (exactnum, "scaled_floats"),
    (exactnum, "common_denominator"),
    (errata, "errata_for_member"),
    (geometry, "construct_quad"),
    (geometry, "twice_area"),
    (geometry, "lattice"),
    (geometry, "angle_spread_degrees"),
    (family, "_tangents"),
    (verify, "verify_member"),
    (verify, "member_failures"),
    (verify, "verify_scaling"),
    (cli, "_member_payload"),
    (geometry, "dist_squared"),
    (geometry, "dot_cross"),
    (verify, "concyclicity_determinant"),
    (verify, "ptolemy_check"),
    (verify, "shoelace"),
    (verify, "_orient"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls, patched under every heronquad module that imported the name."""
    tally = Counter()
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "heronquad" or name.startswith("heronquad.")
    ]
    for home, name in COUNTED:
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return tally


def t_pairs_read(t_max, stop=None):
    """The t-pairs a window reads: every one up to t_max, or those with t1^2 < stop."""
    return [
        (t1, t2)
        for t1 in range(2, t_max + 1)
        for t2 in range(1, t1)
        if math.gcd(t1, t2) == 1 and (t1 + t2) % 2 and (stop is None or t1 * t1 < stop)
    ]


def test_heron_table_constructs_each_pair_once(calls, capsys):
    assert main(["heron-table", "--t-max", "8", "--delta-multiples", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert len(rows) == 45
    # one generator-pair check and one set of tangents per pair, not per row
    assert len({(row["m"], row["n"]) for row in rows}) == len(t_pairs_read(8)) == 15
    assert calls["check_generator_pair"] == 15
    assert calls["_tangents"] == 15
    # one construction and one oracle pass per pair; every other row of the
    # pair is checked by its scaling from the first
    assert calls["construct_quad"] == calls["member_failures"] == 15
    assert calls["verify_member"] == 0
    assert calls["verify_scaling"] == len(rows) - 15 == 30
    # one lattice per oracle pass; area-helper-agrees: the helper's shoelace
    # beside the measurement's, both on that one lattice
    assert calls["lattice"] == calls["twice_area"] == calls["shoelace"] == 15
    # the errata of each row, looked up once: the oracle pass's, or the scaled row's
    assert calls["errata_for_member"] == len(rows)


def test_heron_table_csv_looks_up_no_scaled_rows_errata(calls, capsys):
    argv = ["heron-table", "--t-max", "8", "--delta-multiples", "3", "--format", "csv"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 45
    assert calls["member_failures"] == 15
    assert calls["verify_scaling"] == 30
    # CSV prints no errata: no row's are looked up
    assert calls["errata_for_member"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--params", "5", "4", "3"],
        ["verify", "--triple", "120", "35", "125"],
    ],
    ids=["params", "even-leg-first-triple"],
)
def test_verify_checks_the_member_once(calls, capsys, argv):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["subject"].startswith("member(")
    assert calls["verify_member"] == calls["construct_quad"] == 1
    assert calls["lattice"] == calls["twice_area"] == 1


@pytest.mark.parametrize(
    "t_max, delta_max, heron_only, pairs_with_members",
    [(5, 12, False, 6), (8, 40, True, 6)],
    ids=["all", "heron-only"],
)
def test_family_checks_each_member_and_validates_each_pair_once(
    calls, capsys, t_max, delta_max, heron_only, pairs_with_members
):
    argv = ["family", "--t-max", str(t_max), "--delta-max", str(delta_max)]
    assert main(argv + ["--heron-only"] * heron_only) == 0
    members = json.loads(capsys.readouterr().out)["result"]["members"]
    # one construction and one oracle pass per pair with members; every
    # other member of the pair is checked by its scaling from the first
    assert calls["construct_quad"] == calls["member_failures"] == pairs_with_members
    assert calls["lattice"] == calls["twice_area"] == pairs_with_members
    assert calls["verify_scaling"] == len(members) - pairs_with_members > 0
    assert calls["errata_for_member"] == len(members)
    # one generator-pair check per t-pair read; tangents only for pairs with members
    read = t_pairs_read(t_max, delta_max if heron_only else None)
    assert calls["check_generator_pair"] == len(read)
    pairs = {(mb["params"]["m"], mb["params"]["n"]) for mb in members}
    assert calls["_tangents"] == len(pairs) == pairs_with_members
    # --heron-only reads pairs whose L is past delta_max: (5, 4) and (6, 5) here
    assert len(read) == pairs_with_members + 2 * heron_only
    # one template per (m, n, errata); the worked example (5, 4, 3) has its own
    worked = [mb for mb in members if (mb["params"]["delta"], mb["params"]["m"]) == (5, 4)]
    assert len(worked) == 1
    assert calls["_member_payload"] == len(pairs) + 1


def test_verify_construction_evaluates_each_oracle_once(calls):
    q = geometry.construct_quad(120, 35, 125)
    calls.clear()
    assert not verify.verify_construction(q).has_failures
    assert calls["concyclicity_determinant"] == 1
    assert calls["ptolemy_check"] == 1
    assert calls["construct_quad"] == 0
    assert calls["squarefree_decompose"] == 0
    # the construction stores its triple as ints over one denominator
    assert calls["common_denominator"] == 0


def test_verify_member_builds_the_one_construction(calls):
    member = family_member(5, 4, 3)
    assert calls["construct_quad"] == 0
    assert not verify.verify_member(member).has_failures
    assert calls["construct_quad"] == 1
    assert calls["ptolemy_check"] == 1


def test_verify_member_measures_each_quantity_once(calls):
    member = family_member(5, 4, 3)
    calls.clear()
    assert not verify.verify_member(member).has_failures
    assert calls["concyclicity_determinant"] == 1
    assert calls["shoelace"] == 1
    # 4 circumradii and 6 measured lengths; ptolemy_check reads the six
    assert calls["dist_squared"] == 10
    # one (dot, cross) per corner, which gives the tangents; and one each for
    # the right angle at B, the base angle at Gamma2 and the apex double angle;
    # and one on float coordinates, for the angle spread the report shows
    assert calls["dot_cross"] == 4 + 3 + 1
    # in a quadrilateral every vertex triple is a corner: one orientation per
    # corner serves the collinear-triple and the self-intersection tests
    assert calls["_orient"] == 4
    # construct_quad writes the member's triple over one denominator; the
    # lattice of its points is reduced from ints
    assert calls["common_denominator"] == 1


def test_no_float_decides_a_check(calls, capsys, monkeypatch):
    # heron-table renders no check, so it computes no float spread at all
    assert main(["heron-table", "--t-max", "8"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["rows"]) == 15
    assert calls["angle_spread_degrees"] == calls["scaled_floats"] == 0
    # a spread far past 1e-10 is shown as the check's actual, and decides nothing
    spreads = []
    monkeypatch.setattr(verify, "angle_spread_degrees", lambda q: spreads.append(q) or 1.0)
    assert main(["verify", "--params", "5", "4", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["result"]["checks"]
    (spread,) = [c for c in checks if c["name"] == "angle-spread-below-1e-10-deg"]
    assert (spread["status"], spread["actual"]) == ("pass", "1.0")
    assert len(spreads) == 1


@pytest.fixture
def renders(monkeypatch):
    """Count ``Check.to_payload`` calls: the one place a check is rendered."""
    tally = Counter()
    original = verify.Check.to_payload

    def counted(self):
        tally["to_payload"] += 1
        return original(self)

    monkeypatch.setattr(verify.Check, "to_payload", counted)
    return tally


def test_heron_table_renders_no_check(renders, capsys):
    assert main(["heron-table", "--t-max", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] > 0
    assert renders["to_payload"] == 0


def test_family_renders_no_check(renders, capsys):
    assert main(["family", "--t-max", "4", "--delta-max", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] > 0
    assert renders["to_payload"] == 0


def test_verify_renders_each_check_once(renders, capsys):
    assert main(["verify", "--params", "5", "4", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert len(checks) == 47
    assert renders["to_payload"] == 47


@pytest.fixture
def built(monkeypatch):
    """Count the ``Check``s built, by a subclass patched in under ``verify``,
    where every one of them is built; and the Fractions built there."""
    tally = Counter()

    def fraction(*args):
        tally["Fraction"] += 1
        return Fraction(*args)

    class CountedCheck(verify.Check):
        __slots__ = ()

        def __new__(cls, *args):
            tally["Check"] += 1
            return super().__new__(cls, *args)

    monkeypatch.setattr(verify, "Check", CountedCheck)
    monkeypatch.setattr(verify, "Fraction", fraction)
    return tally


@pytest.mark.parametrize(
    "argv",
    [
        ["heron-table", "--t-max", "8"],
        ["heron-table", "--t-max", "8", "--format", "csv"],
        ["family", "--t-max", "4", "--delta-max", "6"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_passing_window_builds_no_check(built, capsys, argv):
    # each pair's oracle pass reads only its failing checks' names
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert built["Check"] == 0


def test_verify_builds_one_check_per_rendered_check(built, capsys):
    assert main(["verify", "--params", "5", "4", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["checks"]) == 47
    assert built["Check"] == 47


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--t-max", "4", "--delta-max", "30"],
        ["heron-table", "--t-max", "8", "--delta-multiples", "3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_passing_window_builds_no_fraction(built, calls, capsys, argv):
    # a scaled row is decided on its own ints and its base row's
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert calls["verify_scaling"] > 0
    assert built["Fraction"] == 0
