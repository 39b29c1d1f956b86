"""Work counts: each subject is constructed once, each oracle is
evaluated once per verification, each coordinate quantity is measured
once per verification, verifying a built construction factors nothing,
and the family's once-per-pair work skips no per-member check."""

import json
import sys
from collections import Counter

import pytest

from heronquad import cli, exactnum, family, geometry, verify
from heronquad.cli import main
from heronquad.family import family_member

COUNTED = (
    (exactnum, "squarefree_decompose"),
    (geometry, "construct_quad"),
    (geometry, "quad_area"),
    (family, "_pair_forms"),
    (family, "_cross_check"),
    (cli, "_member_payload"),
    (geometry, "dist_squared"),
    (geometry, "interior_tangent_from_coords"),
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


def test_heron_table_constructs_each_row_once(calls, capsys):
    assert main(["heron-table", "--t-max", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["count"]
    assert rows > 0
    assert calls["construct_quad"] == rows


@pytest.mark.parametrize(
    "t_max, delta_max, heron_only", [(5, 12, False), (8, 40, True)], ids=["all", "heron-only"]
)
def test_family_checks_each_member_and_validates_each_pair_once(
    calls, capsys, t_max, delta_max, heron_only
):
    argv = ["family", "--t-max", str(t_max), "--delta-max", str(delta_max)]
    assert main(argv + ["--heron-only"] * heron_only) == 0
    members = json.loads(capsys.readouterr().out)["result"]["members"]
    assert calls["construct_quad"] == len(members)
    assert calls["_cross_check"] == len(members)
    assert calls["quad_area"] == len(members)
    window = list(family._window(t_max, delta_max, heron_only))
    assert len(window) > 1
    assert calls["_pair_forms"] == len(window)
    # one template per (m, n, errata); the worked example (5, 4, 3) has its own
    pairs = {(mb["params"]["m"], mb["params"]["n"]) for mb in members}
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


def test_verify_member_reuses_the_member_construction(calls):
    member = family_member(5, 4, 3)
    assert calls["construct_quad"] == 1
    calls.clear()
    assert not verify.verify_member(member).has_failures
    assert calls["construct_quad"] == 0
    assert calls["ptolemy_check"] == 1


def test_verify_member_measures_each_quantity_once(calls):
    member = family_member(5, 4, 3)
    calls.clear()
    assert not verify.verify_member(member).has_failures
    assert calls["concyclicity_determinant"] == 1
    assert calls["shoelace"] == 1
    assert calls["interior_tangent_from_coords"] == 4
    # 4 circumradii and 6 measured lengths; ptolemy_check reads the six
    assert calls["dist_squared"] == 10
    # one orientation per vertex triple for the collinear-triple test, and
    # four for each of the two non-adjacent edge pairs
    assert calls["_orient"] == 12


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


def test_verify_renders_each_check_once(renders, capsys):
    assert main(["verify", "--params", "5", "4", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert len(checks) == 47
    assert renders["to_payload"] == 47
