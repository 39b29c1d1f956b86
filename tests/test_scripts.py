"""The scripts under ``scripts/`` import library names directly, so they
run here as part of the suite: a renamed or deleted name breaks them."""

from pathlib import Path

import pytest

from script_loader import load_script

GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("reproduce_reference_values", []),
        ("sweep_solver", ["--cases", "50", "--scan"]),
    ],
)
def test_script_exits_zero(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out


def test_reference_values_verbose_output(capsys):
    assert load_script("reproduce_reference_values").main(["--verbose"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "reproduce-reference-values.out").read_text(encoding="utf-8")
