"""The scripts under ``scripts/`` import library names directly, so they
run here as part of the suite: a renamed or deleted name breaks them."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("reproduce_reference_values", []),
        ("sweep_solver", ["--cases", "50", "--scan"]),
    ],
)
def test_script_exits_zero(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
