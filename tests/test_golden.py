"""Byte-for-byte golden outputs of the CLI.

Each case runs ``cli.main`` in a scratch working directory and compares its
stdout with ``tests/golden/<name>.out`` and its exit code with the one
listed below. Paths inside the outputs (``--svg``, ``--input``) are
relative, so the recorded bytes do not depend on where the tests run.

Re-record (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from heronquad.cli import main

GOLDEN = Path(__file__).with_name("golden")

# (name, argv sequence, exit code); every argv but the last prepares files
CASES = [
    ("solve-exact", [["solve", "7", "24", "20", "--k=-1..1"]], 0),
    ("solve-decimal", [["solve", "0.5", "1.5", "1", "--k=0..2"]], 0),
    ("construct-svg", [["construct", "120", "35", "125", "--svg", "fig.svg"]], 0),
    ("construct-rational", [["construct", "3/2", "2", "5/2"]], 0),
    ("family", [["family", "--t-max", "3", "--delta-max", "2"]], 0),
    ("family-heron-only", [["family", "--t-max", "3", "--delta-max", "13", "--heron-only"]], 0),
    ("heron-table-json", [["heron-table", "--t-max", "4"]], 0),
    ("heron-table-csv", [["heron-table", "--t-max", "5", "--delta-multiples", "2", "--format", "csv"]], 0),
    ("verify-triple-even-first", [["verify", "--triple", "24", "7", "25"]], 0),
    ("verify-triple-odd-first", [["verify", "--triple", "7", "24", "25"]], 0),
    ("verify-params", [["verify", "--params", "5", "4", "3"]], 0),
    (
        "verify-input-envelope",
        [["construct", "120", "35", "125", "--out", "env.json"], ["verify", "--input", "env.json"]],
        0,
    ),
    ("svg", [["svg", "120", "35", "125"]], 0),
    # irrational hypotenuses: m = 1000003 even leg first, m = 1009 odd leg first
    ("construct-surd-even-first", [["construct", "4000012", "1000006000005", "1000006000013"]], 0),
    ("verify-triple-surd-odd-first", [["verify", "--triple", "1018077", "4036", "1018085"]], 0),
    # rational triple whose three denominators differ (their lcm is 12)
    ("construct-rational-mixed", [["construct", "5/3", "7/4", "29/12"]], 0),
    (
        "verify-input-rational",
        [["construct", "5/3", "7/4", "29/12", "--out", "env.json"], ["verify", "--input", "env.json"]],
        0,
    ),
    # six generating pairs, some with L > delta
    ("family-t5", [["family", "--t-max", "5", "--delta-max", "3"]], 0),
    # the worked example (delta 5 of m = 4, n = 3) inside its pair's deltas
    ("family-worked-example", [["family", "--t-max", "2", "--delta-max", "6"]], 0),
]


def _run(argvs: list[list[str]]) -> tuple[int, str]:
    for argv in argvs[:-1]:
        assert main(argv) == 0, argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argvs[-1])
    return code, out.getvalue()


@pytest.mark.parametrize("name, argvs, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argvs, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got_code, got_out = _run(argvs)
    assert got_code == code
    assert got_out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, argvs, code in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            here = os.getcwd()
            os.chdir(scratch)
            try:
                got_code, got_out = _run(argvs)
            finally:
                os.chdir(here)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(got_out, encoding="utf-8")
