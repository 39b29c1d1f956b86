"""Each subcommand loads only the ``heronquad`` modules it runs, and no
module loads ``dataclasses``.

Each call runs ``cli.main`` once in a fresh interpreter: pytest itself has
already imported ``dataclasses`` and every ``heronquad`` module here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heronquad

SRC = str(Path(heronquad.__file__).resolve().parent.parent)

# prints the exit code and every module that the import and the call loaded
PROBE = """
import sys
before = set(sys.modules)
from heronquad import cli
rc = cli.main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
print()
print(rc, " ".join(loaded))
"""

BASE = {
    "heronquad", "heronquad.cli", "heronquad.errata", "heronquad.exactnum", "heronquad.geometry"
}
ORACLES = BASE | {"heronquad.family", "heronquad.verify"}


def _loaded(argv: list[str], cwd: Path) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    rc, *names = proc.stdout.splitlines()[-1].split(" ")
    assert rc == "0", proc.stderr
    assert "dataclasses" not in names
    return {name for name in names if name.partition(".")[0] == "heronquad"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["construct", "3", "4", "5"], BASE),
        (["construct", "3", "4", "5", "--svg", "out.svg"], BASE | {"heronquad.svgfig"}),
        (["svg", "3", "4", "5"], BASE | {"heronquad.svgfig"}),
        (["solve", "3", "4", "5"], BASE | {"heronquad.trigsolve"}),
        (["family", "--t-max", "3", "--delta-max", "3"], ORACLES),
        (["heron-table", "--t-max", "3"], ORACLES),
        (["verify", "--triple", "3", "4", "5"], ORACLES),
        (["verify", "--params", "5", "4", "3"], ORACLES),
        (["verify", "--input", "env.json"], ORACLES),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_subcommand_loads_only_what_it_runs(argv, expected, tmp_path):
    (tmp_path / "env.json").write_text(json.dumps({"alpha": 3, "beta": 4, "gamma": 5}))
    assert _loaded(argv, tmp_path) == expected
