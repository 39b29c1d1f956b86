"""Benchmark for the ``heron-quad`` command line, driven in-process.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_src_to_path() -> bool:
    """Make ``heronquad`` importable from this checkout's sources.

    Returns False when the sources are missing, so the caller can refuse
    to run instead of measuring some other installed copy.
    """
    if not (SRC / "heronquad" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
