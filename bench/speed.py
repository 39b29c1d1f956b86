"""Times at a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host whose speed drifts by
20% and more over tens of seconds, and sometimes jumps: a fixed pure-Python
loop's one-second medians range from 1.3 to 2.1 ms within one minute. That
drift moves every wall time of a run together and is the largest part of
the spread between runs of the same code. It cannot be averaged away
inside a run of 20 seconds.

So next to the program's calls the benchmark times a fixed reference
workload made only of the standard library (``argparse``, int and
``Fraction`` arithmetic, ``json``, ``csv``, ``re``), which no change to the program
can touch. A wall time ``t`` measured while the reference took ``r``
seconds is reported as ``t * NOMINAL_S / r``: the time the call would take
on a machine where the reference takes exactly ``NOMINAL_S``. A faster
program lowers ``t`` and leaves ``r`` alone, so a real change shows in
full; a slower machine raises both, and the drift cancels.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import statistics
import time
from fractions import Fraction

# The reference's time at the reference speed, in seconds: about its
# median on a 2-vCPU Intel Xeon VM with Python 3.11, so reported times
# stay close to the wall times seen there.
NOMINAL_S = 3.0e-3
# Each calibration takes the fastest of this many reference runs, which
# leaves out a run that a timer interrupt or a context switch hit.
REPEATS = 3
# A cold start runs a new interpreter, whose start-up (exec, page faults,
# reading the standard library) follows the drift differently from Python
# code in a warm process. It is scaled by a bare interpreter start made
# right before it instead: START_ARGV runs in about START_NOMINAL_S at the
# reference speed.
START_ARGV = ["-c", "import argparse, csv, fractions, json, re"]
START_NOMINAL_S = 0.065
# A calibration is due again after this much timed call time.
EVERY_S = 0.05
# Single calibrations still scatter by 30% from one to the next, faster
# than the machine's speed drifts; a call is scaled by the median of the
# WINDOW calibrations centred on it.
WINDOW = 5


def reference() -> int:
    """The fixed reference workload; independent of ``heronquad``.

    A mix like the program's own: an argument parse, ``Fraction``
    arithmetic, a tight trial-division loop, JSON, CSV and regular
    expressions. Kinds of code gain differently when the machine speeds
    up, so a reference of one kind alone would over- or under-correct
    the program's calls of another.
    """
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="cmd")
    cmd = sub.add_parser("run")
    cmd.add_argument("x", nargs="+")
    cmd.add_argument("--k", default="0")
    args = parser.parse_args(["run", "1/3", "2", "7/5", "--k", "5"])
    values = [Fraction(v) for v in args.x]
    acc = Fraction(0)
    for k in range(1, 80):
        acc += values[k % 3] * Fraction(k, k + 2)
    # trial division of a 19-digit number, as in a squarefree split
    total, rest, p = 0, 1_000_000_014_000_000_053, 3
    while p < 20000:
        total += rest % p == 0
        p += 2
    rows = [{"i": i, "v": str(acc * i), "f": f"{float(acc) * i:.10g}"} for i in range(60)]
    text = json.dumps({"rows": rows}, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row.values())
    return total + len(re.sub(r"\d", "#", text)) + len(buf.getvalue())


def calibrate() -> float:
    """``NOMINAL_S`` over the reference's time now: multiply a wall time by it."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return NOMINAL_S / best


def smoothed(scales: list[float], index: int) -> float:
    """The median of the ``WINDOW`` calibrations centred on ``scales[index]``."""
    lo = max(0, min(index - WINDOW // 2, len(scales) - WINDOW))
    return statistics.median(scales[lo:lo + WINDOW])


class Clock:
    """The calibrations of one run, in order, for scaling its times afterwards."""

    def __init__(self) -> None:
        self.scales: list[float] = []

    def calibrate(self) -> int:
        """Calibrate now; returns the index that the times measured next refer to."""
        self.scales.append(calibrate())
        return len(self.scales) - 1

    def scale(self, index: int) -> float:
        return smoothed(self.scales, index)
