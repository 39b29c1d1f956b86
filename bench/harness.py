"""Set-up, the closed measuring loop, and the metrics of one benchmark run.

One client, one process, no threads: each ``cli.main`` call starts only
after the previous one returned and was checked. Only the call itself is
timed; the output check runs outside the timed region.
"""

from __future__ import annotations

import gc
import importlib
import io
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from . import ROOT, SRC, checker, speed
from .tracing import PACKAGE, Tracer, attribute_snapshot
from .workloads import DEADLINE_S, Op, groups, warmup_argv

# Set-up and cold start are short, so one burst of them samples a single
# moment of a noisy machine. They are repeated at CHECKPOINTS points spread
# evenly over the run instead: before timing starts, then at group
# boundaries as the timed calls pass each further 1/CHECKPOINTS of the run.
CHECKPOINTS = 5
SETUPS_PER_CHECKPOINT = 4
COLD_STARTS_PER_CHECKPOINT = 3
COLD_START_ARGV = ["construct", "3", "4", "5"]
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The tail percentile each workload reports: the highest rung with at least
# ten samples beyond it at the seed commit's run length. A faster program
# keeps the same percentile; a run too short for it steps down the ladder.
TAIL_PERCENTILE = {"cli_requests": 99.0, "bulk_enumeration": 90.0, "large_radicand": 90.0}


class DeadlineExceeded(BaseException):
    """Raised into a ``cli.main`` call that ran past its deadline.

    A ``BaseException`` so that no handler in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Sample:
    kind: str
    seconds: float
    missed_deadline: bool
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    members: int = 0
    bytes_out: int = 0
    calibration: int = 0
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        """The call time at the reference speed (``speed.py``).

        A call stopped at its deadline ran for the deadline's wall time,
        whatever the machine's speed; it counts as exactly that.
        """
        return self.seconds if self.missed_deadline else self.seconds * self.scale

    @property
    def failed(self) -> bool:
        return self.missed_deadline or bool(self.problems)


def call(main, argv: list[str], deadline: float) -> tuple[int | None, str, float]:
    """Run ``main(argv)`` with captured output; rc is None on a missed deadline."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                rc = main(argv)
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                signal.setitimer(signal.ITIMER_REAL, 0)
                rc, elapsed = None, time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    return rc, out.getvalue(), elapsed


def _output_bytes(op: Op, stdout: str) -> int:
    total = len(stdout.encode("utf-8"))
    for key in ("out", "svg"):
        if key in op.params and os.path.exists(op.params[key]):
            total += os.path.getsize(op.params[key])
    return total


def run_op(cli, op: Op, deadline: float = DEADLINE_S) -> Sample:
    """One timed call through the module attribute (so traced shims apply), then its check."""
    rc, stdout, elapsed = call(cli.main, op.argv, deadline)
    sample = Sample(op.kind, elapsed, rc is None)
    if rc is None:
        return sample
    sample.problems = checker.check(op, rc, stdout)
    sample.bytes_out = _output_bytes(op, stdout)
    if not sample.problems:
        p = op.params
        if op.argv[0] == "heron-table":
            sample.rows = len(checker.expected_heron_rows(p["t_max"], p["multiples"]))
        elif op.argv[0] == "family":
            sample.members = len(checker.expected_family(p["t_max"], p["delta_max"], p["heron_only"]))
    return sample


def fresh_import():
    """Drop every loaded ``heronquad`` module and import the CLI again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def setup(workload: str, workdir: str, repeats: int) -> tuple[object, list[float], list[str]]:
    """Import plus warm-up, repeated; returns the CLI module, times, problems."""
    times, problems = [], []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        cli = fresh_import()
        for argv in warmup_argv(workload, workdir):
            rc, _out, _elapsed = call(cli.main, argv, DEADLINE_S)
            if rc != 0:
                problems.append(f"warm-up {' '.join(argv)}: exit code {rc}")
        times.append(time.perf_counter() - start)
    return cli, times, problems


def measure(cli, group_iter, seconds: float, checkpoint=None, clock=None) -> list[Sample]:
    """Closed loop over whole groups until the timed calls add up to ``seconds``.

    ``checkpoint``, if given, is called at the group boundaries where the
    timed calls pass k/CHECKPOINTS of ``seconds`` and returns the CLI module
    to use from then on. The reference speed is calibrated on ``clock``
    before each group and after every ``speed.EVERY_S`` of call time, and
    each sample's ``scale`` is set from the calibrations around it.
    """
    clock = clock or speed.Clock()
    samples: list[Sample] = []
    busy = 0.0
    marks = [seconds * k / CHECKPOINTS for k in range(1, CHECKPOINTS)] if checkpoint else []
    for group in group_iter:
        if busy >= seconds:
            break
        if marks and busy >= marks[0]:
            marks.pop(0)
            cli = checkpoint()
        # garbage from the last group's checks is collected here, untimed,
        # rather than by a full collection inside some later call
        gc.collect()
        mark, since = clock.calibrate(), 0.0
        for op in group:
            if since >= speed.EVERY_S:
                mark, since = clock.calibrate(), 0.0
            sample = run_op(cli, op)
            sample.calibration = mark
            busy += sample.seconds
            since += sample.seconds
            samples.append(sample)
    for sample in samples:
        sample.scale = clock.scale(sample.calibration)
    return samples


def measure_traced(cli, group_iter, seconds: float, tracer: Tracer) -> tuple[list[Sample], float, float]:
    """Each group runs once traced and once untraced, in alternating order.

    Stops when the traced calls add up to ``seconds``. Returns the traced
    samples and the traced and untraced seconds of the same calls; running
    the pairs side by side keeps a drift in machine speed out of their ratio.
    The shims are removed before every untraced call.
    """
    samples: list[Sample] = []
    traced = untraced = 0.0
    for index, group in enumerate(group_iter):
        if traced >= seconds:
            break
        for with_trace in (True, False) if index % 2 == 0 else (False, True):
            gc.collect()
            if not with_trace:
                untraced += sum(run_op(cli, op).seconds for op in group)
                continue
            tracer.install()
            try:
                for op in group:
                    tracer.op = len(samples)
                    samples.append(run_op(cli, op))
                    traced += samples[-1].seconds
            finally:
                tracer.remove()
    return samples, traced, untraced


def cold_start(repeats: int) -> tuple[list[tuple[float, float]], list[str]]:
    """Wall time of ``python -m heronquad.cli construct 3 4 5`` in a subprocess.

    Each is paired with the wall time of a bare interpreter start
    (``speed.START_ARGV``) made just before it; returns the pairs
    ``(cold start, bare start)``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", PACKAGE + ".cli", *COLD_START_ARGV]
    bare = [sys.executable, *speed.START_ARGV]
    times, problems = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(bare, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        middle = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append((time.perf_counter() - middle, middle - start))
        doc, found = checker.parse_envelope(proc.stdout, "construct") if proc.returncode == 0 else (None, [f"exit code {proc.returncode}"])
        if doc is not None:
            found = checker.check_construct_result(doc["result"], COLD_START_ARGV[1:])
        problems += found
    return times, problems


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(workload: str, count: int) -> float:
    """The workload's tail percentile, or the highest lower rung with ten samples beyond."""
    for pct in PERCENTILE_LADDER:
        if pct <= TAIL_PERCENTILE[workload] and count - math.ceil(pct / 100 * count) >= 10:
            return pct
    return 50.0


def _median_rate(samples: list[Sample], unit: str) -> float:
    """Median over the calls of (rows or members emitted) / (call seconds).

    A median rather than a total over total time, so that one call slowed
    by something else on the machine does not move the figure.
    """
    rates = [getattr(s, unit) / s.ref_seconds for s in samples if not s.failed]
    return statistics.median(rates) if rates else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, samples: list[Sample], setup_times, cold_times) -> tuple[dict, dict]:
    """The end-to-end metrics and a detail record (percentile used, bases).

    Times are at the reference speed (``speed.py``): ``setup_times`` and
    ``cold_times`` come scaled, the samples carry their scale.
    """
    latencies = sorted(s.ref_seconds for s in samples)
    wall = sorted(s.seconds for s in samples)
    ok = [s for s in samples if not s.failed]
    failed = len(samples) - len(ok)
    pct = tail_percentile(workload, len(samples))
    heron = [s for s in samples if s.kind.startswith("heron")]
    family = [s for s in samples if s.kind.startswith("family")]
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(ok) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": _metric(nearest_rank(latencies, pct) * 1e3, "ms"),
        "ok_ratio": _metric(len(ok) / len(samples), "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_start_s": _metric(statistics.median(cold_times), "s"),
        "rows_per_s": _metric(_median_rate(heron, "rows"), "1/s"),
        "members_per_s": _metric(_median_rate(family, "members"), "1/s"),
    }
    kinds = sorted({s.kind for s in samples})
    detail = {
        "samples": len(samples),
        "latency_tail": {"percentile": pct, "samples_beyond": len(samples) - math.ceil(pct / 100 * len(samples))},
        "failed_ratio": {"failed": failed, "base": len(samples), "value": failed / len(samples)},
        "deadline_misses": sum(s.missed_deadline for s in samples),
        "rows": {"count": sum(s.rows for s in heron), "calls": len(heron)},
        "members": {"count": sum(s.members for s in family), "calls": len(family)},
        "setup_s": setup_times,
        "cold_start_s": cold_times,
        "wall": {
            "ops_per_s": len(ok) / sum(wall),
            "latency_p50_ms": statistics.median(wall) * 1e3,
            "latency_tail_ms": nearest_rank(wall, pct) * 1e3,
        },
        "scale": {
            "median": statistics.median(s.scale for s in samples),
            "min": min(s.scale for s in samples),
            "max": max(s.scale for s in samples),
        },
        "kinds": {
            k: {
                "count": sum(s.kind == k for s in samples),
                "p50_ms": statistics.median(s.ref_seconds for s in samples if s.kind == k) * 1e3,
            }
            for k in kinds
        },
    }
    return metrics, detail


def per_layer(tracer: Tracer, samples: list[Sample], overhead: float) -> dict:
    """Per-layer metrics from the spans of a traced run."""
    calls, self_ns, op_calls = tracer.totals()
    n = len(samples)

    def per_op(name: str) -> float:
        return calls.get(name, 0) / n

    def self_ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6 / n

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    heron_ops = [i for i, s in enumerate(samples) if s.kind.startswith("heron")]
    rows = sum(samples[i].rows for i in heron_ops)
    verifications = calls.get("verify.verify_member", 0) + calls.get("verify.verify_construction", 0)
    metrics = {
        "exactnum.squarefree_decompose.calls_per_op": _metric(per_op("exactnum.squarefree_decompose"), "count"),
        "exactnum.squarefree_decompose.self_ms_per_op": _metric(self_ms("exactnum.squarefree_decompose"), "ms"),
        "exactnum.squarefree_decompose.square_fastpath_ratio": _metric(
            ratio(tracer.squarefree_fastpath, calls.get("exactnum.squarefree_decompose", 0)), "ratio"
        ),
        "exactnum.radicand_digits_max": _metric(tracer.radicand_digits_max, "digits"),
        "exactnum.surd_sqrt.calls_per_op": _metric(per_op("exactnum.surd_sqrt"), "count"),
        "trigsolve.classify.calls_per_op": _metric(per_op("trigsolve.classify"), "count"),
        "trigsolve.classify.self_ms_per_op": _metric(self_ms("trigsolve.classify"), "ms"),
        "trigsolve.classify.exact_ratio": _metric(
            ratio(tracer.classify_exact, calls.get("trigsolve.classify", 0)), "ratio"
        ),
        "trigsolve.enumerate_solutions.self_ms_per_op": _metric(self_ms("trigsolve.enumerate_solutions"), "ms"),
        "geometry.construct_quad.calls_per_op": _metric(per_op("geometry.construct_quad"), "count"),
        "geometry.construct_quad.self_ms_per_op": _metric(self_ms("geometry.construct_quad"), "ms"),
        "geometry.construct_quad.calls_per_heron_row": _metric(
            ratio(sum(op_calls.get((i, "geometry.construct_quad"), 0) for i in heron_ops), rows), "count"
        ),
        "geometry.dist_squared.calls_per_op": _metric(per_op("geometry.dist_squared"), "count"),
        "family.family_member.calls_per_op": _metric(per_op("family.family_member"), "count"),
        "family.family_member.self_ms_per_op": _metric(self_ms("family.family_member"), "ms"),
        "verify.verify_member.self_ms_per_op": _metric(self_ms("verify.verify_member"), "ms"),
        "verify.verify_construction.self_ms_per_op": _metric(self_ms("verify.verify_construction"), "ms"),
        "verify.concyclicity_determinant.calls_per_op": _metric(per_op("verify.concyclicity_determinant"), "count"),
        "verify.concyclicity_determinant.calls_per_verification": _metric(
            ratio(calls.get("verify.concyclicity_determinant", 0), verifications), "count"
        ),
        "verify.ptolemy_check.calls_per_op": _metric(per_op("verify.ptolemy_check"), "count"),
        "verify.ptolemy_check.self_ms_per_op": _metric(self_ms("verify.ptolemy_check"), "ms"),
        "verify.ptolemy_check.calls_per_verification": _metric(
            ratio(calls.get("verify.ptolemy_check", 0), verifications), "count"
        ),
        "verify.shoelace.calls_per_op": _metric(per_op("verify.shoelace"), "count"),
        "svgfig.render_svg.self_ms_per_op": _metric(self_ms("svgfig.render_svg"), "ms"),
        "cli.self_ms_per_op": _metric(self_ms("cli.main"), "ms"),
        "cli.bytes_out_per_op": _metric(sum(s.bytes_out for s in samples) / n, "B"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
    }
    return metrics


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workdir.mkdir(parents=True, exist_ok=True)
    wd = os.path.relpath(workdir, ROOT)
    if not trace:
        clock = speed.Clock()
        setup_times, cold_times, problems = [], [], []

        def checkpoint():
            for _ in range(SETUPS_PER_CHECKPOINT):
                mark = clock.calibrate()
                cli, times, found = setup(workload, wd, 1)
                setup_times.append((times[0], mark))
                problems.extend(found)
            pairs, found = cold_start(COLD_STARTS_PER_CHECKPOINT)
            cold_times.extend(pairs)
            problems.extend(found)
            return cli

        samples = measure(checkpoint(), groups(workload, seed, wd), seconds, checkpoint=checkpoint, clock=clock)
        metrics, detail = end_to_end(
            workload,
            samples,
            [t * clock.scale(mark) for t, mark in setup_times],
            [t * speed.START_NOMINAL_S / bare for t, bare in cold_times],
        )
        detail["wall"].update(
            setup_s=statistics.median(t for t, _ in setup_times),
            cold_start_s=statistics.median(t for t, _ in cold_times),
            bare_start_s=statistics.median(bare for _, bare in cold_times),
        )
    else:
        cli, _times, problems = setup(workload, wd, 1)
        # half the run's length traced; the untraced twin of every call takes the other half
        before = attribute_snapshot()
        tracer = Tracer()
        samples, traced, untraced = measure_traced(cli, groups(workload, seed, wd), seconds / 2, tracer)
        if attribute_snapshot() != before:
            raise RuntimeError("tracing shims left heronquad module attributes changed")
        metrics = per_layer(tracer, samples, traced / untraced)
        tracer.write(ROOT / ".bench_trace" / f"{workload}.tsv")
        detail = {"samples": len(samples), "spans": len(tracer.spans), "traced_s": traced, "untraced_s": untraced}
    for s in samples:
        problems += [f"{s.kind}: {p}" for p in s.problems]
    detail.update(workload=workload, seed=seed, trace=int(trace), problems=problems[:20])
    return {
        "detail": detail,
        "result": {
            "correct": not problems,
            "attempted": len(samples),
            "failed": sum(s.failed for s in samples),
            "metrics": metrics,
        },
    }
