"""Tests of the benchmark itself: inputs, checker, tracing shims, deadlines.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
from itertools import islice

import pytest

from bench import add_src_to_path
from bench import checker, harness, speed, workloads
from bench.tracing import Tracer, attribute_snapshot

add_src_to_path()


def _take(workload: str, seed: int, count: int = 150):
    return [(op.kind, op.argv, op.params) for op in islice(workloads.ops(workload, seed, "wd"), count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _take(workload, 7) == _take(workload, 7)
    assert _take(workload, 7) != _take(workload, 8)


@pytest.fixture()
def cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return harness.fresh_import()


def _run(cli, argv):
    rc, out, _elapsed = harness.call(cli.main, argv, 30.0)
    assert rc == 0
    return out


def test_checker_accepts_then_rejects_tampered_construct(cli):
    op = workloads.Op("construct", ["construct", "120", "35", "125"], {"triple": ["120", "35", "125"]})
    out = _run(cli, op.argv)
    assert checker.check(op, 0, out) == []

    doc = json.loads(out)
    doc["result"]["area"]["exact"] = str(int(doc["result"]["area"]["exact"]) + 1)
    assert checker.check(op, 0, json.dumps(doc))

    doc = json.loads(out)
    doc["result"]["diagonals"]["Gamma-Gamma2"]["exact"] = "92"
    assert checker.check(op, 0, json.dumps(doc))

    doc = json.loads(out)
    doc["result"]["theta"]["degrees"] = float("nan")
    assert checker.check(op, 0, json.dumps(doc))
    assert checker.check(op, 4, out)


def test_checker_rejects_tampered_heron_table(cli):
    op = workloads.Op("heron_table", ["heron-table", "--t-max", "3"], {"t_max": 3, "multiples": 1, "format": "json"})
    out = _run(cli, op.argv)
    assert checker.check(op, 0, out) == []
    doc = json.loads(out)
    doc["result"]["rows"][0]["Area"] = "12888"
    assert checker.check(op, 0, json.dumps(doc))

    csv_op = workloads.Op("heron_table", op.argv + ["--format", "csv"], {**op.params, "format": "csv"})
    csv_out = _run(cli, csv_op.argv)
    assert checker.check(csv_op, 0, csv_out) == []
    assert checker.check(csv_op, 0, csv_out.replace("12288", "12888"))


def test_checker_rejects_wrong_family_count_and_residual(cli):
    op = workloads.Op("family", ["family", "--t-max", "3", "--delta-max", "4"], {"t_max": 3, "delta_max": 4, "heron_only": False})
    out = _run(cli, op.argv)
    assert checker.check(op, 0, out) == []
    doc = json.loads(out)
    doc["result"]["members"].pop()
    doc["result"]["count"] -= 1
    assert checker.check(op, 0, json.dumps(doc))

    solve = workloads.Op("solve", ["solve", "--k=0..1", "--", "1", "2", "2"], {"coeffs": ["1", "2", "2"], "k": "0..1"})
    out = _run(cli, solve.argv)
    assert checker.check(solve, 0, out) == []
    doc = json.loads(out)
    doc["result"]["solutions"]["values"][0] += 1e-6
    assert checker.check(solve, 0, json.dumps(doc))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_ops_pass_the_checker(cli, workload):
    # one full group of the cheaper kinds, so a checker bug cannot hide behind
    # a benchmark run that nobody reads
    for op in islice(workloads.ops(workload, 3, "."), 12):
        if op.kind.endswith("1e6") or op.kind == "construct_roadmap":
            continue
        sample = harness.run_op(cli, op, deadline=30.0)
        assert sample.problems == [], (op.argv, sample.problems)


def test_traced_run_restores_attributes_and_counts_repeat(cli):
    group = [
        workloads.Op("heron_table", ["heron-table", "--t-max", "4"], {"t_max": 4, "multiples": 1, "format": "json"}),
        workloads.Op("verify_triple", ["verify", "--triple", "3", "4", "5"], {"triple": ["3", "4", "5"]}),
    ]
    before = attribute_snapshot()
    tracer = Tracer()
    samples, traced, untraced = harness.measure_traced(cli, iter([group, group]), 1e-9, tracer)
    assert attribute_snapshot() == before
    assert len(samples) == 2 and not any(s.failed for s in samples)
    assert traced > 0 and untraced > 0

    metrics = harness.per_layer(tracer, samples, traced / untraced)
    assert metrics["geometry.construct_quad.calls_per_heron_row"]["value"] == 2
    assert metrics["verify.concyclicity_determinant.calls_per_verification"]["value"] == 3
    assert metrics["verify.ptolemy_check.calls_per_verification"]["value"] == 2
    calls, self_ns, _ = tracer.totals()
    assert calls["cli.main"] == 2
    assert all(v >= 0 for v in self_ns.values())


def test_deadline_miss_counts_as_failed(cli):
    op = workloads.Op("construct_roadmap", ["construct", *workloads.ROADMAP_TRIPLE], {"triple": list(workloads.ROADMAP_TRIPLE)})
    sample = harness.run_op(cli, op, deadline=0.05)
    assert sample.missed_deadline and sample.failed
    ok = harness.run_op(cli, workloads.Op("construct", ["construct", "3", "4", "5"], {"triple": ["3", "4", "5"]}))
    metrics, detail = harness.end_to_end("large_radicand", [sample, ok] * 6, [0.1], [0.1])
    assert detail["failed_ratio"] == {"failed": 6, "base": 12, "value": 0.5}
    assert metrics["ok_ratio"]["value"] == 0.5


def test_times_are_scaled_to_the_reference_speed():
    assert speed.smoothed([1.0, 5.0, 2.0, 3.0, 9.0, 4.0], 0) == 3.0
    assert speed.smoothed([1.0, 5.0, 2.0, 3.0, 9.0, 4.0], 5) == 4.0
    assert speed.smoothed([2.0, 4.0], 1) == 3.0
    clock = speed.Clock()
    assert clock.scale(clock.calibrate()) > 0
    assert harness.Sample("construct", 0.2, False, scale=0.5).ref_seconds == 0.1
    # a call stopped at its deadline counts as the deadline, unscaled
    assert harness.Sample("construct", 1.0, True, scale=0.5).ref_seconds == 1.0
