"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload cli_requests --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The line before the result is a JSON detail
record (tail percentile used, sample counts, failure base, per-kind
medians). Exit code 2, with no result, when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT, add_src_to_path  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not add_src_to_path():
        print(f"bench: no heronquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from bench.harness import run

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": out["detail"]}, allow_nan=False))
    print(json.dumps(out["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
