"""Seeded op schedules for the benchmark workloads.

A workload is an endless, deterministic sequence of groups of ``Op``s. Every
group has the same mix of op kinds; the seed only draws the parameters
inside each kind (which triple, which prime, which flags). Keeping the mix fixed is
what makes a median or a tail percentile comparable between seeds: a seed
that changed the proportions would move the percentiles by itself.

Each group is ordered so that the kind a percentile lands in sits well
inside its block of the sorted latencies, not on the edge between two
kinds of very different cost; the comments on each group say where.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("cli_requests", "bulk_enumeration", "large_radicand")

# The ROADMAP input m = 1e9+7, n = 2: its squarefree split runs far past any
# deadline at the seed commit. It stays in the mix as a deadline op.
ROADMAP_TRIPLE = ("4000000028", "1000000014000000045", "1000000014000000053")

# Per-op deadline for every op of every workload, in seconds.
DEADLINE_S = 1.0


@dataclass
class Op:
    """One ``cli.main`` call and what the checker needs to judge it.

    ``params`` is filled from the generated values, never from program
    output, so the checker recomputes the answer independently.
    """

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# number helpers (independent of heronquad)


def generating_pairs(t_max: int) -> list[tuple[int, int, int, int, int]]:
    """(t1, t2, m, n, L) for every coprime opposite-parity t-pair, t1 <= t_max.

    Of (t1^2 - t2^2, 2*t1*t2) the larger is m; L^2 = m^2 + n^2.
    """
    out = []
    for t1 in range(2, t_max + 1):
        for t2 in range(1, t1):
            if math.gcd(t1, t2) != 1 or (t1 + t2) % 2 == 0:
                continue
            m, n = sorted((t1 * t1 - t2 * t2, 2 * t1 * t2), reverse=True)
            out.append((t1, t2, m, n, t1 * t1 + t2 * t2))
    return out


_FAMILY_PAIRS = [(m, n) for _t1, _t2, m, n, _L in generating_pairs(4)]
_EUCLID_PAIRS = [
    (m, n)
    for m in range(2, 13)
    for n in range(1, m)
    if math.gcd(m, n) == 1 and (m + n) % 2 == 1
]


def euclid_triple(d: int, m: int, n: int) -> tuple[int, int, int]:
    """The even-leg-first triple (2dmn, d(m^2 - n^2), d(m^2 + n^2))."""
    return 2 * d * m * n, d * (m * m - n * n), d * (m * m + n * n)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, math.isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


def prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """A seeded prime in [lo, hi): the first prime at or after a random start."""
    p = rng.randrange(lo, hi)
    while not _is_prime(p):
        p += 1
    return p


def _strs(values) -> list[str]:
    return [str(v) for v in values]


# ---------------------------------------------------------------------------
# op factories


def _solve_op(kind: str, coeffs: list[str], rng: random.Random) -> Op:
    # |x| stays below 10 for k in [-1, 1], so the 10-significant-digit values
    # in the envelope keep |residual| within 1e-9 * max|coef|
    # "--" keeps a negative p/q coefficient from being read as an option
    k = rng.choice(("0..0", "0..1", "-1..0", "-1..1"))
    return Op(kind, ["solve", f"--k={k}", "--", *coeffs], {"coeffs": coeffs, "k": k})


def _solve_exact(rng: random.Random) -> Op:
    while True:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if b + c != 0:
            return _solve_op("solve_exact", _strs((a, b, c)), rng)


def _solve_rational(rng: random.Random) -> Op:
    while True:
        m, n = rng.choice(_EUCLID_PAIRS)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        a, b, c = (scale * v for v in euclid_triple(1, m, n))
        if rng.random() < 0.5:
            # a tangency: a^2 + b^2 = c^2 gives exactly one family
            coeffs = (a, b, c)
        else:
            coeffs = (a, -b, c * Fraction(rng.randint(1, 9), 10))
        if coeffs[1] + coeffs[2] != 0:
            return _solve_op("solve_rational", _strs(coeffs), rng)


def _solve_decimal(rng: random.Random) -> Op:
    while True:
        coeffs = [f"{rng.uniform(-5, 5):.2f}" for _ in range(3)]
        a, b, c = (Fraction(v) for v in coeffs)
        scale = max(abs(a), abs(b), abs(c), 1)
        # keep clear of the float path's zero tolerances, so the exact
        # discriminant sign decides the expected kind
        if abs(b + c) > scale / 100 and abs(a * a + b * b - c * c) > scale * scale / 100:
            return _solve_op("solve_decimal", coeffs, rng)


def _family_triple(rng: random.Random) -> tuple[int, int, int]:
    m, n = rng.choice(_FAMILY_PAIRS)
    return euclid_triple(rng.randint(1, 6), m, n)


def _construct_op(kind: str, triple, extra: tuple[str, ...] = (), **params) -> Op:
    triple = _strs(triple)
    return Op(kind, ["construct", *triple, *extra], {"triple": triple, **params})


def _verify_triple_op(kind: str, triple) -> Op:
    triple = _strs(triple)
    return Op(kind, ["verify", "--triple", *triple], {"triple": triple})


def _heron_table_op(kind: str, t_max: int, multiples: int, fmt: str) -> Op:
    argv = ["heron-table", "--t-max", str(t_max), "--delta-multiples", str(multiples)]
    argv += ["--format", fmt]
    return Op(kind, argv, {"t_max": t_max, "multiples": multiples, "format": fmt})


def _family_op(kind: str, t_max: int, delta_max: int, heron_only: bool) -> Op:
    argv = ["family", "--t-max", str(t_max), "--delta-max", str(delta_max)]
    if heron_only:
        argv.append("--heron-only")
    return Op(kind, argv, {"t_max": t_max, "delta_max": delta_max, "heron_only": heron_only})


# ---------------------------------------------------------------------------
# workloads


def _cli_requests(rng: random.Random, workdir: str) -> Iterator[list[Op]]:
    # Eleven small calls. The median falls in the middle block (construct
    # and verify calls), the p99 inside the heron-table block.
    written: list[tuple[str, list[str]]] = []
    for group in itertools.count():
        slot = group % 8
        ops = [_solve_exact(rng), _construct_op("construct", _family_triple(rng)), _solve_decimal(rng)]

        m, n = rng.choice(_FAMILY_PAIRS)
        q = rng.choice((1, 2, 3, 5, 7))
        triple = [Fraction(v, q) for v in euclid_triple(rng.randint(1, 3), m, n)]
        out = f"{workdir}/envelope{slot}.json"
        ops.append(_construct_op("construct_out", triple, ("--out", out), out=out))
        written[slot:slot + 1] = [(out, ops[-1].params["triple"])]

        m, n = rng.choice(_EUCLID_PAIRS)
        triple = list(euclid_triple(rng.randint(1, 4), m, n))
        if rng.random() < 0.5:
            triple[0], triple[1] = triple[1], triple[0]
        ops.append(_verify_triple_op("verify_triple", triple))
        ops.append(_solve_rational(rng))

        svg = f"{workdir}/figure{slot}.svg"
        ops.append(_construct_op("construct_svg", _family_triple(rng), ("--svg", svg), svg=svg))

        m, n = rng.choice(_FAMILY_PAIRS)
        params = _strs((rng.randint(1, 10), m, n))
        ops.append(Op("verify_params", ["verify", "--params", *params], {"params": params}))

        path, triple = rng.choice(written)
        ops.append(Op("verify_input", ["verify", "--input", path], {"input": path, "triple": triple}))

        # three equally likely sizes each, so the median rate lies inside the middle one
        ops.append(_family_op("family", 3, rng.choice((4, 5, 6)), False))
        ops.append(_heron_table_op("heron_table", 3, rng.choice((1, 2, 3)), rng.choice(("json", "csv"))))
        yield ops


def _bulk_enumeration(rng: random.Random, workdir: str) -> Iterator[list[Op]]:
    # Nine calls of eight kinds from ~10 ms to ~130 ms, each of one narrow
    # size. Four kinds sit below heron-table --t-max 8 (~50 ms) and four
    # calls above it, with gaps of 2x and 1.7x to its neighbours, so the
    # median is that kind; the two largest family calls are the top 22%,
    # so the p90 is the middle of their block.
    del workdir
    formats = ("json", "csv")
    while True:
        yield [
            _family_op("family_small", 3, rng.randint(8, 12), False),
            _heron_table_op("heron_small", 4, 1, rng.choice(formats)),
            _family_op("family_heron", 6, rng.randint(100, 150), True),
            _heron_table_op("heron_small", 5, 1, rng.choice(formats)),
            _heron_table_op("heron_mid", 8, 1, rng.choice(formats)),
            _family_op("family_mid", 5, rng.randint(35, 45), False),
            _heron_table_op("heron_large", rng.choice((10, 11)), 1, rng.choice(formats)),
            _family_op("family_large", 6, rng.randint(48, 52), False),
            _family_op("family_large", 6, rng.randint(48, 52), False),
        ]


# [lo, hi) ranges for the prime m, by size tier
_TIERS = {"1e3": (1_000, 1_100), "1e4": (10_000, 11_000), "1e5": (100_000, 110_000), "1e6": (1_000_000, 1_100_000)}


def _radicand_triple(rng: random.Random, tier: str, odd_first: bool = False) -> list[int]:
    """The triple for a prime m in the tier, with n = 2 and d = 1.

    m^2 + 4 is never a square, so the hypotenuse needs a real squarefree
    split. Fixing n and d as in the ROADMAP input makes an op's cost
    follow the size of m; a random n or d spreads one tier's cost over 4x.
    """
    triple = list(euclid_triple(1, prime_in(rng, *_TIERS[tier]), 2))
    if odd_first:
        triple[0], triple[1] = triple[1], triple[0]
    return triple


def _large_radicand(rng: random.Random, workdir: str) -> Iterator[list[Op]]:
    # 40 ops: construct at m ~ 1e3, 1e4 and 1e6, verify at m ~ 1e3, 1e4
    # and 1e5 (a 1e6 verify takes about a second), two heron-table and two
    # family calls (perfect squares: the fast-path control inside this
    # workload) and the deadline op. Sorted by latency, 16 ops sit below
    # the eight 1e4 verifies and 16 above them, with gaps of 20% and 6x to
    # their neighbours, so the median is the middle of that block; the p90
    # is the middle of the seven 1e6 constructs.
    del workdir
    while True:
        ops = []
        for cycle in range(4):
            ops += [
                _construct_op("construct_1e3", _radicand_triple(rng, "1e3")),
                _verify_triple_op("verify_1e3", _radicand_triple(rng, "1e3", odd_first=cycle % 2 == 1)),
                _construct_op("construct_1e4", _radicand_triple(rng, "1e4")),
                _verify_triple_op("verify_1e4", _radicand_triple(rng, "1e4")),
                _verify_triple_op("verify_1e4", _radicand_triple(rng, "1e4")),
                _verify_triple_op("verify_1e5", _radicand_triple(rng, "1e5")),
                _verify_triple_op("verify_1e5", _radicand_triple(rng, "1e5")),
                _construct_op("construct_1e6", _radicand_triple(rng, "1e6")),
            ]
            if cycle % 2 == 0:
                ops.append(_heron_table_op("heron_table", 3, 1, rng.choice(("json", "csv"))))
            else:
                ops.append(_family_op("family", 3, 5, False))
            if cycle > 0:
                ops.append(_construct_op("construct_1e6", _radicand_triple(rng, "1e6")))
        ops.append(_construct_op("construct_roadmap", ROADMAP_TRIPLE))
        yield ops


_WORKLOAD_GROUPS = {
    "cli_requests": _cli_requests,
    "bulk_enumeration": _bulk_enumeration,
    "large_radicand": _large_radicand,
}


def groups(workload: str, seed: int, workdir: str) -> Iterator[list[Op]]:
    """The endless sequence of op groups of a workload; equal seeds give equal ops.

    Runs measure whole groups, so every run has the same mix of kinds.
    """
    return _WORKLOAD_GROUPS[workload](random.Random(f"{workload}:{seed}"), workdir)


def ops(workload: str, seed: int, workdir: str) -> Iterator[Op]:
    """The ops of ``groups`` one after another."""
    return itertools.chain.from_iterable(groups(workload, seed, workdir))


def warmup_argv(workload: str, workdir: str) -> list[list[str]]:
    """Fixed small calls, one per subcommand the workload uses, run during set-up."""
    heron = ["heron-table", "--t-max", "3"]
    family = ["family", "--t-max", "3", "--delta-max", "3"]
    if workload == "cli_requests":
        env = f"{workdir}/warmup.json"
        return [
            ["solve", "3", "4", "5", "--k=0..1"],
            ["solve", "1.5", "-2.25", "0.5"],
            ["construct", "120", "35", "125", "--svg", f"{workdir}/warmup.svg", "--out", env],
            ["verify", "--triple", "120", "35", "125"],
            ["verify", "--params", "5", "4", "3"],
            ["verify", "--input", env],
            family + ["--heron-only"],
            heron + ["--format", "csv"],
        ]
    if workload == "bulk_enumeration":
        return [heron, heron + ["--format", "csv"], family, family + ["--heron-only"]]
    triple = _strs(euclid_triple(1, 1009, 2))
    return [["construct", *triple], ["verify", "--triple", *triple], heron, family]
