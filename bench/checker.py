"""Output checks that recompute every answer without ``heronquad``.

Each check takes the op (its generated parameters), the exit code and the
captured stdout, and returns a list of problems; an empty list means the
output is right. Nothing here imports ``heronquad``: vertices come from the
paper's embedding

    B = (0, 0), Gamma = (a^2/g, a*b/g), Gamma2 = (0, -a), Gamma1 = (b + g, 0),
    A = (g, 0)

in ``Fraction`` arithmetic, areas from a shoelace sum over Gamma, B,
Gamma2, Gamma1, and lengths are compared on their squares.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from .workloads import Op, generating_pairs

# The two rows of the README's `heron-table --t-max 3` table.
README_ROWS = (
    ("2", "1", "4", "3", "5", "120", "56", "200", "120", "160", "192", "12288"),
    ("3", "2", "12", "5", "13", "1560", "2856", "4056", "1560", "3744", "2880", "4976640"),
)
HERON_COLUMNS = (
    "t1", "t2", "m", "n", "delta", "B_Gamma", "Gamma_Gamma1", "Gamma1_Gamma2",
    "Gamma2_B", "B_Gamma1", "Gamma_Gamma2", "Area",
)
ENVELOPE_KEYS = {"command", "inputs", "result", "errata", "version"}

# payload length name -> the two vertices it joins
_SIDES = {
    "Gamma-B": ("Gamma", "B"),
    "B-Gamma2": ("B", "Gamma2"),
    "Gamma2-Gamma1": ("Gamma2", "Gamma1"),
    "Gamma-Gamma1": ("Gamma", "Gamma1"),
}
_DIAGONALS = {"B-Gamma1": ("B", "Gamma1"), "Gamma-Gamma2": ("Gamma", "Gamma2")}
_ROW_LENGTHS = {
    "B_Gamma": ("B", "Gamma"),
    "Gamma_Gamma1": ("Gamma", "Gamma1"),
    "Gamma1_Gamma2": ("Gamma1", "Gamma2"),
    "Gamma2_B": ("Gamma2", "B"),
    "B_Gamma1": ("B", "Gamma1"),
    "Gamma_Gamma2": ("Gamma", "Gamma2"),
}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def parse_envelope(text: str, command: str) -> tuple[dict | None, list[str]]:
    """Strict JSON (no NaN or Infinity) with the five envelope keys."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, [f"envelope is not strict JSON: {exc}"]
    if not isinstance(doc, dict) or set(doc) != ENVELOPE_KEYS:
        return None, ["envelope does not have exactly the keys " + ", ".join(sorted(ENVELOPE_KEYS))]
    if doc["command"] != command:
        return None, [f"envelope command is {doc['command']!r}, not {command!r}"]
    return doc, []


# ---------------------------------------------------------------------------
# the paper's embedding


def vertices(a: Fraction, b: Fraction, g: Fraction) -> dict[str, tuple[Fraction, Fraction]]:
    zero = Fraction(0)
    return {
        "Gamma": (a * a / g, a * b / g),
        "B": (zero, zero),
        "Gamma2": (zero, -a),
        "Gamma1": (b + g, zero),
        "A": (g, zero),
    }


def _dist2(p, q) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def shoelace_area(v: dict) -> Fraction:
    pts = [v["Gamma"], v["B"], v["Gamma2"], v["Gamma1"]]
    twice = sum(p[0] * r[1] - r[0] * p[1] for p, r in zip(pts, pts[1:] + pts[:1]))
    return abs(twice) / 2


def _length_squared(payload: dict) -> Fraction:
    exact = payload["exact"]
    if isinstance(exact, dict):
        coef, radicand = Fraction(exact["coef"]), int(exact["radicand"])
        if coef <= 0 or radicand < 1:
            raise ValueError(f"malformed surd {exact}")
        return coef * coef * radicand
    value = Fraction(exact)
    if value <= 0:
        raise ValueError(f"non-positive length {exact}")
    return value * value


# ---------------------------------------------------------------------------
# per-command checks


def check_construct_result(result: dict, triple: list[str]) -> list[str]:
    a, b, g = (Fraction(t) for t in triple)
    v = vertices(a, b, g)
    problems = []
    try:
        for name, (x, y) in v.items():
            got = result["vertices"][name]
            if (Fraction(got["x"]), Fraction(got["y"])) != (x, y):
                problems.append(f"vertex {name} is ({got['x']}, {got['y']}), expected ({x}, {y})")
        for group, table in (("sides", _SIDES), ("diagonals", _DIAGONALS)):
            for name, (p, q) in table.items():
                if _length_squared(result[group][name]) != _dist2(v[p], v[q]):
                    problems.append(f"{group[:-1]} {name}: coef^2*radicand != squared distance")
        area = Fraction(result["area"]["exact"])
        if area != shoelace_area(v):
            problems.append(f"area {area} != shoelace {shoelace_area(v)}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed construct result: {exc!r}")
    return problems


def _check_construct(op: Op, stdout: str) -> list[str]:
    out = op.params.get("out")
    if out is not None:
        if stdout:
            return ["construct --out also wrote to stdout"]
        stdout = Path(out).read_text(encoding="utf-8")
    doc, problems = parse_envelope(stdout, "construct")
    if doc is None:
        return problems
    problems = check_construct_result(doc["result"], op.params["triple"])
    svg = op.params.get("svg")
    if svg is not None:
        text = Path(svg).read_text(encoding="utf-8")
        if not (text.startswith("<svg ") and text.endswith("</svg>\n") and text.count("<polygon") == 1):
            problems.append(f"{svg} is not a one-polygon SVG document")
        if doc["result"].get("svg_path") != svg:
            problems.append("svg_path does not name the SVG file")
    return problems


def expected_heron_rows(t_max: int, multiples: int) -> list[tuple[int, int, int, int, int]]:
    """(t1, t2, m, n, delta) in the table's order: t-pair, then delta = j*L."""
    return [
        (t1, t2, m, n, j * L)
        for t1, t2, m, n, L in generating_pairs(t_max)
        for j in range(1, multiples + 1)
    ]


def check_heron_rows(rows: list[dict], t_max: int, multiples: int) -> list[str]:
    expected = expected_heron_rows(t_max, multiples)
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (t1, t2, m, n, delta) in zip(rows, expected):
        try:
            got = tuple(int(row[k]) for k in ("t1", "t2", "m", "n", "delta"))
            if got != (t1, t2, m, n, delta):
                problems.append(f"row {got} out of order, expected {(t1, t2, m, n, delta)}")
                continue
            L = math.isqrt(m * m + n * n)
            v = vertices(*(Fraction(x) for x in (2 * delta * m * n, delta * (m * m - n * n), delta * L * L)))
            for name, (p, q) in _ROW_LENGTHS.items():
                length = int(row[name])  # int() refuses "p/q": every entry must be an integer
                if length * length != _dist2(v[p], v[q]):
                    problems.append(f"row {got}: {name}={length} is not the vertex distance")
            area = int(row["Area"])
            if area != shoelace_area(v) or area * L * L != 4 * delta * delta * m**5 * n:
                problems.append(f"row {got}: Area={area} is not 4*d^2*m^5*n/L^2")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed row {row}: {exc!r}")
    first = [r for r, (_t1, _t2, m, n, delta) in zip(rows, expected) if delta == math.isqrt(m * m + n * n)][:2]
    for row, readme in zip(first, README_ROWS):
        if tuple(str(row[c]) for c in HERON_COLUMNS) != readme:
            problems.append(f"row {row} differs from the README table row {readme}")
    return problems


def _check_heron_table(op: Op, stdout: str) -> list[str]:
    t_max, multiples = op.params["t_max"], op.params["multiples"]
    if op.params["format"] == "csv":
        reader = csv.reader(io.StringIO(stdout))
        header = next(reader, None)
        if tuple(header or ()) != HERON_COLUMNS:
            return [f"CSV header is {header}"]
        return check_heron_rows([dict(zip(HERON_COLUMNS, r)) for r in reader], t_max, multiples)
    doc, problems = parse_envelope(stdout, "heron-table")
    if doc is None:
        return problems
    rows = doc["result"]["rows"]
    problems = check_heron_rows(rows, t_max, multiples)
    if doc["result"]["count"] != len(rows):
        problems.append("count differs from the number of rows")
    if not all(row.get("verified") is True for row in rows):
        problems.append("a row is not verified")
    return problems


def expected_family(t_max: int, delta_max: int, heron_only: bool) -> list[tuple[int, int, int]]:
    """(m, n, delta) of every member, in enumeration order."""
    return [
        (m, n, delta)
        for _t1, _t2, m, n, L in generating_pairs(t_max)
        for delta in (range(L, delta_max + 1, L) if heron_only else range(1, delta_max + 1))
    ]


def _check_family(op: Op, stdout: str) -> list[str]:
    doc, problems = parse_envelope(stdout, "family")
    if doc is None:
        return problems
    p = op.params
    expected = expected_family(p["t_max"], p["delta_max"], p["heron_only"])
    members = doc["result"]["members"]
    if doc["result"]["count"] != len(expected) or len(members) != len(expected):
        return [f"member count {doc['result']['count']}, expected {len(expected)}"]
    got = [(mb["params"]["m"], mb["params"]["n"], mb["params"]["delta"]) for mb in members]
    if got != expected:
        return ["members are not the expected (m, n, delta) sequence"]
    return []


def _check_solve(op: Op, stdout: str) -> list[str]:
    doc, problems = parse_envelope(stdout, "solve")
    if doc is None:
        return problems
    exact = [Fraction(c) for c in op.params["coeffs"]]
    a, b, c = (float(x) for x in exact)
    result = doc["result"]
    disc = exact[0] ** 2 + exact[1] ** 2 - exact[2] ** 2
    # the generator keeps b + c != 0, so the discriminant sign decides the kind
    families = 0 if disc < 0 else 1 if disc == 0 else 2
    if families == 0:
        if result["kind"] != "empty" or result["families"]:
            return [f"kind {result['kind']} with discriminant {disc} < 0"]
    elif result["kind"] != "families" or len(result["families"]) != families:
        return [f"{len(result['families'])} families, expected {families}"]
    solutions = result["solutions"]
    lo, hi = (int(x) for x in op.params["k"].split(".."))
    if solutions is None or solutions["k_range"] != [lo, hi]:
        return ["solutions missing or for another k range"]
    values = solutions["values"]
    if len(values) > families * (hi - lo + 1) or (families and not values):
        return [f"{len(values)} values for {families} families over k={lo}..{hi}"]
    bound = 1e-9 * max(abs(a), abs(b), abs(c))
    for x in values:
        r = a * math.sin(x) + b * math.cos(x) - c
        if not abs(r) <= bound:
            problems.append(f"|residual| {abs(r):.3g} at x={x} exceeds {bound:.3g}")
    return problems


def _check_verify(op: Op, stdout: str) -> list[str]:
    doc, problems = parse_envelope(stdout, "verify")
    if doc is None:
        return problems
    result = doc["result"]
    statuses = [c["status"] for c in result["checks"]]
    counts = {s: statuses.count(s) for s in ("pass", "fail", "erratum")}
    if result["verdict"] != "pass" or counts["fail"]:
        problems.append(f"verdict {result['verdict']}, {counts['fail']} failed check(s)")
    if result["counts"] != counts or not statuses:
        problems.append("counts do not match the listed checks")
    if "input" in op.params and "payload-consistency" not in [c["name"] for c in result["checks"]]:
        problems.append("re-verified file has no payload-consistency check")
    return problems


_CHECKS = {
    "construct": _check_construct,
    "heron-table": _check_heron_table,
    "family": _check_family,
    "solve": _check_solve,
    "verify": _check_verify,
}


def check(op: Op, rc: int, stdout: str) -> list[str]:
    """Problems with one op's outcome; every op here expects exit code 0."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _CHECKS[op.argv[0]](op, stdout)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {exc!r}"]
