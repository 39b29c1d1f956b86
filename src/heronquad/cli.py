"""Command line interface.

Subcommands
-----------
solve        classify and enumerate solutions of a sin x + b cos x = c
construct    build the cyclic quadrilateral for a right triple (a, b, c)
family       enumerate the parametric family of constructions
heron-table  the integer-sided (Heron) members, as JSON or CSV
verify       run the independent oracle checks on a triple/params/file
svg          draw a construction as a standalone SVG document

Output is a deterministic JSON envelope {command, inputs, result, errata,
version} (CSV and SVG modes emit their format directly). Exact values are
rendered as "p/q" strings, irrational lengths as {coef, radicand} surds,
and approximations are rounded to 10 significant digits.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from . import __version__
from .errata import errata_for_member, errata_for_triple
from .exactnum import (
    INPUT_BYTES_MAX,
    K_ABS_MAX,
    K_PERIODS_MAX,
    MEMBERS_MAX,
    DomainError,
    LegForm,
    Surd,
    classify_triple,
    exact_sqrt,
    sqrt_approx,
)
from .geometry import (
    ANGLES,
    SEGMENTS,
    Point2,
    QuadConstruction,
    Vertex,
    construct_quad,
    interior_angle_degrees,
    theta_degrees,
)

# ``trigsolve``, ``svgfig``, ``family`` and ``verify`` are imported by the
# subcommands that run them, once per call, so that a new process loads
# only what its subcommand needs.
if TYPE_CHECKING:
    from .family import MemberRow
    from .verify import VerificationReport

__all__ = ["ParseError", "main"]


class ParseError(argparse.ArgumentTypeError, ValueError):
    """Malformed command-line or input-file values (exit code 2).

    An ``ArgumentTypeError``, so argparse prints its message when an
    argument's ``type=`` function raises it.
    """


# ---------------------------------------------------------------------------
# parsing helpers

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_INT_LITERAL_RE = re.compile(r"[+-]?\d+")

# Every exact number read from the command line or a --input file has at
# most this many digits in its numerator and in its denominator, so the
# values the commands print stay far below Python's 4,300-digit int-to-str
# limit. A number written with a longer run of significant digits, or with
# an exponent of five or more digits, is refused before it is converted.
_MAX_DIGITS = 300
_DIGIT_RUN_RE = re.compile(r"\d(?:_?\d)*")
_HUGE_EXPONENT_RE = re.compile(r"e[+-]?[0_]*[1-9](_?\d){4}", re.IGNORECASE)

# a message quotes at most this many characters of an input
_QUOTE_MAX = 40


def _quote(text: str) -> str:
    """``repr(text)``, or of its first ``_QUOTE_MAX`` characters and its length."""
    if len(text) <= _QUOTE_MAX:
        return repr(text)
    return f"{text[:_QUOTE_MAX]!r}... ({len(text)} characters)"


def _too_many_digits(text: str) -> ParseError:
    return ParseError(f"{_quote(text)} has more than {_MAX_DIGITS} digits")


def _check_digit_runs(text: str) -> None:
    for run in _DIGIT_RUN_RE.findall(text):
        if len(run.replace("_", "").lstrip("0")) > _MAX_DIGITS:
            raise _too_many_digits(text)


def _parse_float(text: str) -> float:
    """A finite float; NaN and infinities have no place in a JSON envelope."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"not a number: {_quote(text)}") from None
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {_quote(text)}")
    return value


def _bounded(value: Fraction | int, text: str) -> Fraction | int:
    limit = 10**_MAX_DIGITS
    if abs(value.numerator) >= limit or value.denominator >= limit:
        raise _too_many_digits(text)
    return value


def _parse_number(text: str) -> Fraction | float:
    """Integers and p/q stay exact; decimal literals become finite floats."""
    if _RATIONAL_RE.match(text):
        return _parse_rational(text)
    return _parse_float(text)


def _parse_rational(text: str) -> Fraction:
    """Exact rational from an integer, p/q, or decimal literal."""
    _check_digit_runs(text)
    if _HUGE_EXPONENT_RE.search(text):
        raise _too_many_digits(text)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {_quote(text)}") from None
    return _bounded(value, text)


def _parse_int(text: str) -> int:
    _check_digit_runs(text)
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"not an integer: {_quote(text)}") from None
    return _bounded(value, text)


def _parse_k_bound(bound: str, text: str) -> int:
    try:
        return int(bound)
    except ValueError:
        if _INT_LITERAL_RE.fullmatch(bound):
            # too long for int(): whatever its value, it lies past the |k| cap
            return -(K_ABS_MAX + 1) if bound[0] == "-" else K_ABS_MAX + 1
        raise ParseError(f"k range bounds must be integers, got {_quote(text)}") from None


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ParseError(f"k range must look like MIN..MAX, got {_quote(text)}")
    return _parse_k_bound(lo, text), _parse_k_bound(hi, text)


# ---------------------------------------------------------------------------
# formatting helpers


def _round10(x: float) -> float:
    """Round to 10 significant digits so emitted floats are stable."""
    return float(f"{x:.10g}")


def _round10_text(x: float) -> str:
    """``_float_text(_round10(x))``, without the float between: 10 significant
    digits that ``format`` writes positionally with a fraction are the text
    ``repr`` gives the float they parse to (they are its shortest round trip)."""
    text = f"{x:.10g}"
    return text if "." in text and "e" not in text else _float_text(float(text))


def _num_payload(value: Fraction | float) -> str | float:
    return str(value) if isinstance(value, Fraction) else _round10(float(value))


def _vertex_payload(p: Point2) -> dict:
    return {
        "x": str(p.x),
        "y": str(p.y),
        "approx": [_round10(float(p.x)), _round10(float(p.y))],
    }


def _length_payload(value: Fraction | Surd) -> dict:
    if isinstance(value, Surd):
        exact: object = {"coef": str(value.coefficient), "radicand": value.radicand}
    else:
        exact = str(value)
    return {"exact": exact, "approx": _round10(float(value))}


def _measures_payload(lengths, tangents) -> dict:
    """``sides``, ``diagonals`` and ``tangents``, named by the geometry tables:
    ``lengths`` are the payloads of the ``SEGMENTS`` in their order, and
    ``tangents`` the values of the ``ANGLES`` in theirs."""
    payload: dict = {"sides": {}, "diagonals": {}}
    for (kind, label, _, _), length in zip(SEGMENTS, lengths):
        payload[kind + "s"][label] = length
    payload["tangents"] = {vertex.value: str(t) for (vertex, _), t in zip(ANGLES, tangents)}
    return payload


def _theta_degrees(alpha: Fraction | int, bg: Fraction | int) -> tuple[float, str]:
    """``degrees`` and ``degrees_display`` of theta = atan(alpha/bg)."""
    degrees = theta_degrees(alpha, bg)
    return _round10(degrees), f"{degrees:.5f}"


def _theta_payload(tan: Fraction | str, degrees: float | str, display: str) -> dict:
    """theta's tangent, ``degrees`` and ``degrees_display``, as ``_theta_degrees`` gives them."""
    return {"tan": str(tan), "degrees": degrees, "degrees_display": display}


def _envelope(command: str, inputs: dict, result: object, errata) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "errata": [er.to_payload() for er in errata],
        "version": __version__,
    }


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        # the OSError text repeats the path: print it once
        raise ParseError(f"cannot write {out_path}: {exc.strerror or exc}") from None


# the item indentation of ``result.members`` and ``result.rows``
_ITEM_PAD = " " * 6
# '"key": ' for each key written so far; every key is one of the program's literals
_KEY_TEXT: dict[str, str] = {}


class _Encoded(str):
    """JSON text that ``_encode`` already wrote at the depth where it goes."""


def _float_text(value: float) -> str:
    if not -math.inf < value < math.inf:
        raise DomainError(
            "a result is not finite (float overflow); it has no JSON representation"
        )
    return float.__repr__(value)


# the JSON text of each leaf, by its exact type
_LEAF_TEXT = {
    str: encode_basestring,
    _Encoded: lambda text: text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: _float_text,
}


def _encode(value: object, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2,
    ensure_ascii=False, allow_nan=False)``, nested at indentation ``pad``.

    A non-finite float raises ``DomainError``; any other type, or a key that
    is not a ``str``, raises ``TypeError``.
    """
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        out.append(leaf(value))
        return
    if isinstance(value, dict):
        items, brackets = value.items(), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = zip(repeat(None), value), "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        out.append(brackets)
        return

    inner = pad + "  "
    sep, comma = brackets[0] + "\n" + inner, ",\n" + inner
    keyed = brackets == "{}"
    key_text, leaf_text = _KEY_TEXT, _LEAF_TEXT
    for key, item in items:
        out.append(sep)
        sep = comma
        if keyed:
            text = key_text.get(key)
            if text is None:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                text = key_text[key] = encode_basestring(key) + ": "
            out.append(text)
        leaf = leaf_text.get(type(item))
        if leaf is None:
            _encode(item, inner, out)
        else:
            out.append(leaf(item))
    out.append("\n" + pad + brackets[1])


def _encoded(value: object) -> _Encoded:
    """``value`` encoded at the depth of one ``members`` or ``rows`` item."""
    out: list[str] = []
    _encode(value, _ITEM_PAD, out)
    return _Encoded("".join(out))


def _emit_json(envelope: dict, out_path: str | None) -> None:
    out: list[str] = []
    _encode(envelope, "", out)
    out.append("\n")
    _emit_text("".join(out), out_path)


# ---------------------------------------------------------------------------
# subcommand: solve


def _cmd_solve(args: argparse.Namespace) -> int:
    from .trigsolve import (
        FLOAT_ZERO_TOL,
        EquationCoeffs,
        SolutionKind,
        classify,
        enumerate_solutions,
        half_angle_quadratic,
        residual,
    )

    coeffs = EquationCoeffs(args.alpha, args.beta, args.gamma)
    k_min, k_max = _parse_k_range(args.k)
    solutions = classify(coeffs)
    quad = half_angle_quadratic(coeffs)

    families = []
    for fam in solutions.families:
        families.append(
            {
                "tag": fam.tag.value,
                "exact": fam.exact,
                "tan_half": None if fam.tan_half is None else _num_payload(fam.tan_half),
                "base_radians": _round10(fam.base),
                "base_degrees": _round10(math.degrees(fam.base)),
            }
        )

    if solutions.kind is SolutionKind.ALL_REALS:
        enumerated = None
    else:
        values = enumerate_solutions(solutions, k_min, k_max)
        enumerated = {
            "k_range": [k_min, k_max],
            "values": [_round10(x) for x in values],
            "max_abs_residual": (
                _round10(max(abs(residual(coeffs, x)) for x in values)) if values else None
            ),
        }

    result = {
        "arithmetic": "exact" if coeffs.is_exact else "float",
        "half_angle_quadratic": {
            "c2": _num_payload(quad.c2),
            "c1": _num_payload(quad.c1),
            "c0": _num_payload(quad.c0),
            "discriminant": _num_payload(quad.discriminant),
        },
        "kind": solutions.kind.value,
        "families": families,
        "solutions": enumerated,
    }
    inputs = {
        "alpha": _num_payload(coeffs.alpha),
        "beta": _num_payload(coeffs.beta),
        "gamma": _num_payload(coeffs.gamma),
        "k": args.k,
        "zero_tol": FLOAT_ZERO_TOL,
    }
    _emit_json(_envelope("solve", inputs, result, ()), args.out)
    return 0


# ---------------------------------------------------------------------------
# subcommand: construct (and svg)


def _triple_payload(alpha: Fraction, beta: Fraction, gamma: Fraction) -> dict | None:
    if not all(v.denominator == 1 for v in (alpha, beta, gamma)):
        return None
    try:
        trip = classify_triple(int(alpha), int(beta), int(gamma))
    except DomainError:
        return None
    return {
        "delta": trip.delta,
        "m": trip.m,
        "n": trip.n,
        "leg_form": trip.leg_form.value,
    }


def _construct_result_payload(q: QuadConstruction) -> dict:
    try:
        area = _length_payload(q.area)
    except OverflowError:
        raise DomainError("the area is too large for its float approximation") from None
    center = q.circumcenter
    return {
        "triple": _triple_payload(q.alpha, q.beta, q.gamma),
        "vertices": {
            **{vertex.value: _vertex_payload(p) for vertex, p in zip(Vertex, q.vertices())},
            "A": _vertex_payload(q.v_a),
        },
        **_measures_payload(
            [_length_payload(getattr(q, attr)) for *_, attr in SEGMENTS],
            [getattr(q, attr) for _, attr in ANGLES],
        ),
        "angles_degrees": {
            vertex.value: _round10(interior_angle_degrees(q, vertex)) for vertex, _ in ANGLES
        },
        "theta": _theta_payload(q.tan_theta, *_theta_degrees(q.alpha, q.diag_b_gamma1)),
        "circumcircle": {
            "center": {"x": str(center.x), "y": str(center.y)},
            "radius_squared": str(q.radius_squared),
            "radius_approx": _round10(sqrt_approx(q.radius_squared)),
        },
        "area": area,
    }


def _cmd_construct(args: argparse.Namespace) -> int:
    q = construct_quad(args.alpha, args.beta, args.gamma)
    result = _construct_result_payload(q)
    if args.svg is not None:
        from .svgfig import render_svg

        _emit_text(render_svg(q), args.svg)
        result["svg_path"] = args.svg
    inputs = {
        "alpha": str(args.alpha),
        "beta": str(args.beta),
        "gamma": str(args.gamma),
    }
    errata = errata_for_triple(q.alpha, q.beta, q.gamma)
    _emit_json(_envelope("construct", inputs, result, errata), args.out)
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from .svgfig import render_svg

    q = construct_quad(args.alpha, args.beta, args.gamma)
    _emit_text(render_svg(q), args.out)
    return 0


# ---------------------------------------------------------------------------
# subcommand: family


def _exact_text(leaf: tuple[int, int]) -> str:
    """``str`` of the exact value of a row leaf (p, q): p/q, or p when q = 1."""
    p, q = leaf
    return f"{p}/{q}" if q != 1 else str(p)


def _member_leaves(row: MemberRow) -> tuple[str, ...]:
    """The text of each leaf of a member's payload that changes with delta,
    in output order: delta, k, the triple, the six lengths, area, is_heron
    and theta's degrees; the string of a string leaf (a p/q, digits or
    degrees string, of characters -0-9./ that need no escaping), the JSON
    text of any other. theta's tangent, 2dmn/(2dm^2) = n/m as gcd(m, n) = 1,
    is the same at every delta (``verify_member`` checks it:
    member-theta-n-over-m)."""
    delta, _m, _n, _L, _tangents, a, b, c, gb, bg2, k, gg1, bg1, gg2, area, is_heron = row
    degrees = theta_degrees(a, b + c)  # as ``_theta_degrees`` shows it
    k = _exact_text(k)  # k is the side Gamma2-Gamma1
    return (
        str(delta), k, str(a), str(b), str(c),
        _exact_text(gb), _exact_text(bg2), k, _exact_text(gg1), _exact_text(bg1),
        _exact_text(gg2), _exact_text(area),
        "true" if is_heron else "false",
        _round10_text(degrees),
        f"{degrees:.5f}",
    )


def _member_payload(row: MemberRow, errata, leaves: tuple) -> dict:
    """The payload of a member, with ``leaves`` in the places of its
    ``_member_leaves``; the lengths, the area and the degrees display show
    ``str`` of their leaf."""
    t1, t2 = row.t_pair
    delta, k, a, b, c, *lengths, area, is_heron, degrees, display = leaves
    return {
        "params": {
            "t1": t1,
            "t2": t2,
            "t_form": row.t_form.value,
            "delta": delta,
            "m": row.m,
            "n": row.n,
            "L": row.L,
            "k": k,
        },
        "triple": [a, b, c],
        **_measures_payload(map(str, lengths), map(_exact_text, row.tangents)),
        "area": str(area),
        "is_heron": is_heron,
        "theta": _theta_payload(_exact_text((row.n, row.m)), degrees, str(display)),
        "errata": [er.ident for er in errata],
    }


# each delta-dependent leaf of a member template; ``encode_basestring``
# escapes NUL, so no other JSON text holds it
_HOLE = _Encoded("\0")


def _member_text(row: MemberRow, errata: tuple, templates: dict) -> _Encoded:
    """``_encoded(_member_payload(row, errata, leaves))`` for the JSON
    values of ``_member_leaves(row)``.

    Outside its leaves the text is the same for every member with the same
    (m, n, errata), so it is encoded once per such key, with a hole at each
    leaf, and kept in ``templates`` as the list of its text between the
    holes, with a slot at each; a row writes its leaves into the slots.
    """
    leaves = _member_leaves(row)
    key = row.m, row.n, errata
    template = templates.get(key)
    if template is None:
        text = _encoded(_member_payload(row, errata, (_HOLE,) * len(leaves)))
        # a hole shown as ``str`` is the string "\u0000": its quotes stay in the text
        text = text.replace(encode_basestring(_HOLE), '"\0"')
        template = templates[key] = [None] * (2 * len(leaves) + 1)
        template[::2] = text.split(_HOLE)
    filled = template[:]
    filled[1::2] = leaves
    return _Encoded("".join(filled))


def _cmd_family(args: argparse.Namespace) -> int:
    from .family import enumerate_family
    from .verify import verify_window

    templates: dict = {}
    members = []
    window = enumerate_family(args.t_max, args.delta_max, heron_only=args.heron_only)
    for row, failed in verify_window(window):
        if failed:
            _verification_failed(failed, row)
            return 4
        members.append(_member_text(row, errata_for_member(row.delta, row.m, row.n), templates))
    # each erratum first appears with the first template that carries it
    seen = dict.fromkeys(er for *_, errata in templates for er in errata)
    result = {"count": len(members), "members": members}
    inputs = {
        "t_max": args.t_max,
        "delta_max": args.delta_max,
        "heron_only": args.heron_only,
        "leg_form": "even-first",
    }
    _emit_json(_envelope("family", inputs, result, seen), args.out)
    return 0


# ---------------------------------------------------------------------------
# subcommand: heron-table

# the published table's length and area columns, in its order and naming,
# with the row attribute each one shows
_CSV_MEMBER_COLUMNS = (
    ("B_Gamma", "side_gamma_b"),
    ("Gamma_Gamma1", "side_gamma_gamma1"),
    ("Gamma1_Gamma2", "side_gamma2_gamma1"),
    ("Gamma2_B", "side_b_gamma2"),
    ("B_Gamma1", "diag_b_gamma1"),
    ("Gamma_Gamma2", "diag_gamma_gamma2"),
    ("Area", "area"),
)
_CSV_COLUMNS = ("t1", "t2", "m", "n", "delta") + tuple(col for col, _ in _CSV_MEMBER_COLUMNS)


def _heron_row(row: MemberRow) -> dict:
    """The ``_CSV_COLUMNS`` of a member, in their order."""
    t1, t2 = row.t_pair
    cells = {"t1": t1, "t2": t2, "m": row.m, "n": row.n, "delta": row.delta}
    for column, attr in _CSV_MEMBER_COLUMNS:
        cells[column] = _exact_text(getattr(row, attr))
    return cells


def _verification_failed(names: list[str], row: MemberRow | None = None) -> None:
    """Report the failing checks ``names`` on stderr, of the member ``row`` if given."""
    member = "" if row is None else f" for {row.label}"
    failed = f"{len(names)} check(s): {', '.join(names)}"
    print(f"heron-quad: verification failed{member}: {failed}", file=sys.stderr)


def _cmd_heron_table(args: argparse.Namespace) -> int:
    from .family import heron_multiples
    from .verify import verify_window

    as_csv = args.format == "csv"
    rows = []
    seen: dict = {}
    failures = 0
    window = heron_multiples(args.t_max, args.delta_multiples)
    for row, failed in verify_window(window):
        if failed:
            failures += 1
            _verification_failed(failed, row)
        cells = _heron_row(row)
        if as_csv:  # every cell is an int or a p/q string: none needs quoting; no errata
            rows.append(",".join(map(str, cells.values())))
            continue
        errata = errata_for_member(row.delta, row.m, row.n)
        cells["verified"] = not failed
        cells["errata"] = [er.ident for er in errata]
        rows.append(_encoded(cells))
        seen.update(dict.fromkeys(errata))

    if as_csv:
        _emit_text("\n".join([",".join(_CSV_COLUMNS), *rows, ""]), args.out)
    else:
        result = {"count": len(rows), "rows": rows}
        inputs = {
            "t_max": args.t_max,
            "delta_multiples": args.delta_multiples,
            "format": args.format,
        }
        _emit_json(_envelope("heron-table", inputs, result, seen), args.out)
    if failures:
        print(f"heron-quad: {failures} row(s) failed verification", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# subcommand: verify


def _verify_triple(a: int, b: int, c: int) -> VerificationReport:
    from .family import family_member
    from .verify import verify_construction, verify_member

    trip = classify_triple(a, b, c)
    if trip.leg_form is LegForm.EVEN_LEG_FIRST and exact_sqrt(
        trip.m * trip.m + trip.n * trip.n
    ):
        return verify_member(family_member(trip.delta, trip.m, trip.n))
    return verify_construction(construct_quad(a, b, c))


def _verify_envelope_file(path: str, doc: dict) -> VerificationReport:
    from .verify import Check, CheckStatus, VerificationReport, verify_construction

    inputs, stored = doc.get("inputs", {}), doc.get("result", {})
    if not isinstance(inputs, dict) or not isinstance(stored, dict):
        raise ParseError(f"{path}: construct envelope needs 'inputs' and 'result' objects")
    try:
        alpha = _parse_rational(str(inputs["alpha"]))
        beta = _parse_rational(str(inputs["beta"]))
        gamma = _parse_rational(str(inputs["gamma"]))
    except KeyError as missing:
        raise ParseError(f"construct envelope lacks input {missing}") from None
    q = construct_quad(alpha, beta, gamma)
    regenerated = _construct_result_payload(q)
    consistent = {k: v for k, v in stored.items() if k != "svg_path"} == regenerated
    consistency = Check(
        "payload-consistency",
        CheckStatus.PASS if consistent else CheckStatus.FAIL,
        "stored result matches a fresh construction",
        "match" if consistent else "mismatch",
    )
    base = verify_construction(q)
    return VerificationReport(
        f"envelope({path})", (consistency,) + base.checks, base.errata
    )


def _verify_input_file(path: str) -> VerificationReport:
    from .family import family_member
    from .verify import verify_construction, verify_member

    try:
        with open(path, "rb") as fh:
            data = fh.read(INPUT_BYTES_MAX + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    if len(data) > INPUT_BYTES_MAX:
        raise ParseError(f"{path} is larger than {INPUT_BYTES_MAX} bytes")
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or too long or deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")

    if doc.get("command") == "construct":
        return _verify_envelope_file(path, doc)
    if {"alpha", "beta", "gamma"} <= doc.keys():
        triple = (_parse_rational(str(doc[key])) for key in ("alpha", "beta", "gamma"))
        return verify_construction(construct_quad(*triple))
    if {"delta", "m", "n"} <= doc.keys():
        params = (_parse_int(str(doc[key])) for key in ("delta", "m", "n"))
        return verify_member(family_member(*params))
    raise ParseError(
        f"{path}: unrecognized document (need a construct envelope, "
        "alpha/beta/gamma, or delta/m/n)"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.triple is not None:
        a, b, c = args.triple
        report = _verify_triple(a, b, c)
        inputs = {"triple": [a, b, c]}
    elif args.params is not None:
        from .family import family_member
        from .verify import verify_member

        delta, m, n = args.params
        report = verify_member(family_member(delta, m, n))
        inputs = {"params": {"delta": delta, "m": m, "n": n}}
    else:
        report = _verify_input_file(args.input)
        inputs = {"input": args.input}

    payload = report.to_payload()
    result = {
        "subject": payload["subject"],
        "verdict": "fail" if report.has_failures else "pass",
        "counts": payload["counts"],
        "checks": payload["checks"],
    }
    _emit_json(_envelope("verify", inputs, result, report.errata), args.out)
    if report.has_failures:
        _verification_failed(report.failed_names())
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser wiring


_DIGITS = f"at most {_MAX_DIGITS} digits in numerator and denominator"
_WINDOW = f"the window holds at most {MEMBERS_MAX} members (exit 3 past that)"


def _solve_arguments(sp: argparse.ArgumentParser) -> None:
    for name in ("alpha", "beta", "gamma"):
        sp.add_argument(
            name, type=_parse_number, help=f"integer or p/q, exact ({_DIGITS}), or a decimal float"
        )
    sp.add_argument(
        "--k",
        default="0..0",
        help=(
            f"period range MIN..MAX (default 0..0); at most {K_PERIODS_MAX} periods "
            f"with |k| <= {K_ABS_MAX} (exit 3 past that)"
        ),
    )
    sp.add_argument("--out", default=None, help="write output to this file")


def _construct_arguments(cp: argparse.ArgumentParser) -> None:
    for name in ("alpha", "beta", "gamma"):
        cp.add_argument(name, type=_parse_rational, help=f"integer, p/q or decimal, {_DIGITS}")
    cp.add_argument("--svg", default=None, help="also render an SVG to this file")
    cp.add_argument("--out", default=None, help="write output to this file")


def _family_arguments(fp: argparse.ArgumentParser) -> None:
    fp.add_argument("--t-max", type=_parse_int, required=True)
    fp.add_argument("--delta-max", type=_parse_int, required=True, help=_WINDOW)
    fp.add_argument("--heron-only", action="store_true")
    fp.add_argument("--out", default=None, help="write output to this file")


def _heron_table_arguments(hp: argparse.ArgumentParser) -> None:
    hp.add_argument("--t-max", type=_parse_int, default=3)
    hp.add_argument(
        "--delta-multiples",
        type=_parse_int,
        default=1,
        help=f"emit rows for delta = j*L, j = 1..J, J >= 1 (default 1); {_WINDOW}",
    )
    hp.add_argument("--format", choices=("json", "csv"), default="json")
    hp.add_argument("--out", default=None, help="write output to this file")


def _verify_arguments(vp: argparse.ArgumentParser) -> None:
    group = vp.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--triple", nargs=3, type=_parse_int, metavar=("A", "B", "C"), default=None
    )
    group.add_argument(
        "--params", nargs=3, type=_parse_int, metavar=("DELTA", "M", "N"), default=None
    )
    group.add_argument(
        "--input",
        default=None,
        help=f"JSON document to verify, at most {INPUT_BYTES_MAX} bytes (numbers: {_DIGITS})",
    )
    vp.add_argument("--out", default=None, help="write output to this file")


def _svg_arguments(gp: argparse.ArgumentParser) -> None:
    for name in ("alpha", "beta", "gamma"):
        gp.add_argument(name, type=_parse_rational, help=f"integer, p/q or decimal, {_DIGITS}")
    gp.add_argument("--out", default=None, help="write the SVG to this file")


# (name, help line, the function that adds its arguments, the command it runs)
_SUBCOMMANDS = (
    ("solve", "classify and enumerate equation solutions", _solve_arguments, _cmd_solve),
    (
        "construct",
        "build the quadrilateral for a right triple",
        _construct_arguments,
        _cmd_construct,
    ),
    ("family", "enumerate parametric family members", _family_arguments, _cmd_family),
    ("heron-table", "integer-sided members, JSON or CSV", _heron_table_arguments, _cmd_heron_table),
    ("verify", "run the independent oracle checks", _verify_arguments, _cmd_verify),
    ("svg", "render a construction as SVG", _svg_arguments, _cmd_svg),
)


class _Parser(argparse.ArgumentParser):
    """A parser whose error line shortens a long argument as ``_quote`` does."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for arg in self._argv:
            if len(arg) > _QUOTE_MAX:
                message = message.replace(repr(arg), _quote(arg)).replace(arg, _quote(arg))
        super().error(message)


class _Subcommand(_Parser):
    """The parser of one subcommand. Its arguments are added when argparse
    hands it a command line, so a call adds only those of the subcommand it
    runs; help, usage and error texts are those of the complete parser.
    """

    def __init__(self, *args, add_arguments, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def fill(self) -> None:
        """Add this subcommand's arguments, once."""
        add, self._add_arguments = self._add_arguments, None
        if add is not None:
            add(self)

    def parse_known_args(self, args=None, namespace=None):
        self.fill()
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heron-quad",
        description=(
            "Exact solver for a sin x + b cos x = c and the cyclic-quadrilateral "
            "constructions it generates from Pythagorean triples."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, add_arguments, command in _SUBCOMMANDS:
        sub.add_parser(name, help=help_line, add_arguments=add_arguments).set_defaults(
            func=command
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"heron-quad: parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OverflowError) as exc:  # overflow: a value past the float range
        print(f"heron-quad: domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
