"""End-to-end CLI behaviour: envelope shape, determinism, exit codes,
file output, CSV and SVG emission, and the verify modes."""

import argparse
import contextlib
import csv
import io
import json
import math
import signal
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heronquad import cli, family, verify
from heronquad.cli import main
from heronquad.exactnum import INPUT_BYTES_MAX, DomainError
from member_rows import value


class _Late(Exception):
    """Raised by a test's deadline into the call it interrupts."""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_quiet(*argv):
    """Exit code and stdout of one call, captured without pytest's fixtures."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def stdlib_json(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)


def encode(value) -> str:
    out = []
    cli._encode(value, "", out)
    return "".join(out)


class TestEnvelope:
    def test_key_order_and_version(self, capsys):
        code, out, _ = run(capsys, "solve", "3", "4", "5")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "inputs", "result", "errata", "version"]
        assert doc["version"] == "0.1.0"

    def test_byte_determinism(self, capsys):
        _, out1, _ = run(capsys, "construct", "120", "35", "125")
        _, out2, _ = run(capsys, "construct", "120", "35", "125")
        assert out1 == out2
        _, out3, _ = run(capsys, "heron-table", "--t-max", "4")
        _, out4, _ = run(capsys, "heron-table", "--t-max", "4")
        assert out3 == out4

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "solve", "3", "4", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "solve"

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "3", "4", "5", "--out"),
            ("construct", "3", "4", "5", "--svg"),
            ("svg", "3", "4", "5", "--out"),
            ("family", "--t-max", "3", "--delta-max", "2", "--out"),
            ("heron-table", "--out"),
            ("verify", "--triple", "3", "4", "5", "--out"),
        ],
        ids=[
            "construct-out",
            "construct-svg",
            "svg-out",
            "family-out",
            "heron-table-out",
            "verify-out",
        ],
    )
    def test_unwritable_output_is_parse_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.out"
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"heron-quad: parse error: cannot write {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, verb",
        [
            (("family", "--t-max", "3", "--delta-max", "2", "--out"), "write"),
            (("verify", "--input"), "read"),
        ],
        ids=["unwritable", "unreadable"],
    )
    def test_a_long_file_path_is_printed_once(self, capsys, tmp_path, argv, verb):
        target = str(tmp_path / ("x" * 5000))
        code, out, err = run(capsys, *argv, target)
        assert code == 2
        assert out == ""
        assert err.startswith(f"heron-quad: parse error: cannot {verb} {target}: ")
        assert err.count(target) == 1
        assert len(err) < len(target) + 100


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-12, 1e308, -1e308]),
)
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800'),
        st.characters(),
    )
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**300) + 1, max_value=10**300 - 1),
    _FLOATS,
    _TEXT,
)
# depth <= 6: the scalar layer plus at most five container layers
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
).filter(lambda v: _depth(v) <= 6)


def _depth(value) -> int:
    if isinstance(value, dict):
        return 1 + max(map(_depth, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_depth, value), default=0)
    return 1


class TestJsonWriter:
    @given(_VALUES)
    def test_same_bytes_as_stdlib(self, value):
        assert encode(value) == stdlib_json(value)

    @given(st.lists(_VALUES, max_size=3))
    def test_encoded_items_in_place(self, items):
        # members and rows are encoded ahead, at the depth of result.members
        envelope = {"result": {"count": len(items), "members": items}}
        ahead = {"result": {"count": len(items), "members": [cli._encoded(v) for v in items]}}
        assert encode(ahead) == stdlib_json(envelope)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_domain_error(self, bad):
        for value in (bad, [1, bad], {"a": {"b": bad}}):
            with pytest.raises(DomainError, match="not finite"):
                encode(value)

    @pytest.mark.parametrize("key", [1, None, True, 1.5, (1, 2)])
    def test_non_str_key_is_type_error(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            encode({"ok": 1, key: 2})

    @pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), b"x", object()])
    def test_other_types_are_type_errors(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode({"a": [value]})

    def test_no_stdlib_dumps_on_any_output_path(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        env = tmp_path / "env.json"
        for argv in (
            ("solve", "0.5", "0.25", "0.1", "--k=-1..1"),
            ("construct", "120", "35", "125", "--out", str(env)),
            ("verify", "--input", str(env)),
            ("verify", "--params", "5", "4", "3"),
            ("family", "--t-max", "3", "--delta-max", "2"),
            ("heron-table", "--t-max", "3"),
        ):
            assert main(list(argv)) == 0
        capsys.readouterr()


class TestSolveCommand:
    def test_tangency_case(self, capsys):
        doc = run_json(capsys, "solve", "3", "4", "5")
        result = doc["result"]
        assert result["arithmetic"] == "exact"
        assert result["half_angle_quadratic"] == {
            "c2": "9",
            "c1": "-6",
            "c0": "1",
            "discriminant": "0",
        }
        assert result["kind"] == "families"
        (fam,) = result["families"]
        assert fam["tan_half"] == "1/3"
        assert fam["exact"] is True
        assert fam["base_radians"] == pytest.approx(0.6435011088)
        assert result["solutions"]["values"] == [pytest.approx(0.6435011088)]

    def test_two_families_k_range(self, capsys):
        # negative lower bounds need the --k=VALUE spelling
        doc = run_json(capsys, "solve", "7", "24", "20", "--k=-1..1")
        result = doc["result"]
        assert len(result["families"]) == 2
        assert [f["tan_half"] for f in result["families"]] == ["1/2", "-2/11"]
        assert len(result["solutions"]["values"]) == 6
        assert result["solutions"]["max_abs_residual"] < 1e-9

    def test_empty_case(self, capsys):
        doc = run_json(capsys, "solve", "1", "2", "5")
        assert doc["result"]["kind"] == "empty"
        assert doc["result"]["families"] == []
        assert doc["result"]["solutions"]["values"] == []
        assert doc["result"]["solutions"]["max_abs_residual"] is None

    def test_huge_exact_coefficients(self, capsys):
        big = str(10**200)
        doc = run_json(capsys, "solve", big, big, "1")
        tags = [f["tag"] for f in doc["result"]["families"]]
        assert tags == ["double-angle", "double-angle"]

    def test_root_past_float_range_is_domain_error(self, capsys):
        # b + c = 1e-598 beside a = 1e299: tan(x/2) = (a + root)/(b + c) has no float
        big = 10**299
        code, _, err = run(capsys, "solve", str(big), f"1/{big}", "--", f"-1/{big + 1}")
        assert code == 3
        assert err.startswith("heron-quad: domain error:")

    def test_float_root_beside_a_small_b_plus_c(self, capsys):
        # b + c = 3.8e-12 beside a = 9.06: (a - root)/(b + c) cancelled to tan(x/2) = 0.0
        doc = run_json(
            capsys, "solve", "9.061408820618398", "0.0018544031648170143", "-0.0018544031610538"
        )
        assert doc["result"]["families"][1]["tan_half"] == -0.0002046484382
        assert doc["result"]["solutions"]["max_abs_residual"] <= 1e-12 * 9.07

    def test_irrational_root_beside_a_small_b_plus_c(self, capsys):
        # the exact b + c is 4e-9; the root printed as -0.0002220446049
        doc = run_json(capsys, "solve", "--", "9", "1/500", "-499999/250000000")
        assert [f["tan_half"] for f in doc["result"]["families"]] == [4500000000.0, -0.000222222]
        assert doc["result"]["solutions"]["max_abs_residual"] <= 1e-12 * 9

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["alpha", "beta", "gamma"])
    def test_exact_square_past_float_range_beside_a_float(self, capsys, position):
        argv = ["0.5", "0.5", "1"]
        argv[position] = str(10**299)
        code, out, err = run(capsys, "solve", "--", *argv)
        assert code == 3
        assert out == ""
        assert err == (
            "heron-quad: domain error: the half-angle quadratic's discriminant mixes a float "
            "with an exact square past the float range\n"
        )

    def test_mixed_input_keeps_its_exact_quadratic_coefficient(self, capsys):
        doc = run_json(capsys, "solve", "--", "3/2", "0.5", "1")
        assert doc["result"]["half_angle_quadratic"] == {
            "c2": 1.5,
            "c1": "-3",
            "c0": 0.5,
            "discriminant": 6.0,
        }

    def test_tangent_past_float_range(self, capsys):
        # b + c = 0 and tan(x/2) = -b/a = -10^598: the base angle is about -pi
        big = 10**299
        code, out, _ = run(capsys, "solve", f"1/{big}", str(big), "--", f"-{big}")
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out
        families = json.loads(out)["result"]["families"]
        assert [f["tag"] for f in families] == ["odd-pi", "double-angle"]
        assert all(math.isfinite(f["base_radians"]) for f in families)

    def test_tangent_below_float_precision_gives_one_pi(self, capsys):
        # tan(x/2) = -10^40 rounds the double angle to -pi; it is reported as pi
        big = 10**20
        doc = run_json(capsys, "solve", f"1/{big}", str(big), "--", f"-{big}")
        families = doc["result"]["families"]
        assert [f["base_radians"] for f in families] == [3.141592654, 3.141592654]
        assert doc["result"]["solutions"]["values"] == [3.141592654]

    def test_tiny_exact_coefficients_match_unscaled(self, capsys):
        tiny = [f"{v}/{10**200}" for v in (15, 23, 18)]
        scaled = run_json(capsys, "solve", *tiny)["result"]["families"]
        assert scaled == run_json(capsys, "solve", "15", "23", "18")["result"]["families"]

    def test_all_reals(self, capsys):
        doc = run_json(capsys, "solve", "0", "0", "0")
        assert doc["result"]["kind"] == "all-reals"
        assert doc["result"]["solutions"] is None

    def test_odd_pi_family(self, capsys):
        doc = run_json(capsys, "solve", "0", "1", "-1")
        (fam,) = doc["result"]["families"]
        assert fam["tag"] == "odd-pi"
        assert fam["tan_half"] is None

    def test_float_coefficients(self, capsys):
        doc = run_json(capsys, "solve", "1.5", "2.0", "0.5")
        assert doc["result"]["arithmetic"] == "float"
        assert doc["result"]["kind"] == "families"

    def test_rational_stays_exact(self, capsys):
        doc = run_json(capsys, "solve", "3/2", "2", "1/2")
        assert doc["result"]["arithmetic"] == "exact"

    def test_bad_k_range(self, capsys):
        code, _, err = run(capsys, "solve", "3", "4", "5", "--k", "1to2")
        assert code == 2
        assert "parse error" in err

    def test_long_bad_k_range_is_quoted_short(self, capsys):
        code, out, err = run(capsys, "solve", "3", "4", "5", "--k=0.." + "9" * 5000 + "x")
        assert code == 2
        assert out == ""
        assert err == (
            "heron-quad: parse error: k range bounds must be integers, got "
            f"'0..{'9' * 37}'... (5004 characters)\n"
        )

    def test_inverted_k_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "solve", "3", "4", "5", "--k", "2..1")
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize(
        "argv", [("nan", "1", "1"), ("1", "1", "nan")]
    )
    def test_non_finite_input_is_parse_error(self, capsys, argv):
        code, out, err = run(capsys, "solve", *argv)
        assert code == 2
        assert out == ""
        assert "nan" in err

    def test_float_tangency_is_one_family(self, capsys):
        # b + c = -0.1 is not zero beside the fixed 1e-12 relative tolerance
        doc = run_json(capsys, "solve", "0.3", "0.4", "-0.5")
        assert doc["inputs"]["zero_tol"] == 1e-12
        assert [f["tag"] for f in doc["result"]["families"]] == ["double-angle"]

    def test_zero_tol_option_is_gone(self, capsys):
        code, out, err = run(capsys, "solve", "3", "4", "5", "--zero-tol", "1e-12")
        assert code == 2
        assert out == ""
        assert "--zero-tol" in err

    def test_float_overflow_is_domain_error(self, capsys):
        # a*a overflows; the envelope would carry Infinity, which is not JSON
        code, out, err = run(capsys, "solve", "1e308", "1e308", "1")
        assert code == 3
        assert out == ""
        assert "domain error" in err

    @pytest.mark.parametrize(
        "k, message",
        [
            (f"{10**400}..{10**400}", "reaches past |k| = 1000000"),
            # past int()'s digit limit: still a bound past the cap, not a parse error
            ("0.." + "9" * 5000, "reaches past |k| = 1000000"),
            ("-" + "9" * 5000 + "..0", "reaches past |k| = 1000000"),
            ("0..3000000", "reaches past |k| = 1000000"),
            ("0..10000", "spans more than 10000 periods"),
        ],
        ids=["magnitude-1e400", "digits-5000", "negative-digits-5000", "magnitude-3e6", "width"],
    )
    def test_k_range_cap_is_domain_error(self, capsys, k, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", "3", "4", "5", f"--k={k}")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == f"heron-quad: domain error: the k range {message}\n"

    def test_k_range_at_the_caps_enumerates(self, capsys):
        doc = run_json(capsys, "solve", "3", "4", "5", "--k=990001..1000000")
        assert len(doc["result"]["solutions"]["values"]) == 10_000


class TestConstructCommand:
    def test_worked_example_payload(self, capsys):
        doc = run_json(capsys, "construct", "120", "35", "125")
        result = doc["result"]
        assert result["triple"] == {
            "delta": 5,
            "m": 4,
            "n": 3,
            "leg_form": "even-leg-first",
        }
        assert result["vertices"]["Gamma"]["x"] == "576/5"
        assert result["sides"]["Gamma-B"]["exact"] == "120"
        assert result["sides"]["Gamma2-Gamma1"]["exact"] == {"coef": "200", "radicand": 1}
        assert result["diagonals"]["B-Gamma1"]["exact"] == "160"
        assert result["diagonals"]["Gamma-Gamma2"]["exact"] == {
            "coef": "192",
            "radicand": 1,
        }
        assert result["tangents"] == {
            "B": "-24/7",
            "Gamma": "-4/3",
            "Gamma1": "24/7",
            "Gamma2": "4/3",
        }
        assert result["theta"]["tan"] == "3/4"
        assert result["theta"]["degrees_display"] == "36.86990"
        assert result["area"]["exact"] == "12288"
        assert [er["id"] for er in doc["errata"]] == [
            "worked-example-diagonal-92",
            "worked-example-tangent-gamma",
            "worked-example-tangent-gamma2",
        ]

    def test_irrational_side_payload(self, capsys):
        doc = run_json(capsys, "construct", "3", "4", "5")
        side = doc["result"]["sides"]["Gamma2-Gamma1"]
        assert side["exact"] == {"coef": "3", "radicand": 10}
        assert side["approx"] == pytest.approx(3 * 10**0.5)
        assert doc["errata"] == []

    def test_rational_non_integer_triple(self, capsys):
        doc = run_json(capsys, "construct", "3/2", "2", "5/2")
        assert doc["result"]["triple"] is None
        assert doc["result"]["area"]["exact"] == "243/40"

    def test_svg_side_file(self, capsys, tmp_path):
        svg_path = tmp_path / "fig.svg"
        doc = run_json(capsys, "construct", "3", "4", "5", "--svg", str(svg_path))
        assert doc["result"]["svg_path"] == str(svg_path)
        content = svg_path.read_text()
        assert content.startswith("<svg")
        assert "Γ₂" in content

    @pytest.mark.parametrize(
        "triple, exact",
        [
            # m = 1e9+7, n = 2: only the primitive hypotenuse gets split
            (
                ("4000000028", "1000000014000000045", "1000000014000000053"),
                {"coef": "2000000014", "radicand": 1000000014000000053},
            ),
            # (3, 4, 5) over a 14-digit prime: the denominator is never factored
            (
                ("3/10000000000037", "4/10000000000037", "5/10000000000037"),
                {"coef": "3/10000000000037", "radicand": 10},
            ),
        ],
        ids=["prime-m-1e9", "prime-denominator-1e13"],
    )
    def test_large_radicand_finishes(self, capsys, triple, exact):
        start = time.perf_counter()
        doc = run_json(capsys, "construct", *triple)
        assert time.perf_counter() - start < 1.0
        assert doc["result"]["sides"]["Gamma2-Gamma1"]["exact"] == exact

    def test_prime_hypotenuse_past_trial_division_budget(self, capsys):
        # m = 1e12+7, n = 2: the 25-digit primitive hypotenuse needs trial
        # divisors past 2^20, so the split is refused instead of running on
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "construct",
            "4000000000028",
            "1000000000014000000000045",
            "1000000000014000000000053",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("heron-quad: domain error: squarefree split")
        assert err.count("\n") == 1

    def test_float_approximation_overflow_is_domain_error(self, capsys):
        code, out, err = run(capsys, "construct", "3e200", "4e200", "5e200")
        assert code == 3
        assert out == ""
        assert err.startswith("heron-quad: domain error: ") and "too large" in err
        assert err.count("\n") == 1

    def test_area_past_float_range_names_the_area(self, capsys):
        k = 10**160 + 7
        code, out, err = run(capsys, "construct", str(3 * k), str(4 * k), str(5 * k))
        assert code == 3
        assert out == ""
        assert err == "heron-quad: domain error: the area is too large for its float approximation\n"

    def test_radius_and_angles_past_float_range_of_their_squares(self, capsys):
        # the squared radius and the angle dot products pass the float
        # range here, the area (about 9.7e307) does not
        k = 10**151
        big = run_json(capsys, "construct", str(99 * k), str(4900 * k), str(4901 * k))["result"]
        small = run_json(capsys, "construct", "99", "4900", "4901")["result"]
        r2 = Fraction(big["circumcircle"]["radius_squared"])
        assert r2 > 2**1024
        root = math.isqrt(r2.numerator // r2.denominator)
        assert big["circumcircle"]["radius_approx"] == float(f"{root:.10g}")
        assert big["angles_degrees"] == small["angles_degrees"]

    def test_radius_and_angles_below_float_range_of_their_squares(self, capsys):
        # the squared radius and the angle dot products underflow a float here
        k = 10**200
        tiny = run_json(capsys, "construct", f"3/{k}", f"4/{k}", f"5/{k}")["result"]
        assert tiny["circumcircle"]["radius_approx"] == 4.74341649e-200
        assert tiny["angles_degrees"] == {
            "B": 143.1301024,
            "Gamma": 108.4349488,
            "Gamma1": 36.86989765,
            "Gamma2": 71.56505118,
        }

    @pytest.mark.parametrize("triple", [(3, 4, 5), (99, 4900, 4901), (120, 35, 125)])
    @pytest.mark.parametrize(
        "scale", [Fraction(10**151), Fraction(1, 10**200), Fraction(1, 10**290)]
    )
    def test_scaled_svg_is_the_unscaled_svg(self, triple, scale):
        # the drawing is scale-free, also where the squared radius leaves the float range
        code, unscaled = run_quiet("svg", *map(str, triple))
        assert code == 0
        assert run_quiet("svg", *(str(v * scale) for v in triple)) == (0, unscaled)

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "1e5000", "1", "1"),
            ("construct", f"1/{10**300}", "1", "1"),
            ("construct", "1e100000", "1", "1"),
            ("solve", str(10**300), "1", "1"),
            ("verify", "--params", str(10**300), "4", "3"),
            ("family", "--t-max", "9" * 5000, "--delta-max", "3"),
            ("solve", "1", "2", "9" * 5000),
            ("construct", "9" * 5000, "4", "5"),
        ],
        ids=[
            "exponent",
            "denominator",
            "long-exponent",
            "solve-integer",
            "verify-integer",
            "family-5000-digits",
            "solve-5000-digits",
            "construct-5000-digits",
        ],
    )
    def test_too_many_digits_is_parse_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        # the type function's own reason, with a bounded quote of the input
        assert "has more than 300 digits" in err
        assert len(err.encode()) < 1024

    def test_non_pythagorean_rejected(self, capsys):
        code, _, err = run(capsys, "construct", "3", "4", "6")
        assert code == 3
        assert "domain error" in err

    def test_garbage_rejected(self, capsys):
        code, _, _ = run(capsys, "construct", "3", "4", "x")
        assert code == 2


@given(
    st.one_of(
        _FLOATS,
        st.floats(min_value=1e-6, max_value=1e17),
        st.sampled_from(
            [45.0, 1e-4, 9.99999999995e-05, 1e10, 12345678905.0, 1.7976931348623157e308]
        ),
    )
)
@example(36.86989765243)
def test_round10_text_is_the_text_of_the_rounded_float(x):
    try:
        expected = cli._float_text(cli._round10(x))
    except DomainError:  # rounds up past the float range
        with pytest.raises(DomainError, match="not finite"):
            cli._round10_text(x)
    else:
        assert cli._round10_text(x) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_round10_text_refuses_a_non_finite_float(bad):
    with pytest.raises(DomainError, match="not finite"):
        cli._round10_text(bad)


def member_encoding(member) -> str:
    """A member's JSON text, encoded in full from its row, each (p, q) leaf
    shown as its Fraction: the bytes each compiled template must give."""
    from heronquad.errata import errata_for_member
    from heronquad.exactnum import euclid_triple
    from heronquad.geometry import SEGMENTS

    errata = errata_for_member(member.delta, member.m, member.n)
    leaves = (
        member.delta,
        int(value(member, "side_gamma2_gamma1")),  # k
        *euclid_triple(member.delta, member.m, member.n),
        *(str(value(member, attr)) for *_, attr in SEGMENTS),
        str(value(member, "area")),
        member.is_heron,
        *cli._theta_degrees(value(member, "side_gamma_b"), value(member, "diag_b_gamma1")),
    )
    return cli._encoded(cli._member_payload(member, errata, leaves))


class TestFamilyCommand:
    def test_heron_only_window(self, capsys):
        doc = run_json(
            capsys, "family", "--t-max", "3", "--delta-max", "13", "--heron-only"
        )
        assert doc["result"]["count"] == 3
        got = [
            (m["params"]["delta"], m["params"]["m"], m["params"]["n"])
            for m in doc["result"]["members"]
        ]
        assert got == [(5, 4, 3), (10, 4, 3), (13, 12, 5)]
        assert all(m["is_heron"] for m in doc["result"]["members"])

    def test_member_payload_shape(self, capsys):
        doc = run_json(capsys, "family", "--t-max", "3", "--delta-max", "1")
        member = doc["result"]["members"][0]
        assert member["params"] == {
            "t1": 2,
            "t2": 1,
            "t_form": "even-m",
            "delta": 1,
            "m": 4,
            "n": 3,
            "L": 5,
            "k": 40,
        }
        assert member["triple"] == [24, 7, 25]
        assert member["sides"]["Gamma-Gamma1"] == "56/5"
        assert member["tangents"]["Gamma"] == "-4/3"
        assert member["is_heron"] is False
        assert member["errata"] == ["family-tangent-closed-form"]

    def test_theta_is_the_construction_theta(self, capsys):
        doc = run_json(capsys, "family", "--t-max", "6", "--delta-max", "8")
        for member in doc["result"]["members"]:
            built = run_json(capsys, "construct", *map(str, member["triple"]))
            assert member["theta"] == built["result"]["theta"], member["params"]

    @pytest.mark.parametrize("heron_only", [False, True], ids=["all", "heron-only"])
    @pytest.mark.parametrize("t_max, delta_max", [(2, 6)] + [(t, 40) for t in range(2, 9)])
    def test_template_text_is_the_member_encoding(self, t_max, delta_max, heron_only):
        from heronquad.errata import errata_for_member
        from heronquad.family import enumerate_family

        templates: dict = {}
        rows = list(enumerate_family(t_max, delta_max, heron_only=heron_only))
        assert rows
        for row in rows:
            errata = errata_for_member(row.delta, row.m, row.n)
            member = family.family_member(row.delta, row.m, row.n)
            assert cli._member_text(row, errata, templates) == member_encoding(member), row[:4]
        # every window here holds the worked example, and it has its own template
        worked = (5, 4, 3, 5)
        assert worked in {r[:4] for r in rows}
        assert len(templates) == len({(r[1:4], r[:4] == worked) for r in rows})

    @pytest.mark.parametrize("m, n", [(m, n) for *_, m, n, _ in family.generating_pairs(6)])
    def test_template_text_is_the_member_encoding_at_large_delta(self, m, n):
        # the template compiled from delta = 1 fills in every member of its
        # pair up to delta = 10^30, whether delta is a multiple of L or not
        from heronquad.errata import errata_for_member

        L, top = math.isqrt(m * m + n * n), 10**30
        tangents = family._tangents(m, n)
        templates: dict = {}
        heron = set()
        for delta in (1, 2 * L, 2 * L + 1, top // L * L, top // L * L + 1, top - 1, top):
            row = family._row(delta, m, n, L, tangents)
            member = family.family_member(delta, m, n)
            errata = errata_for_member(delta, m, n)
            assert cli._member_text(row, errata, templates) == member_encoding(member), row[:4]
            heron.add(row.is_heron)
        assert len(templates) == 1
        assert heron == {False, True}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_template_refuses_a_non_finite_degree(self, monkeypatch, bad):
        from heronquad.errata import errata_for_member

        templates: dict = {}
        first, second = list(family.enumerate_family(2, 2))
        cli._member_text(first, errata_for_member(1, 4, 3), templates)
        monkeypatch.setattr(cli, "theta_degrees", lambda alpha, bg: bad)
        with pytest.raises(DomainError, match="not finite"):
            cli._member_text(second, errata_for_member(2, 4, 3), templates)

    @settings(max_examples=12)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
    )
    def test_output_is_the_stdlib_encoding(self, t_max, delta_max, heron_only):
        argv = ["family", "--t-max", str(t_max), "--delta-max", str(delta_max)]
        code, out = run_quiet(*argv, *(["--heron-only"] if heron_only else []))
        assert code == 0
        assert out == stdlib_json(json.loads(out)) + "\n"

    def test_peak_memory_scales_with_the_output(self):
        tracemalloc.start()
        try:
            code, out = run_quiet("family", "--t-max", "8", "--delta-max", "60")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # the member texts, the joined document and the captured copy of it
        assert peak < 4 * len(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "--t-max", "3", "--delta-max", "1000000"),
            ("family", "--t-max", "1000000", "--delta-max", "100000", "--heron-only"),
            ("heron-table", "--t-max", "100000"),
            ("heron-table", "--t-max", "3", "--delta-multiples", "100001", "--format", "csv"),
        ],
    )
    def test_over_cap_window_is_domain_error(self, capsys, argv):
        # the refusal must come within 1 s: a deadline interrupts the call, so a
        # refusal that stops reading late fails here instead of hanging the suite
        def late(signum, frame):
            raise _Late("the over-cap refusal took more than 1 s")

        previous = signal.signal(signal.SIGALRM, late)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3
        assert out == ""
        assert f"more than {cli.MEMBERS_MAX} members" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("heron-table", "--t-max", "1", "--delta-multiples", "0"), "delta_multiples"),
            (("family", "--t-max", "1", "--delta-max", "0"), "delta_max"),
        ],
        ids=["heron-table", "family"],
    )
    def test_bad_delta_range_is_named_before_a_bad_t_max(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"domain error: {name} must be >= 1, got 0" in err
        assert "t_max" not in err

    def test_heron_only_stops_at_the_last_possible_pair(self, capsys):
        # t1^2 >= delta_max makes L = t1^2 + t2^2 > delta_max for every later pair
        delta_max = 200
        huge = run_json(
            capsys, "family", "--t-max", str(10**200), "--delta-max", str(delta_max), "--heron-only"
        )
        small = run_json(
            capsys,
            "family",
            "--t-max",
            str(math.isqrt(delta_max)),
            "--delta-max",
            str(delta_max),
            "--heron-only",
        )
        assert huge["result"]["count"] > 0
        assert huge["result"] == small["result"]


class TestHeronTableCommand:
    def test_default_json_rows(self, capsys):
        doc = run_json(capsys, "heron-table", "--t-max", "3")
        rows = doc["result"]["rows"]
        assert len(rows) == 2
        first, second = rows
        assert (first["m"], first["n"], first["delta"]) == (4, 3, 5)
        assert [
            first[k]
            for k in (
                "B_Gamma",
                "Gamma_Gamma1",
                "Gamma1_Gamma2",
                "Gamma2_B",
                "B_Gamma1",
                "Gamma_Gamma2",
                "Area",
            )
        ] == ["120", "56", "200", "120", "160", "192", "12288"]
        assert first["verified"] is True
        assert "published-table-area-12888" in first["errata"]
        assert (second["m"], second["n"], second["delta"]) == (12, 5, 13)
        assert second["Area"] == "4976640"
        assert second["errata"] == ["family-tangent-closed-form"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "heron-table", "--t-max", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "t1",
            "t2",
            "m",
            "n",
            "delta",
            "B_Gamma",
            "Gamma_Gamma1",
            "Gamma1_Gamma2",
            "Gamma2_B",
            "B_Gamma1",
            "Gamma_Gamma2",
            "Area",
        ]
        assert rows[1] == ["2", "1", "4", "3", "5", "120", "56", "200", "120", "160", "192", "12288"]
        assert rows[2] == [
            "3",
            "2",
            "12",
            "5",
            "13",
            "1560",
            "2856",
            "4056",
            "1560",
            "3744",
            "2880",
            "4976640",
        ]

    def test_delta_multiples(self, capsys):
        doc = run_json(capsys, "heron-table", "--t-max", "3", "--delta-multiples", "2")
        deltas = [(r["m"], r["n"], r["delta"]) for r in doc["result"]["rows"]]
        assert deltas == [(4, 3, 5), (4, 3, 10), (12, 5, 13), (12, 5, 26)]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("multiples", ["0", "-3"])
    def test_delta_multiples_below_one_is_domain_error(self, capsys, fmt, multiples):
        code, out, err = run(
            capsys, "heron-table", "--delta-multiples", multiples, "--format", fmt
        )
        assert code == 3
        assert out == ""
        assert f"domain error: delta_multiples must be >= 1, got {multiples}" in err

    def test_failing_row_names_its_checks(self, capsys, monkeypatch):
        # the window's oracle pass of each pair fails its first check as well
        real_failures = verify.member_failures

        def one_failure(row):
            first = verify.verify_member(row).checks[0].name
            return [first, *real_failures(row)]

        monkeypatch.setattr(verify, "member_failures", one_failure)
        code, out, err = run(capsys, "heron-table", "--t-max", "3")
        assert code == 4
        assert (
            "verification failed for (m=4, n=3, delta=5): "
            "1 check(s): concyclicity-determinant" in err
        )
        assert "2 row(s) failed verification" in err
        assert [r["verified"] for r in json.loads(out)["result"]["rows"]] == [False, False]

    @settings(max_examples=8)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3))
    def test_output_is_the_stdlib_encoding(self, t_max, multiples):
        code, out = run_quiet(
            "heron-table", "--t-max", str(t_max), "--delta-multiples", str(multiples)
        )
        assert code == 0
        assert out == stdlib_json(json.loads(out)) + "\n"

    def test_csv_round_trip_values(self, capsys):
        _, out, _ = run(capsys, "heron-table", "--t-max", "4", "--format", "csv")
        for row in csv.DictReader(io.StringIO(out)):
            m, n, delta = int(row["m"]), int(row["n"]), int(row["delta"])
            assert int(row["B_Gamma"]) == 2 * delta * m * n
            assert int(row["B_Gamma1"]) == 2 * delta * m * m
            # integer areas: the delta = L rows are Heron by construction
            assert int(row["Area"]) > 0


def _misprinted_tangents(m, n):
    """The published family tangents, -2m/n at Gamma and 2m/n at Gamma2 (the
    ``family-tangent-closed-form`` erratum), in place of ``family._tangents``."""
    return (-2 * m * n, m * m - n * n), (-2 * m, n), (2 * m * n, m * m - n * n), (2 * m, n)


class TestMisprintedClosedForm:
    """A wrong closed form ends every command in exit 4, the failing checks
    named: ``verify`` runs the oracles on its member; ``family`` and
    ``heron-table`` run them on each member of a pair until one passes."""

    FAILED = "2 check(s): member-tangent-Gamma, member-tangent-Gamma2"

    @pytest.fixture(autouse=True)
    def misprint(self, monkeypatch):
        monkeypatch.setattr(family, "_tangents", _misprinted_tangents)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_heron_table_exits_4_naming_the_checks(self, capsys, fmt):
        # no row passes the oracles, so no pair has a base to scale from
        argv = ["--t-max", "3", "--delta-multiples", "2", "--format", fmt]
        code, out, err = run(capsys, "heron-table", *argv)
        assert code == 4
        assert err == "".join(
            f"heron-quad: verification failed for (m={m}, n={n}, delta={delta}): {self.FAILED}\n"
            for m, n, delta in ((4, 3, 5), (4, 3, 10), (12, 5, 13), (12, 5, 26))
        ) + "heron-quad: 4 row(s) failed verification\n"
        assert out

    @pytest.mark.parametrize("mode", ["params", "triple", "input"])
    def test_verify_exits_4_naming_the_checks(self, capsys, tmp_path, mode):
        path = tmp_path / "member.json"
        path.write_text(json.dumps({"delta": 5, "m": 4, "n": 3}))
        argv = {
            "params": ["--params", "5", "4", "3"],
            "triple": ["--triple", "120", "35", "125"],
            "input": ["--input", str(path)],
        }[mode]
        code, out, err = run(capsys, "verify", *argv)
        assert code == 4
        assert err == f"heron-quad: verification failed: {self.FAILED}\n"
        assert json.loads(out)["result"]["verdict"] == "fail"

    def test_family_exits_4_naming_the_checks(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        for out_args in ([], ["--out", str(path)]):
            code, out, err = run(capsys, "family", "--t-max", "3", "--delta-max", "5", *out_args)
            assert (code, out) == (4, "")
            assert err == f"heron-quad: verification failed for (m=4, n=3, delta=1): {self.FAILED}\n"
        assert not path.exists()


def _wrong_degree(monkeypatch, attr, right_at):
    """Give every row the closed form ``attr`` (``side_gamma_gamma1`` or
    ``area``) times e/delta, e = ``right_at(L)``: of one degree less in
    delta (the area 4*delta*e*m^5*n/L^2), so right only at delta = e."""
    row = family._row

    def wrong_degree(delta, m, n, L, tangents):
        right = row(delta, m, n, L, tangents)
        value = Fraction(*getattr(right, attr)) * Fraction(right_at(L), delta)
        return right._replace(**{attr: value.as_integer_ratio()})

    monkeypatch.setattr(family, "_row", wrong_degree)


def test_family_scaling_check_catches_a_closed_form_of_the_wrong_degree(capsys, monkeypatch):
    # right at delta = 1, so the oracles pass the first member of the pair;
    # only the scaling check of the next one fails
    _wrong_degree(monkeypatch, "area", lambda L: 1)
    code, out, err = run(capsys, "family", "--t-max", "3", "--delta-max", "5")
    assert (code, out) == (4, "")
    assert err == (
        "heron-quad: verification failed for (m=4, n=3, delta=2): "
        "1 check(s): member-scaling-area\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_heron_table_scaling_check_catches_a_closed_form_of_the_wrong_degree(
    capsys, monkeypatch, fmt
):
    # right at delta = L, so the oracles pass the first row of each pair;
    # only the scaling check of the second one fails
    _wrong_degree(monkeypatch, "area", lambda L: L)
    argv = ["--t-max", "3", "--delta-multiples", "2", "--format", fmt]
    code, out, err = run(capsys, "heron-table", *argv)
    assert code == 4
    assert err == (
        "heron-quad: verification failed for (m=4, n=3, delta=10): "
        "1 check(s): member-scaling-area\n"
        "heron-quad: verification failed for (m=12, n=5, delta=26): "
        "1 check(s): member-scaling-area\n"
        "heron-quad: 2 row(s) failed verification\n"
    )
    if fmt == "json":
        rows = json.loads(out)["result"]["rows"]
        assert [row["verified"] for row in rows] == [True, False, True, False]
    else:
        assert len(out.splitlines()) == 5


def test_family_scaling_check_catches_a_side_of_the_wrong_degree(capsys, monkeypatch):
    # right at delta = 1, so the oracles pass the first member of the pair;
    # only the scaling check of the next one fails
    _wrong_degree(monkeypatch, "side_gamma_gamma1", lambda L: 1)
    code, out, err = run(capsys, "family", "--t-max", "3", "--delta-max", "5")
    assert (code, out) == (4, "")
    assert err == (
        "heron-quad: verification failed for (m=4, n=3, delta=2): "
        "1 check(s): member-scaling-side-Gamma-Gamma1\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_heron_table_scaling_check_catches_a_side_of_the_wrong_degree(capsys, monkeypatch, fmt):
    # right at delta = L, so the oracles pass the first row of each pair
    _wrong_degree(monkeypatch, "side_gamma_gamma1", lambda L: L)
    argv = ["--t-max", "3", "--delta-multiples", "2", "--format", fmt]
    code, _out, err = run(capsys, "heron-table", *argv)
    assert code == 4
    assert err == (
        "heron-quad: verification failed for (m=4, n=3, delta=10): "
        "1 check(s): member-scaling-side-Gamma-Gamma1\n"
        "heron-quad: verification failed for (m=12, n=5, delta=26): "
        "1 check(s): member-scaling-side-Gamma-Gamma1\n"
        "heron-quad: 2 row(s) failed verification\n"
    )


class TestTheOraclesReadTheStoredTriple:
    """``family`` and ``heron-table`` print each row's stored triple, and the
    oracle pass builds its construction from that triple: a wrong one ends in
    exit 4 or 3, never in exit 0 or a traceback."""

    SWAPPED = (
        "12 check(s): member-side-Gamma-B, member-side-B-Gamma2, member-side-Gamma2-Gamma1, "
        "member-side-Gamma-Gamma1, member-diagonal-B-Gamma1, member-diagonal-Gamma-Gamma2, "
        "member-tangent-B, member-tangent-Gamma, member-tangent-Gamma1, member-tangent-Gamma2, "
        "member-area-vs-shoelace, member-theta-n-over-m"
    )
    COMMANDS = [
        ["family", "--t-max", "3", "--delta-max", "3"],
        ["heron-table", "--t-max", "3", "--delta-multiples", "2"],
        ["heron-table", "--t-max", "3", "--delta-multiples", "2", "--format", "csv"],
    ]

    @staticmethod
    def _stored(monkeypatch, triple):
        """Give every row the triple ``triple(row)`` in place of its own."""
        row = family._row

        def stored(delta, m, n, L, tangents):
            right = row(delta, m, n, L, tangents)
            return right._replace(**dict(zip(("alpha", "beta", "gamma"), triple(right))))

        monkeypatch.setattr(family, "_row", stored)

    @pytest.mark.parametrize("argv", COMMANDS, ids=["family", "heron-table", "heron-table-csv"])
    def test_swapped_legs_exit_4_naming_the_member_checks(self, capsys, monkeypatch, argv):
        self._stored(monkeypatch, lambda r: (r.beta, r.alpha, r.gamma))
        code, out, err = run(capsys, *argv)
        assert code == 4
        if argv[0] == "family":  # it stops at the first pair
            assert out == ""
            assert err == (
                f"heron-quad: verification failed for (m=4, n=3, delta=1): {self.SWAPPED}\n"
            )
        else:  # no row passes, so no pair has a base to scale from
            assert err == "".join(
                f"heron-quad: verification failed for (m={m}, n={n}, delta={delta}): "
                f"{self.SWAPPED}\n"
                for m, n, delta in ((4, 3, 5), (4, 3, 10), (12, 5, 13), (12, 5, 26))
            ) + "heron-quad: 4 row(s) failed verification\n"

    @pytest.mark.parametrize("argv", COMMANDS, ids=["family", "heron-table", "heron-table-csv"])
    def test_a_triple_that_is_not_right_exits_3(self, capsys, monkeypatch, argv):
        self._stored(monkeypatch, lambda r: (r.alpha + r.delta, r.beta, r.gamma))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("heron-quad: domain error: alpha^2 + beta^2 != gamma^2: ")
        # the message names the row whose triple it refuses: a pair's first
        delta = 1 if argv[0] == "family" else 5
        assert err.endswith(f" for (m=4, n=3, delta={delta})\n")
        assert err.count("\n") == 1  # no traceback


class TestVerifyCommand:
    def test_triple_mode(self, capsys):
        doc = run_json(capsys, "verify", "--triple", "120", "35", "125")
        assert doc["result"]["verdict"] == "pass"
        assert doc["result"]["counts"]["fail"] == 0
        assert doc["result"]["counts"]["erratum"] == 5
        assert doc["result"]["subject"].startswith("member(")

    @pytest.mark.parametrize("k", [10**160 + 7, 10**200 + 7], ids=["1e160+7", "1e200+7"])
    def test_triple_mode_large_triple(self, capsys, k):
        # float coordinates near 1e160 overflowed the angle identity's products
        doc = run_json(capsys, "verify", "--triple", str(3 * k), str(4 * k), str(5 * k))
        assert doc["result"]["verdict"] == "pass"

    def test_input_mode_tiny_triple(self, capsys, tmp_path):
        # coordinates near 1e-200: the angle identity's products underflowed
        tiny = {name: f"{v}/1{'0' * 200}" for name, v in zip(("alpha", "beta", "gamma"), (3, 4, 5))}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny))
        doc = run_json(capsys, "verify", "--input", str(path))
        assert doc["result"]["verdict"] == "pass"

    def test_triple_mode_odd_leg_first(self, capsys):
        doc = run_json(capsys, "verify", "--triple", "35", "120", "125")
        assert doc["result"]["verdict"] == "pass"
        assert doc["result"]["subject"].startswith("construction(")

    def test_params_mode(self, capsys):
        doc = run_json(capsys, "verify", "--params", "5", "4", "3")
        assert doc["result"]["verdict"] == "pass"
        assert doc["result"]["counts"]["erratum"] == 5

    def test_input_mode_construct_envelope(self, capsys, tmp_path):
        code, out, _ = run(capsys, "construct", "120", "35", "125")
        assert code == 0
        envelope_path = tmp_path / "construct.json"
        envelope_path.write_text(out)
        doc = run_json(capsys, "verify", "--input", str(envelope_path))
        assert doc["result"]["verdict"] == "pass"
        names = [c["name"] for c in doc["result"]["checks"]]
        assert names[0] == "payload-consistency"
        assert doc["result"]["checks"][0]["status"] == "pass"

    def test_input_mode_detects_tampering(self, capsys, tmp_path):
        code, out, _ = run(capsys, "construct", "120", "35", "125")
        assert code == 0
        doc = json.loads(out)
        doc["result"]["tangents"]["Gamma"] = "-8/3"
        envelope_path = tmp_path / "tampered.json"
        envelope_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--input", str(envelope_path))
        assert code == 4
        assert "verification failed: 1 check(s): payload-consistency" in err
        result = json.loads(out)["result"]
        assert result["verdict"] == "fail"
        failing = [c["name"] for c in result["checks"] if c["status"] == "fail"]
        assert failing == ["payload-consistency"]

    def test_input_mode_bare_triple(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"alpha": "3", "beta": "4", "gamma": "5"}))
        doc = run_json(capsys, "verify", "--input", str(path))
        assert doc["result"]["verdict"] == "pass"

    def test_input_mode_bare_params(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"delta": 13, "m": 12, "n": 5}))
        doc = run_json(capsys, "verify", "--input", str(path))
        assert doc["result"]["verdict"] == "pass"
        assert doc["result"]["subject"] == "member(delta=13, m=12, n=5)"

    def test_input_mode_unrecognized(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"foo": 1}))
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "parse error" in err

    def test_input_mode_long_number_is_short_parse_error(self, capsys, tmp_path):
        # the digit cap is checked before Fraction() reads the string
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"alpha": "9" * 5000, "beta": "4", "gamma": "5"}))
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"heron-quad: parse error: '{'9' * 40}'... (5000 characters) "
            "has more than 300 digits\n"
        )

    def test_input_mode_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"alpha": "\xff"}', "'utf-8' codec can't decode"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
        ],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_input_mode_undecodable_file(self, capsys, tmp_path, content, reason):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"heron-quad: parse error: {path} is not valid JSON: ")
        assert reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source", ["/dev/zero", "one-byte-past"])
    def test_input_mode_reads_at_most_the_byte_cap(self, capsys, tmp_path, source):
        path = source
        if source == "one-byte-past":
            path = str(tmp_path / "big.json")
            with open(path, "wb") as fh:
                fh.write(b" " * INPUT_BYTES_MAX + b"{}")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"heron-quad: parse error: {path} is larger than 1048576 bytes\n"

    def test_input_mode_envelope_at_the_byte_cap(self, capsys, tmp_path):
        text = json.dumps(run_json(capsys, "construct", "120", "35", "125"))
        path = tmp_path / "envelope.json"
        path.write_text(text + " " * (INPUT_BYTES_MAX - len(text)), encoding="utf-8")
        assert path.stat().st_size == INPUT_BYTES_MAX
        doc = run_json(capsys, "verify", "--input", str(path))
        assert doc["result"]["verdict"] == "pass"

    @pytest.mark.parametrize(
        "field, value",
        [("inputs", ["120", "35", "125"]), ("result", "tampered")],
        ids=["inputs-not-object", "result-not-object"],
    )
    def test_input_mode_envelope_fields_must_be_objects(self, capsys, tmp_path, field, value):
        doc = run_json(capsys, "construct", "120", "35", "125")
        doc[field] = value
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"heron-quad: parse error: {path}: construct envelope needs "
            "'inputs' and 'result' objects\n"
        )

    def test_modes_mutually_exclusive(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--triple", "3", "4", "5", "--params", "1", "2", "1"
        )
        assert code == 2


class TestSvgCommand:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "svg", "3", "4", "5")
        assert code == 0
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")
        for label in ("Γ", "B", "Γ₂", "Γ₁", "A"):
            assert label in out
        assert "stroke-dasharray" in out  # the circumcircle is dashed

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "quad.svg"
        code, out, _ = run(capsys, "svg", "120", "35", "125", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("<svg")

    def test_svg_determinism(self, capsys):
        _, out1, _ = run(capsys, "svg", "120", "35", "125")
        _, out2, _ = run(capsys, "svg", "120", "35", "125")
        assert out1 == out2


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "0.1.0" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("x" * 5000,),
            ("construct", "3", "4", "5", "x" * 5000),
            ("heron-table", "--format", "x" * 5000),
        ],
        ids=["unknown-subcommand", "extra-positional", "format-choice"],
    )
    def test_long_argument_in_an_argparse_error_is_quoted_short(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"'{'x' * 40}'... (5000 characters)" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize(
        "argv", [("nosuch",), ("heron-table", "--format", "xml")], ids=["subcommand", "format"]
    )
    def test_short_argument_error_is_argparse_own(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        bounded = run(capsys, *argv)
        monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
        assert run(capsys, *argv) == bounded
        assert bounded[0] == 2
        assert f"invalid choice: '{argv[-1]}'" in bounded[2]


_SUBCOMMAND_NAMES = [name for name, *_ in cli._SUBCOMMANDS]


def _filled_parser():
    """The CLI parser with every subcommand's arguments added up front."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for subparser in subparsers.choices.values():
        subparser.fill()
    return parser


class TestLazySubcommands:
    """Each subcommand's arguments are added only when argparse hands it the call."""

    @pytest.mark.parametrize(
        "argv",
        [["-h"]] + [[name, "-h"] for name in _SUBCOMMAND_NAMES]
        # a missing argument (heron-table has none required: a missing value)
        + [[]] + [[name] for name in _SUBCOMMAND_NAMES if name != "heron-table"]
        + [["heron-table", "--format"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_texts_equal_the_filled_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        lazy = run(capsys, *argv)
        with pytest.raises(SystemExit) as exit_info:
            _filled_parser().parse_args(argv)
        captured = capsys.readouterr()
        assert lazy == (exit_info.value.code, captured.out, captured.err)
        assert lazy[0] in (0, 2)
        assert lazy[1] or lazy[2]

    def test_only_the_called_subcommand_gets_arguments(self, capsys, monkeypatch):
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(container, *args, **kwargs):
            action = add_argument(container, *args, **kwargs)
            added.append((container.prog, action.dest))
            return action

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        assert main(["construct", "3", "4", "5"]) == 0
        first = list(added)
        assert sorted(first) == sorted(
            [("heron-quad", "help"), ("heron-quad", "version")]
            + [(f"heron-quad {name}", "help") for name in _SUBCOMMAND_NAMES]
            + [("heron-quad construct", dest) for dest in ("alpha", "beta", "gamma", "svg", "out")]
        )
        # nothing is cached: a second call builds a fresh tree
        assert main(["construct", "3", "4", "5"]) == 0
        assert added[len(first):] == first
        capsys.readouterr()
