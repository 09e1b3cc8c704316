"""End-to-end command line checks: goldens, exit codes, schemas."""

import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import ppk.cli as cli_module
from ppk import synth
from ppk.analysis import term_bound_series
from ppk.cli import (
    CAPS,
    MAX_CLASSIFY_WORDS,
    MAX_COLUMN_JMAX,
    MAX_COLUMN_ROWS,
    MAX_VERIFY_WORDS,
    SUPPORTED_PRIMES,
    main,
)
from ppk.ratcore import PolyQ, RationalFunctionQ, SeriesQ, rational_to_str
from ppk.theta import T_poly
from ppk.words import enumerate_admissible

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "docs" / "schemas"
# subprocesses find ppk in src/ also when the checkout is not installed; they
# run without OPENBLAS_NUM_THREADS, which in-process main calls set, so that
# the command line's own default applies
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SRC_ENV.pop("OPENBLAS_NUM_THREADS", None)

CLASSIFY_SCAN_6 = """\
checked: 31
divergent: 22
family ones_zero (5): 10 110 1110 11110 111110
family ones_zero_ones_zero (3): 10110 101110 110110
family ones_zero_zero (1): 100
exceptional (0):
boundary (1): 100
"""

CLASSIFY_P3_SCAN_5 = """\
checked: 160
divergent: 118
family ones_zero (0):
family ones_zero_ones_zero (0):
family ones_zero_zero (0):
exceptional (42): 10 11 21 101 110 111 121 211 221 1011 1110 1111 1121 \
1211 1220 1221 2111 2121 2211 2221 10111 10121 10221 11110 11111 11121 11211 \
11220 11221 12111 12121 12211 12221 21111 21121 21211 21220 21221 22111 22121 \
22211 22221
boundary (11): 10 101 110 1011 1110 1220 10111 10221 11110 11220 21220
"""

TILDE_2_4_6 = """\
1,0,0,0,0,0,0
0,2,2,0,2,0,0
0,0,1,4,1,4,4
0,0,0,0,2,2,2
0,0,0,0,0,0,1
"""


@pytest.fixture
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def check_schema(name: str, payload: str) -> None:
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(json.loads(payload))


class TestTextGoldens:
    def test_poly(self, cli):
        code, out, _ = cli("poly", "--p", "2", "--j", "2")
        assert code == 0
        assert out == "-1/8*X[10] + 1/8*X[10]^2 + X[100] + 1/4*X[110]\n"

    def test_poly_cumulative_level_one(self, cli):
        code, out, _ = cli("poly", "--j", "1", "--cumulative")
        assert (code, out) == (0, "1\n")

    def test_theta_row(self, cli):
        code, out, _ = cli("theta", "--p", "2", "--n", "8")
        assert (code, out) == (0, "2 + x + 2x^2 + 4x^3\n")

    def test_theta_single_level(self, cli):
        code, out, _ = cli("theta", "--p", "2", "--n", "8", "--j", "1")
        assert (code, out) == (0, "1\n")

    def test_rw(self, cli):
        code, out, _ = cli("rw", "--word", "110")
        assert (code, out) == (0, "(4 + 2x + x^2) / (4 + 2x)\n")

    def test_terms_two_lines(self, cli):
        code, out, _ = cli("terms", "--p", "2", "--jmax", "5")
        assert code == 0
        assert out == "1,1,4,11,29,69\n1,2,5,12,30,72\n"

    def test_coeffs(self, cli):
        code, out, _ = cli("coeffs", "--monomial", "10", "--j", "4")
        assert code == 0
        assert out == "0: 0\n1: 1/2\n2: -1/8\n3: 1/24\n4: -1/64\n"

    def test_coeffs_with_sum(self, cli):
        code, out, _ = cli("coeffs", "--monomial", "10", "--j", "2", "--sum")
        assert code == 0
        assert out.endswith(
            "sum = 0.4054651081081644 (error <= 2.4966075573263502e-15)\n"
        )

    def test_classify_convergent_word(self, cli):
        code, out, _ = cli("classify", "--word", "10")
        assert code == 0
        assert out == (
            "word: 10\n"
            "class: convergent\n"
            "max xi modulus: 0.5\n"
            "dominant singularity: -2.0\n"
            "coefficient sum: 0.4054651081081644\n"
        )

    def test_classify_divergent_word_has_no_sum(self, cli):
        code, out, _ = cli("classify", "--word", "1010")
        assert code == 0
        assert "coefficient sum" not in out
        assert "max xi modulus: 1.1572981061383765\n" in out

    def test_classify_degree_19_word(self, cli):
        # both factors of r_w have degree 19
        code, out, _ = cli("classify", "--word", "110001010010")
        assert code == 0
        assert out.startswith("word: 110001010010\nclass: divergent\n")

    def test_classify_scan(self, cli):
        code, out, _ = cli("classify", "--maxlen", "6")
        assert (code, out) == (0, CLASSIFY_SCAN_6)

    def test_classify_scan_base_3(self, cli):
        code, out, _ = cli("classify", "--p", "3", "--maxlen", "5")
        assert (code, out) == (0, CLASSIFY_P3_SCAN_5)

    def test_tildetheta(self, cli):
        code, out, _ = cli("tildetheta", "--p", "2", "--kmax", "4", "--nmax", "6")
        assert (code, out) == (0, TILDE_2_4_6)

    def test_columns(self, cli):
        code, out, _ = cli("columns", "--tmax", "2", "--jmax", "2", "--mmax", "4096")
        assert code == 0
        assert out.splitlines()[0] == "t=0: max deviation 0.000e+00 ok"
        assert out.splitlines()[-1] == "ok (worst deviation 0.000e+00)"

    def test_verify(self, cli):
        code, out, _ = cli("verify", "--p", "3", "--nmax", "100")
        assert code == 0
        assert out == (
            "valuation triple: ok\nrow counts: ok\npolynomial identity: ok\nok\n"
        )


class TestCsv:
    def test_theta_rows(self, cli):
        code, out, _ = cli("theta", "--p", "2", "--n", "8", "--format", "csv")
        assert code == 0
        assert out == "j,count\r\n0,2\r\n1,1\r\n2,2\r\n3,4\r\n"

    def test_rw_parts(self, cli):
        code, out, _ = cli("rw", "--word", "110", "--format", "csv")
        assert code == 0
        assert out == (
            "part,text\r\nnumerator,4 + 2x + x^2\r\ndenominator,4 + 2x\r\n"
        )

    def test_classify_header_exact(self, cli):
        code, out, _ = cli("classify", "--word", "100", "--format", "csv")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "word,class,max_xi_modulus,dominant_singularity,coefficient_sum"
        fields = lines[1].split(",")
        assert fields[0] == "100" and fields[1] == "boundary"
        assert fields[4] == ""

    def test_poly_rows(self, cli):
        code, out, _ = cli("poly", "--j", "2", "--format", "csv")
        assert code == 0
        assert out == (
            "monomial,coeff\r\nX[10],-1/8\r\nX[10]^2,1/8\r\nX[100],1\r\n"
            "X[110],1/4\r\n"
        )

    def test_coeffs_sum_row(self, cli):
        code, out, _ = cli(
            "coeffs", "--monomial", "110", "--j", "2", "--sum", "--format", "csv"
        )
        assert code == 0
        assert out.split("\r\n")[-2].startswith("sum,0.15415067982725836")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["terms", "--jmax", "3"],
                "j,actual,bound\r\n0,1,1\r\n1,1,2\r\n2,4,5\r\n3,11,12\r\n",
            ),
            (
                ["verify", "--nmax", "16"],
                "check,ok,counterexample\r\nvaluation triple,True,\r\n"
                "row counts,True,\r\npolynomial identity,True,\r\n",
            ),
            (
                ["tildetheta", "--kmax", "2", "--nmax", "3"],
                "k,0,1,2,3\r\n0,1,0,0,0\r\n1,0,2,2,0\r\n2,0,0,1,4\r\n",
            ),
            (
                ["columns", "--tmax", "1", "--jmax", "1", "--mmax", "64"],
                "t,j,count,estimate,prediction,deviation\r\n"
                "0,0,64,1.0,1.0,0.0\r\n0,1,0,0.0,0.0,0.0\r\n"
                "1,0,32,0.5,0.5,0.0\r\n1,1,16,0.25,0.25,0.0\r\n",
            ),
            (["theta", "--n", "8", "--j", "3"], "j,count\r\n3,4\r\n"),
            (
                ["classify", "--maxlen", "3"],
                "word,class,max_xi_modulus,dominant_singularity,"
                "coefficient_sum\r\n"
                "10,convergent,0.5,-2.0,0.4054651081081644\r\n"
                "100,boundary,1.0,"
                "-0.24999999999999997+0.9682458365518543j,\r\n"
                "110,convergent,0.5000000000000001,-2.0,"
                "0.15415067982725836\r\n",
            ),
        ],
    )
    def test_golden(self, cli, argv, expected):
        assert cli(*argv, "--format", "csv") == (0, expected, "")


class TestJsonSchemas:
    def test_poly(self, cli):
        for extra in ([], ["--cumulative"]):
            code, out, _ = cli("poly", "--j", "3", "--format", "json", *extra)
            assert code == 0
            check_schema("poly", out)

    def test_theta_both_shapes(self, cli):
        code, out, _ = cli("theta", "--n", "12", "--format", "json")
        assert code == 0
        check_schema("theta", out)
        code, out, _ = cli("theta", "--n", "12", "--j", "2", "--format", "json")
        assert code == 0
        check_schema("theta", out)

    def test_rw(self, cli):
        code, out, _ = cli("rw", "--word", "2120", "--p", "3", "--format", "json")
        assert code == 0
        check_schema("rw", out)

    def test_coeffs(self, cli):
        code, out, _ = cli(
            "coeffs", "--monomial", "10^2*110", "--j", "6", "--sum",
            "--format", "json",
        )
        assert code == 0
        check_schema("coeffs", out)

    def test_verify(self, cli):
        code, out, _ = cli("verify", "--nmax", "80", "--format", "json")
        assert code == 0
        check_schema("verify", out)
        assert json.loads(out)["ok"] is True

    def test_terms(self, cli):
        code, out, _ = cli("terms", "--jmax", "4", "--format", "json")
        assert code == 0
        check_schema("terms", out)

    def test_classify_word_and_scan(self, cli):
        code, out, _ = cli("classify", "--word", "1010", "--format", "json")
        assert code == 0
        check_schema("classify", out)
        code, out, _ = cli("classify", "--maxlen", "5", "--format", "json")
        assert code == 0
        check_schema("classify", out)
        payload = json.loads(out)
        assert payload["checked"] == 15
        assert payload["boundary"] == ["100"]

    def test_tildetheta(self, cli):
        code, out, _ = cli(
            "tildetheta", "--kmax", "5", "--nmax", "9", "--format", "json"
        )
        assert code == 0
        check_schema("tildetheta", out)

    def test_columns(self, cli):
        code, out, _ = cli(
            "columns", "--tmax", "3", "--jmax", "2", "--mmax", "2048",
            "--format", "json",
        )
        assert code == 0
        check_schema("columns", out)
        assert json.loads(out)["max_deviation"] == 0.0


class TestExitCodes:
    def test_usage_errors_return_two(self, cli):
        cases = [
            ("rw", "--word", "21"),  # digit out of range for p = 2
            ("rw", "--word", "11"),  # not admissible
            ("rw", "--word", "x1"),  # not digits at all
            ("poly", "--j", "-1"),
            ("poly", "--j", "13"),  # cap without --force
            ("theta", "--n", "-3"),
            ("coeffs", "--monomial", "1010", "--sum"),  # divergent sum
            ("coeffs", "--monomial", "10^0"),
            ("coeffs", "--monomial", "11"),  # not admissible
            ("coeffs", "--monomial", "0"),
            ("coeffs", "--monomial", "01"),
            ("coeffs", "--monomial", "10*11"),
            ("coeffs", "--monomial", ""),
            ("coeffs", "--monomial", "*"),
            ("coeffs", "--monomial", "eps"),
            ("classify",),  # needs exactly one selector
            ("classify", "--word", "10", "--maxlen", "4"),
            ("classify", "--maxlen", "1"),
            ("classify", "--word", "10", "--tol", "0"),
            ("classify", "--word", "1010", "--tol", "nan"),
            ("coeffs", "--monomial", "1010", "--sum", "--tol", "nan"),
            ("columns", "--tmax", "1", "--jmax", "1", "--mmax", "8",
             "--tol", "inf"),
            ("terms", "--jmax", "14"),
            ("terms", "--p", "7", "--jmax", "4"),  # cap 3 at p = 7
            ("poly", "--p", "5", "--j", "5"),  # cap 4 at p = 5
            ("verify", "--nmax", "0"),
            ("verify", "--nmax", "10", "--jobs", "0"),
            ("columns", "--tmax", "2", "--jmax", "1", "--mmax", "0"),
            ("columns", "--p", "3", "--tmax", "2", "--jmax", "1", "--mmax", "8"),
        ]
        # messages of rejections that no other test reaches
        messages = {
            ("poly", "--cumulative", "--j", "0"): "cumulative polynomials need j >= 1",
            ("theta", "--n", "8", "--j", "-1"): "j must be >= 0",
            ("coeffs", "--monomial", "10", "--j", "-1"): "j must be >= 0",
            ("terms", "--jmax", "-1"): "jmax must be >= 0",
            ("tildetheta", "--kmax", "-1", "--nmax", "3"): "kmax and nmax must be >= 0",
            ("coeffs", "--monomial", "10^x"): "bad exponent in '10^x'",
        }
        for argv in cases + list(messages):
            code, out, err = cli(*argv)
            assert code == 2, argv
            assert err.startswith("error: "), argv
            if argv in messages:
                assert (out, err) == ("", f"error: {messages[argv]}\n"), argv

    def test_negative_tol_is_rejected_not_divergent(self, cli):
        # 10 is convergent; a bad tolerance must not read as a verdict
        code, out, err = cli("coeffs", "--monomial", "10", "--sum", "--tol", "-1")
        assert (code, out) == (2, "")
        assert err == "error: tol must be positive and finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--word", "10", "--tol", "1.5"),
            ("classify", "--word", "10", "--tol", "1"),
            ("classify", "--maxlen", "3", "--tol", "2"),
            ("coeffs", "--monomial", "10", "--j", "3", "--tol", "1"),
            ("coeffs", "--monomial", "10", "--sum", "--tol", "1.5"),
        ],
    )
    def test_unit_circle_tol_below_one(self, cli, argv):
        # at tol >= 1 no word could be convergent, so the band is refused
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        assert err == "error: tol must be below 1, or no word can classify convergent\n"

    def test_columns_tol_is_a_deviation_bound(self, cli):
        code, out, _ = cli(
            "columns", "--tmax", "1", "--jmax", "1", "--mmax", "8", "--tol", "1.5"
        )
        assert code == 0
        assert out.endswith("ok (worst deviation 0.000e+00)\n")

    def test_internal_errors_propagate(self, monkeypatch):
        # a library ValueError is a fault, not rejected input: no exit 2
        def broken(p, j):
            raise ValueError("internal")

        monkeypatch.setattr("ppk.cli.block_polynomial", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["poly", "--j", "2"])

    def test_argparse_rejections(self, cli):
        for argv in (
            ["poly"],  # missing required --j
            ["poly", "--j", "2", "--p", "4"],  # unsupported prime
            ["nope"],
            [],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_overlong_n_names_the_digit_limit(self, capsys):
        # an int too long for this Python to parse is refused by its digit
        # count, not echoed back as an "invalid int value", on every
        # integer option
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python parses ints of any length")
        options = (
            (["theta"], "--n"),
            (["verify"], "--nmax"),
            (["verify", "--nmax", "4"], "--jobs"),
            (["poly"], "--j"),
            (["columns", "--tmax", "1", "--jmax", "1"], "--mmax"),
        )
        for argv, option in options:
            for n, digits in (("9" * (limit + 701), limit + 701),
                              (" +9" + "_9" * limit, limit + 1)):
                with pytest.raises(SystemExit) as exc:
                    main([*argv, option, n])
                err = capsys.readouterr().err
                assert exc.value.code == 2
                assert len(err) < 300
                assert err.endswith(
                    f"argument {option}: value has {digits} digits, above this "
                    f"Python's limit of {limit} (sys.set_int_max_str_digits)\n"
                )
            # any other bad value keeps argparse's message
            for n in ("abc", "1.5", "_9", "9_", "9__9"):
                with pytest.raises(SystemExit) as exc:
                    main([*argv, option, n])
                assert exc.value.code == 2
                assert capsys.readouterr().err.endswith(
                    f"argument {option}: invalid int value: {n!r}\n"
                )
            # and names a long one by its start and length
            with pytest.raises(SystemExit) as exc:
                main([*argv, option, "x" * 5001])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"argument {option}: invalid int value: "
                f"'{'x' * 20}... (5001 characters)'\n"
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ("coeffs", "--monomial", "10^" + "9" * 5001),
            ("rw", "--word", "9" * 5001),
            ("classify", "--word", "9" * 5001),
            ("coeffs", "--monomial", "9" * 5001),
            ("rw", "--word", "1" + "0" * 5000 + "1"),
        ],
    )
    def test_overlong_word_or_exponent_is_named(self, cli, argv):
        # a long rejected word is named by its start and length, and a long
        # exponent by its digit count against the limit, never echoed
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        exponent = argv[2].startswith("10^")
        if exponent and not limit:
            pytest.skip("this Python parses ints of any length")
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err) < 300
        if exponent:
            assert f"limit of {limit} " in err
        else:
            assert err.endswith(f"... ({len(argv[2])} characters)\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coeffs", "--monomial", "10^100000000"],
             "series order 100000000 is above the limit of 4000"),
            (["coeffs", "--monomial", "10", "--j", "4001"],
             "series order 4001 is above the limit of 4000"),
            # a weight of 4301 digits, which str() refuses to print
            (["coeffs", "--monomial", "10^" + "9" * 4300 + "*10^" + "9" * 4300],
             "series order is above the limit of 4000"),
            (["tildetheta", "--kmax", "100000", "--nmax", "100000"],
             "table size (kmax + 1)(nmax + 1) 10000200001 is above the limit "
             "of 10000000"),
            (["tildetheta", "--kmax", "9" * 4300, "--nmax", "9" * 4300],
             "table size (kmax + 1)(nmax + 1) is above the limit of 10000000"),
            (["columns", "--tmax", "1", "--jmax", str(MAX_COLUMN_JMAX + 1),
              "--mmax", "4"],
             f"jmax {MAX_COLUMN_JMAX + 1} is above the limit of {MAX_COLUMN_JMAX}"),
            (["columns", "--tmax", "1", "--jmax", "40", "--mmax", "4"],
             f"jmax 40 is above the limit of {MAX_COLUMN_JMAX}"),
        ],
        ids=["coeffs-weight", "coeffs-j", "coeffs-huge-weight",
             "tildetheta-cells", "tildetheta-huge-cells", "columns-jmax",
             "columns-jmax-40"],
    )
    def test_oversized_input_is_refused_before_building(self, argv, message):
        # a size that would allocate without bound is rejected input; the
        # child gets a 512 MiB address space, so a build that starts ends
        # in a MemoryError (exit 1) instead of taking the machine's memory
        def limit_memory():
            import resource

            cap = 512 << 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        run = subprocess.run(
            [sys.executable, "-m", "ppk", *argv],
            capture_output=True, env=SRC_ENV, timeout=30,
            preexec_fn=limit_memory if sys.platform == "linux" else None,
        )
        assert (run.returncode, run.stdout) == (2, b""), run.stderr[-300:]
        assert len(run.stderr) < 300
        assert run.stderr == f"error: {message}\n".encode()

    @pytest.mark.parametrize(
        "builder, refused, size, limit, admitted",
        [
            ("ppk.analysis.enumerate_admissible",
             ["classify", "--maxlen", "40"],
             "word count (p - 1)(p^(maxlen - 1) - 1) 549755813887",
             MAX_CLASSIFY_WORDS, ["classify", "--maxlen", "14"]),
            ("ppk.analysis.enumerate_admissible",
             ["classify", "--p", "7", "--maxlen", "12"],
             "word count (p - 1)(p^(maxlen - 1) - 1) 11863960452",
             MAX_CLASSIFY_WORDS, ["classify", "--p", "7", "--maxlen", "4"]),
            ("ppk.analysis.enumerate_admissible",
             ["classify", "--maxlen", "9" * 4300],
             "word count (p - 1)(p^(maxlen - 1) - 1)",
             MAX_CLASSIFY_WORDS, ["classify", "--p", "3", "--maxlen", "8"]),
            ("ppk.oracle._triple_chunk",
             ["verify", "--nmax", "1000000000000"],
             "level words (p - 1)(p^J - 1), p^J < nmax, 549755813887",
             MAX_VERIFY_WORDS, ["verify", "--nmax", "32768"]),
            ("ppk.oracle._triple_chunk",
             ["verify", "--p", "7", "--nmax", "16808"],
             "level words (p - 1)(p^J - 1), p^J < nmax, 100836",
             MAX_VERIFY_WORDS, ["verify", "--p", "7", "--nmax", "16807"]),
            ("ppk.oracle.column_scan",
             ["columns", "--tmax", "100000000000", "--jmax", "2", "--mmax", "4"],
             "report rows (tmax + 1)(jmax + 1) 300000000003",
             MAX_COLUMN_ROWS,
             ["columns", "--tmax", "19999", "--jmax", "4", "--mmax", "4"]),
        ],
        ids=["classify-maxlen-40", "classify-p7", "classify-huge-maxlen",
             "verify-nmax", "verify-p7", "columns-rows"],
    )
    def test_word_and_row_counts_are_limited(
        self, cli, monkeypatch, builder, refused, size, limit, admitted
    ):
        # the builder raises, so a refusal shows that it never ran, and the
        # largest admitted size reaches it; columns stands in for the whole
        # scan, since a scan of 10^11 columns allocates before column_check
        monkeypatch.setattr(builder, Refuse(builder))
        code, out, err = cli(*refused)
        assert (code, out) == (2, "")
        assert err == f"error: {size} is above the limit of {limit}\n"
        assert len(err) < 300
        with pytest.raises(AssertionError, match=builder):
            main(admitted)

    def test_verification_failure_returns_one(self, cli):
        # an odd window makes the sampled densities miss the exact values
        code, out, _ = cli(
            "columns", "--tmax", "1", "--jmax", "2", "--mmax", "1001",
            "--tol", "1e-6",
        )
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL")

    def test_force_lifts_cap(self, cli):
        code, _, _ = cli("poly", "--j", "5", "--force")
        assert code == 0

    def test_caps_follow_term_bound(self, cli, capsys):
        caps = {"2": 12, "3": 6, "5": 4, "7": 3}
        for command in ("poly", "terms"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert "default cap (12, 6, 4, 3 at p = 2, 3, 5, 7)" in help_text
        for p, cap in caps.items():
            code, out, err = cli("poly", "--p", p, "--j", str(cap + 1))
            assert (code, out) == (2, ""), p
            assert err == (
                f"error: j = {cap + 1} exceeds the default cap {cap}; "
                "pass --force to build anyway\n"
            )
        code, _, _ = cli("poly", "--p", "5", "--j", "4")
        assert code == 0

    def test_caps_table_follows_rule(self):
        # the cap is the largest j <= 12 whose term bound stays within B_12
        # at p = 2
        limit = term_bound_series(2, 12)[12]
        assert limit == 30691
        assert set(CAPS) == set(SUPPORTED_PRIMES)
        for p in SUPPORTED_PRIMES:
            bounds = term_bound_series(p, 12)
            assert CAPS[p] == max(j for j, b in enumerate(bounds) if b <= limit)

    def test_caps_need_no_term_bound(self, cli, monkeypatch):
        calls = []

        def counted(p, j_max):
            calls.append((p, j_max))
            return term_bound_series(p, j_max)

        monkeypatch.setattr(cli_module, "term_bound_series", counted)
        assert cli("poly", "--p", "2", "--j", "4")[0] == 0
        assert calls == []
        assert cli("terms", "--p", "3", "--jmax", "3")[0] == 0
        assert calls == [(3, 3)]


class TestEnvironment:
    def test_one_blas_thread_by_default(self, cli, monkeypatch):
        # set, then delete, so that monkeypatch also removes what main adds
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert cli("theta", "--n", "5")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_user_blas_threads_kept(self, cli, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert cli("theta", "--n", "5")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


class TestDeterminism:
    def test_monomial_spellings_agree(self, cli):
        _, a, _ = cli("coeffs", "--monomial", "10*10", "--j", "6")
        _, b, _ = cli("coeffs", "--monomial", "10^2", "--j", "6")
        assert a == b

    def test_repeat_runs_in_process(self, cli):
        first = cli("classify", "--maxlen", "6", "--format", "json")
        second = cli("classify", "--maxlen", "6", "--format", "json")
        assert first == second

    def test_repeat_runs_subprocess(self):
        argv = [
            sys.executable, "-m", "ppk",
            "classify", "--maxlen", "5", "--format", "csv",
        ]
        runs = [
            subprocess.run(
                argv, capture_output=True, check=True, env=SRC_ENV
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        header = runs[0].split(b"\r\n", 1)[0]
        assert header == b"word,class,max_xi_modulus,dominant_singularity,coefficient_sum"

    def test_roots_ignore_blas_threads(self):
        # the command line's default of one OpenBLAS thread against two
        argv = [sys.executable, "-m", "ppk", "classify", "--maxlen", "9"]
        runs = [
            subprocess.run(argv, capture_output=True, check=True, env=env).stdout
            for env in (SRC_ENV, dict(SRC_ENV, OPENBLAS_NUM_THREADS="2"))
        ]
        assert runs[0] == runs[1]


class TestPinnedOutputs:
    # the benchmark's pins that run in a few seconds, through the real entry
    # point, so numpy starts under the command line's defaults; the pin file
    # is read, never written
    @pytest.mark.parametrize(
        "command",
        [
            "poly --p 2 --j 10 --format json",
            "poly --p 2 --j 4 --format json",
            "terms --p 5 --jmax 4",
            "terms --p 3 --jmax 3",
            "classify --p 2 --maxlen 5",
            "classify --p 3 --maxlen 5",
            "verify --p 2 --nmax 32 --jobs 2",
            "columns --p 2 --tmax 4 --jmax 2 --mmax 256 --jobs 1",
        ],
    )
    def test_exit_and_sha256(self, command):
        pin = json.loads((ROOT / "bench" / "pins.json").read_text())[command]
        run = subprocess.run(
            [sys.executable, "-m", "ppk", *command.split()],
            capture_output=True, env=SRC_ENV,
        )
        assert run.returncode == pin["exit"]
        assert hashlib.sha256(run.stdout).hexdigest() == pin["sha256"]


class TestOrderedOutputs:
    # poly, plain and cumulative, at every prime: one digest over the text,
    # json and csv output of each (p, j) in turn; taken while the
    # BlockPolynomial constructor still sorted every level's terms
    @pytest.mark.parametrize(
        "extra, pairs, digest",
        [
            (
                ["--cumulative"],
                [(2, 8), (3, 5), (5, 4), (7, 3)],
                "fa05c6a54869ebddb9123d9db0585ad87a137201f8b0a37bdfb48c63a863ca2f",
            ),
            (
                [],
                [(3, 6), (5, 4), (7, 3)],
                "852034b38f8a9bc95c2e5d6f1f6ee2583fb1c3af48045c8b20d1cc3b896892d0",
            ),
        ],
        ids=["cumulative", "levels"],
    )
    def test_digest(self, cli, extra, pairs, digest):
        h = hashlib.sha256()
        for p, j in pairs:
            for fmt in ("text", "json", "csv"):
                code, out, _ = cli(
                    "poly", "--p", str(p), "--j", str(j), *extra, "--format", fmt
                )
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == digest


class Refuse:
    """Stands in for a class that must not be used: calling it or reading
    any attribute fails."""

    def __init__(self, what):
        self.what = what

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"made a {self.what}")

    def __getattr__(self, name):
        raise AssertionError(f"made a {self.what}")


class TestBuildsOnlyWhatItPrints:
    # the build stores word ids and integers; a Monomial or a Fraction is
    # made only for a level whose terms are read
    def test_terms_makes_no_monomial_or_fraction(self, cli, monkeypatch):
        synth.block_polynomials_up_to.cache_clear()
        want = cli("terms", "--p", "3", "--jmax", "3")
        synth.block_polynomials_up_to.cache_clear()
        monkeypatch.setattr(synth, "Monomial", Refuse("Monomial"))
        monkeypatch.setattr(synth, "Fraction", Refuse("Fraction"))
        try:
            got = cli("terms", "--p", "3", "--jmax", "3")
        finally:
            synth.block_polynomials_up_to.cache_clear()
        assert got == want and want[0] == 0

    def test_poly_makes_no_monomial_or_fraction(self, cli, monkeypatch):
        # a stored level, and the sum of stored levels, prints from its rows
        # in every format
        for extra in ((), ("--cumulative",)):
            for fmt in ("text", "json", "csv"):
                argv = ("poly", "--p", "2", "--j", "6", *extra, "--format", fmt)
                synth.block_polynomials_up_to.cache_clear()
                want = cli(*argv)
                synth.block_polynomials_up_to.cache_clear()
                with monkeypatch.context() as patch:
                    patch.setattr(synth, "Monomial", Refuse("Monomial"))
                    patch.setattr(synth, "Fraction", Refuse("Fraction"))
                    try:
                        got = cli(*argv)
                    finally:
                        synth.block_polynomials_up_to.cache_clear()
                assert got == want and want[0] == 0, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--p", "2", "--nmax", "64"),
            ("columns", "--tmax", "8", "--jmax", "4", "--mmax", "4096"),
        ],
    )
    def test_verify_and_columns_make_no_monomial(self, cli, monkeypatch, argv):
        # the generating function reads the log r_w table, and the peel the
        # stored rows, so neither makes a Monomial when the check passes
        synth.block_polynomials_up_to.cache_clear()
        synth._level_index.cache_clear()
        want = cli(*argv)
        synth.block_polynomials_up_to.cache_clear()
        synth._level_index.cache_clear()
        monkeypatch.setattr(synth, "Monomial", Refuse("Monomial"))
        try:
            got = cli(*argv)
        finally:
            synth.block_polynomials_up_to.cache_clear()
        assert got == want and want[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--p", "2", "--nmax", "64"),
            ("columns", "--tmax", "8", "--jmax", "4", "--mmax", "4096"),
        ],
    )
    def test_rows_are_counted_without_words(self, cli, monkeypatch, argv):
        # P_j is evaluated at a row index, so no Word count dict is made
        synth.block_polynomials_up_to.cache_clear()
        want = cli(*argv)
        synth.block_polynomials_up_to.cache_clear()
        for name, module in list(sys.modules.items()):
            if name == "ppk" or name.startswith("ppk."):
                for fn in ("counting_factor_counts", "factor_count", "complement"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, Refuse(fn))
        try:
            got = cli(*argv)
        finally:
            synth.block_polynomials_up_to.cache_clear()
        assert got == want and want[0] == 0


class TestClosedPipe:
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # each output is larger than a pipe's buffer, so ppk is still writing
    @pytest.mark.parametrize(
        "fmt, first", [("csv", b"monomial,coeff\r\n"), ("json", b"{\n")]
    )
    def test_exits_141_with_empty_stderr(self, fmt, first):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ppk", "poly", "--j", "10", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV,
        )
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert line == first and err == b""


class TestSingularRadiusGoldens:
    # scans whose roots lie exactly on a tolerance circle: at tol 0.5 the
    # row 4 + 2x of 10 has its root at |x| = 2 = 1/(1 - tol); taken while
    # numpy.roots floats still decided every verdict
    SHA256 = {
        "classify --p 2 --maxlen 8 --tol 0.5":
            "a60127dbda8b182d7ca17e58b18b5f1d271b4837febe42c3112304a81f2a2b95",
        "classify --p 2 --maxlen 8 --tol 0.5 --format json":
            "efcc24c995c47a9da917b327bff93441e2e1c0a4c0d600dbe9cd06d137d80bdf",
        "classify --p 5 --maxlen 4 --tol 0.25":
            "1e76fc6da893074acf36fff5d9070c39172392a24baa8f65e7251c82a20b207f",
        "classify --p 5 --maxlen 4 --tol 0.25 --format json":
            "49273821857d194d3932d8a47d4a30b65212409f0714e37977ae0d572462c0d3",
    }

    @pytest.mark.parametrize("command", list(SHA256))
    def test_exit_and_sha256(self, cli, command):
        code, out, _ = cli(*command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[command]


class TestHighOrderGoldens:
    # coefficient series far above the default order 12, where the
    # denominators of log r_w grow the most
    SHA256 = {
        "coeffs --monomial 1010 --j 120 --format json":
            "58d633ad6c153df3fa2f8c3965bbabfd728115dcc42d41359637d9653ec1264d",
        "coeffs --p 3 --monomial 20^2 --j 60 --format csv":
            "a3471bba22a90a323d60fb35ffcb033e3e13b471a15fad1708d391f1a3eac514",
    }

    @pytest.mark.parametrize("command", list(SHA256))
    def test_exit_and_sha256(self, command):
        run = subprocess.run(
            [sys.executable, "-m", "ppk", *command.split()],
            capture_output=True, env=SRC_ENV,
        )
        assert run.returncode == 0
        assert hashlib.sha256(run.stdout).hexdigest() == self.SHA256[command]


# every command, with each of its shapes; each runs in every format
EVERY_COMMAND = [
    ("poly", "--j", "4"),
    ("poly", "--j", "4", "--cumulative"),
    ("theta", "--n", "100"),
    ("theta", "--n", "100", "--j", "2"),
    ("rw", "--word", "110"),
    ("coeffs", "--monomial", "10^2*110"),
    ("coeffs", "--monomial", "10", "--sum"),
    ("terms", "--jmax", "5"),
    ("classify", "--word", "100"),
    ("classify", "--maxlen", "5"),
    ("tildetheta", "--kmax", "3", "--nmax", "5"),
    ("verify", "--nmax", "64"),
    ("columns", "--tmax", "4", "--jmax", "3", "--mmax", "256"),
]


class TestIntegerRows:
    # commands print the integer rows they compute; the Fraction types are
    # the exact reference that those rows are checked against here
    def test_no_reference_type_runs(self, cli):
        methods = {}
        for cls in (PolyQ, SeriesQ, RationalFunctionQ):
            for name, attr in vars(cls).items():
                fn = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if hasattr(fn, "__code__"):
                    methods[fn.__code__] = f"{cls.__name__}.{name}"
        ran = set()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in methods:
                ran.add(methods[frame.f_code])

        synth.block_polynomials_up_to.cache_clear()
        synth._level_index.cache_clear()
        for argv in EVERY_COMMAND:
            for fmt in ("text", "json", "csv"):
                sys.setprofile(hook)
                try:
                    code, _, _ = cli(*argv, "--format", fmt)
                finally:
                    sys.setprofile(None)
                assert code == 0, argv
        assert not ran, sorted(ran)

    @pytest.mark.parametrize("p", [2, 3])
    def test_rw_prints_the_quotient(self, cli, p):
        # every admissible word of length <= 6
        for w in enumerate_admissible(p, 5):
            rf = synth.r_w_quotient(w)
            argv = ("rw", "--p", str(p), "--word", str(w), "--format")
            assert cli(*argv, "text") == (0, f"{rf}\n", "")
            code, out, _ = cli(*argv, "json")
            assert json.loads(out) == {
                "p": p,
                "word": str(w),
                "numerator": [rational_to_str(c) for c in rf.num.coeffs],
                "denominator": [rational_to_str(c) for c in rf.den.coeffs],
            }
            assert cli(*argv, "csv") == (0, (
                f"part,text\r\nnumerator,{rf.num.text()}\r\n"
                f"denominator,{rf.den.text()}\r\n"
            ), "")

    @pytest.mark.parametrize(
        "monomial, order",
        [("10^300", 300), ("10^300", 340), ("110^100", 200),
         ("10^3*100^2*1010", 40)],
    )
    def test_coeffs_prints_the_series(self, cli, monomial, order):
        mono = cli_module._parse_monomial(monomial, 2)
        want = [rational_to_str(c) for c in synth.monomial_series(mono, order).coeffs]
        argv = ("coeffs", "--monomial", monomial, "--j", str(order), "--format")
        code, out, _ = cli(*argv, "json")
        assert code == 0 and json.loads(out)["coefficients"] == want
        code, out, _ = cli(*argv, "text")
        assert code == 0 and out == "".join(f"{j}: {c}\n" for j, c in enumerate(want))
        code, out, _ = cli(*argv, "csv")
        assert code == 0
        assert out == "j,coeff\r\n" + "".join(f"{j},{c}\r\n" for j, c in enumerate(want))

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_theta_prints_the_row_polynomial(self, cli, p):
        for n in (0, 1, p, 100, 12345, 2**64 + 1):
            want = T_poly(p, n)
            argv = ("theta", "--p", str(p), "--n", str(n), "--format")
            assert cli(*argv, "text") == (0, f"{want.text()}\n", "")
            code, out, _ = cli(*argv, "json")
            assert json.loads(out)["coefficients"] == list(want.coeffs)


class TestLongCoefficients:
    # the x^1450 coefficient of X[10]^1450 is 1/(2^1450 1450!), whose
    # denominator has more digits than str of an int allows by default
    DEN = 2**1450 * math.factorial(1450)

    def test_printed_in_a_child(self):
        run = subprocess.run(
            [sys.executable, "-m", "ppk", "coeffs", "--monomial", "10^1450",
             "--format", "json"],
            capture_output=True, env=SRC_ENV, timeout=60,
        )
        assert run.returncode == 0, run.stderr[-300:]
        coeffs = json.loads(run.stdout)["coefficients"]
        assert coeffs[:-1] == ["0"] * 1450
        num, den = coeffs[-1].split("/")
        # Decimal parses and compares exactly, with no digit limit
        assert num == "1" and den.isdigit() and Decimal(den) == self.DEN

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int digit limit",
    )
    def test_limit_is_restored(self, cli):
        # main lifts the limit to write the coefficients and then puts back
        # whatever it found, here the lowest limit Python accepts
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out, _ = cli("coeffs", "--monomial", "10^1450", "--format", "csv")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)
        assert code == 0
        assert Decimal(out.splitlines()[-1].removeprefix("1450,1/")) == self.DEN


class TestImports:
    def test_algebra_commands_never_load_numpy(self):
        # numpy is imported only for printed root floats, so poly, terms,
        # the classify text scan and coeffs --sum keep their start-up time
        # and memory: their verdicts are exact root counts
        code = (
            "import contextlib, io, sys, ppk.cli\n"
            "for argv in (['terms', '--jmax', '3'],\n"
            "             ['classify', '--p', '2', '--maxlen', '9'],\n"
            "             ['classify', '--p', '3', '--maxlen', '5'],\n"
            "             ['coeffs', '--monomial', '10', '--sum']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert ppk.cli.main(argv) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, check=True, text=True, env=SRC_ENV,
        )
        assert run.stdout == "False\n"

    def test_library_imports_leave_pool_and_environment_alone(self):
        # no scan imports a process pool, serial or with forked workers, and
        # only the command line sets a default for OpenBLAS's threads;
        # columns count carries and verify's scans pack lanes in ints, so
        # neither, nor verify with forked workers, loads numpy
        pools = "print(any(m in sys.modules for m in POOLS))\n"
        code = (
            "import contextlib, io, os, sys, ppk, ppk.cli, ppk.oracle\n"
            "POOLS = 'concurrent.futures', 'multiprocessing'\n"
            # two usable CPUs, so that --jobs 2 forks on any machine
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def last_line(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        status = ppk.cli.main(argv)\n"
            "    print(status, out.getvalue().splitlines()[-1])\n"
            "ppk.oracle.column_scan(3, 2, 256)\n"
            + pools
            + "print('OPENBLAS_NUM_THREADS' in os.environ)\n"
            "ppk.oracle.column_scan(64, 4, 2**18)\n"
            "print('numpy' in sys.modules)\n"
            "print(ppk.oracle.equivalence_report(2, 64).ok)\n"
            "print('numpy' in sys.modules)\n"
            "print(ppk.cli.main(['verify', '--nmax', '512', '--jobs', '2']))\n"
            "print('numpy' in sys.modules)\n"
            "last_line(['verify', '--p', '2', '--nmax', '2048', '--jobs', '2'])\n"
            + pools
            + "last_line(['columns', '--tmax', '64', '--jmax', '4',"
            " '--mmax', '262144', '--jobs', '2'])\n"
            + pools
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, check=True, text=True, env=SRC_ENV,
        )
        assert run.stdout == (
            "False\nFalse\nFalse\nTrue\nFalse\n"
            "valuation triple: ok\nrow counts: ok\npolynomial identity: ok\nok\n"
            "0\nFalse\n"
            "0 ok\nFalse\n"
            "0 ok (worst deviation 0.000e+00)\nFalse\n"
        )
