"""End-to-end command line checks: goldens, exit codes, schemas."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from ppk.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"

CLASSIFY_SCAN_6 = """\
checked: 31
divergent: 22
family ones_zero (5): 10 110 1110 11110 111110
family ones_zero_ones_zero (3): 10110 101110 110110
family ones_zero_zero (1): 100
exceptional (0):
boundary (1): 100
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
        assert "max xi modulus: 1.157298106138376\n" in out

    def test_classify_scan(self, cli):
        code, out, _ = cli("classify", "--maxlen", "6")
        assert (code, out) == (0, CLASSIFY_SCAN_6)

    def test_tildetheta(self, cli):
        code, out, _ = cli("tildetheta", "--p", "2", "--kmax", "4", "--nmax", "6")
        assert (code, out) == (0, TILDE_2_4_6)

    def test_tildetheta_product_matches_recurrence(self, cli):
        _, direct, _ = cli("tildetheta", "--p", "3", "--kmax", "6", "--nmax", "8")
        code, product, _ = cli(
            "tildetheta", "--p", "3", "--kmax", "6", "--nmax", "8", "--product"
        )
        assert code == 0
        assert product == direct

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
                "100,boundary,1.0000000000000002,"
                "-0.24999999999999994+0.9682458365518541j,\r\n"
                "110,convergent,0.5,-2.0,0.15415067982725836\r\n",
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
            ("coeffs", "--monomial", "10^2*110", "--order", "2"),
            ("coeffs", "--monomial", "11"),  # not admissible
            ("coeffs", "--monomial", "0"),
            ("coeffs", "--monomial", "01"),
            ("coeffs", "--monomial", "10*11"),
            ("classify",),  # needs exactly one selector
            ("classify", "--word", "10", "--maxlen", "4"),
            ("classify", "--maxlen", "1"),
            ("classify", "--word", "10", "--tol", "0"),
            ("classify", "--word", "1010", "--tol", "nan"),
            ("coeffs", "--monomial", "1010", "--sum", "--tol", "nan"),
            ("columns", "--tmax", "1", "--jmax", "1", "--mmax", "8",
             "--tol", "inf"),
            ("terms", "--jmax", "14"),
            ("verify", "--nmax", "0"),
            ("verify", "--nmax", "10", "--jobs", "0"),
            ("columns", "--tmax", "2", "--jmax", "1", "--mmax", "0"),
            ("columns", "--p", "3", "--tmax", "2", "--jmax", "1", "--mmax", "8"),
        ]
        for argv in cases:
            code, _, err = cli(*argv)
            assert code == 2, argv
            assert err.startswith("error: "), argv

    def test_negative_tol_is_rejected_not_divergent(self, cli):
        # 10 is convergent; a bad tolerance must not read as a verdict
        code, out, err = cli("coeffs", "--monomial", "10", "--sum", "--tol", "-1")
        assert (code, out) == (2, "")
        assert err == "error: tol must be positive and finite\n"

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


class TestEnvironment:
    def test_jobs_env_used(self, cli, monkeypatch):
        monkeypatch.setenv("PPK_JOBS", "2")
        code, out, _ = cli("verify", "--nmax", "64")
        assert code == 0 and out.endswith("ok\n")

    def test_jobs_flag_beats_env(self, cli, monkeypatch):
        monkeypatch.setenv("PPK_JOBS", "junk")
        code, _, _ = cli("verify", "--nmax", "32", "--jobs", "1")
        assert code == 0

    def test_bad_jobs_env_rejected(self, cli, monkeypatch):
        monkeypatch.setenv("PPK_JOBS", "junk")
        code, _, err = cli("verify", "--nmax", "32")
        assert code == 2 and "PPK_JOBS" in err


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
            subprocess.run(argv, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        header = runs[0].split(b"\r\n", 1)[0]
        assert header == b"word,class,max_xi_modulus,dominant_singularity,coefficient_sum"
