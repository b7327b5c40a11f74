"""Command-line behavior: documents in, documents out, exit codes."""

from __future__ import annotations

import json

import pytest

from gtransform import crosscheck
from gtransform.cli import main
from gtransform.crosscheck import CheckReport
from gtransform.scalars import rational_from_text


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


SHANKS_DOC = {"A": ["1", "3/2", "7/4"], "mode": "shanks"}


class TestTableCommand:
    def test_eps_exact_three_terms(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", SHANKS_DOC)
        code, doc = run_json(
            capsys, ["table", "--input", path, "--method", "eps", "--exact"]
        )
        assert code == 0
        cell = next(
            r for r in doc["table"] if (r["j"], r["n"]) == (0, 1)
        )
        assert cell["value"] == "2"
        assert cell["status"] == "valid"

    def test_fsqd_exact_geometric_breaks(self, tmp_path, capsys):
        # Shanks on the partial sums of (1/2)^k: u is geometric, so every
        # system of order 2 is singular and (0,2) breaks down, while the
        # order-1 entries hold the limit 2; a valid entry past column 0
        # means exit 0.
        doc = {"A": ["1", "3/2", "7/4", "15/8", "31/16"], "mode": "shanks"}
        path = write_doc(tmp_path, "in.json", doc)
        code, doc = run_json(
            capsys, ["table", "--input", path, "--method", "fsqd", "--exact"]
        )
        assert code == 0
        cells = {(r["j"], r["n"]): r for r in doc["table"]}
        assert cells[0, 1]["value"] == cells[1, 1]["value"] == "2"
        assert cells[0, 2]["status"] == "breakdown"
        assert cells[0, 2]["value"] is None
        assert doc["diagonal"] == ["1", "2", None]

    @pytest.mark.parametrize("method", ["fsqd", "fsqd_diag"],
                             ids=["full", "diagonal-only"])
    @pytest.mark.parametrize("u, want, diagonal", [
        # (0,1) and (1,1) are valid (3 and 4); on a geometric u the
        # order-2 system is singular.
        (["1", "1/2", "1/4", "1/8", "1/16"], 0, ["valid", "breakdown"]),
        # (0,1)'s system is singular (u_1 = u_0); (1,1) and (0,2) need
        # u_3 and u_4: not computed, and no entry past column 0 valid.
        (["1", "1", "1"], 3, ["breakdown", "not_computed"]),
        # Nothing past column 0 is computed, so nothing broke down.
        (["1", "1/2"], 0, ["not_computed", "not_computed"]),
    ], ids=["geometric", "short", "shorter"])
    def test_exit_3_when_no_entry_past_column_0_is_valid(
        self, tmp_path, capsys, u, want, diagonal, method
    ):
        path = write_doc(tmp_path, "in.json", {"A": [1, 2, 3], "u": u})
        code, doc = run_json(
            capsys, ["table", "--input", path, "--method", method, "--exact"]
        )
        assert code == want
        rows = {(r["j"], r["n"]): r["status"] for r in doc["table"]}
        assert [rows[0, 1], rows[0, 2]] == diagonal
        later = {status for (_, n), status in rows.items() if n >= 1}
        assert (code == 3) == ("valid" not in later and "breakdown" in later)

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
    @pytest.mark.parametrize("method", ["fsqd", "fsqd_diag", "rs", "eps"])
    def test_exit_3_under_every_method_on_constant_u(
        self, tmp_path, capsys, method, mode
    ):
        """A constant u makes every qd divisor and every r difference
        vanish, and A = 1, 2, 3 makes the epsilon difference vanish: no
        entry past column 0 is valid, under each method and field."""
        doc = {"A": [1, 2, 3], "u": [1, 1, 1, 1, 1]}
        path = write_doc(tmp_path, "in.json", doc)
        code, out = run_json(
            capsys, ["table", "--input", path, "--method", method, *mode]
        )
        assert code == 3
        later = {r["status"] for r in out["table"] if r["n"] >= 1}
        assert "valid" not in later and "breakdown" in later

    def test_empty_A_is_input_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", {"A": []})
        code = main(["table", "--input", path, "--method", "eps"])
        captured = capsys.readouterr()
        assert code == 2
        assert "A" in captured.err
        assert captured.out == ""

    def test_missing_A_is_input_error(self, tmp_path):
        path = write_doc(tmp_path, "in.json", {"u": ["1"]})
        assert main(["table", "--input", path, "--method", "eps"]) == 2

    def test_shanks_mode_with_u_rejected(self, tmp_path, capsys):
        doc = {"A": ["1", "2"], "u": ["1"], "mode": "shanks"}
        path = write_doc(tmp_path, "in.json", doc)
        code = main(["table", "--input", path, "--method", "fsqd"])
        assert code == 2
        assert "u" in capsys.readouterr().err

    def test_general_mode_explicit_u(self, tmp_path, capsys):
        doc = {
            "A": ["2", "17/6"],
            "u": ["5/6", "13/36", "35/216"],
            "mode": "general",
        }
        path = write_doc(tmp_path, "in.json", doc)
        code, out = run_json(
            capsys, ["table", "--input", path, "--method", "rs", "--exact"]
        )
        assert code == 0
        cell = next(r for r in out["table"] if (r["j"], r["n"]) == (0, 1))
        assert cell["value"] == "59/17"

    def test_mode_inferred_from_u_presence(self, tmp_path, capsys):
        doc = {"A": ["1", "3/2", "7/4"]}
        path = write_doc(tmp_path, "in.json", doc)
        code, out = run_json(
            capsys, ["table", "--input", path, "--method", "eps", "--exact"]
        )
        assert code == 0
        assert out["diagonal"] == ["1", "2"]

    def test_short_u_reports_not_computed(self, tmp_path, capsys):
        doc = {"A": ["1", "2", "3"], "u": ["1", "1/2", "1/3"], "mode": "general"}
        path = write_doc(tmp_path, "in.json", doc)
        code, out = run_json(
            capsys, ["table", "--input", path, "--method", "fsqd", "--exact"]
        )
        assert code == 0
        statuses = {(r["j"], r["n"]): r["status"] for r in out["table"]}
        assert statuses[(0, 2)] == "not_computed"

    def test_constant_sequence_is_input_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", {"A": ["5", "5", "5"]})
        code = main(["table", "--input", path, "--method", "fsqd"])
        assert code == 2
        assert "difference" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["table", "--input", str(path), "--method", "eps"]) == 2
        # Valid JSON whose top level is not an object is refused too.
        path.write_text("[1, 2, 3]")
        assert main(["table", "--input", str(path), "--method", "eps"]) == 2
        assert "top level must be an object" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert (
            main(["table", "--input", str(tmp_path / "no.json"),
                  "--method", "eps"])
            == 2
        )

    def test_bad_rational_token_is_input_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", {"A": ["1", "x/y", "2"]})
        code = main(["table", "--input", path, "--method", "eps"])
        assert code == 2
        assert "x/y" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", SHANKS_DOC)
        code = main(["table", "--input", path, "--method", "theta"])
        assert code == 64

    def test_output_file_instead_of_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", SHANKS_DOC)
        out_path = tmp_path / "out.json"
        code = main(
            ["table", "--input", path, "--method", "eps", "--exact",
             "--output", str(out_path)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out_path.read_text())
        assert doc["method"] == "eps"

    def test_round_trip_exact_values(self, tmp_path, capsys):
        """Serialized rationals re-ingest to the same exact values."""
        doc = {
            "A": ["2", "17/6", "115/36"],
            "u": ["5/6", "13/36", "35/216", "97/1296", "26957/7776"],
            "mode": "general",
        }
        path = write_doc(tmp_path, "in.json", doc)
        code, out = run_json(
            capsys, ["table", "--input", path, "--method", "fsqd", "--exact"]
        )
        assert code == 0
        values = {
            (r["j"], r["n"]): rational_from_text(r["value"])
            for r in out["table"]
            if r["value"] is not None
        }
        assert values[(0, 1)] == rational_from_text("59/17")
        assert values[(0, 2)] == rational_from_text("7/2")

    def test_float_mode_emits_numbers(self, tmp_path, capsys):
        doc = {"A": [1.0, 1.5, 1.75]}
        path = write_doc(tmp_path, "in.json", doc)
        code, out = run_json(
            capsys, ["table", "--input", path, "--method", "fsqd"]
        )
        assert code == 0
        cell = next(r for r in out["table"] if (r["j"], r["n"]) == (0, 1))
        assert isinstance(cell["value"], float)
        assert cell["value"] == pytest.approx(2.0, abs=1e-12)

    def test_text_format_shows_diagonal(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", SHANKS_DOC)
        code = main(
            ["table", "--input", path, "--method", "eps", "--exact",
             "--format", "text"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "diagonal" in out
        assert "n=1" in out and "2" in out
        assert "(1,0)" not in out  # full table only behind --full

    def test_text_format_full_table(self, tmp_path, capsys):
        path = write_doc(tmp_path, "in.json", SHANKS_DOC)
        main(
            ["table", "--input", path, "--method", "eps", "--exact",
             "--format", "text", "--full"]
        )
        assert "(1,0)" in capsys.readouterr().out


class TestIntegrateCommand:
    def test_exp_decay_kernel(self, capsys):
        code, doc = run_json(
            capsys,
            ["integrate", "--integrand", "exp_decay", "--a", "0",
             "--x", "0.5", "--h", "1", "--n-max", "3", "--analytic-f"],
        )
        assert code == 0
        for n in (1, 2, 3):
            assert doc["errors"][n] <= 1e-12
        assert doc["reference"] == pytest.approx(1.0)
        assert doc["x"] == 0.5

    def test_sinc_depth_gain(self, capsys):
        code, doc = run_json(
            capsys,
            ["integrate", "--integrand", "sinc", "--a", "0", "--x", "0",
             "--h", "1", "--n-max", "10"],
        )
        assert code == 0
        assert doc["errors"][10] <= 0.01 * doc["errors"][1]

    def test_text_without_reference_shows_diagonal_deltas(self, capsys):
        argv = ["integrate", "--integrand", "sinc", "--a", "0.5", "--x", "1",
                "--n-max", "4"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["errors"] is None
        assert main(argv + ["--format", "text"]) == 0
        out = capsys.readouterr().out
        shown = ", ".join(f"{d:.3e}" for d in doc["diagonal_deltas"])
        assert f"\ndiagonal deltas: {shown}\n" in out
        assert "error" not in out

    @pytest.mark.parametrize("flags", [
        ["--integrand", "exp_decay", "--x", "0.5", "--n-max", "5"],
        ["--integrand", "t_exp", "--x", "1", "--h", "0.7", "--n-max", "6"],
        ["--integrand", "sinc", "--x", "0", "--n-max", "8"],
        ["--integrand", "sinc", "--a", "0.5", "--x", "1", "--n-max", "4"],
    ], ids=["exp_decay", "t_exp", "sinc", "sinc-no-reference"])
    def test_fsqd_diag_engine_gives_the_fsqd_diagonal(self, capsys, flags):
        code, full = run_json(capsys, ["integrate", *flags])
        assert code == 0
        code, diag = run_json(
            capsys, ["integrate", *flags, "--engine", "fsqd_diag"]
        )
        assert code == 0
        assert diag["method"] == "fsqd_diag"
        for key in ("diagonal", "reference", "errors", "diagonal_deltas"):
            assert diag.get(key) == full.get(key), key
        assert (diag["errors"] is None) == ("--a" in flags)

    def test_unknown_integrand_lists_catalog(self, capsys):
        code = main(
            ["integrate", "--integrand", "nosuch", "--x", "1", "--n-max", "2"]
        )
        err = capsys.readouterr().err
        assert code == 64
        for known in ("exp_decay", "t_exp", "sinc"):
            assert known in err

    def test_zero_sample_is_input_error(self, capsys):
        code = main(
            ["integrate", "--integrand", "t_exp", "--x", "0", "--n-max", "2"]
        )
        assert code == 2
        assert "zero" in capsys.readouterr().err


class TestBenchCommand:
    def test_eps_reports_zero_multiplications(self, capsys):
        code, doc = run_json(
            capsys, ["bench", "--method", "eps", "--L", "100", "--seed", "1"]
        )
        assert code == 0
        assert doc["counts"]["multiplications"] == 0
        assert doc["method"] == "eps"

    def test_small_L_is_usage_error(self, capsys):
        code = main(["bench", "--method", "fsqd", "--L", "5"])
        assert code == 64
        assert "10" in capsys.readouterr().err


class TestCheckCommand:
    def test_default_suite_passes(self, capsys):
        code, doc = run_json(
            capsys, ["check", "--L", "4", "--cases", "20", "--seed", "7"]
        )
        assert code == 0
        assert doc["passed"] is True
        assert doc["first_counterexample"] is None

    def test_oversized_L_is_usage_error(self, capsys):
        assert main(["check", "--L", "6"]) == 64

    def test_counterexample_exits_1_and_names_it_on_stderr(
        self, monkeypatch, capsys
    ):
        report = CheckReport(cases=3, failures=["fsqd != rs at (0,1)"])
        monkeypatch.setattr(crosscheck, "run_equivalence_suite",
                            lambda L, cases, seed: report)
        code, doc = run_json(capsys, ["check", "--L", "2"])
        assert code == 1
        assert doc == {"cases": 3, "passed": False,
                       "first_counterexample": "fsqd != rs at (0,1)"}
        assert main(["check", "--L", "2"]) == 1
        assert capsys.readouterr().err == (
            "counterexample: fsqd != rs at (0,1)\n")


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 64

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 64

    def test_missing_required_flag(self):
        assert main(["table", "--method", "eps"]) == 64


class TestNonFiniteAndOverlongInput:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_document_value_is_input_error(
        self, tmp_path, capsys, token
    ):
        path = tmp_path / "in.json"
        path.write_text('{"A": [1.0, %s, 2.0]}' % token)
        code = main(["table", "--input", str(path), "--method", "eps"])
        captured = capsys.readouterr()
        assert code == 2
        assert "input error" in captured.err and "A[1]" in captured.err
        assert captured.out == ""

    def test_overlong_u_is_input_error(self, tmp_path, capsys):
        doc = {"A": ["1", "2"], "u": ["1", "2", "3", "4"], "mode": "general"}
        path = write_doc(tmp_path, "in.json", doc)
        code = main(["table", "--input", path, "--method", "fsqd"])
        captured = capsys.readouterr()
        assert code == 2
        assert "input error" in captured.err and "'u'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, integrand",
        [
            ("--x", "nan", "sinc"),
            ("--h", "nan", "sinc"),
            ("--x", "inf", "sinc"),
            ("--h", "inf", "sinc"),
            ("--a", "nan", "exp_decay"),
            ("--x", "abc", "sinc"),
        ],
    )
    def test_non_finite_integrate_flag_is_usage_error(
        self, capsys, flag, value, integrand
    ):
        argv = ["integrate", "--integrand", integrand, "--x", "0",
                "--n-max", "3", flag, value]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert flag in captured.err and value in captured.err
        assert captured.out == ""
