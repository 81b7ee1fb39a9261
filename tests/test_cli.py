import json
import math

from helpers import GOLDEN_DIR, run_cli

GOLDEN_CASES = {
    "eval_exp_i2pi.json": ["eval", "exp(i2*pi)", "--json"],
    "eval_j_branch.json": ["eval", "j", "--branch", "1", "-1", "--json"],
    "series_idem_decay.json": ["series", "[exp(-n) | exp(-2*n)]", "--json"],
    "product_constant_0p9.json": ["product", "0.9", "--json"],
    "product_quadratic_family.json": [
        "product", "1 + (3/10 + 2/5*i2)/n^2",
        "--tol", "1e-6", "--max-terms", "20000", "--json",
    ],
    "check_bounds_basic.json": ["check-bounds", "(1+i1)/10", "--json"],
}


def test_golden_json_byte_stable():
    for name, argv in GOLDEN_CASES.items():
        code_a, out_a, err_a = run_cli(argv)
        code_b, out_b, err_b = run_cli(argv)
        assert code_a == code_b == 0, (name, err_a)
        assert err_a == err_b == ""
        assert out_a == out_b, f"{name}: output not stable across runs"
        frozen = (GOLDEN_DIR / name).read_bytes()
        assert out_a.encode() == frozen, f"{name}: output differs from golden file"


def test_golden_json_is_valid_json():
    for name, argv in GOLDEN_CASES.items():
        doc = json.loads((GOLDEN_DIR / name).read_text())
        assert doc["command"] == argv[0]
        assert doc["expr"] == argv[1]
        assert set(doc["config"]) == {
            "tol", "window", "max_terms", "at", "branch", "strict",
        }


def test_eval_text_output():
    code, out, err = run_cli(["eval", "j"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "value (four-real): 0 + 0*i1 + 0*i2 + 1*j"
    assert lines[1] == "value (idempotent): [1 | -1]"


def test_eval_at_index():
    code, out, _ = run_cli(["eval", "n^2 + i1", "--at", "7"])
    assert code == 0
    assert "49 + 1*i1 + 0*i2 + 0*j" in out


def test_eval_branch_text():
    code, out, _ = run_cli(["eval", "j", "--branch", "0", "1"])
    assert code == 0
    assert "branch (0, 1) log (four-real):" in out


def test_series_text_output():
    code, out, _ = run_cli(["series", "[exp(-n) | exp(-2*n)]"])
    assert code == 0
    assert "verdict: converged" in out
    assert "limit estimate (idempotent):" in out


def test_parse_error_exits_2():
    code, out, err = run_cli(["eval", "1 +"])
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")
    assert "offset 3" in err


def test_bad_config_exits_2():
    code, _, err = run_cli(["series", "n", "--tol", "0"])
    assert code == 2 and "--tol" in err
    code, _, err = run_cli(["series", "n", "--window", "1"])
    assert code == 2 and "--window" in err
    code, _, err = run_cli(["product", "n", "--max-terms", "0"])
    assert code == 2 and err == "error: --max-terms must be at least 1\n"
    code, _, err = run_cli(["eval", "n", "--at", "0"])
    assert code == 2 and "--at" in err


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli(["frobnicate", "n"])
    assert code == 2


def test_singular_eval_exits_3():
    code, out, err = run_cli(["eval", "1/e1"])
    assert code == 3
    assert out == ""
    assert err.startswith("singular abort:")


def test_product_singular_term_exits_3():
    code, out, err = run_cli(["product", "1 - 1/n", "--json"])
    assert code == 3
    doc = json.loads(out)
    assert doc["product"]["verdict"] == "singular_term"
    assert doc["product"]["singular_index"] == 1
    assert doc["absolute_check"] is None
    assert doc["log_sum_identity"] is None


def test_series_strict_exit_codes():
    code, _, _ = run_cli(["series", "i1/n", "--max-terms", "1000", "--strict"])
    assert code == 1
    code, _, _ = run_cli(["series", "[exp(-n) | exp(-2*n)]", "--strict"])
    assert code == 0


def test_product_strict_exit_codes():
    code, _, _ = run_cli(["product", "1 + 1/n", "--max-terms", "500", "--strict"])
    assert code == 1
    code, _, _ = run_cli([
        "product", "1 + (3/10 + 2/5*i2)/n^2",
        "--tol", "1e-6", "--max-terms", "20000", "--strict",
    ])
    assert code == 0


def test_check_bounds_precondition_failure():
    code, out, _ = run_cli(["check-bounds", "1 + i1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"]["precondition_ok"] is False
    assert doc["bounds"]["ratio"] is None
    code, _, _ = run_cli(["check-bounds", "1 + i1", "--strict"])
    assert code == 1


def test_check_bounds_norm_past_squared_overflow():
    # the squared coordinates overflow (underflow), the norm exp(400)
    # (1e-170) does not
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    for argv, expected in (
        (["--at", "47", "--json", "--", "exp(1e2)^4"], math.exp(400)),
        (["--json", "--", "1e-170"], 1e-170),
    ):
        code, out, _ = run_cli(["check-bounds", *argv])
        assert code == 0
        norm = json.loads(out, parse_constant=reject)["bounds"]["norm"]
        assert abs(norm / expected - 1) < 1e-14


def test_check_bounds_upper_violation():
    # inside the norm precondition but past the safe radius: the upper
    # comparison fails and --strict reports it
    code, out, _ = run_cli(["check-bounds", "[-3/5 | 1/10]", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"]["precondition_ok"] is True
    assert doc["bounds"]["lower_ok"] is True
    assert doc["bounds"]["upper_ok"] is False
    assert doc["bounds"]["ratio"] > 1.5
    code, _, _ = run_cli(["check-bounds", "[-3/5 | 1/10]", "--strict"])
    assert code == 1


def test_product_json_sections_present():
    code, out, _ = run_cli(["product", "0.9", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["product"]["verdict"] == "diverged_to_zero"
    assert doc["product"]["necessary_condition_ok"] is False
    assert doc["absolute_check"]["agree"] in (True, False)
    assert doc["log_sum_identity"]["terms_used"] <= 1000


def _one_line(err: str) -> bool:
    return err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


def test_idempotent_slot_error_exits_1():
    code, out, err = run_cli(["eval", "[i2 | 1]"])
    assert code == 1 and out == ""
    assert _one_line(err) and "term 1" in err
    code, out, err = run_cli(["series", "[1 | n*i2]", "--json"])
    assert code == 1 and out == ""
    assert _one_line(err)


def test_deep_expressions_exit_2():
    for text in ("(" * 3000 + "1" + ")" * 3000, "+".join(["1"] * 5000)):
        for command in ("eval", "product"):
            code, out, err = run_cli([command, text])
            assert code == 2 and out == ""
            assert _one_line(err) and err.startswith("parse error:")


def test_huge_values_are_invertible():
    code, out, err = run_cli(["eval", "1/1e200", "--json"])
    assert code == 0, err
    assert json.loads(out)["value"]["four_reals"] == [1e-200, 0.0, 0.0, 0.0]
    code, out, _ = run_cli(["product", "1e200", "--json"])
    assert code == 0
    assert json.loads(out)["product"]["verdict"] == "diverged"


def test_overflowing_products_diverge():
    for expr in ("1e10", "n"):
        code, out, err = run_cli(["product", expr, "--json"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["product"]["verdict"] == "diverged"
        assert doc["log_sum_identity"] is None


def test_product_identity_drops_on_component_underflow():
    # one partial-product component underflows to exactly 0, so the
    # log-sum identity has no principal log to compare with
    for argv in (
        ["product", "--max-terms", "63", "--window", "9", "--", "[sqrt(n) | (n^-2)^3]"],
        ["product", "--max-terms", "73", "--", "(n/((1e3^3)*i2)) - e1"],
    ):
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert "verdict: diverged" in out
        assert "absolute check:" in out and "log-sum identity" not in out
        code, out, err = run_cli(["product", "--json", *argv[1:]])
        assert code == 0 and err == ""
        assert json.loads(out)["log_sum_identity"] is None


def test_usage_errors_from_argparse_exit_2():
    # --at belongs to eval and check-bounds only; --branch takes two indices
    code, out, err = run_cli(["series", "n", "--at", "3"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --at 3" in err
    code, out, err = run_cli(["eval", "j", "--branch", "1"])
    assert code == 2 and out == ""
    assert "argument --branch: expected 2 arguments" in err


def test_json_output_cannot_hold_infinity():
    # the norm of this value is past the float range: text prints inf,
    # --json exits 1 with nothing on stdout
    argv = ["check-bounds", "--", "1.5e308-1.5e308*i2"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == "" and "inf" in out
    # an idempotent component of 1e308 + 1e308*j is past the float range,
    # and `[inf | 0]` would not parse: both modes exit 1
    for argv in (
        argv,
        ["eval", "--", "1e308 + 1e308*j"],
    ):
        code, out, err = run_cli([argv[0], "--json", *argv[1:]])
        assert code == 1 and out == ""
        assert _one_line(err) and err.startswith("non-finite abort:")
    code, out, err = run_cli(["eval", "--", "1e308 + 1e308*j"])
    assert code == 1 and out == ""
    assert _one_line(err) and err.startswith("non-finite abort:")


def test_series_term_past_the_float_range_diverges():
    code, out, err = run_cli(["series", "--", "1.5e308-1.5e308*i2"])
    assert code == 0 and err == ""
    assert "verdict: diverged" in out
