import argparse
import ast
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import bicomplex
from bicomplex import cli
from bicomplex.cli import main
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


def test_module_run_as_main_exits_with_the_status_of_main(monkeypatch, capsys):
    # python -m bicomplex.cli, in-process: runpy warns that the module is
    # imported already, and runs a fresh copy of it as __main__
    monkeypatch.setattr(sys, "argv", ["bicomplex", "eval", "1+i2"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("bicomplex.cli", run_name="__main__")
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "value (four-real): 1 + 0*i1 + 1*i2 + 0*j",
        "value (idempotent): [1 - 1*i1 | 1 + 1*i1]",
    ]


def test_eval_at_index():
    code, out, _ = run_cli(["eval", "n^2 + i1", "--at", "7"])
    assert code == 0
    assert "49 + 1*i1 + 0*i2 + 0*j" in out


def test_eval_index_past_the_float_range():
    at = str(2**1024)
    for command in ("eval", "check-bounds"):
        code, out, err = run_cli([command, "--at", at, "--", "n"])
        assert code == 1 and out == ""
        assert err == "non-finite abort: term index n is past the float range\n"
    code, out, err = run_cli(["eval", "--at", at, "--", "1"])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "value (four-real): 1 + 0*i1 + 0*i2 + 0*j"


def test_log_of_a_negated_real_is_principal():
    # unary minus keeps a zero imaginary part +0.0, so log(-x) lies on
    # the upper side of the cut in both components, as log(0 - x) does
    for expr in ("log(-1.73)", "log(0-1.73)", "log(-(1.73))"):
        code, out, _ = run_cli(["eval", "--", expr])
        assert code == 0
        assert out.splitlines()[1] == (
            "value (idempotent): [0.548121 + 3.14159*i1 | 0.548121 + 3.14159*i1]"
        )
    code, out, _ = run_cli(["series", "--max-terms", "3", "--", "log(-1.73)"])
    assert code == 0
    assert "limit estimate (idempotent): [1.64436 + 9.42478*i1 | 1.64436 + 9.42478*i1]" in out
    code, out, _ = run_cli(["product", "--max-terms", "3", "--json", "--", "-5"])
    assert code == 0
    assert json.loads(out)["product"]["log_sum"]["idempotent"][0][1] == 3 * math.pi


def test_eval_branch_text():
    code, out, _ = run_cli(["eval", "j", "--branch", "0", "1"])
    assert code == 0
    assert "branch (0, 1) log (four-real):" in out


def test_eval_branch_at_the_precision_limit():
    k = 2**29
    code, out, err = run_cli(["eval", "--branch", str(k), str(-k), "--", "2"])
    assert code == 0 and err == ""
    assert "branch (536870912, -536870912) log (four-real):" in out
    code, out, err = run_cli(["eval", "--branch", str(k + 1), str(-k), "--", "2"])
    assert code == 1 and out == ""
    assert err.startswith("non-finite abort: branch index is past the precision limit")


def test_eval_branch_past_the_float_range():
    for branch in ([str(10**400), "0"], ["0", str(-(10**400))], [str(10**308), "0"]):
        for mode in ([], ["--json"]):
            code, out, err = run_cli(["eval", "--branch", *branch, *mode, "--", "2"])
            assert code == 1 and out == ""
            assert err == (
                "non-finite abort: branch index is past the precision limit:"
                " |m - n| and |m + n| must be at most 2**30\n"
            )


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
    big = str(10**20)
    for command in ("series", "product"):
        code, _, err = run_cli([command, "--max-terms", big, "--", "1/n^2"])
        assert code == 2 and err == f"error: --max-terms must be at most {sys.maxsize}\n"
        code, _, err = run_cli([command, "--window", big, "--", "1/n^2"])
        assert code == 2 and err == f"error: --window must be at most {sys.maxsize}\n"
        code, _, err = run_cli([command, "--tol", "inf", "--", "n"])
        assert code == 2 and err == "error: --tol must be finite\n"


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli(["frobnicate", "n"])
    assert code == 2


def test_singular_eval_exits_3():
    code, out, err = run_cli(["eval", "1/e1"])
    assert code == 3
    assert out == ""
    assert err.startswith("singular abort:")


# `series` on exp(-n) plus a zero term that is singular at one index: the
# pass converges at term 30, before that index
READ_AHEAD_TEXT = """\
verdict: converged
terms used: 30
tail delta: 5.96673e-11
absolute: yes
component verdicts: converged, converged
limit estimate (four-real): 0.581977 + 0*i1 + 0*i2 + 0*j
limit estimate (idempotent): [0.581977 | 0.581977]
"""
READ_AHEAD_REPORT = {
    "verdict": "converged",
    "terms_used": 30,
    "tail_delta": 5.96672711239421e-11,
    "absolute": True,
    "component_verdicts": ["converged", "converged"],
    "absolute_component_verdicts": ["converged", "converged"],
    "limit_estimate": {
        "four_reals": [0.5819767068692718, 0.0, 0.0, 0.0],
        "idempotent": [[0.5819767068692718, 0.0], [0.5819767068692718, 0.0]],
    },
}


def test_a_failure_in_read_ahead_never_surfaces(monkeypatch):
    from bicomplex import seqspec

    blocks = []
    original = seqspec._blocks

    def recording(fn, start, stop):
        def block(ns):
            blocks.append(list(ns))
            return fn(ns)

        return original(block, start, stop)

    monkeypatch.setattr(seqspec, "_blocks", recording)
    doubling = [[1], [2, 3], list(range(4, 8)), list(range(8, 16)), list(range(16, 32))]
    # index 31 ends the block that holds term 30: the block fails, and
    # its indices are evaluated again one at a time as they are read, up
    # to term 30. Index 40 lies in the next block, which is never read.
    for singular, evaluated in (
        (31, doubling + [[n] for n in range(16, 31)]),
        (40, doubling),
    ):
        text = f"exp(-n) + 0/(n - {singular})"
        blocks.clear()
        assert run_cli(["series", "--", text]) == (0, READ_AHEAD_TEXT, "")
        assert blocks == evaluated, singular
        code, out, err = run_cli(["series", "--json", "--", text])
        assert (code, err) == (0, "")
        assert json.loads(out)["report"] == READ_AHEAD_REPORT
        assert run_cli(["eval", "--at", str(singular), "--", text]) == (
            3,
            "",
            "singular abort: value is a zero divisor within tolerance"
            " (|cn| = 0.000e+00 <= 1.000e-12)\n",
        )


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


def test_product_past_the_float_range_prints_a_non_finite_value():
    code, out, err = run_cli(["product", "exp(300*n)"])
    assert code == 0 and err == ""
    assert "limit estimate: non-finite" in out.splitlines()
    code, out, err = run_cli(["product", "exp(300*n)", "--json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["product"]["limit_estimate"] is None
    assert doc["product"]["log_sum"]["four_reals"] == [900.0, 0.0, 0.0, 0.0]
    assert doc["absolute_check"] is None and doc["log_sum_identity"] is None


@pytest.mark.wallclock
@pytest.mark.parametrize("argv, section, verdict, used", [
    (["series", "--window", "1000", "--json", "--", "exp(i1*n)/n^3"],
     "report", "converged", 22044),
    (["product", "--window", "1000", "--json", "--", "1+exp(i1*n)/n^3"],
     "product", "converged_nonsingular", 4221),
])
def test_wide_windows_over_oscillating_sums_end_quickly(argv, section, verdict, used):
    # oscillating partial sums pass the newest-oldest pre-test on many
    # pushes while the window is still wider than tol; each window scan
    # stops at its first distance of tol or more
    t0 = time.perf_counter()
    code, out, err = run_cli(argv)
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc[section]["verdict"], doc[section]["terms_used"]) == (verdict, used)
    assert elapsed < 5.0, elapsed


@pytest.mark.wallclock
@pytest.mark.parametrize("argv, verdict, used, tail_delta", [
    (["series", "--window", "8000", "--json", "--", "1/n^3"],
     "converged", 47334, 9.99955673819386e-11),
    (["series", "--window", "100000", "--max-terms", "200000", "--json", "--", "1/n^2"],
     "inconclusive", 200000, 4.999862501131602e-06),
])
def test_wide_windows_over_rising_sums_end_quickly(argv, verdict, used, tail_delta):
    # nonnegative terms give rising sums, whose window diameter is newest
    # minus oldest: no push and no tail_delta scans the window's pairs
    t0 = time.perf_counter()
    code, out, err = run_cli(argv)
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert (report["verdict"], report["terms_used"]) == (verdict, used)
    assert report["tail_delta"] == tail_delta
    assert elapsed < 5.0, elapsed


HELP_AND_ERRORS = [
    [], ["--help"], ["eval", "--help"], ["series", "--help"], ["product", "--help"],
    ["check-bounds", "--help"], ["series"], ["eval", "--b", "1", "n"],
    ["series", "--window", "x", "n"], ["bogus"],
]


@pytest.mark.parametrize("columns", [None, "50", "200", "0", "abc"])
def test_help_and_usage_errors_match_the_default_formatter(monkeypatch, columns):
    # the CLI's formatter reads the width as shutil does, without it
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    got = [run_cli(argv) for argv in HELP_AND_ERRORS]
    monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
    assert got == [run_cli(argv) for argv in HELP_AND_ERRORS]
    assert {code for code, _, _ in got} == {0, 2}


# argv at the edges of the two parse routes: top-level help and errors,
# each command's help, prefixes, '=' values, repeated options, options
# before the command, leftover strings, bad types, an expression that
# looks like an option, and '--' in each place
EDGE_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["eval", "-h"], ["series", "--help"],
    ["product", "--hel"], ["check-bounds", "-h"], ["bogus"], ["bogus", "n"], ["eva", "n"],
    ["product", "--t", "1e-6", "--w", "4", "--m", "64", "1+1/n^2"],
    ["series", "--tol=1e-6", "--max-terms=64", "1/n^2"],
    ["series", "--max-terms", "32", "--max-terms", "64", "--json", "--json", "1/n^2"],
    ["--json", "eval", "n"], ["eval", "n", "2"], ["series", "n", "--at", "3"],
    ["product", "1/n", "-n"], ["eval", "n", "--bogus"], ["eval", "--at", "x", "n"],
    ["series", "--window", "1.5", "n"], ["series", "--tol", "n"], ["eval", "--branch", "1", "n"],
    ["eval", "j", "--branch", "1"], ["eval", "-n"], ["eval", "--", "-n"], ["--", "eval", "n"],
    ["eval", "n", "--"], ["eval", "--at", "-3", "n"], ["check-bounds", "--s", "--a", "2", "n/9"],
    ["eval", "--j", "--b", "0", "1", "1+i2"], ["product"],
]


def test_the_named_command_route_matches_the_full_tree(monkeypatch):
    # main parses an argv that names a command with that command's parser
    # alone; every argv must give what the full tree gives
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from bench import jobs

    stream = jobs.generate(1)
    argvs = HELP_AND_ERRORS + EDGE_ARGV + [next(stream).argv for _ in range(300)]
    got = [run_cli(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    want = [run_cli(argv) for argv in argvs]
    for argv, g, w in zip(argvs, got, want):
        assert g == w, argv
    assert {code for code, _, _ in got} == {0, 1, 2, 3}


def _built_parsers(monkeypatch, argv) -> tuple[list, list]:
    """The progs of the parsers a run of ``argv`` builds, and those of
    the full tree."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser()
    tree = built[:]
    del built[:]
    run_cli(argv)
    return built, tree


def test_a_named_command_builds_one_parser(monkeypatch):
    built, tree = _built_parsers(monkeypatch, ["product", "--max-terms", "64", "--", "1+1/n^2"])
    assert built == ["bicomplex product"]
    assert len(tree) == 6


def test_a_leftover_string_builds_the_full_tree(monkeypatch):
    built, tree = _built_parsers(monkeypatch, ["series", "n", "--at", "3"])
    assert built == ["bicomplex series", *tree]


# each option's shortest unique prefix: every prefix from it up to the
# full name parses as the full name. An option added later that shares
# one (--timings would share --t with --tol) fails by that prefix's name.
SHORTEST_PREFIX = {
    "--tol": "--t", "--window": "--w", "--max-terms": "--m", "--json": "--j",
    "--strict": "--s", "--at": "--a", "--branch": "--b",
}
# option -> (its values, unlike its default; the commands that take it)
OPTION_USE = {
    "--tol": (["1e-6"], cli._COMMANDS), "--window": (["4"], cli._COMMANDS),
    "--max-terms": (["64"], cli._COMMANDS), "--json": ([], cli._COMMANDS),
    "--strict": ([], cli._COMMANDS), "--at": (["3"], ("eval", "check-bounds")),
    "--branch": (["0", "2"], ("eval",)),
}


@pytest.mark.parametrize("option, prefix", [
    (option, option[:end])
    for option, shortest in SHORTEST_PREFIX.items()
    for end in range(len(shortest), len(option))
])
def test_option_prefixes_parse_as_the_full_name_on_both_routes(monkeypatch, option, prefix):
    values, commands = OPTION_USE[option]
    tree = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", None)  # the named route builds no tree
    for command in commands:
        full = tree.parse_args([command, option, *values, "n"])
        assert full != tree.parse_args([command, "n"])
        argv = [command, prefix, *values, "n"]
        assert cli._parse(argv) == tree.parse_args(argv) == full, argv


def test_an_eval_process_imports_no_shutil():
    src = Path(bicomplex.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); from bicomplex.cli import main; "
            "main(['eval', '1/n^2']); "
            "print(sorted(m for m in ('shutil', 'lzma', 'bz2', 'fnmatch') if m in sys.modules))")
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[]"


def test_a_closed_stdout_exits_1_quietly():
    src = Path(bicomplex.__file__).resolve().parents[1]
    for extra in ([], ["--json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "bicomplex.cli", "series", "1/n^2",
                 "--max-terms", "100", *extra],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (1, ""), extra


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, on a file descriptor of its own."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_points_stdout_at_devnull():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        err = io.StringIO()
        with redirect_stdout(_ClosedPipe(write_end)), redirect_stderr(err):
            code = main(["series", "1/n^2", "--max-terms", "100"])
        assert (code, err.getvalue()) == (1, "")
        # the descriptor now writes to devnull, so no later flush can fail
        os.write(write_end, b"ignored")
    finally:
        os.close(write_end)


def _one_line(err: str) -> bool:
    return err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


def test_idempotent_slot_error_exits_1():
    code, out, err = run_cli(["eval", "[i2 | 1]"])
    assert code == 1 and out == ""
    assert _one_line(err) and "term 1" in err
    code, out, err = run_cli(["series", "[1 | n*i2]", "--json"])
    assert code == 1 and out == ""
    assert _one_line(err)


def test_real_slot_values_on_either_side_of_the_cut():
    # sqrt(-4.01) is real in both components whichever side of the cut it
    # lands on, so the slot holds a value with no second complex part
    code, out, err = run_cli(
        ["check-bounds", "--at", "2", "--", "exp([sqrt(pi*3.17) | sqrt(-4.01)])"]
    )
    assert code == 0 and err == ""
    assert out.startswith("norm: ")


@pytest.mark.parametrize("expr, twin", [
    ("[2|2]/n^2", "2/n^2"),
    ("1+[1.001|1.001]/n^2", "1+1.001/n^2"),
    ("[1|1]+1/n", "1+1/n"),
])
def test_equal_slots_give_the_output_of_their_scalar_twin(expr, twin):
    # [x | x] is the value x: both passes print what they print for x,
    # but for the expression text itself
    for argv in (["series"], ["product"], ["series", "--json"], ["product", "--json"]):
        code, out, err = run_cli([*argv, "--", expr])
        out = out.replace(f'"expr": {json.dumps(expr)}', f'"expr": {json.dumps(twin)}')
        assert (code, out, err) == run_cli([*argv, "--", twin]), (argv, expr)
        assert code == 0 and out


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


def test_series_whose_squared_moduli_underflow_is_absolutely_convergent():
    # every m*m of 1e-160/n^2 underflows, so the RMS tracker's terms
    # sqrt((m*m + m*m)/2) fall to 0 where the moduli do not: its norm
    # series converges while the component series reads its whole budget
    code, out, err = run_cli(["series", "--tol", "1e-300", "--", "1e-160/n^2"])
    assert code == 0 and err == ""
    assert "verdict: inconclusive" in out and "absolute: yes" in out


def _fresh_python(code: str) -> str:
    """Run ``code`` in a fresh ``python -S`` process on this source tree;
    returns its stdout."""
    src = Path(bicomplex.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_start_up_imports_no_dataclasses_typing_or_inspect():
    # every CLI run pays for its imports; these three cost about 20 ms
    code = (
        "import sys\n"
        "import bicomplex.cli\n"
        "bicomplex.cli._build_parser()\n"
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))\n"
    )
    assert _fresh_python(code) == "[]\n"


def _loaded_by(argv: list[str]) -> str:
    """The pass modules and ``json`` that one CLI run of ``argv`` loads in
    a fresh ``python -S`` process."""
    code = (
        "import sys\n"
        "from bicomplex import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted({'bicomplex.products', 'bicomplex.series', 'json'} & set(sys.modules)))\n"
    )
    return _fresh_python(code).splitlines()[-1]


def test_commands_load_only_the_modules_they_use():
    # eval and check-bounds read one value: compiling the passes would
    # cost every run of theirs several ms
    assert _loaded_by(["eval", "1+i2"]) == "[]"
    assert _loaded_by(["check-bounds", "(1+i1)/10"]) == "[]"
    assert _loaded_by(["eval", "1+i2", "--json"]) == "['json']"
    assert _loaded_by(["series", "--max-terms", "64", "1/n^2"]) == "['bicomplex.series']"
    assert _loaded_by(["product", "--max-terms", "64", "1+1/n^2"]) == str(
        ["bicomplex.products", "bicomplex.series"]
    )


def test_cli_reads_the_analyzers_from_their_home_modules():
    # bench/tracer.py wraps these four by name on the cli module
    from bicomplex import cli, products, series

    for name, home in (
        ("evaluate_product", products),
        ("absolute_convergence_check", products),
        ("log_sum_equivalence", products),
        ("analyze_series", series),
    ):
        assert getattr(cli, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cli.no_such_name


def test_moved_names_keep_their_old_home_and_package_names():
    from bicomplex import BoundCheck, SingularTerm, core, log_bound_check, products, transcendental

    assert products.SingularTerm is core.SingularTerm is SingularTerm
    assert products.log_bound_check is transcendental.log_bound_check is log_bound_check
    assert products.BoundCheck is transcendental.BoundCheck is BoundCheck
    assert bicomplex._HOME["SingularTerm"] == "core"
    assert bicomplex._HOME["log_bound_check"] == bicomplex._HOME["BoundCheck"] == "transcendental"


MODULES = ("core", "transcendental", "series", "products", "seqspec")

PUBLIC_NAMES = [
    "AbsoluteReport", "Bicomplex", "BoundCheck", "BranchIndex", "Duplex", "E1", "E2",
    "I1", "I2", "IdempotentPair", "J", "LogSumReport", "NonFiniteError", "NormInfo",
    "ONE", "ParseError", "ProductAnalysis", "ProductReport", "SINGULARITY_TOLERANCE",
    "SeriesReport", "SingularOperand", "SingularTerm", "SingularityVerdict", "TrigForm",
    "ZERO", "__version__", "absolute_convergence_check", "analyze_product",
    "analyze_series", "eval_power_series", "eval_term", "evaluate_product", "exp",
    "exp_lattice_coords", "log1p", "log_bound_check", "log_branch", "log_principal",
    "log_principal_direct", "log_sum_equivalence", "parse", "partial_products",
    "partial_sums", "render", "sqrt", "term_generator", "trig_form",
]


def test_import_bicomplex_loads_a_module_on_first_use():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('bicomplex.')))\n"
    code = (
        "import sys\n"
        "import bicomplex\n"
        + loaded
        + "from bicomplex import Bicomplex\n"
        + loaded
        + f"print([getattr(bicomplex, m).__name__ for m in {MODULES!r}])\n"
        "from bicomplex import cli\n"
        "print(cli.__name__)\n"
    )
    assert _fresh_python(code).splitlines() == [
        "[]",
        "['bicomplex.core']",
        str([f"bicomplex.{m}" for m in MODULES]),
        "bicomplex.cli",
    ]


def test_exports_resolve_to_their_home_modules():
    assert sorted(bicomplex.__all__) == PUBLIC_NAMES
    for name in bicomplex.__all__:
        namespace = {}
        exec(f"from bicomplex import {name}", namespace)
        if name != "__version__":
            home = bicomplex._HOME[name]
            assert home in MODULES, name
            assert namespace[name] is getattr(sys.modules[f"bicomplex.{home}"], name), name
    assert set(dir(bicomplex)) >= {"__all__", *PUBLIC_NAMES, *MODULES}
    # the hook that a first read of a submodule's name reaches; which
    # read comes first depends on the order the tests import modules in
    for module in MODULES:
        assert bicomplex.__getattr__(module) is sys.modules[f"bicomplex.{module}"]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bicomplex.no_such_name


def _unread_imports(source: str) -> list[str]:
    """The names ``source``'s imports bind that it never reads and does
    not list in ``__all__``; ``__future__`` imports bind none."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = {
        e.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
        for e in getattr(node.value, "elts", ())
        if isinstance(e, ast.Constant)
    }
    return sorted(imported - read - exported)


def test_every_imported_name_is_read_or_exported():
    package = Path(bicomplex.__file__).parent
    unread = {path.name: _unread_imports(path.read_text()) for path in package.glob("*.py")}
    assert {name: names for name, names in unread.items() if names} == {}
    assert len(unread) == len(MODULES) + 2  # __init__ and cli
    # the scan sees an unread import, a re-export and a read one
    assert _unread_imports("from a import b, c\nimport d.e as f\n__all__ = ['c']\nf\n") == ["b"]


def _float_tests(source: str) -> list[str]:
    """The innermost function around each ``type(...) is float`` or ``is
    not float`` that ``source`` writes, by name, sorted; "" outside any."""
    tree = ast.parse(source)
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and re.fullmatch(
                r"type\(.+\) is (not )?float", ast.unparse(node)):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            inner = max(around, key=lambda f: f.lineno, default=None)
            found.append(getattr(inner, "name", "<lambda>") if inner else "")
    return sorted(found)


def test_the_float_lane_has_one_test():
    # every module reads the float lane through core._floats
    package = Path(bicomplex.__file__).parent
    found = {path.name: _float_tests(path.read_text()) for path in package.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {"core.py": ["_floats"]}
    # the scan sees the test in a function, in a lambda and at module level
    source = "def f(xs):\n    return type(xs[0]) is float\ng = lambda x: type(x) is not float\n"
    assert _float_tests(source + "y = type(1.0) is float\n") == ["", "<lambda>", "f"]
