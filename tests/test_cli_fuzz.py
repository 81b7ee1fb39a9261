"""Grammar fuzzing of the CLI: every run ends in a documented exit code.

Random expressions come from ``test_seqspec._random_ast``, and values at
the float edge from a fixed set of literals; the CLI runs them
in-process with small budgets, so an uncaught exception fails the test
with its traceback.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomplex import render
from helpers import run_cli
from test_seqspec import _random_ast


@st.composite
def cli_argvs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = render(_random_ast(rng, draw(st.integers(1, 4))))
    command = draw(st.sampled_from(["eval", "series", "product"]))
    if command == "eval":
        options = ["--at", str(draw(st.integers(1, 10**6)))]
    else:
        options = [
            "--max-terms", str(draw(st.integers(1, 200))),
            "--window", str(draw(st.integers(2, 10))),
            "--tol", draw(st.sampled_from(["1e-10", "1e-6", "1e-3"])),
        ]
    if draw(st.booleans()):
        options.append("--json")
    return [command, *options, "--", text]


# a partial-product component underflowing to exactly 0 once raised
# ValueError from the log-sum identity
@example(["product", "--max-terms", "63", "--window", "9", "--", "[sqrt(n) | (n^-2)^3]"])
@example(["product", "--max-terms", "73", "--", "(n/((1e3^3)*i2)) - e1"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_cli_exits_cleanly_on_random_expressions(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    # a message on stderr is one line; a singular_term verdict exits 3
    # with its report on stdout and nothing on stderr
    assert err == "" or err.count("\n") == 1, (argv, err)


# coordinates whose squares, splits or moduli leave the float range
EDGE_LITERALS = ["0", "0.5", "1", "1e154", "1e200", "1e308", "-1e308", "1.5e308", "-1.5e308"]


def _reject(name):
    raise ValueError(f"not JSON: {name}")


@st.composite
def edge_argvs(draw):
    a, b, c, d = (draw(st.sampled_from(EDGE_LITERALS)) for _ in range(4))
    text = f"{a} + {b}*i1 + {c}*i2 + {d}*j"
    text = draw(st.sampled_from([
        "{}", "exp({})", "log({})", "sqrt({})", "1/({})", "n*({})", "({})^2",
    ])).format(text)
    command = draw(st.sampled_from(["eval", "series", "product", "check-bounds"]))
    options = ["--max-terms", "50"]
    if draw(st.booleans()):
        options.append("--json")
    return [command, *options, "--", text]


@example(["series", "--", "1.5e308-1.5e308*i2"])
@example(["eval", "--", "exp(1e308*i1 + 1e308*i2)"])
@example(["eval", "--json", "--", "1e308 + 1e308*j"])
@example(["eval", "--", "1e308 + 1e308*j"])
@example(["check-bounds", "--json", "--", "1.5e308-1.5e308*i2"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_argvs())
def test_cli_exits_cleanly_at_the_float_edge(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    if "--json" in argv and out:
        json.loads(out, parse_constant=_reject)
