"""Grammar fuzzing of the CLI: every run ends in a documented exit code,
and exchanging the slots of ``[a | b]`` exchanges the reports' components.

Random expressions come from ``test_seqspec._random_ast``, and values at
the float edge from a fixed set of literals; the CLI runs them
in-process with small budgets, so an uncaught exception fails the test
with its traceback.
"""

import json
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomplex import render
from bicomplex.seqspec import (
    FUNCTION_NAMES, Add, Call, Const, Div, Mul, Neg, Num, Pow, Sub, Var,
)
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


# option values at the edges of the option checks: past the float range
# (--at, and --branch, whose shift 2*pi*(m -/+ n) is a float), past
# sys.maxsize (sizes) and the non-finite tolerances
AT_EDGES = [1, 2**53, sys.maxsize + 1, 2**1024, 10**400]
BRANCH_EDGES = [0, -1, 2**53, -(sys.maxsize + 1), 10**308, 10**400, -(10**400)]
SIZE_EDGES = [sys.maxsize, sys.maxsize + 1, 10**20]
TOL_EDGES = ["5e-324", "1e308", "inf", "-inf", "nan"]
# series and product decide these early: exp(n) reaches the overflow
# guard near n = 346, so a huge budget still makes a short run
EARLY_EXPRS = ["exp(n)", "-exp(n)*i1", "n*exp(n)", "exp(n)*e1", "exp(n) + exp(n)*j"]


@st.composite
def option_edge_argvs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = render(_random_ast(rng, draw(st.integers(1, 3))))
    small_budget = ["--max-terms", str(draw(st.integers(1, 50)))]
    option = draw(st.sampled_from(["--at", "--max-terms", "--window", "--tol", "--branch"]))
    if option == "--at":
        command = draw(st.sampled_from(["eval", "check-bounds"]))
        options = ["--at", str(draw(st.sampled_from(AT_EDGES)))]
    elif option == "--branch":
        command = "eval"
        options = ["--branch", *(str(draw(st.sampled_from(BRANCH_EDGES))) for _ in range(2))]
    else:
        command = draw(st.sampled_from(["eval", "series", "product", "check-bounds"]))
        if option == "--max-terms":
            options = ["--max-terms", str(draw(st.sampled_from(SIZE_EDGES)))]
            text = draw(st.sampled_from(EARLY_EXPRS))
        elif option == "--window":
            options = ["--window", str(draw(st.sampled_from(SIZE_EDGES))), *small_budget]
        else:
            options = [f"--tol={draw(st.sampled_from(TOL_EDGES))}", *small_budget]
    if draw(st.booleans()):
        options.append("--json")
    return [command, *options, "--", text]


@example(["series", "--max-terms", str(10**20), "--", "1/n^2"])
@example(["product", "--window", str(10**20), "--max-terms", "50", "--", "1+1/n^2"])
@example(["product", "--tol=inf", "--", "n"])
@example(["eval", "--at", str(2**1024), "--", "n"])
@example(["eval", "--branch", str(10**400), "0", "--", "2"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(option_edge_argvs())
def test_cli_exits_cleanly_at_the_option_edges(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)


# scalar slot expressions: built from n, numbers, pi and i1 only, so that
# p1 == p2 at every node, as a slot of [a | b] requires
SCALAR_LEAVES = st.one_of(
    st.just(Var()),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 10.0, 1e-3]).map(Num),
    st.sampled_from(["pi", "i1"]).map(Const),
)


def _scalar_nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Sub, Mul, Div]),
                  children, children),
        st.builds(Pow, children, st.integers(-3, 3)),
        st.builds(Call, st.sampled_from(FUNCTION_NAMES), children),
    )


# and the families shift + c/n^k, so that the two slots often decay at
# different rates
SCALAR_FAMILIES = st.builds(
    lambda shift, c, k: Add(Num(shift), Div(Num(c), Pow(Var(), k))),
    st.sampled_from([0.0, 1.0]), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 3),
)
SCALAR_TEXTS = st.one_of(
    SCALAR_FAMILIES, st.recursive(SCALAR_LEAVES, _scalar_nodes, max_leaves=5)
).map(render)
# the report fields that hold one entry per idempotent component
PER_COMPONENT = {"component_verdicts", "absolute_component_verdicts", "branch_offset"}


def _swapped(doc):
    """A JSON report of ``[a | b]`` as the report of ``[b | a]`` should
    read: the two idempotent components exchanged in every field."""
    if not isinstance(doc, dict):
        return doc
    if "idempotent" in doc:  # a Bicomplex: z1 stays, z2 changes sign
        x1, x2, x3, x4 = doc["four_reals"]
        return {"four_reals": [x1, x2, -x3, -x4], "idempotent": doc["idempotent"][::-1]}
    return {
        key: value[::-1] if key in PER_COMPONENT else _swapped(value)
        for key, value in doc.items()
    }


# The paper reduces a bicomplex product, like a series, to its two
# idempotent component products, so exchanging the components exchanges
# every per-component result and leaves the rest as it is.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(SCALAR_TEXTS, SCALAR_TEXTS, st.integers(1, 300))
def test_cli_reports_are_swap_symmetric(x, y, budget):
    for command in ("product", "series"):
        runs = [
            run_cli([command, "--json", "--max-terms", str(budget), "--", f"[{a} | {b}]"])
            for a, b in ((x, y), (y, x))
        ]
        (code_xy, out_xy, _), (code_yx, out_yx, _) = runs
        if code_xy == 0 and code_yx == 0:
            doc_xy, doc_yx = json.loads(out_xy), json.loads(out_yx)
            del doc_xy["expr"], doc_yx["expr"]
            assert _swapped(doc_xy) == doc_yx, (command, x, y)
        else:
            # where both slots fail at one term, the first slot's error
            # wins, so the two exit codes can differ
            assert code_xy != 0 and code_yx != 0, (command, x, y, code_xy, code_yx)
