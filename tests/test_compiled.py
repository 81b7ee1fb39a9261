"""Compiled term evaluation against a reference tree walker.

The walker below applies one Bicomplex operation per AST node, the way
term evaluation worked before expressions were compiled. The compiled
closures must agree with it bit for bit: the same value bits, or the
same exception type, message and term index.
"""

import numpy as np
import pytest

from bicomplex import Bicomplex, NonFiniteError, SingularOperand
from bicomplex.seqspec import (
    _CONSTANTS,
    _FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    IdempotentSlotError,
    Idem,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    compile_term,
    eval_term,
    parse,
    render,
    term_generator,
)
from test_seqspec import _random_ast


def _walk(node, n: int) -> Bicomplex:
    if isinstance(node, Num):
        return Bicomplex(node.value)
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Var):
        return Bicomplex(float(n))
    if isinstance(node, Neg):
        return -_walk(node.operand, n)
    if isinstance(node, Add):
        return _walk(node.left, n) + _walk(node.right, n)
    if isinstance(node, Sub):
        return _walk(node.left, n) - _walk(node.right, n)
    if isinstance(node, Mul):
        return _walk(node.left, n) * _walk(node.right, n)
    if isinstance(node, Div):
        return _walk(node.left, n) / _walk(node.right, n)
    if isinstance(node, Pow):
        return _walk(node.base, n) ** node.exponent
    if isinstance(node, Call):
        return _FUNCTIONS[node.func](_walk(node.arg, n))
    if isinstance(node, Idem):
        first = _walk(node.first, n)
        second = _walk(node.second, n)
        if first.z2 != 0 or second.z2 != 0:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        return Bicomplex.from_idempotent(first.z1, second.z1)
    raise TypeError(f"not an expression node: {node!r}")


def _reference_eval(node, n: int) -> Bicomplex:
    try:
        return _walk(node, n)
    except (SingularOperand, NonFiniteError, IdempotentSlotError) as err:
        raise type(err)(str(err), term_index=n) from None


def _outcome(evaluate, term, n: int):
    try:
        w = evaluate(term, n)
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err), str(err), getattr(err, "term_index", None))
    return ("value",) + tuple(x.hex() for x in w.four_reals)


INDICES = (1, 2, 3, 7, 64, 10**6)


def test_compiled_matches_reference_walker_on_random_asts():
    rng = np.random.default_rng(1706)
    kinds = {}
    for _ in range(1500):
        node = _random_ast(rng, int(rng.integers(1, 6)))
        term = compile_term(node)
        for n in INDICES:
            got = _outcome(eval_term, term, n)
            want = _outcome(_reference_eval, node, n)
            assert got == want, (render(node), n)
            kind = got[1].__name__ if got[0] == "raised" else "value"
            kinds[kind] = kinds.get(kind, 0) + 1
    # the sample reaches every outcome, not just plain values
    assert set(kinds) == {"value", "SingularOperand", "NonFiniteError", "IdempotentSlotError"}


NAMED = [
    "1 + (3/10 + 2/5*i2)/n^2",
    "1/n^2",
    "exp(i2*pi/n)",
    "log(sqrt(n))",
    "[1/n | 2] - -1",
    "(1 + i2/n)^-3",
    "n^7 + j/n",
    "sqrt(1 - e1/n)",
]


@pytest.mark.parametrize("text", NAMED)
def test_compiled_matches_reference_walker_on_named_expressions(text):
    node = parse(text)
    gen = term_generator(node)
    for n in range(1, 2001):
        want = _outcome(_reference_eval, node, n)
        try:
            value = next(gen)
        except (ArithmeticError, ValueError) as err:
            got = ("raised", type(err), str(err), err.term_index)
            gen = term_generator(node, start=n + 1)
        else:
            got = ("value",) + tuple(x.hex() for x in value.four_reals)
        assert got == want, (text, n)


def test_eval_term_accepts_ast_or_compiled_term():
    node = parse("[1/n | 2] + j*n^-2")
    term = compile_term(node)
    assert term.node is node
    for n in (1, 5, 10**6):
        assert _outcome(eval_term, node, n) == _outcome(eval_term, term, n)
    with pytest.raises(ValueError):
        eval_term(term, 0)
    with pytest.raises(TypeError):
        eval_term(term, True)


@pytest.mark.parametrize(
    "text, error",
    [
        ("n + 1/e1", SingularOperand),
        ("[i2 | 1] + 1/e1", IdempotentSlotError),
        ("n*exp(1000)", NonFiniteError),
        ("n + 1e999", NonFiniteError),
    ],
)
def test_failing_constant_subtrees_raise_at_every_index(text, error):
    term = compile_term(parse(text))
    for n in (1, 2, 3, 10**6):
        with pytest.raises(error) as info:
            eval_term(term, n)
        assert type(info.value) is error
        assert info.value.term_index == n
