"""Compiled term evaluation against reference tree walkers.

The first walker below applies one Bicomplex operation per AST node, the
way term evaluation worked before expressions were compiled. The
compiled closures must agree with it bit for bit: the same value bits,
or the same exception type, message and term index. The second walker
applies one complex operation per idempotent component and node, and
the pair closures must agree with it in the same way. An mpmath oracle
checks that the pair route is no less accurate than the first.
"""

import statistics

import numpy as np
import pytest

from bicomplex import Bicomplex, NonFiniteError, SingularOperand
from bicomplex.core import (
    SINGULARITY_TOLERANCE,
    _check_finite,
    _pair_inverse,
    _pair_power,
    _pair_zero_divisor_test,
    _split,
)
from bicomplex.seqspec import (
    _CONSTANTS,
    _FUNCTIONS,
    _PAIR_FUNCTIONS,
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
    _pair_generator,
    render,
    term_generator,
)
from helpers import mp_pair_error, mp_split, mp_term_pairs
from test_cli import GOLDEN_CASES
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


def _walk_pairs(node, n: int) -> tuple[complex, complex]:
    if isinstance(node, Num):
        x = complex(node.value)
        _check_finite(x, x)
        return x, x
    if isinstance(node, Const):
        w = _CONSTANTS[node.name]
        return _split(w.z1, w.z2)
    if isinstance(node, Var):
        x = complex(float(n))
        return x, x
    if isinstance(node, Neg):
        a1, a2 = _walk_pairs(node.operand, n)
        return -a1, -a2
    if isinstance(node, Pow):
        return _pair_power(*_walk_pairs(node.base, n), node.exponent)
    if isinstance(node, Call):
        p1, p2 = _walk_pairs(node.arg, n)
        func, what = _PAIR_FUNCTIONS[node.func]
        if what is not None and _pair_zero_divisor_test(p1, p2, SINGULARITY_TOLERANCE)[0]:
            raise SingularOperand(f"{what} requires an invertible value")
        return func(p1, p2)
    if isinstance(node, Idem):
        f1, f2 = _walk_pairs(node.first, n)
        s1, s2 = _walk_pairs(node.second, n)
        if f1 != f2 or s1 != s2:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        return f1, s1
    a1, a2 = _walk_pairs(node.left, n)
    b1, b2 = _walk_pairs(node.right, n)
    if isinstance(node, Add):
        p1, p2 = a1 + b1, a2 + b2
    elif isinstance(node, Sub):
        p1, p2 = a1 - b1, a2 - b2
    elif isinstance(node, Mul):
        p1, p2 = a1 * b1, a2 * b2
    elif isinstance(node, Div):
        b1, b2 = _pair_inverse(b1, b2)
        p1, p2 = a1 * b1, a2 * b2
    else:
        raise TypeError(f"not an expression node: {node!r}")
    _check_finite(p1, p2)
    return p1, p2


def _reference_pairs(node, n: int) -> tuple[complex, complex]:
    try:
        return _walk_pairs(node, n)
    except (SingularOperand, NonFiniteError, IdempotentSlotError) as err:
        raise type(err)(str(err), term_index=n) from None


def _pair_outcome(evaluate, node, n: int):
    try:
        p1, p2 = evaluate(node, n)
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err), str(err), getattr(err, "term_index", None))
    return ("value", p1.real.hex(), p1.imag.hex(), p2.real.hex(), p2.imag.hex())


def _compiled_pairs(node, n: int) -> tuple[complex, complex]:
    return next(_pair_generator(node, start=n))


def test_pair_closures_match_pair_walker_on_random_asts():
    rng = np.random.default_rng(1706)
    kinds = {}
    for _ in range(1500):
        node = _random_ast(rng, int(rng.integers(1, 6)))
        for n in INDICES:
            got = _pair_outcome(_compiled_pairs, node, n)
            want = _pair_outcome(_reference_pairs, node, n)
            assert got == want, (render(node), n)
            kind = got[1].__name__ if got[0] == "raised" else "value"
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"value", "SingularOperand", "NonFiniteError", "IdempotentSlotError"}


@pytest.mark.parametrize("text", NAMED)
def test_pair_closures_match_pair_walker_on_named_expressions(text):
    node = parse(text)
    gen = _pair_generator(node)
    for n in range(1, 2001):
        want = _pair_outcome(_reference_pairs, node, n)
        try:
            p1, p2 = next(gen)
        except (ArithmeticError, ValueError) as err:
            got = ("raised", type(err), str(err), err.term_index)
            gen = _pair_generator(node, start=n + 1)
        else:
            got = ("value", p1.real.hex(), p1.imag.hex(), p2.real.hex(), p2.imag.hex())
        assert got == want, (text, n)


def _route_errors(nodes, indices):
    """Errors against the mpmath oracle of the (z1, z2) route and of the
    pair route, at every (node, index) where both give a value and the
    oracle is defined; and the number of nodes that gave one."""
    component, pair, used = [], [], 0
    for node in nodes:
        term = compile_term(node)
        found = False
        for n in indices:
            try:
                exact = mp_term_pairs(node, n)
                w = eval_term(term, n)
                p = _compiled_pairs(node, n)
            except (ArithmeticError, ValueError):
                continue
            component.append(mp_pair_error(mp_split(w), exact))
            pair.append(mp_pair_error(p, exact))
            found = True
        used += found
    return component, pair, used


def _assert_no_less_accurate(component, pair):
    assert max(pair) <= max(component)
    assert statistics.median(pair) <= statistics.median(component)


def test_pair_route_no_less_accurate_on_golden_expressions():
    nodes = [parse(argv[1]) for argv in GOLDEN_CASES.values()]
    indices = list(range(1, 301)) + [10**3, 10**4, 10**5, 10**6]
    component, pair, used = _route_errors(nodes, indices)
    assert used == 6
    _assert_no_less_accurate(component, pair)


def test_pair_route_no_less_accurate_on_random_asts():
    rng = np.random.default_rng(909)
    nodes = [_random_ast(rng, int(rng.integers(1, 6))) for _ in range(500)]
    component, pair, used = _route_errors(nodes, INDICES)
    assert used >= 300
    _assert_no_less_accurate(component, pair)

