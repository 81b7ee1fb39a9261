"""Compiled term evaluation against reference tree walkers.

The first walker below applies one Bicomplex operation per AST node, the
way term evaluation worked before expressions were compiled. The
compiled closures must agree with it bit for bit: the same value bits,
or the same exception type, message and term index. The second walker
applies one complex operation per idempotent component and node, and
the pair closures must agree with it in the same way. An mpmath oracle
checks that evaluation over the pair is no less accurate than the
evaluation over the components (z1, z2) that it replaced. Scalar-lane
closures, which return one list for both components, must agree bit for
bit with the closures the same tree gets when every node takes its pair
path. Each closure's bound on its values' moduli must hold wherever it
is known, and the scans it lets a node skip must change no bit.
"""

import statistics
import sys
import threading

import numpy as np
import pytest

from bicomplex import Bicomplex, NonFiniteError, SingularOperand, seqspec, transcendental
from bicomplex.core import (
    SINGULARITY_TOLERANCE,
    _Record,
    _check_finite,
    _pair_inverse,
    _pair_power,
    _pair_zero_divisor_test,
    _split,
)
from bicomplex.seqspec import (
    _CONSTANTS,
    _NODES,
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
    _blocks,
    _compile,
    _lane_blocks,
    compile_term,
    eval_term,
    parse,
    render,
    term_generator,
)
from helpers import flat_terms, mp_pair_error, mp_term_pairs
from test_cli import GOLDEN_CASES
from test_seqspec import _random_ast

FUNCTIONS = {
    "exp": transcendental.exp,
    "log": transcendental.log_principal,
    "sqrt": transcendental.sqrt,
}


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
        return FUNCTIONS[node.func](_walk(node.arg, n))
    if isinstance(node, Idem):
        # a slot value with no second complex part is p1 == p2, its
        # complex value; the z1 view would pass through the join, which
        # can flip the sign of a zero imaginary part
        first = _walk(node.first, n)
        second = _walk(node.second, n)
        if first.p1 != first.p2 or second.p1 != second.p2:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        return Bicomplex.from_idempotent(first.p1, second.p1)
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
        return 0j - a1, 0j - a2
    if isinstance(node, Pow):
        return _pair_power(*_walk_pairs(node.base, n), node.exponent)
    if isinstance(node, Call):
        p1, p2 = _walk_pairs(node.arg, n)
        func, what = _FUNCTIONS[node.func]
        if what is not None and _pair_zero_divisor_test(p1, p2, SINGULARITY_TOLERANCE)[0]:
            raise SingularOperand(f"{what} requires an invertible value")
        return func(p1), func(p2)
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


def _pair_terms(node, start: int = 1):
    """The values of the CLI's compiled route from index ``start``, each
    read as a pair: a scalar-lane block's one list is both components."""
    return flat_terms(_lane_blocks(node, start))


def _compiled_pairs(node, n: int) -> tuple[complex, complex]:
    return next(_pair_terms(node, start=n))


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
    gen = _pair_terms(node)
    for n in range(1, 2001):
        want = _pair_outcome(_reference_pairs, node, n)
        try:
            p1, p2 = next(gen)
        except (ArithmeticError, ValueError) as err:
            got = ("raised", type(err), str(err), err.term_index)
            gen = _pair_terms(node, start=n + 1)
        else:
            got = ("value", p1.real.hex(), p1.imag.hex(), p2.real.hex(), p2.imag.hex())
        assert got == want, (text, n)


def _route_errors(nodes, indices):
    """Errors of term evaluation against the mpmath oracle, at every
    (node, index) where it gives a value and the oracle is defined; and
    the number of nodes that gave one. ``eval_term`` and the pair
    generator share one compile, so their values agree bit for bit."""
    errors, used = [], 0
    for node in nodes:
        term = compile_term(node)
        found = False
        for n in indices:
            try:
                exact = mp_term_pairs(node, n)
                w = eval_term(term, n)
            except (ArithmeticError, ValueError):
                continue
            assert (w.p1, w.p2) == _compiled_pairs(node, n)
            errors.append(mp_pair_error((w.p1, w.p2), exact))
            found = True
        used += found
    return errors, used


# The oracle's maximum and median error of term evaluation over the
# components (z1, z2), which eval_term used before values were stored as
# (p1, p2): measured on the same nodes and indices with that route, and
# kept here, since the route is gone.
COMPONENT_ROUTE_GOLDEN = (1.1472099662404948e-16, 8.074690790082861e-33)
COMPONENT_ROUTE_RANDOM = (1.9099182129003773e-11, 2.920957494531487e-17)


def _assert_no_less_accurate(errors, component_route):
    worst, median = component_route
    assert max(errors) <= worst
    assert statistics.median(errors) <= median


def test_pair_route_no_less_accurate_on_golden_expressions():
    nodes = [parse(argv[1]) for argv in GOLDEN_CASES.values()]
    indices = list(range(1, 301)) + [10**3, 10**4, 10**5, 10**6]
    errors, used = _route_errors(nodes, indices)
    assert used == 6
    _assert_no_less_accurate(errors, COMPONENT_ROUTE_GOLDEN)


def test_pair_route_no_less_accurate_on_random_asts():
    rng = np.random.default_rng(909)
    nodes = [_random_ast(rng, int(rng.integers(1, 6))) for _ in range(500)]
    errors, used = _route_errors(nodes, INDICES)
    assert used >= 300
    _assert_no_less_accurate(errors, COMPONENT_ROUTE_RANDOM)


# -- lanes: scalar closures against the pair closures of the same tree --


def _tree_lane(node) -> bool:
    """The lane rule, as a reference: a tree is scalar when it is ``n``, a
    number, ``pi`` or ``i1``, or an operation other than ``[a | b]`` on
    scalar operands. The compiler spells no such rule: its closures give
    one list as both components where their operands do."""
    if type(node) is Const:
        return node.name in ("pi", "i1")
    if type(node) is Idem:
        return False
    return all(_tree_lane(getattr(node, name)) for name, _ in _NODES[type(node)][0])


SCALAR_LEAVES = (0.0, 0.5, 1.0, 3.0, 1e-160, 1e155, 1e200)


def _random_scalar_ast(rng: np.random.Generator, depth: int):
    """A random tree over n, numbers (among them magnitudes whose squares
    leave the float range), pi, i1, the ring operations, integer powers
    and exp, log, sqrt: scalar throughout."""
    if depth <= 0:
        leaf = rng.integers(0, 4)
        if leaf == 0:
            return Num(float(rng.choice(SCALAR_LEAVES)))
        if leaf == 1:
            return Num(round(float(rng.uniform(0, 5)), 3))
        if leaf == 2:
            return Var()
        return Const(("pi", "i1")[rng.integers(0, 2)])
    kind = rng.integers(0, 7)
    if kind < 4:
        ctor = (Add, Sub, Mul, Div)[kind]
        return ctor(_random_scalar_ast(rng, depth - 1), _random_scalar_ast(rng, depth - 1))
    if kind == 4:
        return Neg(_random_scalar_ast(rng, depth - 1))
    if kind == 5:
        return Pow(_random_scalar_ast(rng, depth - 1), int(rng.integers(-4, 5)))
    func = ("exp", "log", "sqrt")[rng.integers(0, 3)]
    return Call(func, _random_scalar_ast(rng, depth - 1))


def _pair_lane(node):
    """The closure the builders give a tree with every node on the pair
    lane: each node's component lists are copied, so no operation sees one
    list as both components and each takes its pair path; nothing folded,
    and no bound handed on, so each node scans."""
    operands, build = _NODES[type(node)][:2]
    fn = build(node, *(_pair_lane(getattr(node, name)) for name, _ in operands))
    return lambda ns: (*map(list, fn(ns)[:2]), None)


def _at(fn, n: int):
    """A block closure's values at the one index ``n``."""
    return fn(range(n, n + 1))[:2]


def _closure_outcome(fn, n: int):
    try:
        (p1,), (p2,) = _at(fn, n)
    except (ArithmeticError, ValueError) as err:
        # the index the walkers attach
        return ("raised", type(err), str(err), n)
    return ("value", p1.real.hex(), p1.imag.hex(), p2.real.hex(), p2.imag.hex())


def _assert_lanes_agree(node, indices) -> set:
    fn = _compile(node)[0]
    reference = _pair_lane(node)
    kinds = set()
    for n in indices:
        got = _closure_outcome(fn, n)
        assert got == _closure_outcome(reference, n), (render(node), n)
        kinds.add(got[1].__name__ if got[0] == "raised" else "value")
    return kinds


def test_scalar_closures_match_pair_closures_on_random_scalar_asts():
    rng = np.random.default_rng(1515)
    kinds = set()
    signed_zeros = 0
    for _ in range(1500):
        node = _random_scalar_ast(rng, int(rng.integers(1, 6)))
        assert _tree_lane(node), render(node)
        kinds |= _assert_lanes_agree(node, INDICES)
        value = _closure_outcome(_compile(node)[0], 2)
        signed_zeros += value[0] == "value" and "-0x0.0p+0" in value
    assert kinds == {"value", "SingularOperand", "NonFiniteError"}
    # the sample reaches negative zeros, whose bits the comparison checks
    assert signed_zeros > 0


LANE_NAMED = NAMED + [
    "1+1/n",
    "log(-1.73)",
    "-(n - n)",
    "exp(-n)",
    "[exp(-n) | exp(-2*n)]",
    "sqrt(n) - pi*i1/n^3",
    "(1 + i1/n)^-3",
    "1e155/n",
    "1e-160/n^2",
    "exp(800 - n)",
    "1/(n - 3)",
    "(3/10 + 2/5*i2)*exp(-n)",
    "(n*j)/(n - 2)",
]


@pytest.mark.parametrize("text", LANE_NAMED)
def test_lanes_match_pair_closures_on_named_expressions(text):
    _assert_lanes_agree(parse(text), range(1, 2001))


@pytest.mark.parametrize(
    "text, scalar",
    [
        ("n", True),
        ("2.5", True),
        ("pi", True),
        ("i1", True),
        ("-(n^-2 + exp(i1*pi/n))/sqrt(n) - log(3)*n", True),
        ("i2", False),
        ("j", False),
        ("e1", False),
        ("e2", False),
        ("[n | 1]", False),
        ("[1 | 1]", False),
        ("n + i2", False),
        ("exp(j*n)", False),
        ("1 + (3/10 + 2/5*i2)/n^2", False),
    ],
)
def test_lane_classification(text, scalar):
    node = parse(text)
    assert _tree_lane(node) is scalar
    # the compiled block is on that lane
    p1s, p2s, _ = _compile(node)[0](range(1, 4))
    assert (p1s is p2s) is scalar, text


def test_scalar_constants_have_equal_components():
    # a constant's closure gives one list exactly where its components
    # are equal bit for bit: pi and i1
    for name, w in _CONSTANTS.items():
        same = (w.p1.real.hex(), w.p1.imag.hex()) == (w.p2.real.hex(), w.p2.imag.hex())
        assert same is (name in ("pi", "i1")), name
        p1s, p2s, _ = _compile(Const(name))[0](range(1, 3))
        assert (p1s is p2s) is same, name


# -- the lane invariant: a scalar closure gives one list as both components --

# blocks that fail at some index, and come again one index at a time: a
# singular inverse, an overflowing power, a singular log; and a folded
# constant
LANE_FALLBACKS = ["1/(n - 3)", "(n - 5)^-2", "(1e153*n)^2", "log(n - 4)", "2*pi - i1/3"]


def _walked_blocks(fn, stop: int):
    """The walker's blocks of ``fn`` from index 1 short of ``stop``,
    started again past each failing index."""
    start = 1
    while start < stop:
        try:
            for block in _blocks(fn, start, stop):
                yield block
                start += len(block[0])
        except (ArithmeticError, ValueError) as err:
            start = err.term_index + 1


def _assert_one_list_on_the_scalar_lane(node) -> list:
    """Every block of the tree's closure is one list twice on the scalar
    lane, two lists on the pair lane: the walker's blocks of 1 to 64
    indices, one-index blocks after a failing block, and single indices.
    Returns the walker's blocks."""
    fn = _compile(node)[0]
    scalar = _tree_lane(node)
    walked = list(_walked_blocks(fn, 130))
    blocks = list(walked)
    for n in INDICES:
        try:
            blocks.append(_at(fn, n))
        except (ArithmeticError, ValueError):
            pass
    for p1s, p2s in blocks:
        assert (p1s is p2s) is scalar, render(node)
    return walked


def test_scalar_closures_give_one_list_as_both_components():
    # the passes read the lane off the lists, and only p1s on the scalar lane
    rng = np.random.default_rng(2525)
    walked = 0
    for _ in range(300):
        node = _random_scalar_ast(rng, int(rng.integers(1, 6)))
        walked += bool(_assert_one_list_on_the_scalar_lane(node))
    # most trees give values; some fail at every index
    assert walked > 200
    # random trees over every constant and [a | b]: a pair tree's blocks
    # are two lists, its walker blocks, fallback blocks and single indices
    pair_walked = 0
    for _ in range(300):
        node = _random_ast(rng, int(rng.integers(1, 6)))
        blocks = _assert_one_list_on_the_scalar_lane(node)
        pair_walked += bool(blocks) and not _tree_lane(node)
    assert pair_walked > 60
    for text in LANE_NAMED:
        _assert_one_list_on_the_scalar_lane(parse(text))
    for text in LANE_FALLBACKS:
        node = parse(text)
        assert _tree_lane(node), text
        blocks = _assert_one_list_on_the_scalar_lane(node)
        if text == "2*pi - i1/3":
            assert _compile(node)[1] is not None
        else:
            # a block of several indices failed, and its indices came alone
            assert sum(len(p1s) == 1 for p1s, _ in blocks[1:]) > 0, text


def test_equal_slots_stay_on_the_pair_lane_with_distinct_lists():
    for text in ("[n | n]", "[2 | 2]"):
        for node in (parse(text), parse(f"{text}*n + 1/{text}")):
            fn = _compile(node)[0]
            assert not _tree_lane(node), text
            for ns in (range(1, 2), range(3, 40)):
                p1s, p2s, _ = fn(ns)
                assert p1s is not p2s and p1s == p2s, (render(node), ns)
        p1s, p2s = next(_lane_blocks(parse(text)))
        assert p1s is not p2s, text


# -- blocks: a block of indices against each index alone --

# indices scanned for failures: the small ones where n - c vanishes, and
# those where exp(n) leaves the float range
BLOCK_SCAN = list(range(1, 130)) + list(range(690, 760))


def _block_hex(block) -> list[tuple]:
    """The bits of a block's values, one tuple per index."""
    p1s, p2s = block[:2]
    return [
        ("value", p1.real.hex(), p1.imag.hex(), p2.real.hex(), p2.imag.hex())
        for p1, p2 in zip(p1s, p2s)
    ]


def _assert_blocks_match_one_index(fn, rng, label) -> set:
    """Blocks of 1..70 indices, from starts on both sides of the failing
    indices, against each index evaluated alone: a block gives the same
    bits, or fails where an index does, with that index's error; the
    walker hands on the values up to the first failing index, then raises
    its error carrying its index. Returns what the blocks did."""
    alone = {}

    def one(n):
        if n not in alone:
            try:
                alone[n] = _block_hex(_at(fn, n))[0]
            except (ArithmeticError, ValueError) as err:
                alone[n] = ("raised", type(err), str(err), n)
        return alone[n]

    failing = [n for n in BLOCK_SCAN if one(n)[0] == "raised"]
    starts = {1, int(rng.integers(1, 760))}
    for n in failing[:3]:
        starts |= {max(1, n - int(rng.integers(1, 70))), n + 1}
    seen = set()
    for start in sorted(starts):
        k = int(rng.integers(1, 71))
        want = [one(n) for n in range(start, start + k)]
        try:
            got = _block_hex(fn(range(start, start + k)))
        except (ArithmeticError, ValueError) as err:
            errors = {w[1:3] for w in want if w[0] == "raised"}
            assert (type(err), str(err)) in errors, (label, start, k)
            seen.add("block failed")
        else:
            assert got == want, (label, start, k)
        walked = []
        try:
            for p1, p2 in flat_terms(_blocks(fn, start, start + k)):
                walked += _block_hex(([p1], [p2]))
        except (ArithmeticError, ValueError) as err:
            walked.append(("raised", type(err), str(err), err.term_index))
            seen.add("prefix then error" if len(walked) > 1 else "error")
        first = next((i for i, w in enumerate(want) if w[0] == "raised"), k - 1)
        assert walked == want[: first + 1], (label, start, k)
    return seen


def _assert_lanes_block_match(node, rng) -> set:
    seen = _assert_blocks_match_one_index(_compile(node)[0], rng, render(node))
    return seen | _assert_blocks_match_one_index(_pair_lane(node), rng, render(node))


def test_blocks_match_one_index_on_random_asts():
    rng = np.random.default_rng(1919)
    seen = set()
    for _ in range(150):
        seen |= _assert_lanes_block_match(_random_ast(rng, int(rng.integers(1, 6))), rng)
        seen |= _assert_lanes_block_match(_random_scalar_ast(rng, int(rng.integers(1, 6))), rng)
    # the sample reaches failing blocks, and failures after good terms
    assert seen == {"block failed", "prefix then error", "error"}


@pytest.mark.parametrize("text", LANE_NAMED)
def test_blocks_match_one_index_on_named_expressions(text):
    _assert_lanes_block_match(parse(text), np.random.default_rng(2020))


# -- bounds: each closure's bound on the moduli of its values --

EXTREME_LEAVES = (1e-300, 1e150, 1e299)
# exponents k whose 1e150**(1/k) lies below 2**53, where a bound can hold
POWER_EXPONENTS = (10, 16, 19)


def _extreme_ast(rng: np.random.Generator):
    """A random tree, about a third of its numbers replaced by 1e-300,
    1e150 or 1e299, and one in four raised to a power of POWER_EXPONENTS."""

    def swap(node):
        if type(node) is Num and rng.random() < 0.35:
            return Num(float(rng.choice(EXTREME_LEAVES)))
        return type(node)(*(swap(v) if isinstance(v, _Record) else v for v in node._values()))

    node = swap(_random_ast(rng, int(rng.integers(1, 5))))
    return Pow(node, int(rng.choice(POWER_EXPONENTS))) if rng.random() < 0.25 else node


def _subtrees(node):
    yield node
    for name, _ in _NODES[type(node)][0]:
        yield from _subtrees(getattr(node, name))


def _bound_blocks(rng: np.random.Generator) -> list[range]:
    """Blocks of 1 to 1,024 indices: from 1, up to the last index exact as
    a float (2**53), across it, and near each 1e150**(1/k), where a k-th
    power's bound crosses 1e150."""
    starts = [1, 2**53 - int(rng.integers(1, 1024))]
    starts += [int(1e150 ** (1 / k)) - int(rng.integers(0, 1024)) for k in POWER_EXPONENTS]
    first, *sizes = rng.integers(1, 1025, len(starts) + 1).tolist()
    return [range(2**53 - first, 2**53)] + [range(n, n + k) for n, k in zip(starts, sizes)]


def test_bounds_hold_on_every_subtree_of_random_asts():
    rng = np.random.default_rng(3636)
    known = unknown = 0
    least, most = 1.0, 1.0
    for _ in range(200):
        node = _extreme_ast(rng)
        for ns in _bound_blocks(rng):
            for sub in _subtrees(node):
                fn = _compile(sub)[0]
                try:
                    p1s, p2s, bound = fn(ns)
                except (ArithmeticError, ValueError):
                    continue
                if bound is None:
                    unknown += 1
                    continue
                lo, hi = bound
                moduli = [*map(abs, p1s), *map(abs, p2s)]
                assert lo <= min(moduli) and max(moduli) <= hi, (render(sub), ns, lo, hi)
                known += 1
                least, most = min(least, lo or 1.0), max(most, hi)
    # the sample reaches bounds near both ends of the float range, and
    # leaves some unknown
    assert known > 3000 and unknown > 300, (known, unknown)
    assert least < 1e-100 and most > 1e250, (least, most)


def _unbounded(node):
    """``node``'s closure with every operand's bound dropped where the
    builders of ``_NODES`` are handed it: each node scans."""
    builders = dict(_NODES)

    def boundless(fn):
        return lambda ns: (*fn(ns)[:2], None)

    for kind, (operands, build, *rest) in builders.items():
        def unbounded(node, *args, build=build):
            return build(node, *map(boundless, args))

        _NODES[kind] = (operands, unbounded, *rest)
    try:
        return _compile(node)[0]
    finally:
        _NODES.update(builders)


def _walked_outcomes(fn, start: int, stop: int) -> list[tuple]:
    """Each index's outcome through the walker, from ``start`` short of
    ``stop``, the walk started again past each failing index."""
    outcomes = []
    while start < stop:
        try:
            for block in _blocks(fn, start, stop):
                outcomes += _block_hex(block)
                start += len(block[0])
        except (ArithmeticError, ValueError) as err:
            index = getattr(err, "term_index", None)
            outcomes.append(("raised", type(err), str(err), index))
            if index is None:
                break
            start = index + 1
    return outcomes


# near-singular divisors (LANE_NAMED holds 1/(n - 3)), whose bounds clear
# the zero-divisor screen only just past the singular indices, and powers
# near the float range
BOUND_NAMED = LANE_NAMED + [
    "1/(1e-7*n - 1e-6)",
    "(1e-7*n - 1e-6)^-2 + i2",
    "log(1e-7*n - 1e-6)",
    "sqrt([1e-7*n - 1e-6 | n])",
    "1/(n - 3 + 1e-6*j)",
    "(1e-15*n)^20",
    "(1e15/n)^20",
    "1e150*n*n - 1e151*n",
]


@pytest.mark.parametrize("text", BOUND_NAMED)
def test_bounds_change_no_bit_on_named_expressions(text):
    node = parse(text)
    built, unbounded = _compile(node)[0], _unbounded(node)
    for start, stop in ((1, 3000), (2**53 - 1500, 2**53 + 500)):
        assert _walked_outcomes(built, start, stop) == _walked_outcomes(unbounded, start, stop)


def test_bounds_change_no_bit_on_random_asts():
    rng = np.random.default_rng(3737)
    kinds = set()
    for i in range(400):
        node = _extreme_ast(rng) if i % 2 else _random_ast(rng, int(rng.integers(1, 6)))
        built, unbounded = _compile(node)[0], _unbounded(node)
        for start in (1, 2**53 - int(rng.integers(1, 300))):
            got = _walked_outcomes(built, start, start + 300)
            assert got == _walked_outcomes(unbounded, start, start + 300), render(node)
            kinds |= {outcome[1].__name__ if outcome[0] == "raised" else "value"
                      for outcome in got}
    assert kinds == {"value", "SingularOperand", "NonFiniteError", "IdempotentSlotError"}


def test_workload_terms_scan_nothing_past_their_first_block(monkeypatch):
    # the long runs' bounds prove every finiteness scan and zero-divisor
    # screen of the closures will pass, so none runs; _isfinite counts
    # the scans of _powers too
    calls = dict.fromkeys(("_checked", "_none_singular", "_isfinite"), 0)

    def counted(name):
        fn = getattr(seqspec, name)

        def count(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(seqspec, name, count)

    for name in calls:
        counted(name)
    for text in ("1 + (3/10 + 2/5*i2)/n^2", "1+1/n", "1/n^2"):
        blocks = seqspec._lane_blocks(parse(text), 1, 20_001)
        next(blocks)
        calls.update(dict.fromkeys(calls, 0))
        assert sum(len(p1s) for p1s, _ in blocks) == 20_000 - 1
        assert calls == dict.fromkeys(calls, 0), (text, calls)
    # the reference of the bounds-change-no-bit tests does scan: each of
    # the two ring nodes of 1 + 1/n, once per block
    blocks = _blocks(_unbounded(parse("1+1/n")), 1, 20_001)
    next(blocks)
    calls.update(dict.fromkeys(calls, 0))
    assert sum(1 for _ in blocks) == 28
    assert calls["_checked"] == 2 * 28, calls


def test_a_bound_is_read_from_the_call_that_returned_it(monkeypatch):
    # a parent reads an operand's bound off the values that operand's call
    # returned, so a call in between (another thread's, on a shared
    # compiled term) leaves it the bound of its own block
    var = seqspec._var(Var())

    def interleaved(ns):
        values = var(ns)
        var(range(5, 9))
        return values

    scans = []
    checked = seqspec._checked
    monkeypatch.setattr(seqspec, "_checked", lambda ps: scans.append(ps) or checked(ps))
    three = _compile(Num(3.0))[0]
    for left in (var, interleaved):
        scans.clear()
        p1s, p2s, bound = seqspec._MUL(None, left, three)(range(1, 4))
        assert p1s is p2s and [p.real for p in p1s] == [3.0, 6.0, 9.0]
        assert bound is not None and bound[0] <= 3.0 and 9.0 <= bound[1], bound
        assert not scans


def test_threads_walking_one_compiled_term_see_what_one_thread_sees():
    # two threads walk overlapping index ranges of one compiled term,
    # switching as often as the interpreter lets them: each gets the
    # values and errors of a walk on one thread
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for text in ("1 + (3/10 + 2/5*i2)/n^2", "1/(n - 3)"):
            fn = compile_term(parse(text)).values
            spans = ((1, 6000), (2500, 8500))
            alone = [_walked_outcomes(fn, *span) for span in spans]
            walked = [None, None]

            def walk(k):
                walked[k] = _walked_outcomes(fn, *spans[k])

            threads = [threading.Thread(target=walk, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), text
            assert walked == alone, text
    finally:
        sys.setswitchinterval(interval)
