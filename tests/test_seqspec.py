import cmath
import math
import pickle
import sys

import numpy as np
import pytest

from bicomplex import (
    E1,
    E2,
    I1,
    I2,
    J,
    ONE,
    Bicomplex,
    NonFiniteError,
    ParseError,
    SingularOperand,
    eval_term,
    log_principal,
    parse,
    render,
    sqrt,
    term_generator,
)
from bicomplex import seqspec
from bicomplex.core import _Record, _TermError
from bicomplex.transcendental import _invertible_pair
from bicomplex.seqspec import (
    CONSTANT_NAMES,
    FUNCTION_NAMES,
    MAX_DEPTH,
    Add,
    Call,
    Const,
    Div,
    Idem,
    IdempotentSlotError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    compile_term,
)
from helpers import gauss_bicomplex


# one golden case per grammar production plus the usual precedence traps
GOLDEN_CASES = [
    ("42", Num(42.0)),
    ("3.25", Num(3.25)),
    ("2.5e-3", Num(0.0025)),
    ("n", Var()),
    ("i1", Const("i1")),
    ("i2", Const("i2")),
    ("j", Const("j")),
    ("e1", Const("e1")),
    ("e2", Const("e2")),
    ("pi", Const("pi")),
    ("1 + n", Add(Num(1.0), Var())),
    ("1 - 2 - 3", Sub(Sub(Num(1.0), Num(2.0)), Num(3.0))),
    ("2*n + 1", Add(Mul(Num(2.0), Var()), Num(1.0))),
    ("1/n^2", Div(Num(1.0), Pow(Var(), 2))),
    ("n^-2", Pow(Var(), -2)),
    ("-n^2", Neg(Pow(Var(), 2))),
    ("(1 + i2)/2", Div(Add(Num(1.0), Const("i2")), Num(2.0))),
    ("exp(i2*pi/n)", Call("exp", Div(Mul(Const("i2"), Const("pi")), Var()))),
    ("log(sqrt(n))", Call("log", Call("sqrt", Var()))),
    ("[1/n | 2] - -1", Sub(Idem(Div(Num(1.0), Var()), Num(2.0)), Neg(Num(1.0)))),
]


def test_golden_asts():
    assert len(GOLDEN_CASES) == 20
    for text, want in GOLDEN_CASES:
        assert parse(text) == want, text


def test_golden_round_trips():
    for text, want in GOLDEN_CASES:
        assert parse(render(want)) == want, text


# the exact canonical text: one AST per node type, then the precedence
# traps (a round trip alone would pass with extra parentheses)
RENDER_CASES = [
    (Num(2.5), "2.5"),
    (Num(3.0), "3"),
    (Const("i2"), "i2"),
    (Var(), "n"),
    (Neg(Var()), "-n"),
    (Add(Num(1.0), Var()), "1 + n"),
    (Sub(Var(), Num(2.0)), "n - 2"),
    (Mul(Num(2.0), Var()), "2*n"),
    (Div(Var(), Num(4.0)), "n/4"),
    (Pow(Var(), -2), "n^-2"),
    (Call("sqrt", Var()), "sqrt(n)"),
    (Idem(Var(), Num(2.0)), "[n | 2]"),
    (Sub(Num(1.0), Sub(Num(2.0), Num(3.0))), "1 - (2 - 3)"),
    (Sub(Sub(Num(1.0), Num(2.0)), Num(3.0)), "1 - 2 - 3"),
    (Add(Num(1.0), Add(Var(), Num(2.0))), "1 + (n + 2)"),
    (Neg(Add(Num(1.0), Var())), "-(1 + n)"),
    (Neg(Pow(Var(), 2)), "-n^2"),
    (Neg(Neg(Var())), "--n"),
    (Pow(Neg(Var()), 2), "(-n)^2"),
    (Pow(Pow(Var(), 2), 3), "(n^2)^3"),
    (Pow(Call("exp", Var()), 2), "exp(n)^2"),
    (Div(Num(2.0), Mul(Num(3.0), Var())), "2/(3*n)"),
    (Mul(Div(Num(2.0), Num(3.0)), Var()), "2/3*n"),
    (Mul(Num(2.0), Neg(Var())), "2*-n"),
    (Mul(Add(Num(1.0), Var()), Sub(Var(), Num(2.0))), "(1 + n)*(n - 2)"),
    (Sub(Idem(Div(Num(1.0), Var()), Num(2.0)), Neg(Num(1.0))), "[1/n | 2] - -1"),
    (Idem(Add(Num(1.0), Var()), Neg(Var())), "[1 + n | -n]"),
    (Call("exp", Neg(Var())), "exp(-n)"),
    (Call("log", Add(Num(1.0), Var())), "log(1 + n)"),
]


def test_render_text_is_pinned():
    for ast, text in RENDER_CASES:
        assert render(ast) == text
        assert parse(text) == ast, text


def test_every_node_type_has_one_table_row():
    assert CONSTANT_NAMES == ("i1", "i2", "j", "e1", "e2", "pi")
    assert FUNCTION_NAMES == ("exp", "log", "sqrt")
    node_types = {
        value for value in vars(seqspec).values()
        if isinstance(value, type) and issubclass(value, _Record)
        and value.__module__ == seqspec.__name__
    }
    assert node_types == set(seqspec._NODES)
    samples = {type(ast): (ast, text) for ast, text in RENDER_CASES}
    assert set(samples) == node_types
    for ast, text in samples.values():
        p1, p2 = compile_term(ast).components(3)
        assert isinstance(p1, complex) and isinstance(p2, complex)
        assert render(ast) == text
    for bad in (1.5, Add(Var(), "n")):
        with pytest.raises(TypeError, match="^not an expression node"):
            render(bad)
        with pytest.raises(TypeError, match="^not an expression node"):
            compile_term(bad)


def test_whitespace_insensitive():
    assert parse(" 1+ n *2 ") == parse("1 + n*2")
    assert parse("[ 1 |2]") == parse("[1|2]")


def test_parse_error_positions():
    cases = [
        ("", 0),
        ("1 +", 3),
        ("(1", 2),
        ("2 @ 2", 2),
        ("n ^ 1.5", 4),
        ("[1 | 2", 6),
        ("1 2", 2),
        ("foo(2)", 0),
        ("exp 2", 4),
        ("2^n", 2),
    ]
    for text, pos in cases:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == pos, (text, info.value.position)


def test_parse_error_reports_expected_tokens():
    with pytest.raises(ParseError) as info:
        parse("1 + ")
    assert "number" in info.value.expected
    with pytest.raises(ParseError) as info:
        parse("(1 + 2")
    assert "')'" in info.value.expected


def _random_ast(rng: np.random.Generator, depth: int):
    if depth <= 0:
        leaf = rng.integers(0, 4)
        if leaf == 0:
            return Num(float(rng.integers(0, 10)))
        if leaf == 1:
            return Num(round(float(rng.uniform(0, 5)), 3))
        if leaf == 2:
            return Var()
        return Const(("i1", "i2", "j", "e1", "e2", "pi")[rng.integers(0, 6)])
    kind = rng.integers(0, 8)
    if kind < 4:
        ctor = (Add, Sub, Mul, Div)[kind]
        return ctor(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 4:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 5:
        return Pow(_random_ast(rng, depth - 1), int(rng.integers(-4, 5)))
    if kind == 6:
        func = ("exp", "log", "sqrt")[rng.integers(0, 3)]
        return Call(func, _random_ast(rng, depth - 1))
    return Idem(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_random_ast_round_trip():
    rng = np.random.default_rng(401)
    for _ in range(1000):
        ast = _random_ast(rng, int(rng.integers(1, 5)))
        text = render(ast)
        assert parse(text) == ast, text


def test_eval_literals_and_constants():
    assert eval_term(parse("2"), 1) == Bicomplex(2.0)
    assert eval_term(parse("i1"), 1) == I1
    assert eval_term(parse("i2"), 1) == I2
    assert eval_term(parse("j"), 1) == J
    assert eval_term(parse("e1 + e2"), 1) == ONE
    assert eval_term(parse("pi"), 1) == Bicomplex(math.pi)
    assert eval_term(parse("i1*i2"), 1) == J


def test_eval_variable_substitution():
    node = parse("n^2 + i1")
    assert eval_term(node, 3) == Bicomplex(complex(9, 1))
    assert eval_term(parse("1/n"), 4) == Bicomplex(0.25)
    assert eval_term(parse("n^-2"), 2) == Bicomplex(0.25)
    assert eval_term(parse("-n"), 5) == Bicomplex(-5.0)


def test_eval_functions():
    assert eval_term(parse("exp(0)"), 1) == ONE
    assert eval_term(parse("log(j)"), 1) == log_principal(J)
    assert eval_term(parse("sqrt(4)"), 1) == Bicomplex(2.0)
    w = eval_term(parse("exp(i2*pi)"), 1)
    assert abs(w - (-ONE)) < 1e-12


def test_eval_idempotent_brackets():
    assert eval_term(parse("[1 | -1]"), 1) == J
    assert eval_term(parse("[1/n | 2]"), 4) == Bicomplex.from_idempotent(0.25, 2.0)
    assert eval_term(parse("[1 + 2*i1 | 3]"), 1) == Bicomplex.from_idempotent(1 + 2j, 3.0)
    with pytest.raises(ValueError):
        eval_term(parse("[i2 | 1]"), 1)


def test_parse_limits_nesting_and_tree_height():
    inner = MAX_DEPTH - 1   # the whole expression is one level
    assert parse("(" * inner + "n" + ")" * inner) == Var()
    nested_calls = parse("sqrt(" * inner + "n" + ")" * inner)
    assert abs(eval_term(nested_calls, 2) - Bicomplex(1.0)) < 1e-12
    with pytest.raises(ParseError) as info:
        parse("(" * MAX_DEPTH + "n" + ")" * MAX_DEPTH)
    assert info.value.position == MAX_DEPTH
    with pytest.raises(ParseError):
        parse("[1 | " * MAX_DEPTH + "1" + "]" * MAX_DEPTH)
    chain = "+".join(["1"] * MAX_DEPTH)
    assert eval_term(parse(chain), 1) == Bicomplex(float(MAX_DEPTH))
    assert eval_term(parse("-" * (MAX_DEPTH - 1) + "n"), 2) == Bicomplex(-2.0)
    for text in (chain + "+1", "1/" * MAX_DEPTH + "n", "-" * MAX_DEPTH + "n"):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "nested more than" in str(info.value)


_NESTED = "expression nested more than 200 deep at offset "
_ATOM = ["'('", "'-'", "'['", "n", "name", "number"]

# (text, str(err), err.position, sorted(err.expected)): one row per error
# the parser raises, both caps once per way of reaching them
PARSE_ERROR_CASES = [
    ("1 + $", "unexpected character '$' at offset 4", 4, []),
    ("1 + * n", "unexpected '*' at offset 4 (expected: '(', '-', '[', n, name, number)",
     4, _ATOM),
    ("1 +", "unexpected end of input at offset 3 (expected: '(', '-', '[', n, name, number)",
     3, _ATOM),
    ("exp n", "unexpected 'n' at offset 4 (expected: '(')", 4, ["'('"]),
    ("sqrt", "unexpected end of input at offset 4 (expected: '(')", 4, ["'('"]),
    ("(1 + n]", "unexpected ']' at offset 6 (expected: ')')", 6, ["')'"]),
    ("exp(n", "unexpected end of input at offset 5 (expected: ')')", 5, ["')'"]),
    ("[1 2]", "unexpected '2' at offset 3 (expected: '|')", 3, ["'|'"]),
    ("[1 | 2", "unexpected end of input at offset 6 (expected: ']')", 6, ["']'"]),
    ("n^x", "unexpected 'x' at offset 2 (expected: 'num')", 2, ["'num'"]),
    ("n^-", "unexpected end of input at offset 3 (expected: 'num')", 3, ["'num'"]),
    ("n^1.5", "exponent must be an integer literal at offset 2 (expected: integer)",
     2, ["integer"]),
    ("2*foo", "unknown name 'foo' at offset 2"
     " (expected: e1, e2, exp, i1, i2, j, log, n, pi, sqrt)",
     2, ["e1", "e2", "exp", "i1", "i2", "j", "log", "n", "pi", "sqrt"]),
    ("n)", "unexpected trailing ')' at offset 1 (expected: end of input)", 1, ["end of input"]),
    # bracket nesting
    ("(" * MAX_DEPTH + "n" + ")" * MAX_DEPTH, _NESTED + "200", 200, []),
    ("[1 | " * MAX_DEPTH + "1" + "]" * MAX_DEPTH, _NESTED + "996", 996, []),
    ("[1 | " + "(" * (MAX_DEPTH - 1) + "n" + ")" * (MAX_DEPTH - 1) + "]",
     _NESTED + "204", 204, []),
    ("sqrt(" * MAX_DEPTH + "n" + ")" * MAX_DEPTH, _NESTED + "1000", 1000, []),
    # tree height
    ("+".join(["1"] * (MAX_DEPTH + 1)), _NESTED + "399", 399, []),
    ("*".join(["n"] * (MAX_DEPTH + 1)), _NESTED + "399", 399, []),
    ("(" + "-" * (MAX_DEPTH - 1) + "n)^2", _NESTED + "203", 203, []),
    ("-" * MAX_DEPTH + "n", _NESTED + "0", 0, []),
    ("sqrt(" + "-" * (MAX_DEPTH - 1) + "n)", _NESTED + "0", 0, []),
    ("[1 | " + "-" * (MAX_DEPTH - 1) + "n]", _NESTED + "0", 0, []),
]


def test_parse_errors_are_pinned():
    for text, message, position, expected in PARSE_ERROR_CASES:
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert (str(err), err.position, sorted(err.expected)) == (message, position, expected)


def test_parse_does_not_recurse_per_bracket():
    # 199 open brackets (the whole expression makes 200 levels) parse
    # within a few dozen frames
    openers = [("(", ")"), ("[1 | ", "]"), ("sqrt(", ")")] * 66 + [("(", ")")]
    text = "".join(o for o, _ in openers) + "n" + "".join(c for _, c in reversed(openers))
    frames = 0
    frame = sys._getframe()
    while frame is not None:
        frames += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 40)
    try:
        node = parse(text)
    finally:
        sys.setrecursionlimit(limit)
    want = Var()
    for opener, _ in reversed(openers):
        if opener == "[1 | ":
            want = Idem(Num(1.0), want)
        elif opener == "sqrt(":
            want = Call("sqrt", want)
    assert node == want


def test_slot_error_carries_term_index():
    with pytest.raises(IdempotentSlotError) as info:
        eval_term(parse("[n | i2/n]"), 4)
    assert isinstance(info.value, ValueError)
    assert info.value.term_index == 4


def test_eval_error_carries_term_index():
    with pytest.raises(SingularOperand) as info:
        eval_term(parse("1/e1"), 7)
    assert info.value.term_index == 7
    with pytest.raises(SingularOperand) as info:
        eval_term(parse("sqrt(e1)"), 9)
    assert info.value.term_index == 9
    with pytest.raises(SingularOperand) as info:
        eval_term(parse("log(n - 1)"), 1)
    assert info.value.term_index == 1
    with pytest.raises(NonFiniteError) as info:
        eval_term(parse("exp(exp(exp(n)))"), 6)
    assert info.value.term_index == 6


def test_components_errors_carry_term_index():
    # components(n) goes through the walker's one-index step, as eval_term does
    term = compile_term(parse("1/(n - 3)"))
    assert term.components(4) == (1 + 0j, 1 + 0j)
    with pytest.raises(SingularOperand) as info:
        term.components(3)
    assert info.value.term_index == 3


@pytest.mark.parametrize("cls, public", [
    (SingularOperand, ArithmeticError),
    (NonFiniteError, ArithmeticError),
    (IdempotentSlotError, ValueError),
])
def test_term_errors_share_one_indexed_base(cls, public):
    assert issubclass(cls, _TermError) and issubclass(cls, public)
    err = cls("went wrong")
    assert err.args == ("went wrong",) and err.term_index is None

    def fail(ns):
        raise cls("went wrong")

    with pytest.raises(cls) as info:
        seqspec._at(fail, 12)
    assert type(info.value) is cls
    assert str(info.value) == "went wrong" and info.value.term_index == 12
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is cls and copy.args == ("went wrong",) and copy.term_index == 12


def test_eval_index_validation():
    node = parse("n")
    with pytest.raises(ValueError):
        eval_term(node, 0)
    with pytest.raises(TypeError):
        eval_term(node, 1.5)


def test_index_past_the_float_range():
    # float(n) overflows; only an expression that reads n fails
    for n in (2**1024, 10**400):
        with pytest.raises(NonFiniteError) as info:
            eval_term(parse("n"), n)
        assert info.value.term_index == n
        with pytest.raises(NonFiniteError):
            eval_term(parse("1 + 0*n"), n)
        assert eval_term(parse("1"), n) == ONE
    assert eval_term(parse("n"), 2**1023) == Bicomplex(2.0**1023)


def test_index_converts_to_complex_as_complex_does():
    # the compiled ``n`` adds 0j to each index: the same bits as complex(n)
    ns = [*range(1, 5001), 2**53 - 1, 2**53 + 1, 2**1023, 10**308]
    got, same, _ = seqspec._var(parse("n"))(ns)
    assert same is got
    for n, z in zip(ns, got, strict=True):
        assert (z.real.hex(), z.imag.hex()) == (complex(n).real.hex(), complex(n).imag.hex()), n


def test_term_generator():
    gen = term_generator("1 + 1/n^2")
    values = [next(gen) for _ in range(3)]
    assert values[0] == Bicomplex(2.0)
    assert values[1] == Bicomplex(1.25)
    assert values[2].isclose(Bicomplex(1 + 1 / 9))
    gen = term_generator(parse("n"), start=10)
    assert next(gen) == Bicomplex(10.0)


def test_term_generator_checks_its_start_and_indexes_its_errors():
    # the checks run at the first next(), as the generator's body starts
    gen = term_generator("n", start=0)
    with pytest.raises(ValueError, match="^start index must be at least 1$"):
        next(gen)
    for start in (1.5, 0.5, True):
        gen = term_generator("n", start=start)
        with pytest.raises(TypeError, match="^term index must be an integer$"):
            next(gen)
    gen = term_generator("1/(n - 3)", start=2)
    assert next(gen) == Bicomplex(-1.0)
    with pytest.raises(SingularOperand) as info:
        next(gen)
    assert info.value.term_index == 3


# (text, scalar lane): each overflows at n = 2 inside the closure named,
# whose finiteness guard must raise (an overflowing square reaches the
# power's result, whose one scan raises); a literal 1e999 parses to
# Num(inf)
OVERFLOW_AT_2 = [
    ("n + 1e999", True),                       # _num
    ("1e999", True),
    ("-1e999*n", True),
    ("[1e999 | 1]", False),
    ("1.6e308 + 1e307*n", True),               # _ring(+)
    ("i2 + 1.6e308 + 1e307*n", False),
    ("-1.6e308 - 1e307*n", True),              # _ring(-)
    ("i2 - 1.6e308 - 1e307*n", False),
    ("1e308*n", True),                         # _ring(*)
    ("i2*1e308*n", False),
    ("[1e308 | 1]/[1/n | 1]", False),          # pair division through _ring(*)
    ("1e308/(1/n)", True),                     # _div, on one list
    ("[1e308 | 1]/(1/n)", False),              # _div, each component times one inverse
    ("(1e200*n)^2", True),                     # _pow, squaring
    ("[1e200*n | 1]^2", False),
    ("(1e120*n)^3", True),                     # _pow, multiplying
    ("[1e120*n | 1]^3", False),
    ("(1e77*n)^4", True),                      # _pow, two squarings
    # 0*i2 folds to (0, 0), components that agree in every bit: one list
    ("(1e77*n + 0*i2)^4", True),
    ("(1e77*n + 1e-300*i2)^4", False),
]


def test_render_writes_an_overflowing_literal_back():
    # an overflowing literal's text must parse back to the same tree, and
    # every overflow must fail the same way when evaluated: the guard of
    # the closure it happens in raises, and the walker gives the index
    from test_compiled import _tree_lane

    for text, scalar in OVERFLOW_AT_2:
        tree = parse(text)
        assert parse(render(tree)) == tree, text
        assert _tree_lane(tree) is scalar, text
        errors = []
        for node in (tree, parse(render(tree))):
            with pytest.raises(NonFiniteError) as info:
                eval_term(node, 2)
            errors.append((str(info.value), info.value.term_index))
            with pytest.raises(NonFiniteError) as info:
                next(seqspec._lane_blocks(node, 2))
            errors.append((str(info.value), info.value.term_index))
        assert set(errors) == {("bicomplex components must be finite", 2)}, text
    assert render(Num(math.inf)) == "1e999"


def _block_reciprocals(p1s, p2s):
    """The components of ``1/x`` from the inverse closure over one block of
    ``x`` with no bound, so its zero-divisor screen runs."""
    return seqspec._inverse(lambda ns: (p1s, p2s, None))(range(1, len(p1s) + 1))[:2]


def test_inverse_of_a_finite_value_is_finite_or_singular():
    # why the inverse checks no reciprocal for finiteness: at the default
    # tolerance a finite operand that passes the zero-divisor test has
    # |p| > 1e-6, so |1/p| < 1e6, from the smallest modulus it accepts to
    # the largest finite one
    big = sys.float_info.max
    values = [1e-6 * (1 + 2.0**-52), 1e-6 * (1 + 2.0**-40), complex(0.0, -1e-6 * (1 + 2.0**-40)),
              complex(big, 0.0), complex(-big, big), complex(big / 2, -big / 2),
              complex(5e-324, 0.0), complex(5e-324, -5e-324), complex(2.0**-1022, 1.0)]
    rng = np.random.default_rng(2323)
    moduli = np.ldexp(rng.uniform(1.0, 2.0, 5000), rng.integers(-1074, 1024, 5000)).tolist()
    values += [complex(m * math.cos(t), m * math.sin(t))
               for m, t in zip(moduli, rng.uniform(-math.pi, math.pi, 5000).tolist())]
    assert all(map(cmath.isfinite, values))
    inverted = 0
    for p in values:
        try:
            r, _ = seqspec._pair_inverse(p, p)
        except SingularOperand:
            assert abs(p) <= 1e-6, p
            continue
        inverted += 1
        assert cmath.isfinite(r) and abs(r) < 1e6, p
        # the block route scans no reciprocal either
        ps = [p] * 16
        assert _block_reciprocals(ps, ps) == ([r] * 16, [r] * 16), p
    assert 0 < inverted < len(values)


def _pair_inverse_outcome(p1, p2):
    try:
        r1, r2 = seqspec._pair_inverse(p1, p2)
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err), str(err))
    return ("value", r1.real.hex(), r1.imag.hex(), r2.real.hex(), r2.imag.hex())


def test_pair_inverses_match_the_pair_inverse_at_extreme_components():
    # why the pair lane checks no reciprocal for finiteness either: where
    # the screen passes, every component modulus is above about
    # tol/sqrt(2), so every reciprocal is below 1.5e12. Blocks of divisors
    # with components from 1e-320 to 1e308, and blocks built to pass the
    # screen at its edge: a block gives each pair's _pair_inverse bits,
    # or the error of its first pair that fails
    rng = np.random.default_rng(2424)

    def component(exponent):
        m = math.ldexp(rng.uniform(1.0, 2.0), int(exponent))
        t = rng.uniform(-math.pi, math.pi)
        return complex(m * math.cos(t), m * math.sin(t))

    seen = set()
    for i in range(600):
        size = int(rng.integers(1, 17))
        if i % 2:
            # anywhere in the float range
            exponents = rng.integers(-1063, 1023, (2, size))
        else:
            # one component near tol/sqrt(2), the other near sqrt(2), so
            # the pair passes or fails the screen by a hair
            exponents = np.array([rng.integers(-41, -39, size), np.zeros(size, int)])
            if i % 4:
                exponents = exponents[::-1]
        p1s = [component(e) for e in exponents[0]]
        p2s = [component(e) for e in exponents[1]]
        want = [_pair_inverse_outcome(p1, p2) for p1, p2 in zip(p1s, p2s)]
        first = next((w for w in want if w[0] == "raised"), None)
        try:
            r1s, r2s = _block_reciprocals(p1s, p2s)
        except (ArithmeticError, ValueError) as err:
            assert first is not None and ("raised", type(err), str(err)) == first, i
            seen.add("raised")
            continue
        assert first is None, i
        got = [("value", r1.real.hex(), r1.imag.hex(), r2.real.hex(), r2.imag.hex())
               for r1, r2 in zip(r1s, r2s)]
        assert got == want, i
        screened = seqspec._none_singular(p1s, p2s, seqspec.SINGULARITY_TOLERANCE)
        largest = max(map(abs, r1s + r2s))
        assert largest < 1.5e12
        seen.add(("screened" if screened else "per pair", largest > 1e12))
    # blocks that raise, blocks the screen passes with reciprocals above
    # 1e12, and blocks it refuses whose pairs all invert
    assert {"raised", ("screened", True), ("per pair", False)} <= seen, seen


def _call_outcome(name, p1s, p2s):
    """``name`` of each pair through its compiled closure over one block
    with no bound: the error, or the bits of every value."""
    closure = seqspec._call(Call(name, Var()), lambda ns: (p1s, p2s, None))
    try:
        r1s, r2s, _ = closure(range(1, len(p1s) + 1))
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err), str(err))
    return [(r.real.hex(), r.imag.hex()) for r in r1s + r2s]


def _walked_call_outcome(name, p1s, p2s):
    """The same, pair by pair: ``_invertible_pair`` on each pair in
    element order, then ``cmath`` on each component."""
    func, what = seqspec._FUNCTIONS[name]
    try:
        for p1, p2 in zip(p1s, p2s):
            _invertible_pair(p1, p2, seqspec.SINGULARITY_TOLERANCE, what)
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err), str(err))
    return [(r.real.hex(), r.imag.hex()) for r in map(func, p1s + p2s)]


@pytest.mark.parametrize("name", ["log", "sqrt"])
def test_log_and_sqrt_blocks_the_screen_refuses(name):
    # where the block screen refuses, the guard runs the pair rule on
    # each pair only to raise: the error is the first singular pair's,
    # and a block whose pairs all pass gets cmath's values from the maps
    rng = np.random.default_rng(4141)

    def component(exponent):
        m = math.ldexp(rng.uniform(1.0, 2.0), int(exponent))
        t = rng.uniform(-math.pi, math.pi)
        return complex(m * math.cos(t), m * math.sin(t))

    seen = set()
    for i in range(400):
        size = int(rng.integers(1, 17))
        # each pair lopsided, one component near 1 and the other small,
        # so the screen's product of the smallest moduli fails; a pair
        # with both components small is singular
        small = rng.integers(-60, -15, size)
        first_small = rng.random(size) < 0.5
        both = rng.random(size) < (0.1 if i % 2 else 0.0)
        p1s = [component(e if f or b else 0) for e, f, b in zip(small, first_small, both)]
        p2s = [component(0 if f and not b else e) for e, f, b in zip(small, first_small, both)]
        if i % 5 == 0:
            p2s = p1s   # the scalar lane: one list, refused only where singular
            p1s[int(rng.integers(size))] = component(-30)
        if seqspec._none_singular(p1s, p2s, seqspec.SINGULARITY_TOLERANCE):
            continue
        got = _call_outcome(name, p1s, p2s)
        assert got == _walked_call_outcome(name, p1s, p2s), i
        seen.add(("raised" if got[0] == "raised" else "values", p1s is p2s))
    assert seen == {("raised", True), ("raised", False), ("values", False)}, seen


def test_small_component_beside_a_large_one_keeps_its_bits():
    # the pair is evaluated and stored as such, so no split of large
    # components (z1, z2) cancels the small one
    w = eval_term(parse("[pi | exp(n)]"), 33)
    assert (w.p1.real.hex(), w.p1.imag.hex()) == (math.pi.hex(), (0.0).hex())
    assert w.p2 == complex(math.exp(33))


def test_formatted_values_reparse_and_evaluate():
    # both renderings of a value are valid expressions. The idempotent
    # one evaluates back to the stored pair exactly; the four-real one
    # shows the joined view, whose split may round, so it evaluates back
    # within a few ulps, and exactly where the split is exact
    rng = np.random.default_rng(419)
    for _ in range(100):
        w = gauss_bicomplex(rng)
        again = eval_term(parse(w.format_idempotent()), 1)
        assert again == w
        again = eval_term(parse(w.format_four_real()), 1)
        assert abs(again - w) <= 1e-15 * max(1.0, abs(w))
    for _ in range(100):
        w = Bicomplex.from_four_reals(*map(float, rng.integers(-1000, 1000, size=4)))
        assert eval_term(parse(w.format_four_real()), 1) == w
