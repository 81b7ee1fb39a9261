"""Parsing and evaluation of sequence-term expressions.

A term expression describes the general term of a sequence in the free
variable ``n`` (1-based). The grammar, loosest binding first:

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ['^' ['-'] integer]
    atom    :=  number | 'n' | constant | func '(' expr ')'
             |  '(' expr ')' | '[' expr '|' expr ']'

Constants: i1, i2, j, e1, e2, pi. Functions: exp, log, sqrt (log is the
componentwise principal branch). The bracket atom builds a value from
its two idempotent components; each component expression must evaluate
to a value with no second complex part. Two caps apply, both
``MAX_DEPTH``: brackets and function calls nest at most that many levels
deep, the whole expression counting one level, which limits the input
only; and the tree is at most that many nodes high, which bounds the
recursion of ``compile_term``, ``eval_term`` and ``render``.

``parse`` produces an immutable AST, ``render`` turns an AST back into
canonical text (round-trips through ``parse``). An AST compiles, once
per expression, to nested closures over the idempotent components
``(p1, p2)``, the pair a ``Bicomplex`` stores: each ring operation is a
complex operation per component, and values and errors are bit for bit
those of the ``Bicomplex`` operations; a scalar subtree (the lane rule
is in ``_compile``) gets closures over one complex. One index walker,
``_indexed``, runs every evaluation and attaches the term index to its
failures:

* ``eval_term`` substitutes a concrete index into an AST or a compiled
  term (``compile_term``), and ``term_generator`` walks the indices,
  each value a ``Bicomplex``; the library and the CLI's ``eval`` and
  ``check-bounds`` use them.
* ``_lane_terms`` yields bare values, one complex each for a scalar
  term, else pairs; the CLI's ``series`` and ``product`` feed them
  straight to the analysis passes on that lane.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable

from . import transcendental
from .core import (
    E1,
    E2,
    I1,
    I2,
    J,
    SINGULARITY_TOLERANCE,
    Bicomplex,
    NonFiniteError,
    SingularOperand,
    _check_finite,
    _check_finite_one,
    _fmt_real,
    _inverse,
    _isfinite,
    _pair_inverse,
    _pair_power,
    _power,
    _Record,
    _zero_divisor_test,
)
from .transcendental import _invertible_pair, _not_invertible

__all__ = [
    "ParseError", "IdempotentSlotError",
    "Num", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Idem", "CompiledTerm",
    "parse", "render", "compile_term", "eval_term", "term_generator",
    "CONSTANT_NAMES", "FUNCTION_NAMES", "MAX_DEPTH",
]

_CONSTANTS = {"i1": I1, "i2": I2, "j": J, "e1": E1, "e2": E2, "pi": Bicomplex(math.pi)}
# function -> (the function on one idempotent component, what it refuses
# a zero divisor for, as the transcendental functions name it, or None)
_FUNCTIONS = {
    "exp": (transcendental._exp, None),
    "log": (cmath.log, "logarithm"),
    "sqrt": (cmath.sqrt, "square root"),
}
# the constants whose two idempotent components are equal bit for bit
_SCALAR_CONSTANTS = ("pi", "i1")
CONSTANT_NAMES = tuple(_CONSTANTS)
FUNCTION_NAMES = tuple(_FUNCTIONS)

# Bound on bracket nesting, an input limit (the parser keeps open
# brackets on a stack), and on tree height, which keeps compiling,
# evaluating and rendering (about one frame per tree level) well inside
# the interpreter's default recursion limit.
MAX_DEPTH = 200


class ParseError(ValueError):
    """Syntax error with the character offset and the expected tokens."""

    def __init__(self, message: str, position: int, expected=None):
        self.position = position
        self.expected = frozenset(expected) if expected else frozenset()
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class IdempotentSlotError(ValueError):
    """A slot of ``[a | b]`` evaluated to a value with a second complex
    part. ``term_index`` is set when the value came from an indexed term.
    """

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


# What evaluating a term may raise; _indexed re-raises each with the
# term's index.
_TERM_ERRORS = (SingularOperand, NonFiniteError, IdempotentSlotError)


class Num(_Record):
    value: float


class Const(_Record):
    name: str


class Var(_Record):
    pass


class Neg(_Record):
    operand: object


class Add(_Record):
    left: object
    right: object


class Sub(_Record):
    left: object
    right: object


class Mul(_Record):
    left: object
    right: object


class Div(_Record):
    left: object
    right: object


class Pow(_Record):
    base: object
    exponent: int


class Call(_Record):
    func: str
    arg: object


class Idem(_Record):
    first: object
    second: object


# kind: "num", "name", "end", or the operator character
_Token = namedtuple("_Token", "kind text position")


_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*/^()\[\]|])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind is not None:   # None: whitespace
            tokens.append(_Token(m.group() if kind == "op" else kind, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


_ATOM_EXPECTED = frozenset({"number", "name", "n", "'('", "'['", "'-'"})
_NAME_EXPECTED = frozenset(CONSTANT_NAMES + FUNCTION_NAMES + ("n",))
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
# open bracket kind on the stack -> the token that closes it
_CLOSERS = {"(": ")", "call": ")", "[": "|", "|": "]"}


def _unexpected(tok: _Token, expected) -> ParseError:
    what = "unexpected end of input" if tok.kind == "end" else f"unexpected {tok.text!r}"
    return ParseError(what, tok.position, expected)


def _check_depth(depth: int, tok: _Token) -> None:
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nested more than {MAX_DEPTH} deep", tok.position)


def parse(text: str):
    """Parse a term expression into an AST. Raises ParseError.

    Precedence climbing on an explicit stack, so brackets cost no
    interpreter frames. Each node is built, and its height checked, at
    the token where recursive descent over the grammar would build it.
    """
    tokens = _tokenize(text)
    # pending entries (kind, token, left node, left height): binary
    # operators, unary minuses ("neg") and open brackets ("(", "call",
    # "[" and "|", the second slot of a bracket atom)
    stack: list[tuple] = []
    depth = 1   # the whole expression and each open bracket count one level
    node = None
    i = 0
    while True:
        tok = tokens[i]
        if node is None:
            # an operand: unary minuses, then an atom or an open bracket
            i += 1
            kind = tok.kind
            if kind == "num":
                node, height = Num(float(tok.text)), 1
            elif tok.text == "n":
                node, height = Var(), 1
            elif tok.text in CONSTANT_NAMES:
                node, height = Const(tok.text), 1
            elif kind == "-":
                stack.append(("neg", tok, None, 0))
            elif kind in ("(", "[") or tok.text in FUNCTION_NAMES:
                if kind == "name":
                    if tokens[i].kind != "(":
                        raise _unexpected(tokens[i], {"'('"})
                    i += 1
                    kind = "call"
                stack.append((kind, tok, None, 0))
                depth += 1
                _check_depth(depth, tokens[i])
            elif kind == "name":
                raise ParseError(f"unknown name {tok.text!r}", tok.position, _NAME_EXPECTED)
            else:
                raise _unexpected(tok, _ATOM_EXPECTED)
            continue

        # `node` is a complete atom and `tok` the token after it
        if tok.kind == "^":
            negative = tokens[i + 1].kind == "-"
            i += 2 + negative
            tok = tokens[i - 1]
            if tok.kind != "num":
                raise _unexpected(tok, {"'num'"})
            if not tok.text.isdigit():
                raise ParseError("exponent must be an integer literal", tok.position, {"integer"})
            k = int(tok.text)
            node = Pow(node, -k if negative else k)
            height += 1
            _check_depth(height, tok)
            tok = tokens[i]
        while stack and stack[-1][0] == "neg":
            node = Neg(node)
            height += 1
            _check_depth(height, stack.pop()[1])
        # reduce the pending product, then the pending sum once the term ends
        for ops in (("*", "/"), ("+", "-")):
            if stack and stack[-1][0] in ops:
                op, op_tok, left, left_height = stack.pop()
                node = _BINARY[op](left, node)
                height = max(left_height, height) + 1
                _check_depth(height, op_tok)
            if tok.kind in ops:
                stack.append((tok.kind, tok, node, height))
                node = None
                i += 1
                break
        if node is None:
            continue

        # the expression at this bracket level is complete
        if not stack:
            if tok.kind != "end":
                raise ParseError(
                    f"unexpected trailing {tok.text!r}", tok.position,
                    expected={"end of input"},
                )
            return node
        kind, opener, left, left_height = stack.pop()
        if tok.kind != _CLOSERS[kind]:
            raise _unexpected(tok, {f"'{_CLOSERS[kind]}'"})
        i += 1
        if kind == "[":
            stack.append(("|", opener, node, height))
            node = None
            continue
        depth -= 1
        if kind != "(":
            node = Call(opener.text, node) if kind == "call" else Idem(left, node)
            height = max(left_height, height) + 1
            _check_depth(height, opener)


def render(node) -> str:
    """Canonical text for an AST; ``parse(render(node))`` recovers it.

    Canonical form keeps numeric literals nonnegative (the parser never
    produces a negative literal; negation is an explicit node) and
    writes an infinite one, which an overflowing literal parses to, as
    ``1e999``.
    """
    return _render(node, 0)


def _render(node, context: int) -> str:
    """``node``'s text, in parentheses where it binds looser than
    ``context``, the binding strength its place requires."""
    operands, _, _, _, strength, form = _node_row(node)
    if form is None:
        # a literal past the float range parses as inf, so write one back
        text = _fmt_real(node.value, None).replace("inf", "1e999")
    else:
        text = form.format(
            *(_render(getattr(node, name), inner) for name, inner in operands), node=node
        )
    return f"({text})" if strength < context else text


class CompiledTerm:
    """A term expression compiled by :func:`compile_term`.

    ``components(n)`` gives the idempotent components ``(p1, p2)`` of
    the term at index ``n``; :func:`eval_term` validates ``n`` around it
    and wraps the pair in a ``Bicomplex``.
    """

    __slots__ = ("node", "components")

    def __init__(self, node, components: Callable[[int], tuple[complex, complex]]):
        self.node = node
        self.components = components


def compile_term(node) -> CompiledTerm:
    """Compile an AST once into nested closures (see :func:`_compile`)
    whose root returns the idempotent components ``(p1, p2)``."""
    return CompiledTerm(node, _as_pair(*_compile(node)))


def _compile(node):
    """``(closure, value, scalar)``: ``value`` is what the closure always
    returns, or None when it depends on ``n`` or raises.

    Each closure does the float operations of the ``Bicomplex`` operation
    it stands for, one complex operation per component but for
    inversion, in the same order and with the same checks, so values and
    errors are bit for bit those of the ring operations; a division,
    negative power or ``log``/``sqrt`` makes the zero-divisor test on the
    pair (``core._pair_zero_divisor_test``). Subtrees that do not use
    ``n`` are evaluated here, except those that raise: they stay in
    place, so their error comes from every evaluation.

    The lane rule: a node is scalar when it is ``n``, a number, ``pi``
    or ``i1``, or an operation other than ``[a | b]`` on scalar operands.
    Its value has ``p1 == p2`` bit for bit (``n`` and numbers are
    ``(x, x)``, ``pi`` and ``i1`` are stored so, and every operation
    applies the same float operations to equal components), so its
    closure returns one complex and does the pair closure's work once,
    with the same checks made on the one component: ``_zero_divisor_test``
    and ``_check_finite_one`` give the bits and errors of the pair checks
    on ``(x, x)``. A pair node reads a scalar operand as ``(x, x)``, and a
    pair over a scalar multiplies each component by the one inverse.
    """
    operands, build, build_scalar, build_scaled = _node_row(node)[:4]
    compiled = [_compile(getattr(node, name)) for name, _ in operands]
    lanes = [scalar for _, _, scalar in compiled]
    fn = None
    if build_scalar is not None and all(lanes):
        # None for a constant whose components differ
        fn = build_scalar(node, *(closure for closure, _, _ in compiled))
    scalar = fn is not None
    if fn is None and build_scaled is not None and lanes == [False, True]:
        fn = build_scaled(node, compiled[0][0], compiled[1][0])
    if fn is None:
        fn = build(node, *(_as_pair(*operand) for operand in compiled))
    if type(node) is Var or any(value is None for _, value, _ in compiled):
        return fn, None, scalar
    try:
        value = fn(1)
    except (ArithmeticError, ValueError):
        return fn, None, scalar
    return _constant(value), value, scalar


def _as_pair(fn, value, scalar):
    """The pair closure of a compiled node: a scalar one broadcast."""
    if not scalar:
        return fn
    if value is not None:
        return _constant((value, value))

    def pair(n):
        x = fn(n)
        return x, x

    return pair


def _constant(value):
    return lambda n: value


def _var(node):
    def fn(n):
        try:
            return complex(float(n))
        except OverflowError:
            raise NonFiniteError("term index n is past the float range") from None

    return fn


def _num(node):
    value = node.value

    def fn(n):
        x = complex(value)
        if not _isfinite(x):
            _check_finite_one(x)
        return x

    return fn


def _const_scalar(node):
    return _constant(_CONSTANTS[node.name].p1) if node.name in _SCALAR_CONSTANTS else None


def _div_scalar(node, left, right):
    def fn(n):
        p = left(n) * _inverse(right(n))
        if not _isfinite(p):
            _check_finite_one(p)
        return p

    return fn


def _pow_scalar(node, base):
    exponent = node.exponent

    def fn(n):
        return _power(base(n), exponent)

    return fn


def _call_scalar(node, arg):
    func, what = _FUNCTIONS[node.func]

    def fn(n):
        p = arg(n)
        if what is not None and _zero_divisor_test(p, SINGULARITY_TOLERANCE)[0]:
            raise _not_invertible(what)
        return func(p)

    return fn


def _const(node):
    w = _CONSTANTS[node.name]
    return _constant((w.p1, w.p2))


def _ring(op):
    """The pair and the scalar builder of a ring operation that is ``op``
    on each idempotent component."""

    def pair(node, left, right):
        def fn(n):
            a1, a2 = left(n)
            b1, b2 = right(n)
            p1 = op(a1, b1)
            p2 = op(a2, b2)
            if not (_isfinite(p1) and _isfinite(p2)):
                _check_finite(p1, p2)
            return p1, p2

        return fn

    def scalar(node, left, right):
        def fn(n):
            p = op(left(n), right(n))
            if not _isfinite(p):
                _check_finite_one(p)
            return p

        return fn

    return pair, scalar


_ADD = _ring(operator.add)
_SUB = _ring(operator.sub)
_MUL = _ring(operator.mul)


def _zero_minus(sub, zero):
    """A negation builder: ``0 - x`` through ``sub``, Sub's builder, which
    keeps a zero part +0.0 where ``-x`` would flip it."""
    zero = _constant(zero)
    return lambda node, arg: sub(node, zero, arg)


_NEG = _zero_minus(_SUB[0], (0j, 0j)), _zero_minus(_SUB[1], 0j)


def _div(node, left, right):
    def inverse(n):
        return _pair_inverse(*right(n))

    return _MUL[0](node, left, inverse)


def _div_scaled(node, left, right):
    def fn(n):
        a1, a2 = left(n)
        r = _inverse(right(n))
        p1 = a1 * r
        p2 = a2 * r
        if not (_isfinite(p1) and _isfinite(p2)):
            _check_finite(p1, p2)
        return p1, p2

    return fn


def _pow(node, base):
    exponent = node.exponent

    def fn(n):
        a1, a2 = base(n)
        return _pair_power(a1, a2, exponent)

    return fn


def _call(node, arg):
    func, what = _FUNCTIONS[node.func]

    def fn(n):
        p1, p2 = arg(n)
        if what is not None:
            _invertible_pair(p1, p2, SINGULARITY_TOLERANCE, what)
        return func(p1), func(p2)

    return fn


def _idem(node, first, second):
    # a slot value has no second complex part when its components agree
    def fn(n):
        f1, f2 = first(n)
        s1, s2 = second(n)
        if f1 != f2 or s1 != s2:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        return f1, s1

    return fn


# node type -> (operands as (field, the binding strength its place
# requires), pair closure builder, scalar closure builder, builder for
# a pair left operand over a scalar right one, binding strength, text
# form); atoms bind tightest, a Num renders through _fmt_real, and n
# and numbers are always scalar
_NODES = {
    Num: ((), None, _num, None, 9, None),
    Const: ((), _const, _const_scalar, None, 9, "{node.name}"),
    Var: ((), None, _var, None, 9, "n"),
    Neg: ((("operand", 3),), *_NEG, None, 3, "-{0}"),
    Add: ((("left", 1), ("right", 2)), *_ADD, None, 1, "{0} + {1}"),
    Sub: ((("left", 1), ("right", 2)), *_SUB, None, 1, "{0} - {1}"),
    Mul: ((("left", 2), ("right", 3)), *_MUL, None, 2, "{0}*{1}"),
    Div: ((("left", 2), ("right", 3)), _div, _div_scalar, _div_scaled, 2, "{0}/{1}"),
    Pow: ((("base", 9),), _pow, _pow_scalar, None, 4, "{0}^{node.exponent}"),
    Call: ((("arg", 0),), _call, _call_scalar, None, 9, "{node.func}({0})"),
    Idem: ((("first", 0), ("second", 0)), _idem, None, None, 9, "[{0} | {1}]"),
}


def _node_row(node):
    try:
        return _NODES[type(node)]
    except KeyError:
        raise TypeError(f"not an expression node: {node!r}") from None


def eval_term(term, n: int) -> Bicomplex:
    """Evaluate a term expression at index ``n`` (a 1-based integer).

    ``term`` is an AST or a :class:`CompiledTerm`; an AST is compiled
    for this one call. SingularOperand, NonFiniteError and
    IdempotentSlotError raised during evaluation are re-raised carrying
    ``term_index=n``.
    """
    _check_index(n, "term")
    if not isinstance(term, CompiledTerm):
        term = compile_term(term)
    return Bicomplex._make(*next(_indexed(term.components, n)))


def term_generator(source, start: int = 1):
    """Yield eval_term(term, n) for n = start, start+1, ...

    ``source`` may be expression text, an AST or a compiled term; it is
    parsed and compiled once up front.
    """
    node = parse(source) if isinstance(source, str) else source
    _check_index(start, "start")
    term = node if isinstance(node, CompiledTerm) else compile_term(node)
    for p1, p2 in _indexed(term.components, start):
        yield Bicomplex._make(p1, p2)


def _check_index(n, what: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("term index must be an integer")
    if n < 1:
        raise ValueError(f"{what} index must be at least 1")


def _lane_terms(node, start: int = 1):
    """``(scalar, terms)``: the lane of an AST compiled once, and its values
    at n = start, start+1, ...: one complex each on the scalar lane, else
    ``(p1, p2)``. Errors carry ``term_index=n``, as eval_term's do."""
    fn, _, scalar = _compile(node)
    return scalar, _indexed(fn, start)


def _indexed(fn, start: int):
    """``fn(n)`` for n = start, start+1, ...: the one index walker, which
    re-raises a term's failure carrying ``term_index=n``."""
    n = start
    try:
        while True:
            yield fn(n)
            n += 1
    except _TERM_ERRORS as err:
        raise type(err)(str(err), term_index=n) from None
