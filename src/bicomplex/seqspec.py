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
per expression, to nested block closures over the idempotent components
``(p1, p2)``, the pair a ``Bicomplex`` stores: each takes a ``range`` of
indices and does its node's float operations over the whole block with
C-level iterators, one complex operation per component, so values and
errors are bit for bit those of the ``Bicomplex`` operations; a scalar
subtree (the lane rule is in ``_compile``) gets closures over one
complex per index. Each check is one scan per block; where a scan
fails, the node's per-element helper runs over the block in element
order, so a block of one index raises exactly the ring operation's
error.

One index walker, ``_blocks``, runs every evaluation and attaches the
term index to its failures (``_at``, its one-index step, evaluates
``eval_term``'s index). It evaluates blocks of 1, 2, 4, ... indices,
at most ``_BLOCK_CAP`` (1,024) and never past the ``stop`` its caller
gives. Where a block of several indices raises, it evaluates that block
again one index at a time as its terms are read, so a failure surfaces
only when its term is read: one among the at most 1,023 indices
evaluated ahead of the last term read never does.

* ``eval_term`` substitutes a concrete index into an AST or a compiled
  term (``compile_term``), and ``term_generator`` walks the indices,
  each value a ``Bicomplex``; both evaluate one index at a time. The
  library and the CLI's ``eval`` and ``check-bounds`` use them.
* ``_lane_blocks`` gives the walker's blocks of bare values, one list
  per block for a scalar term, else the lists of ``p1`` and of ``p2``;
  the CLI's ``series`` and ``product`` feed them straight to the
  analysis passes on that lane, with the term budget as the walker's
  ``stop``.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from collections import namedtuple
from itertools import count, repeat

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
    _check_finite_one,
    _fmt_real,
    _inverse,
    _isfinite,
    _none_singular,
    _pair_inverse,
    _pairs_none_singular,
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


# What evaluating a term may raise; _blocks re-raises each with the
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
    and wraps the pair in a ``Bicomplex``. ``values`` is the compiled
    block closure: given a ``range`` of indices, an iterator over their
    ``(p1, p2)`` pairs.
    """

    __slots__ = ("node", "values")

    def __init__(self, node, values):
        self.node = node
        self.values = values

    def components(self, n: int) -> tuple[complex, complex]:
        return next(self.values(range(n, n + 1)))


def compile_term(node) -> CompiledTerm:
    """Compile an AST once into nested block closures (see
    :func:`_compile`) whose root gives the idempotent components
    ``(p1, p2)``."""
    return CompiledTerm(node, _zipped(_as_pair(*_compile(node))))


def _compile(node):
    """``(closure, value, scalar)``: ``value`` is what the closure always
    gives at one index, or None when it depends on ``n`` or raises.

    Each closure is a block closure: given a ``range`` of indices, it
    returns the node's values there, one list on the scalar lane, two
    (the ``p1`` and the ``p2`` of each index) on the pair lane. It does
    the float operations of the ``Bicomplex`` operation it stands for,
    one complex operation per component but for inversion, in the same
    order, each as one C-level ``map`` over the block, so values are bit
    for bit those of the ring operations. Each check is one scan per
    block; where a scan fails, the node runs the per-element helper
    (``core._check_finite_one``, ``_inverse``, ``_power`` and the like) over
    the block in element order, so a block of one index raises exactly
    the ring operation's error. A division, negative power or
    ``log``/``sqrt`` makes the zero-divisor test on the pair
    (``core._pair_zero_divisor_test``). Subtrees that do not use ``n``
    are evaluated here, at one index, except those that raise: they stay
    in place, so their error comes from every evaluation.

    The lane rule: a node is scalar when it is ``n``, a number, ``pi``
    or ``i1``, or an operation other than ``[a | b]`` on scalar operands.
    Its value has ``p1 == p2`` bit for bit (``n`` and numbers are
    ``(x, x)``, ``pi`` and ``i1`` are stored so, and every operation
    applies the same float operations to equal components), so its
    closure returns one list and does the pair closure's work once,
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
        block = fn(range(1, 2))
    except (ArithmeticError, ValueError):
        return fn, None, scalar
    value = block[0] if scalar else (block[0][0], block[1][0])
    return _constant(value, scalar), value, scalar


def _as_pair(fn, value, scalar):
    """The pair closure of a compiled node: a scalar one broadcast."""
    if not scalar:
        return fn
    if value is not None:
        return _constant((value, value), False)

    def pair(ns):
        xs = fn(ns)
        return xs, xs

    return pair


def _zipped(fn):
    """A pair closure whose block is read as ``(p1, p2)`` values."""

    def values(ns):
        p1s, p2s = fn(ns)
        return zip(p1s, p2s)

    return values


def _constant(value, scalar):
    if scalar:
        return lambda ns: [value] * len(ns)
    v1, v2 = value
    return lambda ns: ([v1] * len(ns), [v2] * len(ns))


def _checked(ps):
    """``ps`` after one finiteness scan; where it fails, ``_check_finite_one``
    raises at the first value that is not finite."""
    if not all(map(_isfinite, ps)):
        for p in ps:
            _check_finite_one(p)
    return ps


def _inverses(ps):
    """``_inverse`` of each value, its zero-divisor test and finiteness
    check one scan each."""
    if _none_singular(ps, SINGULARITY_TOLERANCE):
        rs = list(map(operator.truediv, repeat(1.0), ps))
        if all(map(_isfinite, rs)):
            return rs
    return list(map(_inverse, ps))


def _pair_inverses(p1s, p2s):
    """``_pair_inverse`` of each pair, as the list of ``r1`` and of ``r2``."""
    if _pairs_none_singular(p1s, p2s, SINGULARITY_TOLERANCE):
        r1s = list(map(operator.truediv, repeat(1.0), p1s))
        r2s = list(map(operator.truediv, repeat(1.0), p2s))
        if all(map(_isfinite, r1s)) and all(map(_isfinite, r2s)):
            return r1s, r2s
    pairs = list(map(_pair_inverse, p1s, p2s))
    return [r1 for r1, _ in pairs], [r2 for _, r2 in pairs]


def _powers(ps, exponent: int):
    """``_power`` of each value: square-and-multiply list-wise, each
    product into the result scanned once."""
    base, k = ps, exponent
    if k < 0:
        base, k = _inverses(ps), -k
    rs = [1 + 0j] * len(ps)
    while k:
        if k & 1:
            rs = list(map(operator.mul, rs, base))
            if not all(map(_isfinite, rs)):
                return list(map(_power, ps, repeat(exponent)))
        k >>= 1
        if k:
            base = list(map(operator.mul, base, base))
    return rs


def _var(node):
    def fn(ns):
        try:
            # n + 0j is complex(n) in bits, at about half the cost
            return list(map(operator.add, ns, repeat(0j)))
        except OverflowError:
            raise NonFiniteError("term index n is past the float range") from None

    return fn


def _num(node):
    value = node.value

    def fn(ns):
        return _checked([complex(value)]) * len(ns)

    return fn


def _const_scalar(node):
    return _constant(_CONSTANTS[node.name].p1, True) if node.name in _SCALAR_CONSTANTS else None


def _pow_scalar(node, base):
    exponent = node.exponent
    return lambda ns: _powers(base(ns), exponent)


def _call_scalar(node, arg):
    func, what = _FUNCTIONS[node.func]

    def fn(ns):
        ps = arg(ns)
        if what is not None and not _none_singular(ps, SINGULARITY_TOLERANCE):
            for p in ps:
                if _zero_divisor_test(p, SINGULARITY_TOLERANCE)[0]:
                    raise _not_invertible(what)
        return list(map(func, ps))

    return fn


def _const(node):
    w = _CONSTANTS[node.name]
    return _constant((w.p1, w.p2), False)


def _ring(op):
    """The pair and the scalar builder of a ring operation that is ``op``
    on each idempotent component."""

    def pair(node, left, right):
        def fn(ns):
            a1s, a2s = left(ns)
            b1s, b2s = right(ns)
            # each component checked alone: _check_finite_one raises the
            # error of _check_finite(p1, p2)
            return _checked(list(map(op, a1s, b1s))), _checked(list(map(op, a2s, b2s)))

        return fn

    def scalar(node, left, right):
        return lambda ns: _checked(list(map(op, left(ns), right(ns))))

    return pair, scalar


_ADD = _ring(operator.add)
_SUB = _ring(operator.sub)
_MUL = _ring(operator.mul)


def _zero_minus(sub, zero):
    """A negation builder: ``0 - x`` through ``sub``, Sub's builder, which
    keeps a zero part +0.0 where ``-x`` would flip it."""
    return lambda node, arg: sub(node, zero, arg)


_NEG = (
    _zero_minus(_SUB[0], _constant((0j, 0j), False)),
    _zero_minus(_SUB[1], _constant(0j, True)),
)


def _inverted(right):
    """The block closure of the inverse of a scalar operand."""
    return lambda ns: _inverses(right(ns))


def _div_scalar(node, left, right):
    return _MUL[1](node, left, _inverted(right))


def _div(node, left, right):
    return _MUL[0](node, left, lambda ns: _pair_inverses(*right(ns)))


def _div_scaled(node, left, right):
    # each component times the one inverse of the scalar
    return _MUL[0](node, left, _as_pair(_inverted(right), None, True))


def _pow(node, base):
    exponent = node.exponent

    def fn(ns):
        p1s, p2s = base(ns)
        k = exponent
        if k < 0:
            (p1s, p2s), k = _pair_inverses(p1s, p2s), -k
        return _powers(p1s, k), _powers(p2s, k)

    return fn


def _call(node, arg):
    func, what = _FUNCTIONS[node.func]

    def fn(ns):
        p1s, p2s = arg(ns)
        if what is not None and not _pairs_none_singular(p1s, p2s, SINGULARITY_TOLERANCE):
            for p1, p2 in zip(p1s, p2s):
                _invertible_pair(p1, p2, SINGULARITY_TOLERANCE, what)
        return list(map(func, p1s)), list(map(func, p2s))

    return fn


def _idem(node, first, second):
    # a slot value has no second complex part when its components agree
    def fn(ns):
        f1s, f2s = first(ns)
        s1s, s2s = second(ns)
        if f1s != f2s or s1s != s2s:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        return f1s, s1s

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
    return Bicomplex._make(*next(_at(term.values, n)))


def term_generator(source, start: int = 1):
    """Yield eval_term(term, n) for n = start, start+1, ...

    ``source`` may be expression text, an AST or a compiled term; it is
    parsed and compiled once up front. Each term is evaluated when it is
    read, none ahead.
    """
    node = parse(source) if isinstance(source, str) else source
    _check_index(start, "start")
    term = node if isinstance(node, CompiledTerm) else compile_term(node)
    for n in count(start):
        yield eval_term(term, n)


def _check_index(n, what: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("term index must be an integer")
    if n < 1:
        raise ValueError(f"{what} index must be at least 1")


def _lane_blocks(node, start: int = 1, stop: int | None = None):
    """``(scalar, blocks)``: the lane of an AST compiled once, and the
    walker's blocks of its values at n = start, start+1, ..., short of
    ``stop`` if given: one list per block on the scalar lane, else the
    lists ``(p1s, p2s)``; a block that fails comes as one-index blocks.
    Errors carry ``term_index=n``, as eval_term's do."""
    fn, _, scalar = _compile(node)
    return scalar, _blocks(fn, start, stop)


# The largest block the walker evaluates at once. Blocks double from one
# index up to it, so a pass that stops reading at term k has had at most
# _BLOCK_CAP - 1 indices past k evaluated.
_BLOCK_CAP = 1024


def _blocks(fn, n: int, stop: int | None):
    """The blocks of values the block closure ``fn`` gives at n, n+1, ...,
    short of ``stop`` if given: the one index walker.

    It evaluates blocks of 1, 2, 4, ... indices, at most ``_BLOCK_CAP``
    and never past ``stop``, and hands each on as ``fn`` returns it. Where
    a block of several indices raises, it is evaluated again one index at
    a time, each index a block of its own, as its terms are read: the
    terms before the failing index are read as usual, and the failure,
    re-raised carrying ``term_index=n``, surfaces only when term n is
    read. A failure in indices evaluated ahead of the last term read
    never surfaces.
    """
    size = 1
    while stop is None or n < stop:
        end = n + size if stop is None else min(n + size, stop)
        values = None
        if end - n > 1:
            try:
                values = fn(range(n, end))
            except (ArithmeticError, ValueError):
                pass  # some index fails: evaluate one at a time
        if values is None:
            yield from map(_at, repeat(fn), range(n, end))
        else:
            yield values
        n = end
        size = min(size + size, _BLOCK_CAP)


def _at(fn, n: int):
    """``fn`` on the one index ``n``; a term's failure is re-raised
    carrying ``term_index=n``."""
    try:
        return fn(range(n, n + 1))
    except _TERM_ERRORS as err:
        raise type(err)(str(err), term_index=n) from None
