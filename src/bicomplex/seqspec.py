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
per expression, to one of two targets:

* ``compile_term``: nested closures over the components ``(z1, z2)``,
  which give bit for bit the values and errors of the ``Bicomplex``
  operations. ``eval_term`` substitutes a concrete index into an AST or
  a compiled term and ``term_generator`` walks the indices; the library
  and the CLI's ``eval`` and ``check-bounds`` use them.
* ``_compile_pairs``: nested closures over the idempotent components
  ``(p1, p2)``, in which each ring operation is a complex operation per
  component and no value is split. ``_pair_generator`` walks the
  indices; the CLI's ``series`` and ``product`` feed its pairs straight
  to the analysis passes, which read pairs.

Failures during evaluation carry the term index that produced them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    _fmt_real,
    _inverse_components,
    _join,
    _pair_inverse,
    _pair_power,
    _pair_zero_divisor_test,
    _power_components,
    _split,
)

__all__ = [
    "ParseError", "IdempotentSlotError",
    "Num", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Idem", "CompiledTerm",
    "parse", "render", "compile_term", "eval_term", "term_generator",
    "CONSTANT_NAMES", "FUNCTION_NAMES", "MAX_DEPTH",
]

CONSTANT_NAMES = ("i1", "i2", "j", "e1", "e2", "pi")
FUNCTION_NAMES = ("exp", "log", "sqrt")

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class Idem:
    first: object
    second: object


class _Token(NamedTuple):
    kind: str     # "num", "name", "end", or the operator character
    text: str
    position: int


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


# binding strength per node type; atoms bind tightest
_PRECEDENCE = {
    Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4,
    Num: 9, Const: 9, Var: 9, Call: 9, Idem: 9,
}


def render(node) -> str:
    """Canonical text for an AST; ``parse(render(node))`` recovers it.

    Canonical form keeps numeric literals nonnegative (the parser never
    produces a negative literal; negation is an explicit node).
    """
    return _render(node, 0)


def _render(node, context: int) -> str:
    if isinstance(node, Num):
        text = _fmt_real(node.value, None)
    elif isinstance(node, Const):
        text = node.name
    elif isinstance(node, Var):
        text = "n"
    elif isinstance(node, Add):
        text = f"{_render(node.left, 1)} + {_render(node.right, 2)}"
    elif isinstance(node, Sub):
        text = f"{_render(node.left, 1)} - {_render(node.right, 2)}"
    elif isinstance(node, Mul):
        text = f"{_render(node.left, 2)}*{_render(node.right, 3)}"
    elif isinstance(node, Div):
        text = f"{_render(node.left, 2)}/{_render(node.right, 3)}"
    elif isinstance(node, Neg):
        text = f"-{_render(node.operand, 3)}"
    elif isinstance(node, Pow):
        text = f"{_render(node.base, 9)}^{node.exponent}"
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, 0)})"
    elif isinstance(node, Idem):
        text = f"[{_render(node.first, 0)} | {_render(node.second, 0)}]"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _PRECEDENCE[type(node)] < context:
        return f"({text})"
    return text


_CONSTANTS = {
    "i1": I1,
    "i2": I2,
    "j": J,
    "e1": E1,
    "e2": E2,
    "pi": Bicomplex(math.pi),
}

_FUNCTIONS = {
    "exp": transcendental.exp,
    "log": transcendental.log_principal,
    "sqrt": transcendental.sqrt,
}


class CompiledTerm:
    """A term expression compiled by :func:`compile_term`.

    ``components(n)`` gives the components ``(z1, z2)`` of the term at
    index ``n``; :func:`eval_term` validates ``n`` around it. This is
    the target of ``eval_term`` and ``term_generator``, and so of the
    CLI's ``eval`` and ``check-bounds``. The CLI's ``series`` and
    ``product`` use the other target, closures over the idempotent
    components ``(p1, p2)`` (:func:`_pair_generator`).
    """

    __slots__ = ("node", "components")

    def __init__(self, node, components: Callable[[int], tuple[complex, complex]]):
        self.node = node
        self.components = components


def compile_term(node) -> CompiledTerm:
    """Compile an AST once into nested closures over component pairs.

    Each closure does the float operations of the ``Bicomplex`` operation
    it stands for, in the same order and with the same checks, so values
    and errors are bit for bit those of the ring operations. Subtrees
    that do not use ``n`` are evaluated here, except those that raise:
    they stay in place, so their error comes from every evaluation.
    """
    return CompiledTerm(node, _compile(node, _COMPONENT_BUILDERS)[0])


def _compile_pairs(node) -> Callable[[int], tuple[complex, complex]]:
    """Compile an AST once into nested closures over the idempotent
    components ``(p1, p2)``, where every ring operation but inversion is
    one complex operation per component.

    Each closure keeps the finiteness checks of the operation it stands
    for, and a division, negative power or ``log``/``sqrt`` makes the
    zero-divisor test on the pair (``core._pair_zero_divisor_test``).
    Values may differ from ``compile_term``'s in their last bits, and
    the values whose split or join overflows differ between the two.
    Constant subtrees are folded as in :func:`compile_term`.
    """
    return _compile(node, _PAIR_BUILDERS)[0]


def _compile(node, builders):
    """``(closure, value)`` over one basis, with the closure builders
    of that basis: ``value`` is the pair the closure always returns, or
    None when it depends on ``n`` or raises."""
    kind = type(node)
    try:
        operands, build = builders[kind]
    except KeyError:
        raise TypeError(f"not an expression node: {node!r}") from None
    compiled = [_compile(getattr(node, name), builders) for name in operands]
    fn = build(node, *(closure for closure, _ in compiled))
    if kind is Var or any(value is None for _, value in compiled):
        return fn, None
    try:
        value = fn(1)
    except (ArithmeticError, ValueError):
        return fn, None
    return _constant(value), value


def _constant(value):
    return lambda n: value


# -- closures over (z1, z2) ---------------------------------------------


def _var(node):
    def fn(n):
        return complex(float(n)), 0j

    return fn


def _num(node):
    value = node.value

    def fn(n):
        z1 = complex(value)
        _check_finite(z1, 0j)
        return z1, 0j

    return fn


def _const(node):
    w = _CONSTANTS[node.name]
    return _constant((w.z1, w.z2))


# Neg, Add and Sub act on each component alike in both bases


def _neg(node, arg):
    def fn(n):
        a1, a2 = arg(n)
        return -a1, -a2

    return fn


def _add(node, left, right):
    def fn(n):
        a1, a2 = left(n)
        b1, b2 = right(n)
        z1 = a1 + b1
        z2 = a2 + b2
        _check_finite(z1, z2)
        return z1, z2

    return fn


def _sub(node, left, right):
    def fn(n):
        a1, a2 = left(n)
        b1, b2 = right(n)
        z1 = a1 - b1
        z2 = a2 - b2
        _check_finite(z1, z2)
        return z1, z2

    return fn


def _mul(node, left, right):
    def fn(n):
        a1, a2 = left(n)
        b1, b2 = right(n)
        z1 = a1 * b1 - a2 * b2
        z2 = a1 * b2 + a2 * b1
        _check_finite(z1, z2)
        return z1, z2

    return fn


def _div(node, left, right):
    # left * right.inverse()
    def inverse(n):
        b1, b2 = _inverse_components(*right(n))
        _check_finite(b1, b2)
        return b1, b2

    return _mul(node, left, inverse)


def _pow(node, base):
    exponent = node.exponent

    def fn(n):
        a1, a2 = base(n)
        return _power_components(a1, a2, exponent)

    return fn


def _call(node, arg):
    func = _FUNCTIONS[node.func]

    def fn(n):
        w = func(Bicomplex._make(*arg(n)))
        return w.z1, w.z2

    return fn


def _idem(node, first, second):
    # Bicomplex.from_idempotent on the first components of the slots
    def fn(n):
        f1, f2 = first(n)
        s1, s2 = second(n)
        if f2 != 0 or s2 != 0:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        z1, z2 = _join(f1, s1)
        _check_finite(z1, z2)
        return z1, z2

    return fn


# -- closures over (p1, p2) ---------------------------------------------


def _pair_var(node):
    def fn(n):
        x = complex(float(n))
        return x, x

    return fn


def _pair_num(node):
    value = node.value

    def fn(n):
        x = complex(value)
        _check_finite(x, x)
        return x, x

    return fn


def _pair_const(node):
    w = _CONSTANTS[node.name]
    return _constant(_split(w.z1, w.z2))


def _pair_mul(node, left, right):
    def fn(n):
        a1, a2 = left(n)
        b1, b2 = right(n)
        p1 = a1 * b1
        p2 = a2 * b2
        _check_finite(p1, p2)
        return p1, p2

    return fn


def _pair_div(node, left, right):
    def inverse(n):
        return _pair_inverse(*right(n))

    return _pair_mul(node, left, inverse)


def _pair_pow(node, base):
    exponent = node.exponent

    def fn(n):
        a1, a2 = base(n)
        return _pair_power(a1, a2, exponent)

    return fn


def _pair_call(node, arg):
    func, what = _PAIR_FUNCTIONS[node.func]

    def fn(n):
        p1, p2 = arg(n)
        if what is not None and _pair_zero_divisor_test(p1, p2, SINGULARITY_TOLERANCE)[0]:
            raise SingularOperand(f"{what} requires an invertible value")
        return func(p1, p2)

    return fn


def _pair_idem(node, first, second):
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


# function -> (componentwise function, what it refuses a zero divisor
# for, as the transcendental functions name it, or None)
_PAIR_FUNCTIONS = {
    "exp": (transcendental._exp_pair, None),
    "log": (transcendental._log_pair, "logarithm"),
    "sqrt": (transcendental._sqrt_pair, "square root"),
}

# node type -> (operand fields, closure builder), one table per basis
_COMPONENT_BUILDERS = {
    Num: ((), _num),
    Const: ((), _const),
    Var: ((), _var),
    Neg: (("operand",), _neg),
    Add: (("left", "right"), _add),
    Sub: (("left", "right"), _sub),
    Mul: (("left", "right"), _mul),
    Div: (("left", "right"), _div),
    Pow: (("base",), _pow),
    Call: (("arg",), _call),
    Idem: (("first", "second"), _idem),
}
_PAIR_BUILDERS = {
    Num: ((), _pair_num),
    Const: ((), _pair_const),
    Var: ((), _pair_var),
    Neg: (("operand",), _neg),
    Add: (("left", "right"), _add),
    Sub: (("left", "right"), _sub),
    Mul: (("left", "right"), _pair_mul),
    Div: (("left", "right"), _pair_div),
    Pow: (("base",), _pair_pow),
    Call: (("arg",), _pair_call),
    Idem: (("first", "second"), _pair_idem),
}


def eval_term(term, n: int) -> Bicomplex:
    """Evaluate a term expression at index ``n`` (a 1-based integer).

    ``term`` is an AST or a :class:`CompiledTerm`; an AST is compiled
    for this one call. SingularOperand, NonFiniteError and
    IdempotentSlotError raised during evaluation are re-raised carrying
    ``term_index=n``.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("term index must be an integer")
    if n < 1:
        raise ValueError("term index must be at least 1")
    if not isinstance(term, CompiledTerm):
        term = compile_term(term)
    try:
        return Bicomplex._make(*term.components(n))
    except (SingularOperand, NonFiniteError, IdempotentSlotError) as err:
        raise type(err)(str(err), term_index=n) from None


def term_generator(source, start: int = 1):
    """Yield eval_term(term, n) for n = start, start+1, ...

    ``source`` may be expression text, an AST or a compiled term; it is
    parsed and compiled once up front.
    """
    node = parse(source) if isinstance(source, str) else source
    if start < 1:
        raise ValueError("start index must be at least 1")
    term = node if isinstance(node, CompiledTerm) else compile_term(node)
    n = start
    while True:
        yield eval_term(term, n)
        n += 1


def _pair_generator(node, start: int = 1):
    """Yield the idempotent components ``(p1, p2)`` of the term at
    n = start, start+1, ... from the pair closures of an AST, compiled
    once. Errors carry ``term_index=n``, as eval_term's do."""
    pairs = _compile_pairs(node)
    n = start
    try:
        while True:
            yield pairs(n)
            n += 1
    except (SingularOperand, NonFiniteError, IdempotentSlotError) as err:
        raise type(err)(str(err), term_index=n) from None
