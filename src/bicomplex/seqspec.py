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
indices, does its node's float operations over the whole block with
C-level iterators, one complex operation per component, so values and
errors are bit for bit those of the ``Bicomplex`` operations, and
returns ``(p1s, p2s, bound)``. Each node type has one closure builder.
A scalar subtree (``n``, numbers, ``pi``, ``i1`` and operations but
``[a | b]`` on them) has ``p1 == p2``, and its closures return one list
object as both components, each operation doing its work once: that
identity is the lane. A nonnegative real subtree (``n``, finite
nonnegative numbers and ``pi``, by ``+``, ``*``, ``/`` and ``^k``) is on
the float lane too: its closures give floats, each the real part of the
complex value, whose imaginary part is +0.0 (``_compile``), and a
difference, ``exp``, ``log``, ``sqrt`` and ``[a | b]`` turn them into
complex values. The ``bound``, ``(lo, hi)`` or None, bounds the
moduli of the values beside it, and lets their parent skip each check it
proves will pass (``_compile``); each other check is one scan per block,
and where a scan fails, the node's per-element helper runs over the block
in element order only to raise, so a block of one index raises exactly
the ring operation's error.

One index walker, ``_blocks``, runs every evaluation and attaches the
term index to its failures (``_at``, its one-index step, evaluates
``eval_term``'s index). It evaluates blocks of 1, 2, 4, ... indices,
at most ``_BLOCK_CAP`` (1,024) and never past the ``stop`` its caller
gives, and hands on each block's values without their bound. Where a
block of several indices raises, it evaluates that block again one index
at a time as its terms are read, so a failure surfaces only when its
term is read: one among the at most 1,023 indices evaluated ahead of the
last term read never does.

* ``eval_term`` substitutes a concrete index into an AST or a compiled
  term (``compile_term``), and ``term_generator`` walks the indices,
  each value a ``Bicomplex``; both evaluate one index at a time, and a
  compiled term's ``values`` and ``components`` are complex. The
  library and the CLI's ``eval`` and ``check-bounds`` use them.
* ``_lane_blocks`` gives the walker's blocks of bare values, the lists
  of ``p1`` and of ``p2`` (one list twice for a scalar term, the lane;
  one list of floats on the float lane); the CLI's ``series`` and
  ``product`` feed them straight to the analysis passes, with the term
  budget as the walker's ``stop``.
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
    _check_finite,
    _clear,
    _each,
    _floats,
    _fmt_real,
    _isfinite,
    _none_singular,
    _pair_inverse,
    _power,
    _Record,
    _split,
    _TermError,
)
from .transcendental import _invertible_pair

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


class IdempotentSlotError(_TermError, ValueError):
    """A slot of ``[a | b]`` evaluated to a value with a second complex
    part; ``term_index`` as in ``core._TermError``.
    """


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
    operands, _, strength, form = _node_row(node)
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
    the term at index ``n``, its errors carrying ``term_index=n``;
    :func:`eval_term` validates ``n`` and wraps them in a ``Bicomplex``.
    ``values`` is the compiled block closure: given a ``range`` of
    indices, ``(p1s, p2s, bound)``, their components' lists and a bound
    on their moduli (see :func:`_compile`).
    """

    __slots__ = ("node", "values")

    def __init__(self, node, values):
        self.node = node
        self.values = values

    def components(self, n: int) -> tuple[complex, complex]:
        (p1,), (p2,) = _at(self.values, n)
        return p1, p2


def compile_term(node) -> CompiledTerm:
    """Compile an AST once into nested block closures (see
    :func:`_compile`) whose root gives the idempotent components
    ``(p1, p2)``."""
    return CompiledTerm(node, _exit(_compile(node)[0]))


def _compile(node):
    """``(closure, value)``: ``value`` is the pair ``(p1, p2)`` the closure
    always gives at one index, or None when it depends on ``n`` or raises.

    Each closure is a block closure: given a ``range`` of indices, it
    returns ``(p1s, p2s, bound)``, the node's values there, the lists of
    the ``p1`` and of the ``p2`` of each index, and ``bound``, ``(lo,
    hi)`` with every component modulus of those values in ``[lo, hi]``,
    or None, unknown. Each node type has one closure builder (``_NODES``).
    A closure does the float operations of the ``Bicomplex`` operation it
    stands for, one complex operation per component but for inversion, in
    the same order, each as one C-level ``map`` over the block, so values
    are bit for bit those of the ring operations. A node skips each check
    that its bound proves will pass; each other check is one scan per
    block, and where a scan fails, the node runs the per-element helper
    (``core._check_finite``, ``_pair_inverse``, ``_invertible_pair``)
    over the block in element order only to raise, so a block of one
    index raises exactly the ring operation's error; values come from the
    maps. A division, negative power or ``log``/``sqrt`` makes the
    zero-divisor test on the pair in ``_guard``, its scan the one block
    screen ``core._none_singular`` on either lane. A passing scan changes
    no value, so skipping it moves no bit. Subtrees that do not use ``n``
    are evaluated here, at one index, except those that raise: they stay
    in place, so their error comes from every evaluation.

    A node forms its bound once per block from the bounds its operands
    returned beside their values: ``n`` gives ``[start, stop - 1]``, a
    constant its own moduli, ``+`` and ``-`` give ``[max(0, lo_a - hi_b,
    lo_b - hi_a), hi_a + hi_b]``, ``*`` gives ``[lo_a*lo_b, hi_a*hi_b]``,
    an inverse ``[1/hi, 1/lo]`` where ``lo > 0``, ``^k`` the k-th powers.
    A function, ``[a | b]``, a block that is no ``range`` or reaches
    ``2**53`` (where ``n + 0j`` stops being exact) or a bound past 1e300
    gives none. Each complex operation, and each bound's own arithmetic,
    rounds by a few units of 2**-53; each node widens by a relative 1e-12
    (per multiplication of the chain for ``^k``), and below the normal
    range, where rounding is absolute, ``lo`` under 1e-290 becomes 0 and
    ``hi`` grows by 1e-290. A ring operation skips its finiteness scans,
    and ``^k`` the one scan of its result, where its bound is known; an
    inverse, ``log`` and ``sqrt`` skip the zero-divisor screen where
    their operand's bound passes ``core._clear``.

    The scalar lane is list identity. ``n`` is ``(x, x)``, and so is a
    constant whose components agree in every bit (``_constant``): ``pi``,
    ``i1``, every number but -0.0, which ``core._split`` splits into
    ``(-0.0 + 0j, 0j)``, and every folded subtree of such a value; their
    closures return one list object as both components. Where its
    operands' components are the same lists, a closure does its work and
    its checks once, on the one list (``core._each``), and returns one
    list, since every operation applies the same float operations to
    equal components; a check that fails runs the pair rule on ``(x,
    x)``. ``[a | b]`` gives its slots' lists, two objects, and a scalar
    operand beside a pair one is ``(xs, xs)`` as it stands, so a pair over
    a scalar divides by one list of inverses.

    The float lane holds the values ``(x, +0.0)`` with ``x`` finite and
    ``+0.0`` or more (never -0.0), as the float ``x``, one list on the
    scalar lane: ``n`` (``float(n)``, the real part of ``complex(n)``) and
    every such constant (``_constant``), numbers and ``pi`` among them.
    ``+``, ``*``, ``1/x`` and ``^k`` keep it, each float the real part of
    the complex route's value, whose imaginary part is +0.0 again, so the
    lane closes under them: a sum's is ``+0 + +0``; a product's real part
    is ``x*y - (+0)*(+0)``, which is ``x*y``, and its imaginary part ``x*(+0)
    + (+0)*y``, which is +0 for ``x, y >= +0``; ``_Py_c_quot`` of ``(1, 0)``
    by ``(x, +0)`` with ``x > 0`` (the guard refuses 0) takes its first
    branch, ratio 0, and gives ``(1/x, +0/x)``; a power is products, less
    its product by one on floats (``_powers``), where ``1.0*x`` is ``x`` in
    every bit, while ``(1+0j)*z`` turns a -0.0 imaginary part into +0.0.
    Values leave the lane as ``x + 0j``, which is exact for an ``x``
    that is never -0.0 (``_complex``): at a ring operation whose other
    operand is complex, so that the float goes in as ``complex(x, 0.0)``,
    the complex route's operand, and not by CPython's mixed-mode rules,
    which from 3.14 skip its zero part and can move the sign of a zero; at
    a difference, which can be negative, while ``(a, +0)*(b, +0)`` with
    ``a, b < 0`` has a -0.0 imaginary part; at ``exp``, ``log`` and
    ``sqrt``, whose ``cmath`` value is complex (``cmath`` takes a float as
    ``complex(x, 0.0)``); at ``[a | b]``; and at ``CompiledTerm.values``,
    so ``components`` and ``eval_term`` stay complex. ``_lane_blocks``
    hands the floats to the passes, where every float is nonnegative.
    """
    operands, build = _node_row(node)[:2]
    compiled = [_compile(getattr(node, name)) for name, _ in operands]
    fn = build(node, *(closure for closure, _ in compiled))
    if type(node) is Var or any(value is None for _, value in compiled):
        return fn, None
    try:
        p1s, p2s, _ = fn(range(1, 2))
    except (ArithmeticError, ValueError):
        return fn, None
    (p1,), (p2,) = p1s, p2s
    # a leaf's closure is a constant already
    return (_constant(p1, p2) if operands else fn), (p1, p2)


def _widen(lo, hi, margin=1e-12):
    """The bound ``(lo, hi)`` widened by a relative ``margin`` and, for
    rounding below the normal range, by 1e-290; None where ``hi`` is not
    below 1e300 (see ``_compile``)."""
    hi = hi * (1.0 + margin) + 1e-290
    if hi < 1e300:
        lo *= 1.0 - margin
        return (lo if lo > 1e-290 else 0.0), hi
    return None


def _constant(p1, p2):
    """The closure of the finite constant with components ``(p1, p2)``,
    one list where they agree in every bit: finite floats that compare
    equal differ at most in the sign of a zero. That one value stands on
    the float lane as ``x`` where it is ``(x, +0.0)`` with ``x >= +0.0``;
    a float ``x``, as a fold of the float lane gives, is ``(x, +0.0)``."""
    sign = math.copysign
    signs = sign(1.0, p1.real), sign(1.0, p1.imag)
    shared = p1 == p2 and signs == (sign(1.0, p2.real), sign(1.0, p2.imag))
    if shared and p1.imag == 0.0 and signs == (1.0, 1.0):
        p1 = p2 = p1.real
    # inf, where abs would raise, leaves the bound unknown
    m1, m2 = math.hypot(p1.real, p1.imag), math.hypot(p2.real, p2.imag)
    bound = _widen(*((m1, m2) if m1 < m2 else (m2, m1)))

    def fn(ns):
        xs = [p1] * len(ns)
        return xs, (xs if shared else [p2] * len(ns)), bound

    return fn


def _checked(ps):
    """``ps`` after one finiteness scan; where it fails, ``_check_finite``
    raises at the first value that is not finite."""
    if not all(map(_isfinite, ps)):
        for p in ps:
            _check_finite(p, p)
    return ps


def _guard(p1s, p2s, a, rule):
    """The one zero-divisor guard, at SINGULARITY_TOLERANCE: nothing where
    ``core._clear`` passes the bound ``a`` or ``_none_singular`` the block,
    else ``rule(p1, p2)`` on each pair in element order, only to raise."""
    if not (_clear(a, SINGULARITY_TOLERANCE) or _none_singular(p1s, p2s, SINGULARITY_TOLERANCE)):
        for p1, p2 in zip(p1s, p2s):
            rule(p1, p2)


def _complex(xs):
    """The list ``xs`` as complex values: a float ``x`` of the float lane is
    ``x + 0j``, which is ``(x, +0.0)`` exactly, as ``x`` is never -0.0."""
    return list(map(operator.add, xs, repeat(0j))) if _floats(xs) else xs


def _exit(fn):
    """The block closure ``fn`` with its values off the float lane."""
    def values(ns):
        p1s, p2s, bound = fn(ns)
        return (*_each(_complex, p1s, p2s), bound)

    return values


def _powers(ps, k: int, bound):
    """``p**k`` of each value, for ``k >= 0``: ``core._power`` on the list,
    its products element by element, and one finiteness scan of the result
    (``_checked``), unless ``bound``, a bound on the result below 1e300,
    proves every product finite: each square and partial product has
    modulus at most ``max(1, |p|)**k``.

    Floats, for ``k >= 1``, take ``_power`` of ``k - 1`` from ``ps``, whose
    result is that of ``k`` from ones in every bit, less its product by
    one. Let ``j`` be the lowest set bit of ``k``: ``k - 1`` has the bits
    of ``k`` above ``j`` and every bit below it, so its first ``j``
    products, ``p*p``, ``p**2*p**2``, ..., give ``b = p**(2**j)`` by the
    squarings that make ``k``'s ``b``, where ``k`` takes ``1.0*b``, which
    is ``b`` in every bit; the bits above ``j`` follow as for ``k``. Their
    ``p**0`` is 1.0."""
    mul = lambda xs, ys: list(map(operator.mul, xs, ys))
    if _floats(ps):
        rs = _power(ps, k - 1, mul, ps) if k else [1.0] * len(ps)
    else:
        rs = _power(ps, k, mul, [1 + 0j] * len(ps))
    return rs if bound else _checked(rs)


def _var(node):
    def fn(ns):
        try:
            # on the float lane: float(n) is the real part of complex(n)
            xs = list(map(float, ns))
        except OverflowError:
            raise NonFiniteError("term index n is past the float range") from None
        # and exact below 2**53; a range of a positive step (start < stop)
        # lies in [start, stop - 1]
        bound = (float(ns.start), ns.stop - 1.0) if (
            type(ns) is range and 0 <= ns.start < ns.stop <= 2**53) else None
        return xs, xs, bound

    return fn


def _num(node):
    x = complex(node.value)
    # a literal past the float range raises at every evaluation
    return _constant(*_split(x, 0j)) if _isfinite(x) else lambda ns: _check_finite(x, x)


def _const(node):
    w = _CONSTANTS[node.name]
    return _constant(w.p1, w.p2)  # pi and i1: one list


def _ring(op, rule):
    """The builder of a ring operation that is ``op`` on each idempotent
    component; ``rule`` gives its bound from its operands' bounds."""

    def build(node, left, right):
        def fn(ns):
            a1s, a2s, a = left(ns)
            b1s, b2s, b = right(ns)
            if _floats(a1s) is not _floats(b1s):
                # a float beside a complex operand goes in as complex(x,
                # 0.0), on any CPython (see _compile)
                (a1s, a2s), (b1s, b2s) = _each(_complex, a1s, a2s), _each(_complex, b1s, b2s)
            bound = a and b and rule(a, b)
            # each component checked alone, with the error of
            # _check_finite(p1, p2), where no bound proves it finite
            r1s = list(map(op, a1s, b1s))
            if not bound:
                _checked(r1s)
            if a1s is a2s and b1s is b2s:
                return r1s, r1s, bound
            r2s = list(map(op, a2s, b2s))
            return r1s, (r2s if bound else _checked(r2s)), bound

        return fn

    return build


def _gap(a, b):
    return _widen(max(0.0, a[0] - b[1], b[0] - a[1]), a[1] + b[1])


_ADD = _ring(operator.add, _gap)
_DIFF = _ring(operator.sub, _gap)
_MUL = _ring(operator.mul, lambda a, b: _widen(a[0] * b[0], a[1] * b[1]))
_ZERO = _constant(0j, 0j)


def _sub(node, left, right):
    # a difference can be negative: it leaves the float lane
    return _exit(_DIFF(node, left, right))


def _neg(node, arg):
    # 0 - x, which keeps a zero part +0.0 where -x would flip it
    return _sub(node, _ZERO, arg)


def _div(node, left, right):
    return _MUL(node, left, _inverse(right))


def _inverse(arg):
    """The block closure of ``1/arg``: ``_guard`` with the rule
    ``_pair_inverse``, then ``1.0/p`` by one ``map`` per list, with no
    finiteness scan of the reciprocals. The operands are finite, as every
    closure's values are, and the tolerance is ``tol`` = 1e-12. On one list
    a pass means ``|p| > 1e-6``, so ``|1/p| < 1e6``, and so does
    ``core._clear`` (``lo*lo > tol``) on either lane. On a pair a pass of
    the screen means ``min1*min2 > tol*max(1, (M1*M1 + M2*M2)/2)`` over the
    smallest and largest moduli of each component, so
    ``min1*M2 > tol*max(1, M2*M2/2)``: ``min1 > tol/M2 >= tol/sqrt(2)``
    where ``M2 <= sqrt(2)``, ``min1 > tol*M2/2 > tol/sqrt(2)`` elsewhere,
    and so for ``min2``. So every ``|1/p| < sqrt(2)/tol < 1.5e12``, finite.
    A pair the pair test passes is such a block of one, and where ``abs``
    overflows, the pair test gives the same bound.
    """
    reciprocals = lambda ps: list(map(operator.truediv, repeat(1.0), ps))

    def fn(ns):
        p1s, p2s, a = arg(ns)
        _guard(p1s, p2s, a, _pair_inverse)
        r1s, r2s = _each(reciprocals, p1s, p2s)
        return r1s, r2s, a and a[0] > 0.0 and _widen(1.0 / a[1], 1.0 / a[0]) or None

    return fn


def _pow(node, base):
    """The block closure of ``base^k``: ``_powers`` of each component, of
    the inverse's for ``k < 0``."""
    k = abs(node.exponent)
    if node.exponent < 0:
        base = _inverse(base)
    # 1e-12 per multiplication of the chain, at most two per bit of k
    margin = 2e-12 * k.bit_length()

    def fn(ns):
        p1s, p2s, a = base(ns)
        try:
            bound = a and _widen(a[0] ** k, a[1] ** k, margin)
        except OverflowError:
            bound = None   # past the float range: unknown
        return (*_each(lambda ps: _powers(ps, k, bound), p1s, p2s), bound)

    return fn


def _call(node, arg):
    """The block closure of ``func(arg)``; ``log`` and ``sqrt`` pass
    ``_guard`` first, with an ``_invertible_pair`` rule built here."""
    func, what = _FUNCTIONS[node.func]
    rule = what and (lambda p1, p2: _invertible_pair(p1, p2, SINGULARITY_TOLERANCE, what))
    mapped = lambda ps: list(map(func, ps))

    def fn(ns):
        p1s, p2s, a = arg(ns)
        if rule:
            _guard(p1s, p2s, a, rule)
        return (*_each(mapped, p1s, p2s), None)

    return fn


def _idem(node, first, second):
    # a slot value has no second complex part when its components agree
    def fn(ns):
        f1s, f2s, _ = first(ns)
        s1s, s2s, _ = second(ns)
        if f1s != f2s or s1s != s2s:
            raise IdempotentSlotError(
                "idempotent slot values must have no second complex part"
            )
        return _complex(f1s), _complex(s1s), None

    return fn


# node type -> (operands as (field, the binding strength its place
# requires), closure builder, binding strength, text form); atoms bind
# tightest, and a Num renders through _fmt_real
_NODES = {
    Num: ((), _num, 9, None),
    Const: ((), _const, 9, "{node.name}"),
    Var: ((), _var, 9, "n"),
    Neg: ((("operand", 3),), _neg, 3, "-{0}"),
    Add: ((("left", 1), ("right", 2)), _ADD, 1, "{0} + {1}"),
    Sub: ((("left", 1), ("right", 2)), _sub, 1, "{0} - {1}"),
    Mul: ((("left", 2), ("right", 3)), _MUL, 2, "{0}*{1}"),
    Div: ((("left", 2), ("right", 3)), _div, 2, "{0}/{1}"),
    Pow: ((("base", 9),), _pow, 4, "{0}^{node.exponent}"),
    Call: ((("arg", 0),), _call, 9, "{node.func}({0})"),
    Idem: ((("first", 0), ("second", 0)), _idem, 9, "[{0} | {1}]"),
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
    (p1,), (p2,) = _at(term.values, n)
    return Bicomplex._make(p1, p2)


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
    """The walker's blocks of an AST compiled once, its values at n =
    start, start+1, ..., short of ``stop`` if given, each the lists
    ``(p1s, p2s)``, one list object twice on the scalar lane; a block that
    fails comes as one-index blocks. Errors carry ``term_index=n``, as
    eval_term's do."""
    return _blocks(_compile(node)[0], start, stop)


# The largest block the walker evaluates at once. Blocks double from one
# index up to it, so a pass that stops reading at term k has had at most
# _BLOCK_CAP - 1 indices past k evaluated.
_BLOCK_CAP = 1024


def _blocks(fn, n: int, stop: int | None):
    """The blocks of values the block closure ``fn`` gives at n, n+1, ...,
    short of ``stop`` if given: the one index walker.

    It evaluates blocks of 1, 2, 4, ... indices, at most ``_BLOCK_CAP``
    and never past ``stop``, and hands on each block's ``(p1s, p2s)``. Where
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
            yield values[:2]
        n = end
        size = min(size + size, _BLOCK_CAP)


def _at(fn, n: int):
    """``(p1s, p2s)`` of ``fn`` on the one index ``n``; a term's failure is
    re-raised carrying ``term_index=n``."""
    try:
        return fn(range(n, n + 1))[:2]
    except _TermError as err:
        raise type(err)(str(err), term_index=n) from None
