"""Independent reference for checking bicomplex CLI output.

Nothing here imports the ``bicomplex`` package. Expressions are built as
tuples by the job generator, rendered to text for the CLI, and evaluated
here straight on idempotent components ``(p1, p2)`` with ``cmath``, the
ring being two independent copies of the complex numbers in that basis.

Every value carries an absolute error bound ``err`` that covers the
distance between this evaluation and the program's (which works on
``z1 + z2*i2`` and converts back and forth). Bounds are first order plus
a rounding allowance of ``ROUND`` units in the last place per operation,
relative to the operands' magnitudes. A check only fails when the
program's value lies outside the bound, so an ill-conditioned expression
makes the check loose instead of wrong.

Outcomes of an evaluation:

* ``Val``                 -- a value with its bound;
* ``Singular(definite)``  -- an inverse, log or sqrt of a zero divisor;
  ``definite`` is False when the bound straddles the program's threshold;
* ``NonFinite(definite)`` -- overflow (definite only for exp);
* ``Uncertain``           -- a branch cut or idempotent slot check that
  the bound cannot decide.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

EPS = 2.0 ** -53
# Rounding allowance per operation, in units of EPS times the operand
# magnitudes. One complex multiply is within sqrt(5) EPS; each change of
# basis between (z1, z2) and (p1, p2) adds about 2 EPS, and an operation
# in the program may pass through two of them.
ROUND = 16.0
# The program's zero-divisor threshold (core.SINGULARITY_TOLERANCE).
SINGULAR_TOL = 1e-12
# Above this magnitude the program's finiteness test on (z1, z2) and
# ours on (p1, p2) can disagree, so overflow is not decided here.
HUGE = 1e300

CONSTANTS = {
    "i1": (1j, 1j),
    "i2": (-1j, 1j),
    "j": (1 + 0j, -1 + 0j),
    "e1": (1 + 0j, 0j),
    "e2": (0j, 1 + 0j),
    "pi": (complex(math.pi), complex(math.pi)),
}
FUNCTIONS = ("exp", "log", "sqrt")


class Val(NamedTuple):
    p1: complex
    p2: complex
    err: float

    @property
    def mag(self) -> float:
        return max(abs(self.p1), abs(self.p2))


class Singular(Exception):
    def __init__(self, definite: bool):
        super().__init__("singular" if definite else "possibly singular")
        self.definite = definite


class NonFinite(Exception):
    def __init__(self, definite: bool):
        super().__init__("non-finite" if definite else "possibly non-finite")
        self.definite = definite


class Uncertain(Exception):
    pass


def rounding(*mags: float) -> float:
    return ROUND * EPS * sum(mags)


def _finite(p1: complex, p2: complex, err: float) -> Val:
    # near the float limit the program's (z1, z2) may overflow where our
    # (p1, p2) does not, or the other way round: leave it undecided
    if not (max(abs(p1), abs(p2)) <= HUGE and math.isfinite(err)):
        raise NonFinite(False)
    return Val(p1, p2, err)


def singular_bounds(v: Val) -> tuple[float, float]:
    """Lowest and highest zero-divisor measure over the error box.

    The program's measure is |p1||p2| / max(1, ||w||^2) with ||w||^2 =
    (|p1|^2 + |p2|^2)/2, which is min(ab, 2t/(1+t^2)) in the moduli a, b
    and the ratio t <= 1 of the smaller to the larger. ab grows with
    each modulus and 2t/(1+t^2) with t, so the corners of the box give
    the extremes."""
    a, b = abs(v.p1), abs(v.p2)
    a_lo, b_lo = max(a - v.err, 0.0), max(b - v.err, 0.0)
    a_hi, b_hi = a + v.err, b + v.err

    def g(t: float) -> float:
        return 2.0 * t / (1.0 + t * t)

    lo_ratio = min(a_lo, b_lo) / max(a_hi, b_hi) if max(a_hi, b_hi) > 0.0 else 0.0
    hi_ratio = min(1.0, min(a_hi, b_hi) / max(a_lo, b_lo)) if max(a_lo, b_lo) > 0.0 else 1.0
    return min(a_lo * b_lo, g(lo_ratio)), min(a_hi * b_hi, g(hi_ratio))


def check_invertible(v: Val) -> None:
    """Raise Singular unless the value is safely outside the program's
    zero-divisor test (measure <= SINGULAR_TOL)."""
    lo, hi = singular_bounds(v)
    if hi <= SINGULAR_TOL:
        raise Singular(True)
    if lo <= SINGULAR_TOL:
        raise Singular(False)


def _near_cut(p: complex, err: float) -> bool:
    return p.real <= err and abs(p.imag) <= err


def add(a: Val, b: Val, sign: float = 1.0) -> Val:
    return _finite(a.p1 + sign * b.p1, a.p2 + sign * b.p2,
                   a.err + b.err + rounding(a.mag, b.mag))


def mul(a: Val, b: Val) -> Val:
    err = a.err * b.mag + b.err * a.mag + a.err * b.err + rounding(a.mag * b.mag)
    return _finite(a.p1 * b.p1, a.p2 * b.p2, err)


def inverse(b: Val) -> Val:
    check_invertible(b)
    small = min(abs(b.p1), abs(b.p2))
    delta = b.err + rounding(b.mag)
    if small <= 2.0 * delta:
        raise Singular(False)
    err = delta / (small * (small - delta)) + rounding(1.0 / small)
    return _finite(1.0 / b.p1, 1.0 / b.p2, err)


def power(b: Val, k: int) -> Val:
    if k < 0:
        b = inverse(b)
        k = -k
    out = Val(1 + 0j, 1 + 0j, 0.0)
    for _ in range(k):
        out = mul(out, b)
    return out


def exp(a: Val) -> Val:
    delta = a.err + rounding(a.mag)
    try:
        r1 = cmath.exp(a.p1)
        r2 = cmath.exp(a.p2)
        grow = math.expm1(delta)
    except OverflowError:
        # exp overflows beyond log(max float) = 709.78
        raise NonFinite(max(a.p1.real, a.p2.real) - delta > 709.8) from None
    m = max(abs(r1), abs(r2))
    return _finite(r1, r2, m * grow + rounding(m))


def log(a: Val) -> Val:
    check_invertible(a)
    delta = a.err + rounding(a.mag)
    if _near_cut(a.p1, delta) or _near_cut(a.p2, delta):
        raise Uncertain("log near its branch cut")
    small = min(abs(a.p1), abs(a.p2))
    if small <= 2.0 * delta:
        raise Singular(False)
    r1, r2 = cmath.log(a.p1), cmath.log(a.p2)
    return _finite(r1, r2, delta / (small - delta) + rounding(abs(r1), abs(r2)))


def sqrt(a: Val) -> Val:
    check_invertible(a)
    delta = a.err + rounding(a.mag)
    if _near_cut(a.p1, delta) or _near_cut(a.p2, delta):
        raise Uncertain("sqrt near its branch cut")
    small = min(abs(a.p1), abs(a.p2))
    if small <= 2.0 * delta:
        raise Singular(False)
    r1, r2 = cmath.sqrt(a.p1), cmath.sqrt(a.p2)
    # |sqrt(x) - sqrt(y)| = |x - y| / |sqrt(x) + sqrt(y)|, and with
    # |x - y| <= |x|/2 off the cut the denominator is at least sqrt(|x|)/2
    return _finite(r1, r2, 2.0 * delta / math.sqrt(small) + rounding(abs(r1), abs(r2)))


def evaluate(node, n: int) -> Val:
    """Evaluate a generated expression tuple at index ``n``."""
    kind = node[0]
    if kind == "num":
        x = complex(node[1])
        return Val(x, x, 0.0)
    if kind == "var":
        x = complex(float(n))
        return Val(x, x, 0.0)
    if kind == "const":
        p1, p2 = CONSTANTS[node[1]]
        return Val(p1, p2, rounding(abs(p1), abs(p2)))
    if kind == "neg":
        a = evaluate(node[1], n)
        return Val(-a.p1, -a.p2, a.err)
    if kind in ("add", "sub"):
        return add(evaluate(node[1], n), evaluate(node[2], n),
                   1.0 if kind == "add" else -1.0)
    if kind == "mul":
        return mul(evaluate(node[1], n), evaluate(node[2], n))
    if kind == "div":
        a = evaluate(node[1], n)
        return mul(a, inverse(evaluate(node[2], n)))
    if kind == "pow":
        return power(evaluate(node[1], n), node[2])
    if kind == "call":
        return {"exp": exp, "log": log, "sqrt": sqrt}[node[1]](evaluate(node[2], n))
    if kind == "idem":
        first = evaluate(node[1], n)
        second = evaluate(node[2], n)
        for slot in (first, second):
            # the slot must have no second complex part: p1 == p2
            if abs(slot.p1 - slot.p2) > 2.0 * slot.err + rounding(slot.mag):
                raise Uncertain("idempotent slot has a second complex part")
        return Val((first.p1 + first.p2) / 2.0, (second.p1 + second.p2) / 2.0,
                   first.err + second.err + rounding(first.mag, second.mag))
    raise TypeError(f"not an expression node: {node!r}")


def render(node) -> str:
    """Text for an expression tuple that the CLI grammar parses back to
    the same tree. Every non-atomic operand is parenthesized."""
    kind = node[0]
    if kind == "num":
        return node[2]
    if kind == "var":
        return "n"
    if kind == "const":
        return node[1]
    if kind == "neg":
        return "-" + _wrap(node[1])
    if kind in ("add", "sub", "mul", "div"):
        op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
        return _wrap(node[1]) + op + _wrap(node[2])
    if kind == "pow":
        return f"{_wrap(node[1])}^{node[2]}"
    if kind == "call":
        return f"{node[1]}({render(node[2])})"
    if kind == "idem":
        return f"[{render(node[1])} | {render(node[2])}]"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node) -> str:
    text = render(node)
    return text if node[0] in ("num", "var", "const", "call", "idem") else f"({text})"


def close(got: complex, want: complex, bound: float) -> bool:
    return abs(got - want) <= bound


# -- closed forms for the long workloads ------------------------------


def quadratic_product_limit() -> tuple[complex, complex]:
    """prod (1 + a/n^2) = sinh(pi*sqrt(a)) / (pi*sqrt(a)) per idempotent
    component of 1 + (3/10 + 2/5*i2)/n^2, where a = 0.3 -/+ 0.4i."""
    out = []
    for a in (0.3 - 0.4j, 0.3 + 0.4j):
        x = math.pi * cmath.sqrt(a)
        out.append(cmath.sinh(x) / x)
    return out[0], out[1]


def quadratic_product_tol(terms_used: int) -> float:
    """Relative bound on |P_N / P - 1| for the product above.

    The tail prod_{n>N} (1 + a/n^2) has a log of modulus at most
    |a| sum_{n>N} 1/n^2 / (1 - |a|/N^2) < |a| / N / (1 - |a|/N^2), since
    |log(1+x)| <= |x|/(1-|x|), and |a| = 1/2. Rounding adds ROUND*EPS
    per factor.
    """
    n = terms_used
    tail = 0.5 / n / (1.0 - 0.5 / (n * n))
    return math.expm1(tail) + ROUND * EPS * n


def series_p2_tol(terms_used: int) -> float:
    """Absolute bound on |S_N - pi^2/6|: the tail sum_{n>N} 1/n^2 < 1/N,
    plus ROUND*EPS rounding per addition on partial sums below 2."""
    n = terms_used
    return 1.0 / n + ROUND * EPS * 2.0 * n


def telescoping_log_sum(terms_used: int) -> float:
    """sum_{n<=N} log(1 + 1/n) = log(N + 1): the partial products of
    1 + 1/n telescope to N + 1."""
    return math.log1p(terms_used)


def telescoping_log_sum_tol(terms_used: int) -> float:
    """Absolute bound on the program's log sum for 1 + 1/n: ROUND*EPS per
    log term, relative to the term, and per addition, relative to a
    partial sum below log(N + 1)."""
    n = terms_used
    return ROUND * EPS * (n + 1) * math.log1p(n)
