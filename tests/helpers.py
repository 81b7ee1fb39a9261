"""Shared helpers for the test suite: samplers, families, oracles."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from bicomplex import ONE, Bicomplex

GOLDEN_DIR = Path(__file__).parent / "golden"

# the constant used by the product/series test families
C = Bicomplex(0.3, 0.4)   # 0.3 + 0.4*i2


def gauss_bicomplex(rng: np.random.Generator, scale: float = 1.0) -> Bicomplex:
    x = rng.normal(0.0, scale, size=4)
    return Bicomplex.from_four_reals(*x)


def ball_bicomplex(rng: np.random.Generator, radius: float) -> Bicomplex:
    """Uniform sample from the solid 4-ball of the given radius."""
    g = rng.normal(size=4)
    g /= np.linalg.norm(g)
    r = radius * rng.random() ** 0.25
    return Bicomplex.from_four_reals(*(r * g))


def nonsingular_bicomplex(rng: np.random.Generator, scale: float = 1.0) -> Bicomplex:
    while True:
        w = gauss_bicomplex(rng, scale)
        if not w.is_singular().is_singular:
            return w


def null_cone_bicomplex(rng: np.random.Generator, sign: int = 1, scale: float = 1.0) -> Bicomplex:
    """Exact zero divisor: z2 = +/- i1*z1."""
    z1 = complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
    return Bicomplex(z1, sign * 1j * z1)


def assert_close(a: Bicomplex, b: Bicomplex, rel: float = 1e-12, abs_tol: float = 0.0):
    d = abs(a - b)
    bound = max(rel * max(abs(a), abs(b)), abs_tol)
    assert d <= bound, f"{a} vs {b}: distance {d:.3e} > {bound:.3e}"


def rel_diff(a: Bicomplex, b: Bicomplex) -> float:
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


# -- term families ----------------------------------------------------

def dev_power_family(p: float):
    """Terms 1 + C/n**p."""
    n = 1
    while True:
        yield ONE + C * Bicomplex(1.0 / n**p)
        n += 1


def dev_geometric_family():
    """Terms 1 + C/2**n."""
    n = 1
    while True:
        yield ONE + C * Bicomplex(0.5**n)
        n += 1


def mp_components():
    """The idempotent components of C as mpmath constants."""
    import mpmath as mp

    return mp.mpc("0.3", "-0.4"), mp.mpc("0.3", "0.4")


def mp_partial_product(dev, n_terms: int, dps: int = 40):
    """Extended-precision running product of (1 + dev(n)) componentwise.

    ``dev(n)`` returns the two mpmath components of the deviation.
    Returns the final (q1, q2) as mpmath complex numbers.
    """
    import mpmath as mp

    with mp.workdps(dps):
        q1 = mp.mpc(1)
        q2 = mp.mpc(1)
        for n in range(1, n_terms + 1):
            d1, d2 = dev(n)
            q1 *= 1 + d1
            q2 *= 1 + d2
        return q1, q2


def mp_rel_diff(w: Bicomplex, q1, q2) -> float:
    """Relative Euclidean distance from w to the mpmath pair (q1, q2)."""
    import mpmath as mp

    pair = w.idempotent()
    num = mp.sqrt((abs(pair.p1 - q1) ** 2 + abs(pair.p2 - q2) ** 2) / 2)
    den = mp.sqrt((abs(q1) ** 2 + abs(q2) ** 2) / 2)
    return float(num / den)


# -- CLI --------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI entry point in-process; returns (code, stdout, stderr)."""
    from bicomplex.cli import main

    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse usage errors exit this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# -- term expressions --------------------------------------------------

def mp_term_pairs(node, n: int, prec: int = 256):
    """The idempotent components ``(p1, p2)`` of a term AST at index ``n``,
    evaluated in ``prec``-bit mpmath arithmetic from the same float
    literals and constants as the program.

    Raises ZeroDivisionError where a divisor has a zero component,
    OverflowError where an ``exp`` argument is past the float range, and
    ValueError where a ``log`` or ``sqrt`` argument has a component on
    the branch cut: there the principal value depends on the sign of a
    zero that the exact value does not have.
    """
    import mpmath as mp

    from bicomplex.seqspec import (
        _CONSTANTS, Add, Call, Const, Div, Idem, Mul, Neg, Num, Pow, Sub, Var,
    )

    functions = {"exp": mp.exp, "log": mp.log, "sqrt": mp.sqrt}

    def walk(node):
        kind = type(node)
        if kind is Num or kind is Var:
            x = mp.mpc(node.value if kind is Num else n)
            return x, x
        if kind is Const:
            w = _CONSTANTS[node.name]
            z1, z2 = mp.mpc(w.z1), mp.mpc(w.z2)
            return z1 - 1j * z2, z1 + 1j * z2
        if kind is Neg:
            a1, a2 = walk(node.operand)
            return -a1, -a2
        if kind is Pow:
            a1, a2 = walk(node.base)
            if node.exponent < 0 and (a1 == 0 or a2 == 0):
                raise ZeroDivisionError("power of a zero divisor")
            return a1**node.exponent, a2**node.exponent
        if kind is Call:
            a = walk(node.arg)
            if node.func == "exp" and any(abs(x.real) > 1000 for x in a):
                # past the float range either way; exact evaluation
                # would need as many bits as the argument is large
                raise OverflowError("exp argument out of the float range")
            if node.func != "exp" and any(x.imag == 0 and x.real <= 0 for x in a):
                raise ValueError("argument on the branch cut")
            return tuple(functions[node.func](x) for x in a)
        if kind is Idem:
            return walk(node.first)[0], walk(node.second)[0]
        (a1, a2), (b1, b2) = walk(node.left), walk(node.right)
        if kind is Add:
            return a1 + b1, a2 + b2
        if kind is Sub:
            return a1 - b1, a2 - b2
        if kind is Mul:
            return a1 * b1, a2 * b2
        if kind is Div:
            if b1 == 0 or b2 == 0:
                raise ZeroDivisionError("division by a zero divisor")
            return a1 / b1, a2 / b2
        raise TypeError(f"not an expression node: {node!r}")

    with mp.workprec(prec):
        return walk(node)


def mp_pair_error(p, q, prec: int = 256) -> float:
    """Relative Euclidean distance from the pair ``p`` (complex or
    mpmath values) to the mpmath pair ``q``: 0 when both are zero, inf
    when only ``q`` is."""
    import mpmath as mp

    with mp.workprec(prec):
        num = mp.sqrt(abs(mp.mpc(p[0]) - q[0]) ** 2 + abs(mp.mpc(p[1]) - q[1]) ** 2)
        den = mp.sqrt(abs(q[0]) ** 2 + abs(q[1]) ** 2)
        if den == 0:
            return 0.0 if num == 0 else math.inf
        return float(num / den)


def mp_split(w: Bicomplex, prec: int = 256):
    """The idempotent components of ``w``, split exactly in mpmath."""
    import mpmath as mp

    with mp.workprec(prec):
        z1, z2 = mp.mpc(w.z1), mp.mpc(w.z2)
        return z1 - 1j * z2, z1 + 1j * z2
