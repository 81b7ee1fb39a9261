"""The CPython float premises that the docstring proofs in ``src/`` use.

Each test pins one premise on the running interpreter, in bits, and
names the code that rests on it, so that a version whose floats behave
otherwise fails here first, by name, and not in a differential test far
from the cause. The premises were checked on CPython 3.11; a test says
where a premise is known to hold only on some versions.

The mirror runs' premises (complex ``*``, ``+``, ``abs`` and
``cmath.log`` under conjugation) are pinned in
``test_products.py::test_mirror_run_premises_hold_bit_for_bit`` and not
repeated here.
"""

import ast
import cmath
import math
import sys
from pathlib import Path

import numpy as np

import bicomplex

PLUS_ZERO = "0x0.0p+0"
MINUS_ZERO = "-0x0.0p+0"
# zeros, subnormals, the edges of the normal range, values near 1
EDGES = [0.0, 5e-324, 2.0**-1070, 2.0**-1022, 1e-300, 1e-6, 0.5, 1.0, 1.5, 2.0,
         1e6, 1e300, sys.float_info.max]


def _nonnegative(seed: int, k: int = 20_000, low: int = -1074) -> list[float]:
    """``k`` seeded finite floats ``>= +0.0`` across the float range from
    ``2**low`` up, the edges among them."""
    rng = np.random.default_rng(seed)
    drawn = np.ldexp(rng.uniform(1.0, 2.0, k), rng.integers(low, 1023, k))
    return EDGES + [x for x in drawn.tolist() if x >= 2.0**low]


def _signed(seed: int) -> list[float]:
    rng = np.random.default_rng(seed + 1)
    xs = _nonnegative(seed)
    return [x * s for x, s in zip(xs, rng.choice([-1.0, 1.0], len(xs)).tolist())] + [-0.0]


def test_equal_floats_with_equal_zero_signs_have_equal_bits():
    # seqspec._constant: a constant's components agree in every bit where
    # they compare equal and each part has the same copysign, so it is
    # one list where that test passes (no NaN: constants are finite)
    xs = _signed(1)[:400] + [-0.0, 0.0, 0.1 + 0.2, 0.30000000000000004, 3 * 0.1, 0.3]
    variants = [(x, y) for x in xs for y in (x * 1.0, x / 1.0, -(-x), x + 0.0, -x)]
    pairs = [(x, y) for x in xs for y in xs] + variants
    for x, y in pairs:
        same = x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        assert same is (x.hex() == y.hex()), (x, y)
    # the sign is the one difference that == does not see
    assert 0.0 == -0.0 and math.copysign(1.0, -0.0) != math.copysign(1.0, 0.0)


def test_a_nonnegative_float_plus_0j_is_that_float_and_plus_zero():
    # seqspec._complex: a float x of the float lane leaves it as x + 0j,
    # which is (x, +0.0) in bits for finite x >= +0.0
    for x in _nonnegative(2):
        z = x + 0j
        assert (z.real.hex(), z.imag.hex()) == (x.hex(), PLUS_ZERO), x
    # -0.0 + 0j is (+0.0, +0.0): why the float lane never holds -0.0
    z = -0.0 + 0j
    assert (z.real.hex(), z.imag.hex()) == (PLUS_ZERO, PLUS_ZERO)


def test_one_over_a_positive_real_is_the_float_reciprocal_and_plus_zero():
    # the float lane's 1/x (seqspec._inverse on floats) against the complex
    # route, core._pair_inverse's 1.0/p: _Py_c_quot of (1, 0) by (x, +0)
    # with x > 0 takes its first branch, ratio 0, and gives (1/x, +0/x);
    # here for every x whose reciprocal is finite
    for x in _nonnegative(3, low=-1022):
        if x == 0.0:
            continue
        want = ((1.0 / x).hex(), PLUS_ZERO)
        for q in (complex(1.0, 0.0) / complex(x, 0.0), 1.0 / complex(x, 0.0)):
            assert (q.real.hex(), q.imag.hex()) == want, x


def test_products_of_nonnegative_reals_keep_a_plus_zero_imaginary_part():
    # seqspec's float lane closes under *: (a, +0)*(b, +0) is (a*b, +0.0)
    # for a, b >= +0.0; products._product_pass relies on q*x being (a*x,
    # +0.0) for q = (a, +0.0) and a float x >= 0, whichever way CPython
    # takes the float (complex(x, 0.0) through 3.13, by parts from 3.14)
    rng = np.random.default_rng(4)
    xs = _nonnegative(4)
    ys = [xs[i] for i in rng.permutation(len(xs)).tolist()]
    for a, b in [(a, b) for a in EDGES for b in EDGES] + list(zip(xs, ys)):
        want = ((a * b).hex(), PLUS_ZERO)
        for z in (complex(a, 0.0) * complex(b, 0.0), complex(a, 0.0) * b):
            assert (z.real.hex(), z.imag.hex()) == want, (a, b)
    # two negative reals give a -0.0 imaginary part: why a difference,
    # which can be negative, leaves the float lane
    assert complex(-2.0, 0.0) * complex(-3.0, 0.0) == 6.0
    assert (complex(-2.0, 0.0) * complex(-3.0, 0.0)).imag.hex() == MINUS_ZERO


def test_hypot_is_never_below_the_modulus_of_either_part():
    # the premise of an exact window pre-test on complex sums: a pair whose
    # real parts, as computed, differ by tol or more has a computed abs of
    # at least that, as complex subtraction works per part
    rng = np.random.default_rng(5)
    xs = _signed(5)
    ys = [xs[i] for i in rng.permutation(len(xs)).tolist()]
    for x, y in [(x, y) for x in EDGES for y in EDGES] + list(zip(xs, ys)):
        assert math.hypot(x, y) >= abs(x) and math.hypot(x, y) >= abs(y), (x, y)
        try:
            m = abs(complex(x, y))
        except OverflowError:
            continue  # past the float range: abs raises, and no bound is formed
        assert m >= abs(x) and m >= abs(y), (x, y)


def test_log_of_a_negative_real_takes_the_sign_of_its_zero_part():
    # products._Identity reads log(q) bit for bit: on the negative real
    # axis the sign of a zero imaginary part turns into +pi or -pi, which
    # is why _product_pass leaves the identity out of mirror runs, whose
    # values agree with the per-term ones only up to zero signs
    for x in [-x for x in _nonnegative(6)[1:]]:
        up, down = cmath.log(complex(x, 0.0)), cmath.log(complex(x, -0.0))
        assert (up.imag, down.imag) == (math.pi, -math.pi), x
        assert up.real.hex() == down.real.hex(), x


def _sum_calls(source: str) -> list[tuple[str, str]]:
    """``(enclosing qualified name, call text)`` of each call of the name
    ``sum`` in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "sum"):
                found.append((scope, ast.unparse(child)))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_no_pass_forms_a_total_with_sum():
    # from 3.12, sum of floats compensates its rounding, so a total formed
    # with it would move bits between versions; the passes add term by
    # term with + (series._partials, the per-term pushes). The two calls
    # left form no total: a finiteness gate that only picks the route, as
    # the per-term body gives the same bits, and a count of booleans, an
    # exact integer
    package = Path(bicomplex.__file__).parent
    found = {path.name: _sum_calls(path.read_text()) for path in package.glob("*.py")}
    assert {name: calls for name, calls in found.items() if calls} == {"products.py": [
        ("_Identity.screen", "sum(dens)"),
        ("_Identity.screen",
         "sum(map(or_, map(ne, r1s, [o1, *r1s[:-1]]), map(ne, r2s, [o2, *r2s[:-1]])))"),
    ]}
    # the scan sees calls at module level, in functions and in methods
    source = "a = sum(x)\ndef f():\n    return sum(y)\nclass C:\n    def g(self):\n        sum(z)\n"
    assert _sum_calls(source) == [("", "sum(x)"), ("C.g", "sum(z)"), ("f", "sum(y)")]
