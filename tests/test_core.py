import cmath
import math

import numpy as np
import pytest

from bicomplex import (
    E1,
    E2,
    I1,
    I2,
    J,
    ONE,
    ZERO,
    Bicomplex,
    Duplex,
    NonFiniteError,
    SingularOperand,
    log_principal,
)
from bicomplex import seqspec
from bicomplex.core import (
    _each,
    _join,
    _none_singular,
    _pair_inverse,
    _pair_zero_divisor_test,
    _split,
)
from bicomplex.seqspec import Pow, Var
from bicomplex.transcendental import log_branch, log_principal_direct, sqrt, trig_form
from helpers import (
    assert_close,
    gauss_bicomplex,
    nonsingular_bicomplex,
    null_cone_bicomplex,
)
from test_transcendental import EDGE_GRID


def test_construction_and_views():
    w = Bicomplex(1 + 2j, 3 - 0.5j)
    assert w.z1 == 1 + 2j and w.z2 == 3 - 0.5j
    assert w.four_reals == (1.0, 2.0, 3.0, -0.5)
    assert Bicomplex.from_four_reals(1, 2, 3, -0.5) == w
    pair = w.idempotent()
    assert pair.p1 == w.p1 and pair.p2 == w.p2
    assert pair.reconstruct() == w
    assert Bicomplex.from_idempotent(pair.p1, pair.p2) == w


def test_immutability():
    w = Bicomplex(1.0)
    with pytest.raises(AttributeError):
        w.z1 = 2.0


def test_unit_table():
    assert I1 * I1 == Bicomplex(-1)
    assert I2 * I2 == Bicomplex(-1)
    assert J * J == ONE
    assert I1 * I2 == J
    assert I2 * I1 == J
    assert I1 * J == -I2
    assert I2 * J == -I1


def test_idempotent_laws_exact():
    assert E1 * E1 == E1
    assert E2 * E2 == E2
    assert E1 * E2 == ZERO
    assert E1 + E2 == ONE
    assert J * E1 == E1
    assert J * E2 == -E2


def test_idempotent_component_formula():
    # p1 = (x1 + x4) + i1*(x2 - x3), p2 = (x1 - x4) + i1*(x2 + x3);
    # both routes do the same float additions, so equality is exact
    rng = np.random.default_rng(7)
    for _ in range(200):
        x1, x2, x3, x4 = rng.normal(size=4)
        w = Bicomplex.from_four_reals(x1, x2, x3, x4)
        assert w.p1 == complex(x1 + x4, x2 - x3)
        assert w.p2 == complex(x1 - x4, x2 + x3)
    # == cannot tell -0.0 from 0.0, so signed zeros are pinned by repr:
    # (z1, z2) -> p1, p2, from_idempotent(p1, p2), from_idempotent(z1, z2)
    rows = [
        ((-0.0, 1.0), (2.0, 0.0), "(-0-1j)", "3j", "Bicomplex(1j, (2-0j))",
         "Bicomplex((1+0.5j), (-0.5-1j))"),
        ((0.0, -0.0), (-0.0, 0.0), "-0j", "0j", "Bicomplex(0j, 0j)", "Bicomplex(0j, 0j)"),
        ((-0.0, -0.0), (-0.0, -0.0), "(-0+0j)", "-0j", "Bicomplex(0j, 0j)",
         "Bicomplex((-0+0j), 0j)"),
        ((0.0, 0.0), (0.0, -0.0), "0j", "0j", "Bicomplex(0j, 0j)", "Bicomplex(0j, 0j)"),
        ((-0.0, 0.0), (1.0, -0.0), "(-0-1j)", "1j", "Bicomplex(0j, (1-0j))",
         "Bicomplex((0.5+0j), (-0-0.5j))"),
        ((1.0, -0.0), (-0.0, 1.0), "(2-0j)", "0j", "Bicomplex((1+0j), 1j)",
         "Bicomplex((0.5+0.5j), (0.5+0.5j))"),
    ]
    for z1, z2, p1, p2, round_trip, joined in rows:
        w = Bicomplex(complex(*z1), complex(*z2))
        assert (repr(w.p1), repr(w.p2)) == (p1, p2)
        assert repr(w.idempotent()) == f"IdempotentPair(p1={p1}, p2={p2})"
        assert repr(Bicomplex.from_idempotent(w.p1, w.p2)) == round_trip
        assert repr(Bicomplex.from_idempotent(complex(*z1), complex(*z2))) == joined


def test_conjugation_example():
    w = ONE + I1 + I2
    assert w.conj(1) == ONE - I1 + I2
    assert w.conj(2) == ONE + I1 - I2
    assert w.conj(3) == ONE - I1 - I2
    with pytest.raises(ValueError):
        w.conj(4)


def test_conjugations_are_ring_involutions():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        for kind in (1, 2, 3):
            assert a.conj(kind).conj(kind) == a
            assert_close((a + b).conj(kind), a.conj(kind) + b.conj(kind))
            assert_close((a * b).conj(kind), a.conj(kind) * b.conj(kind))


def test_ring_laws():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        c = gauss_bicomplex(rng)
        ab = a * b
        assert_close(ab, b * a)
        assert_close(ab * c, a * (b * c))
        assert_close(a * (b + c), ab + a * c, rel=1e-12)


def test_projections_are_homomorphisms():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        ab = a * b
        assert abs(ab.p1 - a.p1 * b.p1) <= 1e-12 * max(1.0, abs(a.p1 * b.p1))
        assert abs(ab.p2 - a.p2 * b.p2) <= 1e-12 * max(1.0, abs(a.p2 * b.p2))
        s = a + b
        assert abs(s.p1 - (a.p1 + b.p1)) <= 1e-15 * max(1.0, abs(s.p1))
        assert abs(s.p2 - (a.p2 + b.p2)) <= 1e-15 * max(1.0, abs(s.p2))


def test_idempotent_arithmetic_is_componentwise():
    rng = np.random.default_rng(19)
    for _ in range(500):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        prod = Bicomplex.from_idempotent(a.p1 * b.p1, a.p2 * b.p2)
        assert_close(a * b, prod)


def test_cn_multiplicative():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        lhs = (a * b).cn()
        rhs = a.cn() * b.cn()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_cn_from_definition():
    rng = np.random.default_rng(29)
    for _ in range(500):
        w = gauss_bicomplex(rng)
        direct = w.z1 * w.z1 + w.z2 * w.z2
        assert abs(w.cn() - direct) <= 1e-12 * max(1.0, abs(direct))
        # cn is the z1-part of w * conj(w, 2), whose z2-part vanishes
        prod = w * w.conj(2)
        assert abs(prod.z1 - w.cn()) <= 1e-12 * max(1.0, abs(w.cn()))
        assert abs(prod.z2) <= 1e-12 * max(1.0, abs(w) ** 2)


def test_null_cone_has_exact_zero_cn():
    rng = np.random.default_rng(31)
    for sign in (1, -1):
        for _ in range(100):
            w = null_cone_bicomplex(rng, sign)
            assert w.cn() == 0j
            assert w.is_singular().is_singular


def test_inverse_example():
    w = E1 + 2 * E2
    assert w.inverse() == Bicomplex(0.75, 0.25j)
    assert_close(w * w.inverse(), ONE)


def test_inverse_roundtrip():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        w = nonsingular_bicomplex(rng)
        assert_close(w * w.inverse(), ONE, rel=1e-12)
        assert_close(w.inverse().inverse(), w, rel=1e-11)


def test_inverse_of_singular_raises():
    rng = np.random.default_rng(41)
    for w in (ZERO, E1, E2, 3.5 * E1, null_cone_bicomplex(rng), null_cone_bicomplex(rng, -1)):
        with pytest.raises(SingularOperand):
            w.inverse()


def test_division():
    rng = np.random.default_rng(43)
    for _ in range(200):
        a = gauss_bicomplex(rng)
        b = nonsingular_bicomplex(rng)
        assert_close((a / b) * b, a, rel=1e-11)
    assert_close(1 / Bicomplex(2.0), Bicomplex(0.5))
    with pytest.raises(SingularOperand):
        ONE / E1


def _tolerance_routes(w):
    """Each public route of ``w`` that takes a zero-divisor tolerance, as
    a function of that tolerance."""
    return [
        w.is_singular,
        lambda tol: w.inverse(tol=tol),
        lambda tol: sqrt(w, tol),
        lambda tol: trig_form(w, tol),
        lambda tol: log_principal(w, tol),
        lambda tol: log_principal_direct(w, tol),
        lambda tol: log_branch(w, (1, 0), tol),
    ]


def test_nan_tolerance_is_refused():
    # a NaN tolerance would make every comparison false: nothing singular
    from bicomplex import absolute_convergence_check, evaluate_product, log_sum_equivalence

    nan = math.nan
    with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
        evaluate_product([ZERO, ONE], singularity_tol=nan)
    # the pair test itself is unchecked: every public route that takes a
    # tolerance checks it on entry, on a zero, a unit and a large value
    for p in (0j, 1 + 0j, complex(1e300, 1e300)):
        for call in _tolerance_routes(Bicomplex.from_idempotent(p, p)):
            with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
                call(nan)
    # the analyzers refuse it on entry, before any term is read
    for analyzer in (evaluate_product, absolute_convergence_check, log_sum_equivalence):
        for tol in (nan, -1.0):
            with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
                analyzer([], singularity_tol=tol)


def test_singularity_verdict_fields():
    v = Bicomplex(3.0, 4.0).is_singular()
    assert not v.is_singular
    assert v.cn_magnitude == pytest.approx(abs(complex(9 + 16)), rel=1e-12)
    assert v.tolerance_used == pytest.approx(1e-12 * 25.0)
    # |cn| equals the product of the component moduli by construction
    w = Bicomplex(1.2 - 0.7j, 0.4 + 2.2j)
    v = w.is_singular()
    pair = w.idempotent()
    assert v.cn_magnitude == pytest.approx(abs(pair.p1) * abs(pair.p2), rel=1e-15)
    assert v.min_component_modulus == pytest.approx(min(abs(pair.p1), abs(pair.p2)), rel=1e-15)


def test_singularity_threshold_scales_with_norm():
    # same relative offset from the cone, different absolute scales
    near = Bicomplex(1.0, 1j * (1.0 + 1e-13))
    assert near.is_singular().is_singular
    far = Bicomplex(1.0, 1j * (1.0 + 1e-5))
    assert not far.is_singular().is_singular
    big = 1e8 * near
    assert big.is_singular().is_singular


def test_singularity_verdict_does_not_depend_on_scale():
    near = Bicomplex(1.0, 1j * (1.0 + 1e-13))
    far = Bicomplex(1.0, 1j * (1.0 + 1e-5))
    for scale in (1e154, 1e200, 1e300):
        assert (scale * near).is_singular().is_singular
        assert not (scale * far).is_singular().is_singular
        assert not Bicomplex(scale).is_singular().is_singular
        assert not Bicomplex(scale, 0.5 * scale).is_singular().is_singular
        assert Bicomplex(scale, 1j * scale).is_singular().is_singular
    # near the largest finite values the split overflows, and such a value
    # cannot be built; from its idempotent components it can, and there
    # the moduli and their products overflow
    c = complex(1e308, 1e308)
    with pytest.raises(NonFiniteError):
        Bicomplex(c, c)
    with pytest.raises(NonFiniteError):
        Bicomplex(c, 1j * c)
    for p in (c, 1j * c, -c):
        assert not Bicomplex.from_idempotent(p, p).is_singular().is_singular
        assert not Bicomplex.from_idempotent(p, 1e-5 * p).is_singular().is_singular
        assert Bicomplex.from_idempotent(p, 1e-13 * p).is_singular().is_singular
        assert Bicomplex.from_idempotent(p, 0).is_singular().is_singular


def test_inverse_of_huge_values():
    assert Bicomplex(1e200).inverse() == Bicomplex(1e-200)
    w = Bicomplex(3e250, -4e250j)
    assert_close(w * w.inverse(), ONE, rel=1e-15)
    with pytest.raises(SingularOperand):
        Bicomplex(1e200, 1e200j).inverse()


def test_norms_example():
    w = ONE + I2
    info = w.norms()
    assert info.euclid == pytest.approx(math.sqrt(2.0))
    assert info.mod_i1_sq == pytest.approx(2.0 + 0j)
    assert info.mod_i2_sq[0] == pytest.approx(0.0)
    assert info.mod_i2_sq[1] == pytest.approx(2.0)
    assert info.mod_j_sq.x == pytest.approx(2.0)
    assert info.mod_j_sq.y == pytest.approx(0.0)


def test_norms_match_defining_products():
    rng = np.random.default_rng(47)
    for _ in range(500):
        w = gauss_bicomplex(rng)
        info = w.norms()
        scale = max(1.0, abs(w) ** 2)

        with_conj2 = w * w.conj(2)
        assert abs(with_conj2.z1 - info.mod_i1_sq) <= 1e-12 * scale

        with_conj1 = w * w.conj(1)
        assert abs(with_conj1.z1.imag) <= 1e-12 * scale
        assert abs(with_conj1.z2.imag) <= 1e-12 * scale
        assert abs(with_conj1.z1.real - info.mod_i2_sq[0]) <= 1e-12 * scale
        assert abs(with_conj1.z2.real - info.mod_i2_sq[1]) <= 1e-12 * scale

        with_conj3 = w * w.conj(3)
        assert abs(with_conj3.z1.imag) <= 1e-12 * scale
        assert abs(with_conj3.z2.real) <= 1e-12 * scale
        assert abs(with_conj3.z1.real - info.mod_j_sq.x) <= 1e-12 * scale
        assert abs(with_conj3.z2.imag - info.mod_j_sq.y) <= 1e-12 * scale

        assert info.euclid == pytest.approx(abs(w))
        assert info.mod_j_sq.x == pytest.approx(abs(w) ** 2, rel=1e-12)
        # Euclidean norm in the idempotent picture
        pair = w.idempotent()
        assert abs(w) == pytest.approx(
            math.sqrt((abs(pair.p1) ** 2 + abs(pair.p2) ** 2) / 2.0), rel=1e-12
        )


def test_norm_submultiplicative_with_sqrt2():
    rng = np.random.default_rng(53)
    factor = math.sqrt(2.0) * (1.0 + 1e-12)
    for _ in range(2000):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        assert abs(a * b) <= factor * abs(a) * abs(b)
    # sqrt(2) is attained on idempotent-aligned pairs
    assert abs(E1 * E1) == pytest.approx(math.sqrt(2.0) * abs(E1) * abs(E1))


def test_duplex_roundtrip():
    d = Duplex(1.5, -2.0)
    w = d.to_bicomplex()
    assert w == Bicomplex(1.5, -2j)
    assert Duplex.from_bicomplex(w) == d
    assert_close(w * w, Duplex(1.5**2 + 2.0**2, 2 * 1.5 * -2.0).to_bicomplex())
    with pytest.raises(ValueError):
        Duplex.from_bicomplex(I1)


def test_scalar_coercion():
    w = Bicomplex(1.0, 2.0)
    assert 2 * w == Bicomplex(2.0, 4.0)
    assert w + 1 == Bicomplex(2.0, 2.0)
    assert 1 - w == Bicomplex(0.0, -2.0)
    assert (1 + 1j) * ONE == Bicomplex(1 + 1j)
    assert w / 2 == Bicomplex(0.5, 1.0)
    assert Duplex(0.0, 1.0) + ZERO == J


def test_operands_of_other_types_are_refused():
    w = Bicomplex(1.0, 2.0)
    for operation in (
        lambda: w + "a",
        lambda: "a" - w,
        lambda: w - "a",
        lambda: w * object(),
        lambda: w / "a",
        lambda: "a" / w,
    ):
        with pytest.raises(TypeError):
            operation()
    assert +w is w


def test_pow():
    rng = np.random.default_rng(59)
    w = gauss_bicomplex(rng)
    assert w**0 == ONE
    assert w**1 == w
    assert_close(w**3, w * w * w)
    v = nonsingular_bicomplex(rng)
    assert_close(v**-2, (v.inverse()) * (v.inverse()), rel=1e-11)
    with pytest.raises(TypeError):
        w**0.5


def _checked_power(p: complex, k: int) -> complex:
    """``p**k`` for ``k >= 0`` by square-and-multiply from 1, each product
    into the result checked for finiteness: the reference for
    ``core._power``, which checks nothing and leaves one check of the
    result to its caller."""
    r = 1 + 0j
    while k:
        if k & 1:
            r *= p
            if not cmath.isfinite(r):
                raise NonFiniteError("bicomplex components must be finite")
        k >>= 1
        if k:
            p *= p
    return r


def _reference_power(p1s, p2s, k: int) -> list:
    """The lists of ``p1**k`` and of ``p2**k`` by ``_checked_power``, a
    negative ``k`` inverting each pair first, in element order."""
    if k < 0:
        pairs = [_pair_inverse(p1, p2) for p1, p2 in zip(p1s, p2s)]
        p1s, p2s, k = [r1 for r1, _ in pairs], [r2 for _, r2 in pairs], -k
    return [_checked_power(p, k) for p in p1s] + [_checked_power(p, k) for p in p2s]


def _power_outcome(power, *args):
    try:
        values = power(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return [(v.real.hex(), v.imag.hex()) for v in values]


# moduli near 1e154, whose squares overflow, near 1e-160, whose squares
# go subnormal or to 0, and signed zeros
POWER_FAMILIES = (
    [cmath.rect(r, t) for r in (0.9e154, 1e154, 1.34e154, 1.5e154) for t in (0.0, 0.7, 2.0)]
    + [complex(-1e154, -0.0), complex(-0.0, 1.2e154)],
    [cmath.rect(r, t) for r in (1e-160, 3e-162, 1e-170) for t in (0.0, 1.1, -2.5)]
    + [complex(-1e-160, -0.0)],
    [complex(-2, -0.0), complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 2.0),
     complex(-1.0, 0.0), complex(1.5, -0.0), complex(0.5, -0.5), 1 + 0j],
)
POWER_BASES = [p for family in POWER_FAMILIES for p in family]


def test_value_powers_match_the_per_multiply_checked_loop():
    def power(p1, p2, k):
        w = Bicomplex.from_idempotent(p1, p2) ** k
        return w.p1, w.p2

    kinds = set()
    for p1 in POWER_BASES:
        for p2 in POWER_BASES:
            for k in range(-64, 65):
                got = _power_outcome(power, p1, p2, k)
                assert got == _power_outcome(_reference_power, [p1], [p2], k), (p1, p2, k)
                kinds.add(got[0] if isinstance(got, tuple) else "value")
    assert kinds == {"value", NonFiniteError, SingularOperand}


def test_block_powers_match_the_per_multiply_checked_loop():
    def compiled(p1s, p2s, k):
        r1s, r2s, _ = seqspec._pow(Pow(Var(), k), lambda ns: (p1s, p2s, None))(
            range(1, len(p1s) + 1))
        assert (r1s is r2s) == (p1s is p2s)
        return r1s + r2s

    lists = [[p] for p in POWER_BASES] + [*POWER_FAMILIES, POWER_BASES]
    for ps in lists:
        for k in range(-64, 65):
            if k >= 0:
                got = _power_outcome(seqspec._powers, ps, k, None)
                assert got == _power_outcome(_reference_power, ps, [], k), (ps, k)
            for qs in (ps, ps[::-1]):
                got = _power_outcome(compiled, ps, qs, k)
                assert got == _power_outcome(_reference_power, ps, qs, k), (ps, qs, k)


def test_eq_and_hash():
    a = Bicomplex(1 + 2j, 3j)
    b = Bicomplex.from_four_reals(1, 2, 0, 3)
    assert a == b and hash(a) == hash(b)
    assert a != Bicomplex(1 + 2j)
    assert Bicomplex(2.0) == 2 and Bicomplex(2.0) == 2.0 + 0j
    assert {a: "x"}[b] == "x"


def test_hash_agrees_with_equality_on_scalars():
    # a value with p1 == p2 equals the scalar it embeds, so hashes alike
    for x in (2, -7, 0, 2.0, -0.0, 0.0, 0.5, 1e300, 1j, 1 + 2j, -0.0j,
              complex(-0.0, -0.0), complex(3, -0.0), complex(-2.5, 1e-300)):
        w = Bicomplex(x)
        assert w == x
        assert hash(w) == hash(x), x
        assert w in {x} and x in {w}, x
    assert Bicomplex(2) in {2} and Bicomplex(1j) in {1j}
    assert Bicomplex(0.0) in {-0.0} and Bicomplex(-0.0) in {0}
    # values with two different components still hash their pair
    a = Bicomplex(1 + 2j, 3j)
    assert hash(a) == hash((a.p1, a.p2))
    assert hash(Bicomplex.from_idempotent(2, 3)) == hash((2 + 0j, 3 + 0j))


def test_duplex_equals_no_bicomplex():
    # == lifts no Duplex, as a Duplex equals no number: equality stays
    # transitive and agrees with hashing, while arithmetic still lifts it
    d, w = Duplex(1.0, 0.0), Bicomplex(1)
    assert w == 1 and d != 1
    assert d != w and w != d
    assert not d == w and not w == d
    assert d not in {w} and w not in {d}
    assert d.to_bicomplex() == w
    assert d + ZERO == w and w * d == w


def test_isclose_refuses_a_duplex_as_equality_does():
    # a value is not "close" to one it never equals: isclose raises for a
    # Duplex the TypeError it raises for any other type it cannot compare
    w = Bicomplex(1)
    for other in (Duplex(1.0, 0.0), Duplex(0.0, 1.0), "1", None):
        with pytest.raises(TypeError, match="cannot compare Bicomplex with that type"):
            w.isclose(other)
    # numbers and bicomplex values are still lifted
    assert w.isclose(1) and w.isclose(1.0 + 1e-12) and w.isclose(1 + 0j)
    assert Duplex(0.0, 1.0).to_bicomplex().isclose(J)


def test_isclose():
    a = Bicomplex(1.0, 1.0)
    assert a.isclose(a + Bicomplex(1e-12))
    assert not a.isclose(a + Bicomplex(1e-3))
    assert ZERO.isclose(Bicomplex(1e-300), abs_tol=1e-200)
    assert not Bicomplex(1e200).isclose(Bicomplex(-1e200))
    assert abs(Bicomplex(3e200, 4e200j)) == pytest.approx(5e200, rel=1e-15)
    # the squares underflow; the norm does not
    assert abs(Bicomplex(1e-170)) == 1e-170
    assert abs(Bicomplex(3e-170, 4e-170j)) == pytest.approx(5e-170, rel=1e-15)
    assert not Bicomplex(1e-170).isclose(Bicomplex(-1e-170))
    # the difference leaves the float range; the comparison does not
    assert not Bicomplex(1e308).isclose(Bicomplex(-1e308))
    assert not Bicomplex(1e308, 1e308).isclose(Bicomplex(-1e308, -1e308), rel_tol=1.0)
    assert Bicomplex(1e308).isclose(Bicomplex(-1e308), rel_tol=2.0)
    # the norms leave the float range; the comparison does not
    w = Bicomplex.from_idempotent(1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j)
    v = Bicomplex.from_idempotent(1.7e308 + 1.7e308j, 1.7e308 + 1.7e308j)
    assert abs(w) == abs(v) == math.inf
    assert not w.isclose(-w)
    assert w.isclose(w)
    assert not v.isclose(v * 0.5)
    assert v.isclose(v * 0.5, rel_tol=0.6)
    with pytest.raises(TypeError):
        a.isclose("nope")


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        Bicomplex(float("inf"))
    with pytest.raises(NonFiniteError):
        Bicomplex(0.0, complex(0, float("nan")))
    big = Bicomplex(1e200, 1e200)
    with pytest.raises(NonFiniteError):
        big * big


def test_formatting():
    assert str(J) == "0 + 0*i1 + 0*i2 + 1*j"
    assert str(Bicomplex(1.5 - 2j, 3j)) == "1.5 - 2*i1 + 0*i2 + 3*j"
    assert J.format_idempotent() == "[1 | -1]"
    assert Bicomplex(0.5, 0.25j).format_idempotent() == "[0.75 | 0.25]"
    w = Bicomplex(1 / 3, 2j / 3)
    assert w.format_four_real(3) == "0.333 + 0*i1 + 0*i2 + 0.667*j"
    assert repr(w) == f"Bicomplex({w.z1!r}, {w.z2!r})"


def test_format_idempotent_where_the_split_overflows():
    # `[inf | 0]` would not parse
    with pytest.raises(NonFiniteError):
        Bicomplex(1e308, 1e308j).format_idempotent()


def test_join_where_the_sum_of_components_overflows():
    assert Bicomplex.from_idempotent(1e308, -1e308) == Bicomplex(0.0, 1e308j)
    assert Bicomplex.from_idempotent(1e308, 1e308) == Bicomplex(1e308)
    w = Bicomplex(0.0, 1e308j)
    assert_close(trig_form(w).reconstruct(), w)
    # every finite result of the plain formula keeps its bits
    rng = np.random.default_rng(11)
    values = [0.0, -0.0, 1.0, -2.5, 1e-320, 1e300, -1e300]
    pairs = [
        (complex(*rng.choice(values, 2)), complex(*rng.choice(values, 2)))
        for _ in range(2000)
    ] + [(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))) for _ in range(2000)]
    for p1, p2 in pairs:
        plain = ((p1 + p2) / 2.0, 1j * (p1 - p2) / 2.0)
        if all(map(math.isfinite, (plain[0].real, plain[0].imag, plain[1].real, plain[1].imag))):
            assert repr(_join(p1, p2)) == repr(plain), (p1, p2)


def _pair_singular(w: Bicomplex) -> bool:
    return _pair_zero_divisor_test(*_split(w.z1, w.z2), 1e-12)[0]


def test_pair_zero_divisor_test_matches_is_singular():
    rng = np.random.default_rng(2401)
    samples = [null_cone_bicomplex(rng, sign=(-1) ** k) for k in range(5000)]
    samples += [nonsingular_bicomplex(rng) for _ in range(5000)]
    assert sum(_pair_singular(w) != w.is_singular().is_singular for w in samples) == 0
    # the edge grid, where the split is finite: the pair basis cannot
    # hold the others (376 of the 2,401)
    held = [w for w in EDGE_GRID if all(map(cmath.isfinite, _split(w.z1, w.z2)))]
    assert len(held) == 2025
    assert sum(_pair_singular(w) != w.is_singular().is_singular for w in held) == 0


def test_pair_zero_divisor_verdict_does_not_depend_on_scale():
    near = Bicomplex(1.0, 1j * (1.0 + 1e-13))
    far = Bicomplex(1.0, 1j * (1.0 + 1e-5))
    rng = np.random.default_rng(500)
    values = [near, far, Bicomplex(1.0), Bicomplex(1.0, 0.5), Bicomplex(1.0, 1j)]
    values += [nonsingular_bicomplex(rng) for _ in range(20)]
    values += [null_cone_bicomplex(rng) for _ in range(20)]
    for w in values:
        p1, p2 = _split(w.z1, w.z2)
        unscaled = _pair_zero_divisor_test(p1, p2, 1e-12)[0]
        for k in range(-500, 501):
            s = math.ldexp(1.0, k)
            scaled = Bicomplex(w.z1 * s, w.z2 * s)
            verdict = _pair_zero_divisor_test(p1 * s, p2 * s, 1e-12)[0]
            # the same verdict as the Bicomplex test on the scaled value,
            # and, where the threshold is relative, as on the value itself
            assert verdict == scaled.is_singular().is_singular, (w, k)
            if abs(w) >= 1.0 and k >= 0:
                assert verdict == unscaled, (w, k)
    assert _pair_zero_divisor_test(*_split(near.z1, near.z2), 1e-12)[0]
    assert not _pair_zero_divisor_test(*_split(far.z1, far.z2), 1e-12)[0]
    # near the largest finite values the moduli overflow
    c = complex(1e308, 1e308)
    assert not _pair_zero_divisor_test(c, c, 1e-12)[0]
    assert _pair_zero_divisor_test(c, c * 1e-300, 1e-12)[0]


def test_a_negative_tolerance_is_refused_on_both_sides_of_the_scaled_branch():
    # on equal components, on both sides of the pair test's scaled branch
    below = math.nextafter(math.sqrt(2.0**1023), 0.0)
    for x in (0j, 1 + 0j, complex(below), complex(1.5e308, 1.5e308)):
        for call in _tolerance_routes(Bicomplex.from_idempotent(x, x)):
            with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
                call(-1e-12)


def _screen_moduli(tol: float) -> list[list[float]]:
    """Groups of moduli where the zero-divisor test turns or its
    arithmetic changes: at the threshold sqrt(tol), on both sides of 1,
    squares near 2**1023, past the float range of abs (inf here),
    subnormal, and zero."""
    root = math.sqrt(tol)
    big = math.sqrt(2.0**1023)
    return [
        [root, math.nextafter(root, 0.0), math.nextafter(root, 1.0), root * (1 + 1e-9)],
        [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 0.5, 3.0],
        [big, math.nextafter(big, 0.0), math.nextafter(big, math.inf), 2.0**511, 1e300],
        [math.inf],
        [5e-324, 1e-310, 2.0**-1060, 1e-160],
        [0.0],
    ]


def _screen_value(rng, modulus: float) -> complex:
    """A value of about that modulus; inf stands for a value whose abs
    overflows, a few on the real or imaginary axis keep the modulus
    exact."""
    if modulus == math.inf:
        return complex(1.5e308, -1.5e308) if rng.random() < 0.5 else complex(1.7e308, 1e308)
    kind = rng.integers(0, 3)
    if kind == 0:
        return complex(modulus, 0.0)
    if kind == 1:
        return complex(0.0, -modulus)
    return cmath.rect(modulus, float(rng.uniform(-math.pi, math.pi)))


def _screen_block(rng, groups, size: int) -> list[complex]:
    chosen = [groups[i] for i in rng.choice(len(groups), size=int(rng.integers(1, 3)))]
    pool = [m for group in chosen for m in group]
    return [_screen_value(rng, pool[rng.integers(0, len(pool))]) for _ in range(size)]


def test_block_zero_divisor_screens_against_the_tests():
    # the one block screen reads the lane: on one list it is exact below a
    # tolerance of 1, and from 1 on, where the test finds every (p, p)
    # singular, it clears no block; on two lists it may refuse a block the
    # per-element test passes, never the reverse
    rng = np.random.default_rng(2020)
    for tol in (1e-12, 1e-6, 0.5, 1.0, 2.0):
        groups = _screen_moduli(tol)
        scalar_outcomes = set()
        pair_cleared = pair_refused = 0
        for _ in range(1000):
            size = int(rng.integers(1, 9))
            ps = _screen_block(rng, groups, size)
            every = not any(_pair_zero_divisor_test(p, p, tol)[0] for p in ps)
            assert _none_singular(ps, ps, tol) == every, (ps, tol)
            scalar_outcomes.add(every)

            p1s, p2s = _screen_block(rng, groups, size), _screen_block(rng, groups, size)
            if _none_singular(p1s, p2s, tol):
                pair_cleared += 1
                assert not any(
                    _pair_zero_divisor_test(a, b, tol)[0] for a, b in zip(p1s, p2s)
                ), (p1s, p2s, tol)
            else:
                pair_refused += 1
        if tol < 1.0:
            # both outcomes are reached below 1
            assert scalar_outcomes == {True, False}, tol
            assert pair_cleared > 20 and pair_refused > 20, (tol, pair_cleared, pair_refused)
        else:
            assert scalar_outcomes == {False}, tol
    # 2 is singular at a tolerance of 2, as one list and as two
    assert _pair_zero_divisor_test(2 + 0j, 2 + 0j, 2.0)[0]
    for ps in ([2 + 0j], [2 + 0j] * 20):
        assert not _none_singular(ps, ps, 2.0) and not _none_singular(ps, list(ps), 2.0)


def test_each_calls_once_on_one_list_and_first_on_the_first_list():
    calls = []

    def f(xs):
        calls.append(xs)
        if not xs:
            raise OverflowError("empty")
        return [2.0 * x for x in xs]

    # one list: one call, one result object for both components
    xs = [1.0, 2.5]
    r1s, r2s = _each(f, xs, xs)
    assert len(calls) == 1 and calls[0] is xs
    assert r1s is r2s and r1s == [2.0, 5.0]
    # a pair, equal lists too: p1s, then p2s, two results
    for ys in ([3.0], list(xs)):
        calls.clear()
        r1s, r2s = _each(f, xs, ys)
        assert len(calls) == 2 and calls[0] is xs and calls[1] is ys
        assert r1s == [2.0, 5.0] and r2s == [2.0 * y for y in ys] and r2s is not r1s
    # the first list's error comes first, with no call on the second
    calls.clear()
    with pytest.raises(OverflowError):
        _each(f, [], [])
    with pytest.raises(OverflowError):
        _each(f, [], xs)
    assert calls == [[], []]


def test_negation_keeps_zero_parts_positive():
    # 0j - p: a zero part becomes +0.0, every other part flips exactly
    for w in (Bicomplex(1.73), Bicomplex(0.0), Bicomplex(-0.0, -0.0), I1, J,
              Bicomplex.from_idempotent(complex(2, -0.0), complex(-0.0, 3))):
        neg = -w
        for before, after in zip((w.p1, w.p2), (neg.p1, neg.p2)):
            for x, y in ((before.real, after.real), (before.imag, after.imag)):
                if x == 0.0:
                    assert math.copysign(1.0, y) == 1.0 and y == 0.0
                else:
                    assert y == -x
    assert (-Bicomplex(-1.73)).p1.imag == 0.0
    assert log_principal(-Bicomplex(1.73)).p1.imag == math.pi
