import cmath
import itertools
import math

import numpy as np
import pytest

from bicomplex import (
    I1,
    I2,
    J,
    ONE,
    E1,
    ZERO,
    Bicomplex,
    NonFiniteError,
    SingularOperand,
    exp,
    exp_lattice_coords,
    log1p,
    log_branch,
    log_principal,
    log_principal_direct,
    sqrt,
    trig_form,
)
from helpers import (
    assert_close,
    ball_bicomplex,
    gauss_bicomplex,
    nonsingular_bicomplex,
)

PI = math.pi


def test_exp_zero_is_one_exact():
    assert exp(ZERO) == ONE


def test_exp_i2_pi_is_minus_one():
    assert abs(exp(I2 * PI) - (-ONE)) < 1e-12


def test_exp_closed_form():
    # exp(z1 + i2*z2) = exp(z1)*(cos(z2) + i2*sin(z2)), all complex-valued
    rng = np.random.default_rng(101)
    for _ in range(500):
        w = gauss_bicomplex(rng, 1.5)
        e = cmath.exp(w.z1)
        expected = Bicomplex(e * cmath.cos(w.z2), e * cmath.sin(w.z2))
        assert_close(exp(w), expected, rel=1e-12)


def test_exp_is_additive():
    rng = np.random.default_rng(103)
    for _ in range(300):
        a = gauss_bicomplex(rng)
        b = gauss_bicomplex(rng)
        assert_close(exp(a + b), exp(a) * exp(b), rel=1e-11)


def test_exp_periodicity():
    rng = np.random.default_rng(107)
    for _ in range(300):
        w = gauss_bicomplex(rng, 1.5)
        m = int(rng.integers(-3, 4))
        n = int(rng.integers(-3, 4))
        shift = 2 * PI * (m * I1 + n * I2)
        assert_close(exp(w + shift), exp(w), rel=1e-10)


def test_exp_never_singular():
    rng = np.random.default_rng(109)
    for _ in range(300):
        w = gauss_bicomplex(rng, 2.0)
        assert not exp(w).is_singular().is_singular


def test_exp_overflow_raises():
    with pytest.raises(NonFiniteError):
        exp(Bicomplex(1000.0))


def test_log_principal_example():
    assert_close(log_principal(J), Bicomplex(complex(0, PI / 2), PI / 2))
    assert_close(log_principal(Bicomplex(math.e)), ONE)
    assert_close(exp(log_principal(J)), J)


def test_log_principal_roundtrip():
    rng = np.random.default_rng(113)
    for _ in range(500):
        w = nonsingular_bicomplex(rng)
        assert_close(exp(log_principal(w)), w, rel=1e-12)


def test_log_principal_of_singular_raises():
    for w in (ZERO, E1, 2.5 * E1):
        with pytest.raises(SingularOperand):
            log_principal(w)


def test_log_of_exp_lands_on_lattice():
    rng = np.random.default_rng(127)
    for _ in range(500):
        w = gauss_bicomplex(rng, 2.5)
        d = log_principal(exp(w)) - w
        a, b = exp_lattice_coords(d)
        assert abs(a.imag) < 1e-8 and abs(b.imag) < 1e-8
        assert abs(a.real - round(a.real)) < 1e-8
        assert abs(b.real - round(b.real)) < 1e-8


def test_lattice_coords_recover_exact_shifts():
    rng = np.random.default_rng(131)
    for _ in range(200):
        a = int(rng.integers(-5, 6))
        b = int(rng.integers(-5, 6))
        d = Bicomplex.from_idempotent(complex(0, 2 * PI * a), complex(0, 2 * PI * b))
        ca, cb = exp_lattice_coords(d)
        assert round(ca.real) == a and round(cb.real) == b
        assert abs(ca - a) < 1e-12 and abs(cb - b) < 1e-12


def test_log_branch_roundtrip_and_shift():
    rng = np.random.default_rng(137)
    for _ in range(300):
        w = nonsingular_bicomplex(rng)
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        lb = log_branch(w, (m, n))
        assert_close(exp(lb), w, rel=1e-10)
        shift = lb - log_principal(w)
        expected = Bicomplex(complex(0, 2 * PI * m), 2 * PI * n)
        assert_close(shift, expected, rel=1e-12, abs_tol=1e-12)
    assert log_branch(ONE, (0, 0)) == log_principal(ONE)


PRECISION_LIMIT = (
    r"branch index is past the precision limit: \|m - n\| and \|m \+ n\| must be at most 2\*\*30"
)


def test_log_branch_takes_integer_indices_within_the_float_range():
    w = Bicomplex(2, 1)
    # a half-integer index gave a value whose exp is -w
    with pytest.raises(TypeError):
        log_branch(w, (0.5, 0))
    assert log_branch(w, (np.int64(1), np.int32(-2))) == log_branch(w, (1, -2))
    # the shift 2*pi*(m -/+ n) past the float range: an int too large for
    # a float, or a float product that overflows; both are far past the
    # precision limit
    for branch in [(10**400, 0), (0, -(10**400)), (2**1023, 2**1023), (10**308, 0)]:
        with pytest.raises(NonFiniteError, match=f"^{PRECISION_LIMIT}$"):
            log_branch(w, branch)


def _round_trip_error(w, branch) -> float:
    v = exp(log_branch(w, branch))
    return max(abs(v.p1 - w.p1) / abs(w.p1), abs(v.p2 - w.p2) / abs(w.p2))


def test_log_branch_stops_at_the_precision_limit():
    w = Bicomplex(2, 1)
    k = 2**29
    # |m - n| or |m + n| at 2**30: the round trip is still within 1e-6
    for branch in [(k, -k), (-k, k), (2**30, 0), (0, -(2**30)), (k, k), (k + 5, k - 5)]:
        assert _round_trip_error(w, branch) < 1e-6, branch
    # one past it, on either side, and far past it, where the index
    # still fits a float (2**53) but the value is no logarithm
    for branch in [(k + 1, -k), (-k, k + 1), (2**30 + 1, 0), (0, 2**30 + 1), (k, k + 1),
                   (2**53, -(2**53)), (2**40, 0)]:
        with pytest.raises(NonFiniteError, match=f"^{PRECISION_LIMIT}$"):
            log_branch(w, branch)


def test_log_principal_direct_is_a_logarithm():
    rng = np.random.default_rng(139)
    for _ in range(500):
        w = nonsingular_bicomplex(rng)
        assert_close(exp(log_principal_direct(w)), w, rel=1e-10)


def test_log_principal_direct_agreement_region():
    # when the principal component arguments sum into (-pi, pi], both
    # routes produce the same value
    rng = np.random.default_rng(149)
    checked = 0
    for _ in range(800):
        w = nonsingular_bicomplex(rng)
        pair = w.idempotent()
        s = cmath.phase(pair.p1) + cmath.phase(pair.p2)
        if not (-PI + 0.1 < s <= PI - 0.1):
            continue
        checked += 1
        assert_close(log_principal_direct(w), log_principal(w), rel=1e-10)
    assert checked > 100


def test_log_principal_direct_wrap_offset():
    # argument sum beyond pi: the direct route lands a full period away
    # in one component
    w = Bicomplex.from_idempotent(cmath.exp(2.8j), cmath.exp(3.0j))
    diff = log_principal(w) - log_principal_direct(w)
    a, b = exp_lattice_coords(diff)
    assert (round(a.real), round(b.real)) == (0, 1)
    assert abs(a) < 1e-12 and abs(b - 1) < 1e-12


def test_trig_form_examples():
    form = trig_form(I2)
    assert abs(form.r_c - 1.0) < 1e-12
    assert abs(form.theta_c0 - PI / 2) < 1e-12

    form = trig_form(Bicomplex(3.0))
    assert abs(form.r_c - 3.0) < 1e-12
    assert abs(form.theta_c0) < 1e-12


def test_trig_form_reconstruct():
    rng = np.random.default_rng(151)
    for _ in range(500):
        w = nonsingular_bicomplex(rng)
        form = trig_form(w)
        assert_close(form.reconstruct(), w, rel=1e-10)
        assert abs(form.r_c**2 - w.cn()) <= 1e-12 * max(1.0, abs(w.cn()))
        assert -PI < form.theta_c0.real <= PI
    with pytest.raises(SingularOperand):
        trig_form(E1)


def test_sqrt():
    assert_close(sqrt(Bicomplex(4.0)), Bicomplex(2.0))
    assert_close(sqrt(Bicomplex(-1.0)), I1)
    assert_close(sqrt(J), Bicomplex.from_idempotent(1.0, 1j))
    rng = np.random.default_rng(157)
    for _ in range(500):
        w = nonsingular_bicomplex(rng)
        r = sqrt(w)
        assert_close(r * r, w, rel=1e-12)
        # principal: components in the right half plane (or on the cut)
        pair = r.idempotent()
        assert pair.p1.real >= 0 and pair.p2.real >= 0
    with pytest.raises(SingularOperand):
        sqrt(E1)


def test_log1p_matches_reference_values():
    import mpmath as mp

    rng = np.random.default_rng(163)
    with mp.workdps(50):
        for _ in range(50):
            w = ball_bicomplex(rng, 0.45)
            got = log1p(w).idempotent()
            pair = w.idempotent()
            for got_c, dev in ((got.p1, pair.p1), (got.p2, pair.p2)):
                want = mp.log1p(mp.mpc(dev.real, dev.imag))
                err = abs(mp.mpc(got_c.real, got_c.imag) - want)
                assert err <= 1e-15 * max(1.0, float(abs(want)))


def test_log1p_agrees_with_shifted_log():
    rng = np.random.default_rng(167)
    for _ in range(300):
        w = ball_bicomplex(rng, 0.24)
        if abs(w) < 0.05:
            continue
        assert_close(log1p(w), log_principal(ONE + w), rel=1e-13)


def test_log1p_tiny_arguments_keep_precision():
    rng = np.random.default_rng(173)
    for _ in range(100):
        w = 1e-12 * gauss_bicomplex(rng)
        r = log1p(w)
        # agreement with w - w^2/2 at full relative precision; forming
        # 1 + w first would lose everything past the leading term
        expansion = w - 0.5 * (w * w)
        assert abs(r - expansion) <= 1e-15 * abs(w)


def test_log1p_exp_roundtrip():
    rng = np.random.default_rng(179)
    for _ in range(300):
        w = ball_bicomplex(rng, 0.49)
        assert_close(exp(log1p(w)), ONE + w, rel=1e-12)


def test_log1p_norm_bounds_inside_safe_radius():
    # both factor-of-two-sided comparisons hold up to norm 0.41
    rng = np.random.default_rng(181)
    for _ in range(3000):
        w = ball_bicomplex(rng, 0.41)
        norm = abs(w)
        if norm == 0.0:
            continue
        ratio = abs(log1p(w)) / norm
        assert 0.5 <= ratio <= 1.5


def test_log1p_lower_bound_whole_ball():
    rng = np.random.default_rng(191)
    for _ in range(3000):
        w = ball_bicomplex(rng, 0.4999)
        norm = abs(w)
        if norm == 0.0:
            continue
        assert abs(log1p(w)) >= 0.5 * norm


def test_log1p_upper_ratio_can_cross_outside_safe_radius():
    # near the edge of the half-ball one component modulus can reach
    # sqrt(2)*0.5, where -log(1-r)/r > 3/2
    w = Bicomplex.from_idempotent(-0.6, 0.1)
    assert abs(w) < 0.5
    ratio = abs(log1p(w)) / abs(w)
    assert ratio > 1.5
    assert ratio == pytest.approx(1.5145, abs=1e-3)


def _finite_result(f, *args):
    """``f(*args)``, or None when it raises one of the library's errors."""
    try:
        return f(*args)
    except (SingularOperand, NonFiniteError):
        return None


# every four-real value over these coordinates whose idempotent split is
# finite, so that it can be built: squares, products and moduli leave the
# float range in all the ways they can
EDGE_COORDS = list(
    itertools.product([0.0, 0.5, 1.0, 1e154, 1e200, 1e308, -1e308], repeat=4)
)
EDGE_VALUES = [_finite_result(Bicomplex.from_four_reals, *xs) for xs in EDGE_COORDS]
EDGE_GRID = [w for w in EDGE_VALUES if w is not None]


def test_float_edge_raises_only_library_errors():
    assert len(EDGE_GRID) == 2025
    # the split of each of the other 376 overflows, and building it raises
    unbuilt = [xs for xs, w in zip(EDGE_COORDS, EDGE_VALUES) if w is None]
    assert len(unbuilt) == 376
    for xs in unbuilt:
        with pytest.raises(NonFiniteError):
            Bicomplex.from_four_reals(*xs)
    for w in EDGE_GRID:
        info = _finite_result(Bicomplex.norms, w)
        if info is not None:
            parts = (*info.mod_i2_sq, info.mod_j_sq.x, info.mod_j_sq.y, info.euclid)
            assert cmath.isfinite(info.mod_i1_sq) and all(map(math.isfinite, parts)), w
        form = _finite_result(trig_form, w)
        if form is not None:
            assert cmath.isfinite(form.r_c) and cmath.isfinite(form.theta_c0), w
        _finite_result(log_principal_direct, w)
        _finite_result(exp, w)


def test_trig_form_where_cn_overflows():
    # p1 = 1e308 and p2 = -1e308: cn overflows, the split does not
    form = trig_form(Bicomplex(0.0, 1e308j))
    assert form.r_c == 1e308j
    assert abs(form.theta_c0 - PI / 2) < 1e-15
    log_w = log_principal_direct(Bicomplex(0.0, 1e308j))
    assert abs(log_w.z1 - complex(math.log(1e308), PI / 2)) < 1e-12
    # the split of 1e308*(1 + i1) + 1e308*i2 overflows
    with pytest.raises(NonFiniteError):
        trig_form(Bicomplex(1e308 + 1e308j, 1e308))
