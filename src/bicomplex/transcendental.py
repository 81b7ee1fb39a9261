"""Exponential, logarithm branches, square root, trig form, log1p norm check.

All functions act componentwise over the idempotent basis: for
``w = p1*e1 + p2*e2`` and a complex function f, the bicomplex extension
is ``f(p1)*e1 + f(p2)*e2``. For exp this reproduces the Euler-style
closed form ``exp(z1) * (cos(z2) + i2*sin(z2))``, which the test suite
checks as an identity rather than using as the computation route.

The exponential is periodic: exp(w + d) == exp(w) exactly when both
idempotent components of d are integer multiples of 2*pi*i1. The
sublattice generated by 2*pi*i1 and 2*pi*i2 (components shifted by equal
and opposite multiples) indexes the logarithm branches exposed here; the
full period lattice is twice as fine, which is why
:func:`exp_lattice_coords` reports componentwise coordinates.
"""

from __future__ import annotations

import cmath
import operator
from collections import namedtuple

from .core import (
    SINGULARITY_TOLERANCE,
    Bicomplex,
    NonFiniteError,
    SingularOperand,
    _coerce,
    _pair_zero_divisor_test,
    _Record,
    _unit_scale,
)

__all__ = [
    "BranchIndex",
    "TrigForm",
    "exp",
    "sqrt",
    "trig_form",
    "log_principal",
    "log_principal_direct",
    "log_branch",
    "log1p",
    "BoundCheck",
    "log_bound_check",
    "exp_lattice_coords",
]

TWO_PI = 2.0 * cmath.pi
# the largest |m - n| and |m + n| that log_branch takes
_BRANCH_LIMIT = 2**30

# log1p switches from the power series to the closed form at this norm.
_SERIES_RADIUS = 0.25
_SERIES_STOP = 1e-17
_SERIES_MAX_TERMS = 64


class BranchIndex(namedtuple("BranchIndex", "m n")):
    """Branch of the logarithm: the principal value shifted by
    ``2*pi*(m*i1 + n*i2)``, for integers m and n."""

    __slots__ = ()


class TrigForm(_Record):
    """Polar-style decomposition ``w = r_c * (cos(theta) + i2*sin(theta))``.

    r_c      -- principal complex square root of cn(w) (nonnegative real
                part; on the cut, nonnegative imaginary part)
    theta_c0 -- complex angle, normalized so its real part lies in
                (-pi, pi]
    """

    r_c: complex
    theta_c0: complex

    def reconstruct(self) -> Bicomplex:
        """Rebuild the value via the idempotent route
        ``r_c * exp(i2 * theta)``."""
        t = 1j * self.theta_c0
        return Bicomplex.from_idempotent(
            self.r_c * cmath.exp(-t), self.r_c * cmath.exp(t)
        )


def _invertible_pair(p1: complex, p2: complex, tol: float, what: str) -> tuple[complex, complex]:
    """``(p1, p2)`` unchanged, or SingularOperand ("``what`` requires an
    invertible value") when the pair is a zero divisor within ``tol``."""
    if _pair_zero_divisor_test(p1, p2, tol)[0]:
        raise _not_invertible(what)
    return p1, p2


def _not_invertible(what: str) -> SingularOperand:
    return SingularOperand(f"{what} requires an invertible value")


def _exp(p: complex) -> complex:
    """exp of one idempotent component, shared with compiled terms."""
    try:
        return cmath.exp(p)
    except OverflowError as err:
        raise NonFiniteError(f"exp overflow: {err}") from None


def exp(w: Bicomplex) -> Bicomplex:
    """Bicomplex exponential, computed componentwise.

    Never lands on the null cone (both components of the result are
    nonzero). Raises NonFiniteError on overflow.
    """
    return Bicomplex._make(_exp(w.p1), _exp(w.p2))


def sqrt(w: Bicomplex, tol: float = SINGULARITY_TOLERANCE) -> Bicomplex:
    """Principal square root, componentwise.

    Restricted to invertible values so the principal choice is stable;
    raises SingularOperand on the null cone.
    """
    return Bicomplex._make(*map(cmath.sqrt, _invertible_pair(w.p1, w.p2, tol, "square root")))


def trig_form(w: Bicomplex, tol: float = SINGULARITY_TOLERANCE) -> TrigForm:
    """Complex modulus and argument of an invertible value.

    The modulus is the principal square root of cn(w); the angle is
    recovered from the second idempotent component, ``p2 = r_c *
    exp(i1*theta)``, so that reconstruct() is exact up to rounding.
    Where ``p1*p2`` overflows, r_c is ``sqrt(cn(s*w))/s`` for a power of
    two ``s``.
    """
    p1, p2 = _invertible_pair(w.p1, w.p2, tol, "trigonometric form")
    s = 1.0
    if not cmath.isfinite(p1 * p2):
        # work on s*w, for the power of two s that keeps cn(s*w) finite
        s = _unit_scale(p1, p2)
        p1 = complex(p1.real * s, p1.imag * s)
        p2 = complex(p2.real * s, p2.imag * s)
    r = cmath.sqrt(p1 * p2)
    theta = -1j * cmath.log(p2 / r)
    return TrigForm(r_c=complex(r.real / s, r.imag / s), theta_c0=theta)


def log_principal(w: Bicomplex, tol: float = SINGULARITY_TOLERANCE) -> Bicomplex:
    """Principal logarithm: componentwise principal complex log.

    Inverse of exp up to the period lattice; raises SingularOperand on
    the null cone, where no logarithm exists.
    """
    return Bicomplex._make(*map(cmath.log, _invertible_pair(w.p1, w.p2, tol, "logarithm")))


def log_principal_direct(w: Bicomplex, tol: float = SINGULARITY_TOLERANCE) -> Bicomplex:
    """Cross-check route for the principal log via modulus and argument.

    Returns ``log(r_c) + i2*theta_c0`` from :func:`trig_form`. Always a
    valid logarithm (exp of the result reproduces ``w``), but it agrees
    with :func:`log_principal` only when the principal arguments of the
    two idempotent components sum to a value in (-pi, pi]; outside that
    set the two routes differ by a half-period of exp (an odd multiple
    of pi*i1 plus/minus pi*i2). :func:`log_principal` is the canonical
    branch; this exists for validation.
    """
    form = trig_form(w, tol)
    return Bicomplex(cmath.log(form.r_c), form.theta_c0)


def log_branch(
    w: Bicomplex,
    branch: BranchIndex | tuple[int, int] = (0, 0),
    tol: float = SINGULARITY_TOLERANCE,
) -> Bicomplex:
    """Logarithm on the (m, n) branch: principal value plus
    ``2*pi*(m*i1 + n*i2)``, for integers m and n (TypeError otherwise).

    The shift has the idempotent components ``2*pi*i1*(m - n)`` and
    ``2*pi*i1*(m + n)``, computed as floats. Their error, mostly
    ``|m ± n|`` times that of ``TWO_PI`` (-2.45e-16) plus half the float
    spacing at the shift, grows with the index: the largest component
    relative error of ``exp(log_branch(Bicomplex(2, 1), (k, -k)))`` is
    3.6e-7 at k = 2**28, 9.1e-6 at 2**36 and 2.2e-4 at 2**40, and near
    2**50 the result is no logarithm at all. So both ``|m - n|`` and
    ``|m + n|`` must be at most ``2**30`` (the error there is below
    1e-6); past that this raises NonFiniteError.
    """
    m, n = map(operator.index, branch)
    if abs(m - n) > _BRANCH_LIMIT or abs(m + n) > _BRANCH_LIMIT:
        raise NonFiniteError(
            "branch index is past the precision limit: |m - n| and |m + n| must be at most 2**30"
        )
    base = log_principal(w, tol)
    shift1, shift2 = TWO_PI * (m - n), TWO_PI * (m + n)
    return Bicomplex._make(base.p1 + complex(0.0, shift1), base.p2 + complex(0.0, shift2))


def log1p(w: Bicomplex) -> Bicomplex:
    """``log(1 + w)`` on the branch that agrees with the power series.

    For small ``w`` (Euclidean norm below 0.25) the alternating series
    ``w - w**2/2 + w**3/3 - ...`` is summed componentwise, preserving
    relative accuracy when ``1 + w`` would round away low bits. Beyond
    that radius this equals log_principal(1 + w), which is used
    directly; SingularOperand propagates when 1 + w is a zero divisor.
    """
    if abs(w) < _SERIES_RADIUS:
        u1, u2 = w.p1, w.p2
        acc1 = t1 = u1
        acc2 = t2 = u2
        sign = -1.0
        for k in range(2, _SERIES_MAX_TERMS + 1):
            t1 *= u1
            t2 *= u2
            acc1 += sign * t1 / k
            acc2 += sign * t2 / k
            sign = -sign
            if (abs(t1) ** 2 + abs(t2) ** 2) <= (
                _SERIES_STOP * _SERIES_STOP * (abs(acc1) ** 2 + abs(acc2) ** 2)
            ):
                break
        return Bicomplex.from_idempotent(acc1, acc2)
    return log_principal(w + 1.0)


class BoundCheck(_Record):
    norm: float
    log_norm: float
    ratio: float
    lower_ok: bool
    upper_ok: bool


def log_bound_check(w) -> BoundCheck:
    """Test the two-sided comparison between ||log(1+w)|| and ||w||.

    Requires ||w|| < 1/2 (ValueError otherwise). Checks
    (1/2)*||w|| <= ||log(1+w)|| <= (3/2)*||w||. The lower comparison
    holds throughout the half-ball. The upper one can fail near the
    outer edge: an idempotent component of modulus up to sqrt(2)*||w||
    can push the componentwise ratio toward -log(1-r)/r, which crosses
    3/2 once a component modulus exceeds about 0.583. The hypothesis
    under which both comparisons hold is that of the complex lemma on
    each component: both idempotent moduli below 1/2. Since each is at
    most sqrt(2)*||w||, ||w|| < 1/(2*sqrt(2)) implies it; so does
    ||w|| <= 0.41. On the whole half-ball the sharp ceiling is
    ratio <= f(max(|p1|, |p2|)) with f(s) = -log(1-s)/s, at most
    -sqrt(2)*log(1 - 1/sqrt(2)) ~= 1.7366. The booleans report what was
    actually measured.
    """
    value = _coerce(w)
    if value is None:
        raise TypeError(f"cannot interpret argument as Bicomplex: {w!r}")
    norm = abs(value)
    if not norm < 0.5:
        raise ValueError("log_bound_check requires Euclidean norm < 1/2")
    if norm == 0.0:
        return BoundCheck(norm=0.0, log_norm=0.0, ratio=1.0, lower_ok=True, upper_ok=True)
    log_norm = abs(log1p(value))
    ratio = log_norm / norm
    return BoundCheck(
        norm=norm,
        log_norm=log_norm,
        ratio=ratio,
        lower_ok=ratio >= 0.5,
        upper_ok=ratio <= 1.5,
    )


def exp_lattice_coords(d: Bicomplex) -> tuple[complex, complex]:
    """Coordinates of ``d`` over the period lattice of exp.

    The exponential is invariant under shifting either idempotent
    component by 2*pi*i1 independently, so a difference of two
    logarithms of the same value has componentwise coordinates
    ``(p1/(2*pi*i1), p2/(2*pi*i1))`` that are (numerically) real
    integers. Integer pairs of equal parity correspond to the
    ``2*pi*(m*i1 + n*i2)`` sublattice with ``m = (a+b)/2, n = (b-a)/2``.
    """
    scale = complex(0.0, TWO_PI)
    return (d.p1 / scale, d.p2 / scale)
