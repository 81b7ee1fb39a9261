"""Exponential, logarithm branches, square root, and trigonometric form.

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
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    SINGULARITY_TOLERANCE,
    Bicomplex,
    NonFiniteError,
    SingularOperand,
    _isfinite,
    _split,
    _unit_scale,
    _zero_divisor_test,
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
    "exp_lattice_coords",
]

TWO_PI = 2.0 * cmath.pi

# log1p switches from the power series to the closed form at this norm.
_SERIES_RADIUS = 0.25
_SERIES_STOP = 1e-17
_SERIES_MAX_TERMS = 64


class BranchIndex(NamedTuple):
    """Branch of the logarithm: the principal value shifted by
    ``2*pi*(m*i1 + n*i2)``."""

    m: int
    n: int


@dataclass(frozen=True)
class TrigForm:
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


def _invertible_split(w: Bicomplex, tol: float, what: str) -> tuple[complex, complex]:
    """``w``'s idempotent components; SingularOperand on a zero divisor."""
    p1, p2 = _split(w.z1, w.z2)
    if _zero_divisor_test(w.z1, w.z2, p1, p2, tol)[0]:
        raise SingularOperand(f"{what} requires an invertible value")
    return p1, p2


# The componentwise functions on idempotent components, shared by the
# functions below and by compiled terms (seqspec). log and sqrt expect
# an invertible argument; their callers test that first.


def _exp_pair(p1: complex, p2: complex) -> tuple[complex, complex]:
    try:
        return cmath.exp(p1), cmath.exp(p2)
    except (OverflowError, ValueError) as err:
        # ValueError: the split of a value near the float limit has an infinite part
        raise NonFiniteError(f"exp overflow: {err}") from None


def _log_pair(p1: complex, p2: complex) -> tuple[complex, complex]:
    return cmath.log(p1), cmath.log(p2)


def _sqrt_pair(p1: complex, p2: complex) -> tuple[complex, complex]:
    return cmath.sqrt(p1), cmath.sqrt(p2)


def exp(w: Bicomplex) -> Bicomplex:
    """Bicomplex exponential, computed componentwise.

    Never lands on the null cone (both components of the result are
    nonzero). Raises NonFiniteError on overflow.
    """
    return Bicomplex.from_idempotent(*_exp_pair(*_split(w.z1, w.z2)))


def sqrt(w: Bicomplex, tol: float = SINGULARITY_TOLERANCE) -> Bicomplex:
    """Principal square root, componentwise.

    Restricted to invertible values so the principal choice is stable;
    raises SingularOperand on the null cone.
    """
    return Bicomplex.from_idempotent(*_sqrt_pair(*_invertible_split(w, tol, "square root")))


def trig_form(w: Bicomplex, tol: float = SINGULARITY_TOLERANCE) -> TrigForm:
    """Complex modulus and argument of an invertible value.

    The modulus is the principal square root of cn(w); the angle is
    recovered from the second idempotent component, ``p2 = r_c *
    exp(i1*theta)``, so that reconstruct() is exact up to rounding.
    Where ``p1*p2`` overflows, r_c is ``sqrt(cn(s*w))/s`` for a power of
    two ``s``; raises NonFiniteError where the split itself does.
    """
    p1, p2 = _invertible_split(w, tol, "trigonometric form")
    s = 1.0
    if not _isfinite(p1 * p2):
        if not (_isfinite(p1) and _isfinite(p2)):
            raise NonFiniteError("trigonometric form: the idempotent split overflows")
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
    return Bicomplex.from_idempotent(*_log_pair(*_invertible_split(w, tol, "logarithm")))


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
    ``2*pi*(m*i1 + n*i2)``."""
    m, n = branch
    base = log_principal(w, tol)
    return Bicomplex(base.z1 + complex(0.0, TWO_PI * m), base.z2 + TWO_PI * n)


def log1p(w: Bicomplex) -> Bicomplex:
    """``log(1 + w)`` on the branch that agrees with the power series.

    For small ``w`` (Euclidean norm below 0.25) the alternating series
    ``w - w**2/2 + w**3/3 - ...`` is summed componentwise, preserving
    relative accuracy when ``1 + w`` would round away low bits. Beyond
    that radius this equals log_principal(1 + w), which is used
    directly; SingularOperand propagates when 1 + w is a zero divisor.
    """
    if abs(w) < _SERIES_RADIUS:
        u1, u2 = _split(w.z1, w.z2)
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
    return log_principal(Bicomplex(w.z1 + 1.0, w.z2))


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
    p1, p2 = _split(d.z1, d.z2)
    return (p1 / scale, p2 / scale)
