"""Bicomplex numbers: pairs of complex values forming a commutative ring.

A bicomplex number is ``w = z1 + i2*z2`` where ``z1`` and ``z2`` are
ordinary complex numbers over the imaginary unit ``i1``, and ``i2`` is a
second, independent imaginary unit. The product ``j = i1*i2`` is a
hyperbolic unit (``j*j == 1``). In the four-real picture::

    w = x1 + x2*i1 + x3*i2 + x4*j

The ring is commutative but not a field: elements whose complex square
norm ``z1**2 + z2**2`` vanishes are zero divisors (the "null cone") and
have no inverse. Every element splits over the idempotent basis

    e1 = (1 + j)/2    e2 = (1 - j)/2

as ``w = p1*e1 + p2*e2`` with complex components ``p1 = z1 - i1*z2`` and
``p2 = z1 + i1*z2``; addition, multiplication, and inversion all act
componentwise in that basis, which is what makes the function theory
tractable.

Values are treated as immutable. Operations that would produce NaN or
infinity raise :class:`NonFiniteError` instead of propagating them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "Bicomplex",
    "Duplex",
    "IdempotentPair",
    "NormInfo",
    "SingularityVerdict",
    "SingularOperand",
    "NonFiniteError",
    "SINGULARITY_TOLERANCE",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "J",
    "E1",
    "E2",
]

# Default relative tolerance for the zero-divisor test.
SINGULARITY_TOLERANCE = 1e-12

_isfinite = cmath.isfinite


class SingularOperand(ArithmeticError):
    """Raised when an operation needs an invertible value but the operand
    lies on (or numerically near) the null cone of zero divisors.

    ``term_index`` is set when the operand came from an indexed sequence
    term (1-based), else None.
    """

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


class NonFiniteError(ArithmeticError):
    """Raised when an operation would produce NaN or infinite components.

    ``term_index`` is set when the failure is attributable to an indexed
    sequence term (1-based), else None.
    """

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


@dataclass(frozen=True)
class SingularityVerdict:
    """Outcome of the zero-divisor test.

    is_singular         -- True when the value is numerically a zero divisor
    cn_magnitude        -- |z1**2 + z2**2|, the tested magnitude
    tolerance_used      -- resolved absolute threshold the magnitude was
                           compared against (relative tolerance scaled by
                           max(1, squared Euclidean norm))
    min_component_modulus -- min(|p1|, |p2|) over the idempotent
                           components; the equivalent componentwise
                           smallness measure, since |CN(w)| == |p1|*|p2|
    """

    is_singular: bool
    cn_magnitude: float
    tolerance_used: float
    min_component_modulus: float


@dataclass(frozen=True)
class IdempotentPair:
    """Complex components of a bicomplex number over the basis (e1, e2)."""

    p1: complex
    p2: complex

    def reconstruct(self) -> "Bicomplex":
        """Reassemble the bicomplex number ``p1*e1 + p2*e2``."""
        return Bicomplex.from_idempotent(self.p1, self.p2)


@dataclass(frozen=True)
class Duplex:
    """Hyperbolic number ``x + y*j`` with real x, y (j*j == 1).

    The duplex plane embeds into the bicomplex ring as
    ``z1 = x, z2 = i1*y``; squared j-modulus values of bicomplex numbers
    land here.
    """

    x: float
    y: float

    def to_bicomplex(self) -> "Bicomplex":
        return Bicomplex(complex(self.x, 0.0), complex(0.0, self.y))

    @classmethod
    def from_bicomplex(cls, w: "Bicomplex") -> "Duplex":
        """Project back from an embedded duplex value.

        Raises ValueError if ``w`` has components outside the duplex
        subring (nonzero i1 or i2 parts).
        """
        if w.z1.imag != 0.0 or w.z2.real != 0.0:
            raise ValueError("value is not in the duplex subring")
        return cls(w.z1.real, w.z2.imag)


@dataclass(frozen=True)
class NormInfo:
    """The three square moduli and the Euclidean norm of one value.

    mod_i1_sq -- w * conj(w, 2), a complex number; equals cn(w)
    mod_i2_sq -- w * conj(w, 1), which lands in the span of {1, i2};
                 stored as (real part, i2 coefficient)
    mod_j_sq  -- w * conj(w, 3), a duplex number
    euclid    -- sqrt(|z1|**2 + |z2|**2), also sqrt of mod_j_sq.x
    """

    mod_i1_sq: complex
    mod_i2_sq: tuple[float, float]
    mod_j_sq: Duplex
    euclid: float


class Bicomplex:
    """An immutable bicomplex number stored as two complex components."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1: complex = 0.0, z2: complex = 0.0):
        z1 = complex(z1)
        z2 = complex(z2)
        _check_finite(z1, z2)
        _set_z1(self, z1)
        _set_z2(self, z2)

    def __setattr__(self, name, value):
        raise AttributeError("Bicomplex values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, z1: complex, z2: complex) -> "Bicomplex":
        """Trusted constructor for components that are already complex.

        Skips the coercion of ``__init__`` but keeps its finiteness check.
        """
        _check_finite(z1, z2)
        self = object.__new__(cls)
        _set_z1(self, z1)
        _set_z2(self, z2)
        return self

    @classmethod
    def from_four_reals(cls, x1: float, x2: float, x3: float, x4: float) -> "Bicomplex":
        """Build ``x1 + x2*i1 + x3*i2 + x4*j``."""
        return cls(complex(x1, x2), complex(x3, x4))

    @classmethod
    def from_idempotent(cls, p1: complex, p2: complex) -> "Bicomplex":
        """Build ``p1*e1 + p2*e2`` from complex idempotent components."""
        return cls._make(*_join(complex(p1), complex(p2)))

    # -- component views ----------------------------------------------

    @property
    def four_reals(self) -> tuple[float, float, float, float]:
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    @property
    def p1(self) -> complex:
        """First idempotent component, ``z1 - i1*z2``."""
        return _split(self.z1, self.z2)[0]

    @property
    def p2(self) -> complex:
        """Second idempotent component, ``z1 + i1*z2``."""
        return _split(self.z1, self.z2)[1]

    def idempotent(self) -> IdempotentPair:
        return IdempotentPair(*_split(self.z1, self.z2))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(self.z1 + other.z1, self.z2 + other.z2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(self.z1 - other.z1, self.z2 - other.z2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(other.z1 - self.z1, other.z2 - self.z2)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, a2, b1, b2 = self.z1, self.z2, other.z1, other.z2
        return Bicomplex._make(a1 * b1 - a2 * b2, a1 * b2 + a2 * b1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Bicomplex._make(-self.z1, -self.z2)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return Bicomplex._make(*_power_components(self.z1, self.z2, exponent))

    # -- equality and hashing -----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def isclose(self, other: "Bicomplex", rel_tol: float = 1e-9, abs_tol: float = 0.0) -> bool:
        """Approximate equality in the Euclidean metric."""
        other = _coerce(other)
        if other is None:
            raise TypeError("cannot compare Bicomplex with that type")
        d = abs(self - other)
        return d <= max(rel_tol * max(abs(self), abs(other)), abs_tol)

    # -- conjugations -------------------------------------------------

    def conj(self, kind: int) -> "Bicomplex":
        """One of the three bicomplex conjugations.

        kind 1 conjugates both complex components; kind 2 negates z2;
        kind 3 composes the two. All are ring involutions.
        """
        if kind == 1:
            return Bicomplex(self.z1.conjugate(), self.z2.conjugate())
        if kind == 2:
            return Bicomplex(self.z1, -self.z2)
        if kind == 3:
            return Bicomplex(self.z1.conjugate(), -self.z2.conjugate())
        raise ValueError(f"conjugation kind must be 1, 2 or 3, got {kind!r}")

    # -- norms and singularity ----------------------------------------

    def cn(self) -> complex:
        """Complex square norm ``z1**2 + z2**2``.

        Computed in the factored form (z1 - i1*z2)*(z1 + i1*z2), which is
        exact algebraically and avoids cancellation near the null cone.
        Multiplicative: cn(a*b) == cn(a)*cn(b).
        """
        p1, p2 = _split(self.z1, self.z2)
        return p1 * p2

    def is_singular(self, tol: float = SINGULARITY_TOLERANCE) -> SingularityVerdict:
        """Test whether the value is numerically a zero divisor.

        The magnitude |cn(w)| is compared against ``tol * max(1, ||w||**2)``
        so the test is relative at large scale and absolute near zero.
        Where ``||w||**2`` overflows, both sides are compared for the value
        scaled by a power of two, so huge values get the same verdict as
        their scaled copies.
        """
        z1, z2 = self.z1, self.z2
        return SingularityVerdict(*_zero_divisor_test(z1, z2, *_split(z1, z2), tol)[:4])

    def inverse(self, tol: float = SINGULARITY_TOLERANCE) -> "Bicomplex":
        """Multiplicative inverse ``conj(w, 2) / cn(w)``.

        Raises SingularOperand when the zero-divisor test fires.
        """
        return Bicomplex._make(*_inverse_components(self.z1, self.z2, tol))

    def norms(self) -> NormInfo:
        """All three square moduli plus the Euclidean norm.

        Each modulus is the product of the value with one of its
        conjugates; closed forms are used here and the defining products
        are exercised by the test suite. Raises NonFiniteError where a
        square modulus overflows.
        """
        z1, z2 = self.z1, self.z2
        try:
            a = abs(z1) ** 2
            b = abs(z2) ** 2
        except OverflowError:
            a = b = math.inf
        if a + b == math.inf:
            # every other part is at most a + b in modulus
            raise NonFiniteError("a square modulus overflows")
        cross = z1 * z2.conjugate()
        return NormInfo(
            mod_i1_sq=self.cn(),
            mod_i2_sq=(a - b, 2.0 * cross.real),
            mod_j_sq=Duplex(a + b, -2.0 * cross.imag),
            euclid=math.sqrt(a + b),
        )

    def __abs__(self) -> float:
        """Euclidean norm ``sqrt(|z1|**2 + |z2|**2)``."""
        z1, z2 = self.z1, self.z2
        square = _norm_sq(z1, z2)
        if square == math.inf or square < 2.0**-1022:
            # the squares overflowed or left the normal range; the norm may not
            return math.hypot(z1.real, z1.imag, z2.real, z2.imag)
        return math.sqrt(square)

    # -- rendering ----------------------------------------------------

    def format_four_real(self, digits: int | None = None) -> str:
        """Render as ``x1 + x2*i1 + x3*i2 + x4*j`` (reparseable).

        With ``digits`` the coefficients are rounded to that many
        significant digits; otherwise the shortest exact representation
        is used.
        """
        x1, x2, x3, x4 = self.four_reals
        parts = [_fmt_real(x1, digits)]
        for coeff, unit in ((x2, "i1"), (x3, "i2"), (x4, "j")):
            sign = "-" if (coeff < 0 or (coeff == 0 and math.copysign(1.0, coeff) < 0)) else "+"
            parts.append(f"{sign} {_fmt_real(abs(coeff), digits)}*{unit}")
        return " ".join(parts)

    def format_idempotent(self, digits: int | None = None) -> str:
        """Render as ``[p1 | p2]`` with complex components (reparseable).

        Raises NonFiniteError where the split overflows, which no
        reparseable text can show.
        """
        p1, p2 = _split(self.z1, self.z2)
        if not (_isfinite(p1) and _isfinite(p2)):
            raise NonFiniteError("the idempotent split overflows")
        return f"[{_fmt_complex(p1, digits)} | {_fmt_complex(p2, digits)}]"

    def __repr__(self):
        return f"Bicomplex({self.z1!r}, {self.z2!r})"

    def __str__(self):
        return self.format_four_real()


_set_z1 = Bicomplex.z1.__set__
_set_z2 = Bicomplex.z2.__set__


def _split(z1: complex, z2: complex) -> tuple[complex, complex]:
    """Idempotent components ``(p1, p2) = (z1 - i1*z2, z1 + i1*z2)``, in
    complex arithmetic: the four-real form would flip signed zeros."""
    t = 1j * z2
    return z1 - t, z1 + t


def _join(p1: complex, p2: complex) -> tuple[complex, complex]:
    """Components ``(z1, z2)`` of ``p1*e1 + p2*e2``; inverse of _split.

    Halves first only where ``p1 ± p2`` overflows, so every finite
    result of the plain formula keeps its bits.
    """
    z1, z2 = (p1 + p2) / 2.0, 1j * (p1 - p2) / 2.0
    if _isfinite(z1) and _isfinite(z2):
        return z1, z2
    h1, h2 = p1 / 2.0, p2 / 2.0
    return h1 + h2, 1j * (h1 - h2)


def _norm_sq(z1: complex, z2: complex) -> float:
    """``||w||**2``; inf or subnormal where the squares over- or underflow."""
    return z1.real * z1.real + z1.imag * z1.imag + z2.real * z2.real + z2.imag * z2.imag


def _unit_scale(a: complex, b: complex) -> float:
    """The power of two that brings the largest real coordinate of ``a``
    and ``b`` into [0.5, 1)."""
    big = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
    return math.ldexp(1.0, -math.frexp(big)[1])


def _zero_divisor_test(z1: complex, z2: complex, p1: complex, p2: complex, tol: float):
    """The zero-divisor test on raw components and their split.

    Returns ``(is_singular, cn_magnitude, tolerance_used,
    min_component_modulus, scaled)``, the first four as in
    :class:`SingularityVerdict`. ``scaled`` is None, or, where ``||w||**2``
    or ``|p1|*|p2|`` overflows, ``(scale, s1, s2, cn(s))``: ``s_k =
    scale*z_k`` for the power of two ``scale`` that brings the largest
    real coordinate into [0.5, 1). The comparison is then made on the
    scaled components, so the verdict does not depend on the overall
    scale of the value.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    try:
        m1, m2 = abs(p1), abs(p2)
    except OverflowError:
        m1 = m2 = math.inf
    norm_sq = _norm_sq(z1, z2)
    cn_mag = m1 * m2
    threshold = tol * (norm_sq if norm_sq > 1.0 else 1.0)
    compared = (cn_mag, threshold)
    scaled = None
    if norm_sq == math.inf or cn_mag == math.inf:
        scale = _unit_scale(z1, z2)
        s1 = complex(z1.real * scale, z1.imag * scale)
        s2 = complex(z2.real * scale, z2.imag * scale)
        sp1, sp2 = _split(s1, s2)
        scaled = (scale, s1, s2, sp1 * sp2)
        # coordinates below 1 cannot overflow abs; ||w||**2 > 1 here, so
        # the threshold is relative and scales too
        c1, c2 = abs(sp1), abs(sp2)
        compared = (c1 * c2, tol * _norm_sq(s1, s2))
        m1, m2 = c1 / scale, c2 / scale
    return compared[0] <= compared[1], cn_mag, threshold, m1 if m1 < m2 else m2, scaled


def _inverse_components(z1: complex, z2: complex, tol: float = SINGULARITY_TOLERANCE):
    """Components of the inverse ``conj(w, 2) / cn(w)``, not yet checked
    for finiteness. Raises SingularOperand when the zero-divisor test
    fires."""
    p1, p2 = _split(z1, z2)
    singular, cn_mag, threshold, _, scaled = _zero_divisor_test(z1, z2, p1, p2, tol)
    if singular:
        raise _zero_divisor_error(cn_mag, threshold)
    if scaled is None:
        c = p1 * p2
        return z1 / c, -z2 / c
    # 1/w = scale * (1/(scale*w)), and cn(scale*w) stays finite
    scale, s1, s2, c = scaled
    r1 = s1 / c
    r2 = -s2 / c
    return (
        complex(r1.real * scale, r1.imag * scale),
        complex(r2.real * scale, r2.imag * scale),
    )


def _power_components(z1: complex, z2: complex, exponent: int):
    """Components of ``w**exponent`` by square-and-multiply from ONE.

    A negative exponent inverts first. Every product is checked for
    finiteness, as the ring operations check theirs.
    """
    b1, b2 = z1, z2
    if exponent < 0:
        b1, b2 = _inverse_components(z1, z2)
        _check_finite(b1, b2)
        exponent = -exponent
    r1, r2 = 1 + 0j, 0j
    while exponent:
        if exponent & 1:
            r1, r2 = r1 * b1 - r2 * b2, r1 * b2 + r2 * b1
            _check_finite(r1, r2)
        exponent >>= 1
        if exponent:
            # skip the last squaring so w**1 never overflows via base*base
            b1, b2 = b1 * b1 - b2 * b2, b1 * b2 + b2 * b1
            _check_finite(b1, b2)
    return r1, r2


def _zero_divisor_error(cn_mag: float, threshold: float) -> SingularOperand:
    return SingularOperand(
        f"value is a zero divisor within tolerance "
        f"(|cn| = {cn_mag:.3e} <= {threshold:.3e})"
    )


# -- the same operations on idempotent components (p1, p2) ------------


def _pair_zero_divisor_test(p1: complex, p2: complex, tol: float):
    """The zero-divisor test on the idempotent components alone:
    ``|p1|*|p2| <= tol*max(1, (|p1|**2 + |p2|**2)/2)``, the right side
    being ``tol*max(1, ||w||**2)``.

    Returns ``(is_singular, cn_magnitude, tolerance_used)``. Where a side
    overflows, both are compared for copies scaled by the power of two
    ``_unit_scale(p1, p2)``, so the verdict does not depend on the
    overall scale of the value.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    try:
        m1, m2 = abs(p1), abs(p2)
    except OverflowError:
        m1 = m2 = math.inf
    cn_mag = m1 * m2
    norm_sq = (m1 * m1 + m2 * m2) / 2.0
    threshold = tol * (norm_sq if norm_sq > 1.0 else 1.0)
    if norm_sq == math.inf or cn_mag == math.inf:
        scale = _unit_scale(p1, p2)
        # coordinates below 1 cannot overflow abs; ||w||**2 > 1 here, so
        # the threshold is relative and scales too
        c1 = abs(complex(p1.real * scale, p1.imag * scale))
        c2 = abs(complex(p2.real * scale, p2.imag * scale))
        return c1 * c2 <= tol * ((c1 * c1 + c2 * c2) / 2.0), cn_mag, threshold
    return cn_mag <= threshold, cn_mag, threshold


def _pair_inverse(p1: complex, p2: complex, tol: float = SINGULARITY_TOLERANCE):
    """Components ``(1/p1, 1/p2)`` of the inverse. Raises SingularOperand
    when the pair test fires, NonFiniteError where a reciprocal is not
    finite."""
    singular, cn_mag, threshold = _pair_zero_divisor_test(p1, p2, tol)
    if singular:
        raise _zero_divisor_error(cn_mag, threshold)
    r1 = 1.0 / p1
    r2 = 1.0 / p2
    _check_finite(r1, r2)
    return r1, r2


def _pair_power(p1: complex, p2: complex, exponent: int):
    """Components of ``w**exponent``: square-and-multiply from ONE on
    each component, with the inversion and checks of _power_components."""
    if exponent < 0:
        p1, p2 = _pair_inverse(p1, p2)
        exponent = -exponent
    r1 = r2 = 1 + 0j
    while exponent:
        if exponent & 1:
            r1 *= p1
            r2 *= p2
            _check_finite(r1, r2)
        exponent >>= 1
        if exponent:
            p1 *= p1
            p2 *= p2
            _check_finite(p1, p2)
    return r1, r2


def _check_finite(z1: complex, z2: complex) -> None:
    if not (_isfinite(z1) and _isfinite(z2)):
        raise NonFiniteError("bicomplex components must be finite")


def _coerce(value) -> Bicomplex | None:
    """Lift scalars into the ring; complex scalars embed with z2 = 0."""
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, (int, float, complex)):
        return Bicomplex(value, 0.0)
    if isinstance(value, Duplex):
        return value.to_bicomplex()
    return None


def _fmt_real(x: float, digits: int | None) -> str:
    if digits is None:
        text = repr(x)
    else:
        text = f"{x:.{digits}g}"
    # drop the trailing ".0" of integral floats; bare integers reparse fine
    if text.endswith(".0"):
        text = text[:-2]
    return text


def _fmt_complex(z: complex, digits: int | None) -> str:
    re_txt = _fmt_real(z.real, digits)
    if z.imag == 0.0:
        return re_txt
    sign = "-" if z.imag < 0 else "+"
    return f"{re_txt} {sign} {_fmt_real(abs(z.imag), digits)}*i1"


ZERO = Bicomplex(0.0, 0.0)
ONE = Bicomplex(1.0, 0.0)
I1 = Bicomplex(1j, 0.0)
I2 = Bicomplex(0.0, 1.0)
J = Bicomplex(0.0, 1j)
E1 = Bicomplex(0.5, 0.5j)
E2 = Bicomplex(0.5, -0.5j)
