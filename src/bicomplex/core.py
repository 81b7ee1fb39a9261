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

:class:`Bicomplex` stores that pair ``(p1, p2)`` and nothing else. Each
ring operation is one complex operation per component, except inversion
and the zero-divisor test, which read both. ``Bicomplex(z1, z2)`` splits
its arguments once (``_split``), and the views ``z1``, ``z2`` and
``four_reals`` join the pair back (``_join``); these two functions are
the only places the basis formulas appear. Equality and hashing compare
the pair; a pair of equal components hashes as the scalar it equals.

Values are immutable. Operations that would produce NaN or infinity
raise :class:`NonFiniteError` instead of propagating them, and so does
building a value whose split leaves the float range.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys

__all__ = [
    "Bicomplex",
    "Duplex",
    "IdempotentPair",
    "NormInfo",
    "SingularityVerdict",
    "SingularOperand",
    "SingularTerm",
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
# stores a slot past the __setattr__ that frozen values refuse
_set_field = object.__setattr__


class _TermError(Exception):
    """Base of the errors that evaluating a sequence term may raise:
    :class:`SingularOperand`, :class:`NonFiniteError` and
    ``seqspec.IdempotentSlotError``. ``term_index`` is the 1-based index
    of the term that raised, set where the error is re-raised for it,
    else None."""

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


class SingularOperand(_TermError, ArithmeticError):
    """Raised when an operation needs an invertible value but the operand
    lies on (or numerically near) the null cone of zero divisors;
    ``term_index`` as in ``_TermError``.
    """


class SingularTerm(ArithmeticError):
    """A term of the sequence was a zero divisor (1-based index)."""

    def __init__(self, message: str = "singular term", index: int | None = None):
        super().__init__(message)
        self.index = index


class NonFiniteError(_TermError, ArithmeticError):
    """Raised when an operation would produce NaN or infinite components;
    ``term_index`` as in ``_TermError``.
    """


class _RecordType(type):
    """Metaclass of :class:`_Record`: the annotated names of a class body,
    in order, become the class's slots, its ``_fields`` and
    ``__match_args__``, which ``_Record.__init__`` binds arguments to."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = namespace["_fields"] = namespace["__match_args__"] = fields
        return super().__new__(mcls, name, bases, namespace)


class _Record(metaclass=_RecordType):
    """Frozen record: a class body lists its fields as annotations.

    Behaves as a frozen dataclass does: fields by position or keyword,
    ``Name(field=value, ...)`` repr, equality only with the same type,
    a hash of the field values, AttributeError on assignment or
    deletion, positional ``match``, and pickling and copying.
    """

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} arguments")
        for field, value in zip(fields, args):
            _set_field(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{type(self).__qualname__}() missing argument {field!r}")
            _set_field(self, field, kwargs.pop(field))
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {problem} argument {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __repr__(self):
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SingularityVerdict(_Record):
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


class IdempotentPair(_Record):
    """Complex components of a bicomplex number over the basis (e1, e2)."""

    p1: complex
    p2: complex

    def reconstruct(self) -> "Bicomplex":
        """Reassemble the bicomplex number ``p1*e1 + p2*e2``."""
        return Bicomplex.from_idempotent(self.p1, self.p2)


class Duplex(_Record):
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
        x1, x2, x3, x4 = w.four_reals
        if x2 != 0.0 or x3 != 0.0:
            raise ValueError("value is not in the duplex subring")
        return cls(x1, x4)


class NormInfo(_Record):
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
    """An immutable bicomplex number, stored as its idempotent components
    ``(p1, p2)``; the components ``(z1, z2)`` are views."""

    __slots__ = ("p1", "p2")

    def __init__(self, z1: complex = 0.0, z2: complex = 0.0):
        p1, p2 = _split(complex(z1), complex(z2))
        _check_finite(p1, p2)
        _set_p1(self, p1)
        _set_p2(self, p2)

    def __setattr__(self, name, value):
        raise AttributeError("Bicomplex values are immutable")

    def __reduce__(self):
        return type(self)._make, (self.p1, self.p2)

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, p1: complex, p2: complex) -> "Bicomplex":
        """Trusted constructor for idempotent components that are already
        complex. Skips coercion but keeps the finiteness check."""
        _check_finite(p1, p2)
        self = object.__new__(cls)
        _set_p1(self, p1)
        _set_p2(self, p2)
        return self

    @classmethod
    def from_four_reals(cls, x1: float, x2: float, x3: float, x4: float) -> "Bicomplex":
        """Build ``x1 + x2*i1 + x3*i2 + x4*j``."""
        return cls(complex(x1, x2), complex(x3, x4))

    @classmethod
    def from_idempotent(cls, p1: complex, p2: complex) -> "Bicomplex":
        """Build ``p1*e1 + p2*e2`` from complex idempotent components."""
        return cls._make(complex(p1), complex(p2))

    # -- component views ----------------------------------------------

    @property
    def z1(self) -> complex:
        """First complex component, ``(p1 + p2)/2``."""
        return _join(self.p1, self.p2)[0]

    @property
    def z2(self) -> complex:
        """Second complex component, the i2 part, ``i1*(p1 - p2)/2``."""
        return _join(self.p1, self.p2)[1]

    @property
    def four_reals(self) -> tuple[float, float, float, float]:
        z1, z2 = _join(self.p1, self.p2)
        return (z1.real, z1.imag, z2.real, z2.imag)

    def idempotent(self) -> IdempotentPair:
        return IdempotentPair(self.p1, self.p2)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(self.p1 + other.p1, self.p2 + other.p2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(self.p1 - other.p1, self.p2 - other.p2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(other.p1 - self.p1, other.p2 - self.p2)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex._make(self.p1 * other.p1, self.p2 * other.p2)

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
        # 0j - p keeps a zero part +0.0 where -p would flip it, so a
        # negated real stays on the upper side of the log/sqrt branch cut
        return Bicomplex._make(0j - self.p1, 0j - self.p2)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return Bicomplex._make(*_pair_power(self.p1, self.p2, exponent))

    # -- equality and hashing -----------------------------------------

    def __eq__(self, other):
        # a Duplex is not lifted, as it equals no number: == stays transitive
        other = None if isinstance(other, Duplex) else _coerce(other)
        if other is None:
            return NotImplemented
        return self.p1 == other.p1 and self.p2 == other.p2

    def __hash__(self):
        """Agrees with ``==`` on int, float and complex: a value with
        ``p1 == p2`` equals that scalar and hashes as it."""
        p1, p2 = self.p1, self.p2
        return hash(p1) if p1 == p2 else hash((p1, p2))

    def isclose(self, other: "Bicomplex", rel_tol: float = 1e-9, abs_tol: float = 0.0) -> bool:
        """Approximate equality in the Euclidean metric; as ``==`` does, it
        refuses a Duplex."""
        other = None if isinstance(other, Duplex) else _coerce(other)
        if other is None:
            raise TypeError("cannot compare Bicomplex with that type")
        big = max(abs(self), abs(other))
        if big < math.inf:
            try:
                return abs(self - other) <= max(rel_tol * big, abs_tol)
            except NonFiniteError:
                pass
        # a norm or the difference leaves the float range: compare copies
        # scaled by one power of two, which brings every coordinate below 1
        s = min(_unit_scale(self.p1, self.p2), _unit_scale(other.p1, other.p2))
        return (self * s).isclose(other * s, rel_tol, abs_tol * s)

    # -- conjugations -------------------------------------------------

    def conj(self, kind: int) -> "Bicomplex":
        """One of the three bicomplex conjugations.

        kind 1 conjugates both complex components z1 and z2; kind 2
        negates z2; kind 3 composes the two. All are ring involutions.
        On the idempotent components they are exact: kind 1 gives
        ``(conj(p2), conj(p1))``, kind 2 swaps them, kind 3 conjugates
        each.
        """
        p1, p2 = self.p1, self.p2
        if kind == 1:
            return Bicomplex._make(p2.conjugate(), p1.conjugate())
        if kind == 2:
            return Bicomplex._make(p2, p1)
        if kind == 3:
            return Bicomplex._make(p1.conjugate(), p2.conjugate())
        raise ValueError(f"conjugation kind must be 1, 2 or 3, got {kind!r}")

    # -- norms and singularity ----------------------------------------

    def cn(self) -> complex:
        """Complex square norm ``z1**2 + z2**2``, which is ``p1*p2``: no
        cancellation near the null cone. Multiplicative: cn(a*b) ==
        cn(a)*cn(b).
        """
        return self.p1 * self.p2

    def is_singular(self, tol: float = SINGULARITY_TOLERANCE) -> SingularityVerdict:
        """Test whether the value is numerically a zero divisor.

        The magnitude |cn(w)| = |p1|*|p2| is compared against
        ``tol * max(1, ||w||**2)`` so the test is relative at large scale
        and absolute near zero (see _pair_zero_divisor_test).
        """
        _check_tolerance(tol)
        return SingularityVerdict(*_pair_zero_divisor_test(self.p1, self.p2, tol))

    def inverse(self, tol: float = SINGULARITY_TOLERANCE) -> "Bicomplex":
        """Multiplicative inverse ``(1/p1, 1/p2)``, which is
        ``conj(w, 2) / cn(w)``.

        Raises SingularOperand when the zero-divisor test fires.
        """
        _check_tolerance(tol)
        return Bicomplex._make(*_pair_inverse(self.p1, self.p2, tol))

    def norms(self) -> NormInfo:
        """All three square moduli plus the Euclidean norm.

        Each modulus is the product of the value with one of its
        conjugates; closed forms are used here and the defining products
        are exercised by the test suite. Raises NonFiniteError where a
        square modulus overflows.
        """
        z1, z2 = _join(self.p1, self.p2)
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
        x1, x2, x3, x4 = self.four_reals
        square = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
        if square == math.inf or square < 2.0**-1022:
            # the squares overflowed or left the normal range; the norm may not
            return math.hypot(x1, x2, x3, x4)
        return math.sqrt(square)

    # -- rendering ----------------------------------------------------

    def format_four_real(self, digits: int | None = None) -> str:
        """Render as ``x1 + x2*i1 + x3*i2 + x4*j`` (reparseable).

        With ``digits`` the coefficients are rounded to that many
        significant digits; otherwise the shortest exact representation
        of the four-real view is used.
        """
        x1, x2, x3, x4 = self.four_reals
        parts = [_fmt_real(x1, digits)]
        for coeff, unit in ((x2, "i1"), (x3, "i2"), (x4, "j")):
            sign = "-" if (coeff < 0 or (coeff == 0 and math.copysign(1.0, coeff) < 0)) else "+"
            parts.append(f"{sign} {_fmt_real(abs(coeff), digits)}*{unit}")
        return " ".join(parts)

    def format_idempotent(self, digits: int | None = None) -> str:
        """Render as ``[p1 | p2]`` with complex components. Without
        ``digits`` the text reparses to the same value exactly."""
        return f"[{_fmt_complex(self.p1, digits)} | {_fmt_complex(self.p2, digits)}]"

    def __repr__(self):
        return "Bicomplex({!r}, {!r})".format(*_join(self.p1, self.p2))

    def __str__(self):
        return self.format_four_real()


_set_p1 = Bicomplex.p1.__set__
_set_p2 = Bicomplex.p2.__set__


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


def _unit_scale(a: complex, b: complex) -> float:
    """The power of two that brings the largest real coordinate of ``a``
    and ``b`` into [0.5, 1)."""
    big = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
    return math.ldexp(1.0, -math.frexp(big)[1])


def _zero_divisor_error(cn_mag: float, threshold: float) -> SingularOperand:
    return SingularOperand(
        f"value is a zero divisor within tolerance "
        f"(|cn| = {cn_mag:.3e} <= {threshold:.3e})"
    )


# -- the ring operations that are not one complex operation per component


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:  # NaN too: every comparison false, nothing singular
        raise ValueError("tolerance must be nonnegative")


def _pair_zero_divisor_test(p1: complex, p2: complex, tol: float):
    """The zero-divisor test on the idempotent components:
    ``|p1|*|p2| <= tol*max(1, (|p1|**2 + |p2|**2)/2)``, the right side
    being ``tol*max(1, ||w||**2)``.

    Returns ``(is_singular, cn_magnitude, tolerance_used,
    min_component_modulus)``, as in :class:`SingularityVerdict`. Where a
    side overflows, both are compared for copies scaled by the power of
    two ``_unit_scale(p1, p2)``, so the verdict does not depend on the
    overall scale of the value. ``tol`` is unchecked here: each public
    route runs ``_check_tolerance`` on entry.
    """
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
        m1, m2 = c1 / scale, c2 / scale
        return (c1 * c2 <= tol * ((c1 * c1 + c2 * c2) / 2.0), cn_mag, threshold,
                m1 if m1 < m2 else m2)
    return cn_mag <= threshold, cn_mag, threshold, m1 if m1 < m2 else m2


def _floats(xs) -> bool:
    """Whether the nonempty list ``xs`` (a block's values, a run of terms or
    a window of partial sums) is on the float lane: the one test of it. A
    float ``x`` there is finite, nonnegative and never -0.0, the complex
    ``(x, +0.0)`` (``seqspec._compile``; a norm series is moduli), so sums
    of such terms rise, as rounding is monotone: ``series._diameter`` and
    ``_Tracker.run_sums`` rest on that."""
    return type(xs[0]) is float


def _each(f, p1s, p2s):
    """``(f(p1s), f(p2s))``, the per-list function ``f`` on each component's
    list of a block. Where the two lists are one object (the scalar lane),
    ``f`` runs once and its one result stands for both, so one list stays
    one list. ``f(p1s)`` runs first, and so raises first."""
    r1s = f(p1s)
    return r1s, (r1s if p2s is p1s else f(p2s))


def _moduli(xs) -> list[float]:
    """``abs`` of each of ``xs``; OverflowError past the float range."""
    return list(map(abs, xs))


def _none_singular(p1s, p2s, tol: float) -> bool:
    """True only when ``_pair_zero_divisor_test(p1, p2, tol)`` passes every
    pair of ``p1s`` and ``p2s``, for ``tol >= 0`` (unchecked here), in one
    scan of the moduli: the zero-divisor screen of a block of terms. The
    lane is list identity, and the function reads it. Where it says False,
    its callers run the pair test on each term, so no verdict rests on it:
    its exactness on one list buys speed only.

    One list (``p2s is p1s``) and ``tol < 1``: ``min(m*m) > tol``, exact.
    On ``(p, p)`` the test's ``(m*m + m*m)/2.0`` is ``m*m`` while ``m*m <
    2**1023``, so a square ``cn = m*m`` there is singular when ``cn <=
    tol*max(1, cn)``, which is ``cn <= tol`` for ``cn <= 1``, and never
    holds for ``cn > 1``, where ``tol*cn`` rounds below ``cn``; a larger
    square takes the test's scaled branch, whose copies are never singular
    for ``tol < 1`` either.

    Otherwise the extremes of the moduli decide: ``min(m1s)*min(m2s) >
    tol*max(1, (M1*M1 + M2*M2)/2.0)``, where ``M1`` and ``M2`` are the
    largest moduli. A sufficient bound, because rounding is monotone: each
    float operation of the test gives a result no smaller for operands no
    smaller. So each pair's ``|p1|*|p2|`` rounds to at least the product
    of the smallest moduli, and its threshold, built from moduli no larger
    than ``M1`` and ``M2`` by the same operations, to at most the right
    side. Where the right side is inf (``M1*M1 + M2*M2`` overflows), the
    bound fails; elsewhere no pair's products overflow either, so no pair
    takes the test's scaled branch. On one list at ``tol >= 1`` it never
    holds, as ``min*min <= M*M``; there the test fires on every ``(p, p)``
    but a NaN one, and the caller's per-element test decides.

    Where a modulus leaves the float range, the test decides on each pair.
    """
    try:
        m1s, m2s = _each(_moduli, p1s, p2s)
    except OverflowError:
        return not any(_pair_zero_divisor_test(p1, p2, tol)[0] for p1, p2 in zip(p1s, p2s))
    if m2s is m1s and tol < 1.0:
        return min(map(operator.mul, m1s, m1s)) > tol
    big1 = max(m1s)
    big2 = max(m2s)
    norm_sq = (big1 * big1 + big2 * big2) / 2.0
    return min(m1s) * min(m2s) > tol * (norm_sq if norm_sq > 1.0 else 1.0)


def _clear(bound, tol: float) -> bool:
    """True where ``bound``, ``(lo, hi)`` with ``lo >= 0``, or None, proves
    that ``_none_singular(p1s, p2s, tol)``, ``tol >= 0``, passes a block
    whose computed component moduli lie in ``[lo, hi]``: the bound form of
    the zero-divisor screen, ``lo*lo > tol*(1 + 1e-12)*max(1, hi*hi)`` and
    ``hi < 1e150``. Rounding is monotone, so the screen's least product or
    square rounds to at least ``lo*lo``, and its mean of squares, of finite
    moduli at most ``hi``, to at most ``(hi*hi + hi*hi)/2.0``, exactly
    ``hi*hi``: the right side, whose factor rounds above 1, is at least the
    screen's (``tol`` on one list). ``m >= lo`` gives ``m*m >= lo*lo`` only
    for ``lo >= 0``; at ``lo = 0`` the test fails for every ``tol``."""
    return bound is not None and bound[1] < 1e150 and (
        bound[0] * bound[0] > tol * (1.0 + 1e-12) * max(1.0, bound[1] * bound[1]))


def _pair_inverse(p1: complex, p2: complex, tol: float = SINGULARITY_TOLERANCE):
    """Components ``(1/p1, 1/p2)`` of the inverse. Raises SingularOperand
    when the pair test fires; ``Bicomplex._make`` checks the reciprocals,
    and ``seqspec._guard`` runs this only to raise."""
    singular, cn_mag, threshold, _ = _pair_zero_divisor_test(p1, p2, tol)
    if singular:
        raise _zero_divisor_error(cn_mag, threshold)
    return 1.0 / p1, 1.0 / p2


def _pair_power(p1: complex, p2: complex, exponent: int):
    """Components of ``w**exponent``: a negative exponent inverts the
    pair first, then each component is raised by :func:`_power`. Nothing
    here checks finiteness: ``Bicomplex._make`` does, on the result."""
    if exponent < 0:
        p1, p2 = _pair_inverse(p1, p2)
        exponent = -exponent
    return _power(p1, exponent, operator.mul, 1 + 0j), _power(p2, exponent, operator.mul, 1 + 0j)


def _power(base, k: int, mul, one):
    """``base**k`` by square-and-multiply from ``one``, for ``k >= 0``, with
    ``mul`` the product: of complex values (``operator.mul``, ``1 + 0j``),
    or of a block's lists, element by element.

    No product is checked here; the caller checks the result once. That
    raises where some product would have: inf or nan never turns finite
    under multiplication, and every square reaches the result through a
    later product.
    """
    r = one
    while k:
        if k & 1:
            r = mul(r, base)
        k >>= 1
        if k:
            # skip the last squaring so w**1 never overflows via base*base
            base = mul(base, base)
    return r


def _check_finite(a: complex, b: complex) -> None:
    if not (_isfinite(a) and _isfinite(b)):
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


def _validate(tol: float, window: int, n_max: int) -> None:
    """The one check of the analysis arguments. Each message starts with
    the parameter's name, which the CLI maps to its option."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")
    # deque and islice take sizes up to sys.maxsize
    if window < 2:
        raise ValueError("window must be at least 2")
    if window > sys.maxsize:
        raise ValueError(f"window must be at most {sys.maxsize}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > sys.maxsize:
        raise ValueError(f"n_max must be at most {sys.maxsize}")


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
