"""Convergence analysis for bicomplex series.

A bicomplex series converges exactly when both of its idempotent
component series converge, so every verdict here is the conjunction of
two scalar complex verdicts produced by the same machinery. The pass
reads the terms as idempotent pairs ``(p1, p2)``, which is how a
Bicomplex stores them: ``analyze_series`` reads them off each term, and
the CLI feeds compiled terms straight in, with no ``Bicomplex``; a
scalar term is one complex, both components (see ``_analyze_pairs``).

Verdicts are heuristic, not proofs. The rules, applied per component:

* converged    -- the last ``window`` partial sums all lie within ``tol``
                  of each other (Cauchy window).
* diverged     -- only on explicit evidence: recent term magnitudes stay
                  above a floor (10*tol, and never below 1e-6) without
                  decaying between dyadic checkpoints, or a partial sum
                  exceeds the overflow guard of 1e150. Below the 1e-6
                  scale a finite prefix cannot distinguish stalled decay
                  from reordering effects, so no divergence is declared.
* inconclusive -- the term budget ran out without either signal. This is
                  the deliberate default: slow decay is never promoted
                  to a divergence claim.

The absolute-convergence verdict applies the nonnegative-series variant
of the same rules to the term-norm series; there, terms decaying no
faster than harmonically between dyadic checkpoints (a factor >= 1/2
over a doubling) count as divergence evidence.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import deque
from itertools import islice

from .core import Bicomplex, NonFiniteError, _coerce, _Record

__all__ = [
    "SeriesReport",
    "partial_sums",
    "analyze_series",
    "eval_power_series",
    "OVERFLOW_GUARD",
]

OVERFLOW_GUARD = 1e150

# Dyadic checkpoint schedule: term-magnitude floors are compared at
# n = 16, 32, 64, ... Between consecutive checkpoints, a decay factor
# above _FLAT_RATIO means "not tending to zero" (general series); above
# _HARMONIC_RATIO means "decaying no faster than 1/n" (norm series).
_FIRST_CHECKPOINT = 16
_FLAT_RATIO = 0.99
_HARMONIC_RATIO = 0.5
_RATIO_SLACK = 1.0 - 1e-9
_FLOOR_FACTOR = 10.0
_DIVERGENCE_FLOOR = 1e-6

# the moduli m whose m*m is normal, so that sqrt((m*m + m*m)/2) == m exactly
_EXACT_RMS_MIN = 2.0**-511
_EXACT_RMS_MAX = 2.0**511


def _diameter(values) -> float:
    """Largest pairwise distance among a window of complex values; inf
    where a distance is past the float range."""
    items = list(values)
    worst = 0.0
    try:
        for i in range(len(items)):
            vi = items[i]
            for vj in items[i + 1 :]:
                d = abs(vi - vj)
                if d > worst:
                    worst = d
    except OverflowError:
        return math.inf
    return worst


class SeriesReport(_Record):
    """Outcome of a series analysis.

    verdict             -- "converged" | "diverged" | "inconclusive"
    limit_estimate      -- last partial sum (meaningful when converged);
                           None if accumulation left the finite range
    terms_used          -- number of terms consumed
    tail_delta          -- worst component diameter of the final window
                           of partial sums; <= tol whenever converged
    absolute            -- True when the term-norm series converged
    component_verdicts  -- per-component verdicts for the value series
    absolute_component_verdicts -- per-component verdicts for the
                           component-magnitude series
    """

    verdict: str
    limit_estimate: Bicomplex | None
    terms_used: int
    tail_delta: float
    absolute: bool
    component_verdicts: tuple[str, str]
    absolute_component_verdicts: tuple[str, str]


class _Checkpoints:
    """The dyadic checkpoint rule over the last ``window`` term
    magnitudes ``mags``; its owner counts the terms and calls
    ``stalled`` at term ``due``."""

    __slots__ = ("tol", "ratio", "mags", "due", "prev_floor")

    def __init__(self, tol: float, window: int, ratio: float):
        self.tol = tol
        self.ratio = ratio
        self.mags: deque[float] = deque(maxlen=window)
        self.due = _FIRST_CHECKPOINT
        self.prev_floor: float | None = None

    def stalled(self) -> bool:
        """The checkpoint test: the floor of ``mags`` is above the
        evidence floor and at least ``ratio`` times the floor at the
        previous checkpoint. Moves ``due`` to the next checkpoint."""
        floor = min(self.mags)
        prev_floor, self.prev_floor = self.prev_floor, floor
        self.due *= 2
        return (
            prev_floor is not None
            and floor >= max(_FLOOR_FACTOR * self.tol, _DIVERGENCE_FLOOR)
            and floor >= self.ratio * prev_floor * _RATIO_SLACK
        )


class _Tracker(_Checkpoints):
    """Cauchy-window tracker for one series of complex terms, or of
    nonnegative terms (a norm series).

    Converged once the last ``window`` partial sums lie within ``tol``
    of each other. Diverged when a partial sum passes the overflow
    guard, or when ``stalled`` holds at a checkpoint with ``ratio``:
    _FLAT_RATIO for a general series, _HARMONIC_RATIO for a norm series.
    Partial sums of a norm series are monotone, so there the window
    test comes down to the gap between newest and oldest. The product
    pass writes these rules out inline for its two norm series.
    """

    __slots__ = ("window", "total", "sums", "verdict", "count")

    def __init__(self, tol: float, window: int, ratio: float = _FLAT_RATIO):
        super().__init__(tol, window, ratio)
        self.window = window
        self.total = 0.0
        self.sums: deque = deque(maxlen=window)
        self.verdict: str | None = None
        self.count = 0

    def push(self, term, mag: float) -> None:
        """Add ``term``; ``mag`` is ``abs(term)``, which the caller holds."""
        if self.verdict is not None:
            return
        self.count += 1
        self.total += term
        self.sums.append(self.total)
        self.mags.append(mag)
        try:
            overflowed = abs(self.total) > OVERFLOW_GUARD
        except OverflowError:  # the modulus is past the float range
            overflowed = True
        if overflowed:
            self.verdict = "diverged"
            return
        if len(self.sums) == self.window:
            if abs(self.total - self.sums[0]) < self.tol and _diameter(self.sums) < self.tol:
                self.verdict = "converged"
                return
        if self.count == self.due and self.stalled():
            self.verdict = "diverged"


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


def partial_sums(terms, n_max: int = 10**6) -> list[Bicomplex]:
    """Running sums of the first ``n_max`` terms.

    Element k holds the sum of terms 0..k. Raises NonFiniteError (with
    the offending 1-based position) if a term is non-finite or the
    accumulation overflows.
    """
    return _running(terms, n_max, Bicomplex(), Bicomplex.__add__)


def _running(terms, n_max: int, total: Bicomplex, op) -> list[Bicomplex]:
    """``total = op(total, term)`` after each of the first ``n_max`` terms."""
    _validate(1.0, 2, n_max)
    out: list[Bicomplex] = []
    for k, term in enumerate(islice(terms, n_max), start=1):
        value = _coerce_term(term, k)
        try:
            total = op(total, value)
        except NonFiniteError as err:
            raise NonFiniteError(str(err), term_index=k) from None
        out.append(total)
    return out


def _coerce_term(term, index: int) -> Bicomplex:
    try:
        value = _coerce(term)
    except NonFiniteError as err:
        raise NonFiniteError(str(err), term_index=index) from None
    if value is None:
        raise TypeError(f"cannot interpret term as Bicomplex: {term!r}")
    return value


def _term_pairs(terms):
    """Yield the idempotent components ``(p1, p2)`` of each term, which
    is lifted to Bicomplex first: how the analyzers' Bicomplex terms
    reach the passes, which read pairs."""
    for k, term in enumerate(terms, start=1):
        w = _coerce_term(term, k)
        yield w.p1, w.p2


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where the modulus is past the float range, so
    that the overflow guard sees it."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _pair_or_none(p1: complex, p2: complex) -> Bicomplex | None:
    """``Bicomplex.from_idempotent(p1, p2)``, or None where not finite."""
    try:
        return Bicomplex.from_idempotent(p1, p2)
    except NonFiniteError:
        return None


def _analyze_pairs(pairs, tol, window, n_max, scalar=False) -> SeriesReport:
    """Run the component and norm trackers over (p1, p2) term pairs; the
    pass behind analyze_series, eval_power_series and the CLI's
    ``series``, with arguments already checked by _validate.

    With ``scalar``, each term is one complex, both of its components:
    one component tracker and one modulus tracker run, and the report
    reads each for both components. The RMS tracker ``ae`` is the
    modulus tracker while every modulus lies in the exact-RMS range
    [_EXACT_RMS_MIN, _EXACT_RMS_MAX]; at the first term outside, it
    splits off as a copy.
    """
    c1 = _Tracker(tol, window)
    a1 = _Tracker(tol, window, _HARMONIC_RATIO)
    if scalar:
        c2 = c1
        a2 = ae = a1
    else:
        c2 = _Tracker(tol, window)
        a2 = _Tracker(tol, window, _HARMONIC_RATIO)
        ae = _Tracker(tol, window, _HARMONIC_RATIO)
    used = 0
    for term in islice(pairs, n_max):
        used += 1
        if scalar:
            try:
                m1 = abs(term)
            except OverflowError:
                m1 = math.inf
            if ae is a1 and not _EXACT_RMS_MIN <= m1 <= _EXACT_RMS_MAX:
                import copy  # once per pass at most: not worth start-up time
                ae = copy.deepcopy(a1)
            c1.push(term, m1)
            a1.push(m1, m1)
            if ae is not a1:
                me = math.sqrt((m1 * m1 + m1 * m1) / 2.0)
                ae.push(me, me)
        else:
            p1, p2 = term
            try:
                m1 = abs(p1)
                m2 = abs(p2)
            except OverflowError:
                m1, m2 = _modulus(p1), _modulus(p2)
            me = math.sqrt((m1 * m1 + m2 * m2) / 2.0)
            c1.push(p1, m1)
            c2.push(p2, m2)
            a1.push(m1, m1)
            a2.push(m2, m2)
            ae.push(me, me)
        main_done = (
            c1.verdict == "diverged"
            or c2.verdict == "diverged"
            or (c1.verdict is not None and c2.verdict is not None)
        )
        if main_done and (
            a1.verdict == "diverged"
            or a2.verdict == "diverged"
            or (a1.verdict is not None and a2.verdict is not None and ae.verdict is not None)
        ):
            break

    v1 = c1.verdict or "inconclusive"
    v2 = c2.verdict or "inconclusive"
    if v1 == "diverged" or v2 == "diverged":
        verdict = "diverged"
    elif v1 == "converged" and v2 == "converged":
        verdict = "converged"
    else:
        verdict = "inconclusive"

    return SeriesReport(
        verdict=verdict,
        limit_estimate=_pair_or_none(c1.total, c2.total),
        terms_used=used,
        tail_delta=max(_diameter(c1.sums), _diameter(c2.sums)),
        absolute=ae.verdict == "converged",
        component_verdicts=(v1, v2),
        absolute_component_verdicts=(
            a1.verdict or "inconclusive",
            a2.verdict or "inconclusive",
        ),
    )


def analyze_series(
    terms,
    *,
    tol: float = 1e-10,
    window: int = 8,
    n_max: int = 10**6,
) -> SeriesReport:
    """Analyze the convergence of a bicomplex term series.

    ``terms`` is any iterable of Bicomplex values (scalars are lifted).
    Consumes at most ``n_max`` terms; see the module docstring for the
    verdict rules. Raises NonFiniteError with the 1-based term position
    if a term is non-finite.
    """
    _validate(tol, window, n_max)
    return _analyze_pairs(_term_pairs(terms), tol, window, n_max)


def eval_power_series(
    coeffs,
    w: Bicomplex,
    *,
    tol: float = 1e-10,
    window: int = 8,
    n_max: int = 10**6,
) -> SeriesReport:
    """Analyze ``sum(c_n * w**n for n >= 0)`` termwise.

    Terms are formed componentwise (coefficient component times the
    matching power of the argument component), never by materializing
    bicomplex powers. Raises NonFiniteError with the 1-based term
    position if a coefficient is non-finite.
    """
    _validate(tol, window, n_max)
    w = _coerce_term(w, 0)
    w1, w2 = w.p1, w.p2

    def pairs():
        wp1 = 1.0 + 0j
        wp2 = 1.0 + 0j
        for k, coeff in enumerate(coeffs, start=1):
            c = _coerce_term(coeff, k)
            yield (c.p1 * wp1, c.p2 * wp2)
            wp1 *= w1
            wp2 *= w2
            if not (cmath.isfinite(wp1) and cmath.isfinite(wp2)):
                # power overflow: any remaining evidence is already in the
                # trackers; stop producing terms
                return

    return _analyze_pairs(pairs(), tol, window, n_max)
