"""Convergence analysis for bicomplex series.

A bicomplex series converges exactly when both of its idempotent
component series converge, so every verdict here is the conjunction of
two scalar complex verdicts produced by the same machinery.

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

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import Bicomplex, NonFiniteError, _coerce

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


def _stalled(floor: float, prev_floor: float | None, tol: float, ratio: float) -> bool:
    """The checkpoint test: the floor of the windowed term magnitudes is
    above the evidence floor and at least ``ratio`` times the floor at
    the previous checkpoint."""
    return (
        prev_floor is not None
        and floor >= max(_FLOOR_FACTOR * tol, _DIVERGENCE_FLOOR)
        and floor >= ratio * prev_floor * _RATIO_SLACK
    )


def _diameter(values) -> float:
    """Largest pairwise distance among a window of complex values."""
    items = list(values)
    worst = 0.0
    for i in range(len(items)):
        vi = items[i]
        for vj in items[i + 1 :]:
            d = abs(vi - vj)
            if d > worst:
                worst = d
    return worst


@dataclass(frozen=True)
class SeriesReport:
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


class _Tracker:
    """Cauchy-window tracker for one series of complex terms, or of
    nonnegative terms (a norm series).

    Converged once the last ``window`` partial sums lie within ``tol``
    of each other. Diverged when a partial sum passes the overflow
    guard, or when ``_stalled`` holds at a checkpoint with ``ratio``:
    _FLAT_RATIO for a general series, _HARMONIC_RATIO for a norm series.
    Partial sums of a norm series are monotone, so there the window
    test comes down to the gap between newest and oldest.
    """

    __slots__ = (
        "tol", "window", "ratio", "total", "sums", "mags", "verdict",
        "next_checkpoint", "prev_floor", "count",
    )

    def __init__(self, tol: float, window: int, ratio: float = _FLAT_RATIO):
        self.tol = tol
        self.window = window
        self.ratio = ratio
        self.total = 0.0
        self.sums: deque = deque(maxlen=window)
        self.mags: deque[float] = deque(maxlen=window)
        self.verdict: str | None = None
        self.next_checkpoint = _FIRST_CHECKPOINT
        self.prev_floor: float | None = None
        self.count = 0

    def push(self, term) -> None:
        if self.verdict is not None:
            return
        self.count += 1
        self.total += term
        self.sums.append(self.total)
        self.mags.append(abs(term))
        if abs(self.total) > OVERFLOW_GUARD:
            self.verdict = "diverged"
            return
        if len(self.sums) == self.window:
            if abs(self.total - self.sums[0]) < self.tol and _diameter(self.sums) < self.tol:
                self.verdict = "converged"
                return
        if self.count == self.next_checkpoint:
            floor = min(self.mags)
            if _stalled(floor, self.prev_floor, self.tol, self.ratio):
                self.verdict = "diverged"
            self.prev_floor = floor
            self.next_checkpoint *= 2


def _validate(tol: float, window: int, n_max: int) -> None:
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if window < 2:
        raise ValueError("window must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")


def partial_sums(terms, n_max: int = 10**6) -> list[Bicomplex]:
    """Running sums of the first ``n_max`` terms.

    Element k holds the sum of terms 0..k. Raises NonFiniteError (with
    the offending 1-based position) if a term is non-finite or the
    accumulation overflows.
    """
    _validate(1.0, 2, n_max)
    out: list[Bicomplex] = []
    total = Bicomplex()
    for k, term in enumerate(islice(terms, n_max), start=1):
        value = _coerce_term(term, k)
        try:
            total = total + value
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


def _analyze_pairs(pairs, tol: float, window: int, n_max: int) -> SeriesReport:
    """Run the component and norm trackers over (p1, p2) term pairs."""
    c1 = _Tracker(tol, window)
    c2 = _Tracker(tol, window)
    a1 = _Tracker(tol, window, _HARMONIC_RATIO)
    a2 = _Tracker(tol, window, _HARMONIC_RATIO)
    ae = _Tracker(tol, window, _HARMONIC_RATIO)
    used = 0
    for p1, p2 in islice(pairs, n_max):
        used += 1
        c1.push(p1)
        c2.push(p2)
        m1 = abs(p1)
        m2 = abs(p2)
        a1.push(m1)
        a2.push(m2)
        ae.push(math.sqrt((m1 * m1 + m2 * m2) / 2.0))
        main_done = (
            c1.verdict == "diverged"
            or c2.verdict == "diverged"
            or (c1.verdict is not None and c2.verdict is not None)
        )
        abs_done = (
            a1.verdict == "diverged"
            or a2.verdict == "diverged"
            or (a1.verdict is not None and a2.verdict is not None and ae.verdict is not None)
        )
        if main_done and abs_done:
            break

    v1 = c1.verdict or "inconclusive"
    v2 = c2.verdict or "inconclusive"
    if v1 == "diverged" or v2 == "diverged":
        verdict = "diverged"
    elif v1 == "converged" and v2 == "converged":
        verdict = "converged"
    else:
        verdict = "inconclusive"

    try:
        limit = Bicomplex.from_idempotent(c1.total, c2.total)
    except NonFiniteError:
        limit = None
    return SeriesReport(
        verdict=verdict,
        limit_estimate=limit,
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

    def pairs():
        for k, term in enumerate(terms, start=1):
            w = _coerce_term(term, k)
            yield (w.z1 - 1j * w.z2, w.z1 + 1j * w.z2)

    return _analyze_pairs(pairs(), tol, window, n_max)


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
    w1 = w.z1 - 1j * w.z2
    w2 = w.z1 + 1j * w.z2

    def pairs():
        wp1 = 1.0 + 0j
        wp2 = 1.0 + 0j
        for k, coeff in enumerate(coeffs, start=1):
            c = _coerce_term(coeff, k)
            yield (
                (c.z1 - 1j * c.z2) * wp1,
                (c.z1 + 1j * c.z2) * wp2,
            )
            wp1 *= w1
            wp2 *= w2
            if not (
                math.isfinite(wp1.real) and math.isfinite(wp1.imag)
                and math.isfinite(wp2.real) and math.isfinite(wp2.imag)
            ):
                # power overflow: any remaining evidence is already in the
                # trackers; stop producing terms
                return

    return _analyze_pairs(pairs(), tol, window, n_max)
