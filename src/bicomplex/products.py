"""Infinite products of bicomplex terms.

A product of nonsingular terms is tracked through its idempotent
components, where it is an ordinary pair of complex products. The
central hazard is the set of zero divisors: a single singular term
kills the whole product, and a product whose partial values drift onto
that set has no usable limit even when the values stabilize.

``evaluate_product`` classifies a term sequence as one of:

* converged_nonsingular -- partial products passed a Cauchy-window
  stability test, the recent terms sit within 10*tol of 1, and the
  limit estimate is safely nonsingular.
* diverged_to_zero      -- partial products decayed monotonically into
  the numerical zero region; the limit would be a zero divisor.
* diverged              -- explicit evidence against convergence: terms
  bounded away from 1 while partial products do not shrink, partial
  products overflowing, or a stable limit that lands on the singular
  set.
* singular_term         -- a term was singular; reported with its index.
* inconclusive          -- budget exhausted without any of the above.

converged_nonsingular certifies only that the last ``window`` partial
products lie within ``tol`` of each other. ``limit_estimate``, the last
partial product, misses the tail ``prod_{n>N}(1 + u_n)``, N = terms_used:
for ``1 + a/n^2`` by about ``|a|/N`` relative, 2.1e-5 for ``1 + (3/10 +
2/5*i2)/n^2`` at ``tol=1e-8`` (N = 24,065), 2.1e-6 at ``1e-10`` (N =
240,623), within ``exp(sum_{n>N} |u_n|) - 1``.

The companion checks relate the product to the series of term
logarithms: ``log_sum_equivalence`` verifies exp(sum of logs) against
the partial products and tracks the branch offset between the two,
``absolute_convergence_check`` compares the log-norm and the
deviation-norm convergence criteria, two norm series run on
``series._Tracker`` as the series pass runs its own, and
``log_bound_check`` tests the two-sided norm comparison that justifies
swapping one criterion for the other for small deviations.
``SingularTerm`` (from ``core``), ``log_bound_check`` and ``BoundCheck``
(from ``transcendental``) are re-exported here.

``analyze_product`` gives the product report, the absolute check and
the log-sum identity from one pass that reads each term once, as its
idempotent components ``(p1, p2)``, and forms its logarithms and
deviation norm once; ``evaluate_product``, ``absolute_convergence_check``
and ``log_sum_equivalence`` run it for one report each. Each report is
a consumer of the pass and freezes at its own stop rule: the product at
its verdict or the budget ``n_max``; the absolute check at the first
term with a component real part <= 0 or once both norm series have
decided; the identity after ``min(n_max, LOG_SUM_CAP)`` terms. The
public analyzers hand the pass one term per block, as each is read; the
CLI's ``product`` hands it the index walker's blocks of compiled terms,
a scalar term's block as one list, both components. A run of terms
where no consumer's rule can fire is taken in one block step
(``_product_pass``).

The paper's decomposition: the product of ``[a | b]`` converges exactly
when the complex products of ``a`` and of ``b`` both converge to nonzero
limits. The verdict of ``[a | b]`` against the verdicts of ``a`` and
``b`` run as complex products (``converged`` is converged_nonsingular;
either order):

=========================================  ===========================
component verdicts                         product verdict
=========================================  ===========================
(converged, converged)                     converged
(converged, diverged_to_zero)              diverged: the stable limit
                                           is a zero divisor
(diverged, any)                            diverged
(diverged_to_zero, diverged_to_zero)       diverged_to_zero
(diverged_to_zero, inconclusive)           diverged where the drained
                                           component's terms stay away
                                           from 1 (flat checkpoint),
                                           else inconclusive
(converged or inconclusive, inconclusive)  inconclusive
=========================================  ===========================

The inconclusive rows are conservative: a component without evidence
either way keeps the product open unless the other gives evidence.
"""

from __future__ import annotations

import cmath
import math
from collections import deque, namedtuple
from functools import reduce
from itertools import pairwise, repeat
from operator import add, attrgetter, mul, ne, or_, sub, truediv

from .core import (
    SINGULARITY_TOLERANCE, Bicomplex, NonFiniteError, SingularTerm, _check_tolerance, _each,
    _moduli, _none_singular, _pair_zero_divisor_test, _Record, _TermError, _validate,
)
from .series import (
    _FLAT_RATIO, _FLOOR_FACTOR, _HARMONIC_RATIO, OVERFLOW_GUARD, _checkpoint, _Checkpoints,
    _cut, _diameter, _drive, _gaps, _modulus, _norms, _pair_or_none, _partials, _run_sums,
    _running, _term_pairs, _Tracker,
)
from .transcendental import TWO_PI, BoundCheck, log_bound_check

__all__ = [
    "SingularTerm",
    "ProductReport",
    "LogSumReport",
    "AbsoluteReport",
    "ProductAnalysis",
    "BoundCheck",
    "LOG_SUM_CAP",
    "partial_products",
    "evaluate_product",
    "log_sum_equivalence",
    "absolute_convergence_check",
    "analyze_product",
    "log_bound_check",
]

# Below this Euclidean norm a partial product is treated as having
# collapsed to zero. Well above the subnormal range, far below anything
# a legitimately convergent product passes through.
ZERO_COLLAPSE = 1e-30

# The identity runs over at most this many terms: its terms_used in
# analyze_product's report is min(n_max, LOG_SUM_CAP).
LOG_SUM_CAP = 1000
# the branch offset of a log is its difference from the principal log over this
_TURN = complex(0.0, TWO_PI)

class ProductReport(_Record):
    """Outcome of an infinite-product evaluation.

    limit_estimate and log_sum are None when accumulation left the
    finite range. singular_index is set only for singular_term.
    criteria_agreement records whether the log-norm and deviation-norm
    absolute-convergence heuristics reached the same verdict.
    """

    verdict: str
    limit_estimate: Bicomplex | None
    terms_used: int
    necessary_condition_ok: bool
    absolute: bool
    log_sum: Bicomplex | None
    criteria_agreement: bool
    singular_index: int | None


class LogSumReport(_Record):
    product_limit: Bicomplex | None
    exp_of_log_sum: Bicomplex | None
    max_discrepancy: float
    branch_offset: tuple[int, int]
    branch_offset_changes: int
    terms_used: int


class AbsoluteReport(_Record):
    via_log_norms: str
    via_deviation_norms: str
    agree: bool
    hypothesis_violation_index: int | None
    terms_used: int


class ProductAnalysis(namedtuple("ProductAnalysis", "product absolute identity")):
    """The three reports of :func:`analyze_product`: a ProductReport, an
    AbsoluteReport and a LogSumReport; ``absolute`` and ``identity`` are
    None where a failure ended them."""

    __slots__ = ()


def _rms(a: complex, b: complex) -> float:
    """``sqrt((|a|**2 + |b|**2)/2)``, squared as ``m*m``; inf where a
    square overflows, so that the overflow guards see it. ``_rms(x, x)``
    is ``abs(x)`` across the exact-RMS range: doubling and halving are
    exact there, and a correctly rounded ``sqrt(m*m)`` is ``m`` while
    ``m*m`` is normal."""
    try:
        m1, m2 = abs(a), abs(b)
    except OverflowError:  # a modulus past the float range: inf
        m1, m2 = _modulus(a), _modulus(b)
    return math.sqrt((m1 * m1 + m2 * m2) / 2.0)


def _moduli_within(q1: complex, q2: complex, dmax: float, k: int) -> bool:
    """The product verdict's range screen on a run of ``k`` terms whose
    first partial products are ``q1`` and ``q2`` and whose deviations are
    at most ``dmax``, from those alone: True only where ``dmax < 1/2`` and
    the bound of ``_Verdict.screen`` puts every partial product inside the
    guard and the floor. The lower side ``(1 - D)**k``, ``D = dmax +
    1e-15``, goes first: it only underflows, and holds only where
    ``k*(-log(1 - D)) <= log(m/(4*ZERO_COLLAPSE))``, ``m`` the larger
    modulus, at most 413.8 as ``m < 1.5*sqrt(2)*OVERFLOW_GUARD`` while the
    verdict is open. As ``log(1 + D) <= -log(1 - D)``, ``(1 + D)**k`` is
    then at most ``e**413.8``, and never overflows (``e**709.8``)."""
    if not dmax < 0.5:
        return False
    m = max(abs(q1), abs(q2))
    step = dmax + 1e-15
    return (2.0 * ZERO_COLLAPSE <= 0.5 * m * (1.0 - step) ** k
            and 2.0 * m * (1.0 + step) ** k <= 0.5 * OVERFLOW_GUARD)


def _deviations(p1s, p2s):
    """``(d1s, d2s, dmax)``: ``|p - 1|`` of each term of both components,
    one list where ``p2s`` is ``p1s``, and the largest. Raises
    OverflowError where a modulus leaves the float range."""
    d1s, d2s = _each(lambda ps: list(map(abs, map(sub, ps, repeat(1.0)))), p1s, p2s)
    return d1s, d2s, max(_each(max, d1s, d2s))


def partial_products(terms, n_max: int = 10**6) -> list[Bicomplex]:
    """Running products of the first ``n_max`` terms.

    Raises NonFiniteError (with the 1-based position) if a term is
    non-finite or the accumulation overflows.
    """
    return _running(terms, n_max, Bicomplex(1.0), Bicomplex.__mul__)


def _shrinking(win1: deque[complex], win2: deque[complex]) -> bool:
    return all(b <= a * (1.0 + 1e-12) for a, b in pairwise(map(_rms, win1, win2)))


class _Consumer:
    """One report of the product pass, ``open`` until frozen or ended.
    ``push(w1, w2, q1, q2, lg1, lg2, l1, l2, dev, used)`` reads term
    ``used``, the partial products, its logs, the log sums and
    ``||w - 1||``, and tells whether the report is open; ``screen(run,
    used)`` passes a run ``(q1s, q2s, lg1s, lg2s, l1, l2, devs, mirror)``,
    the log sums those before it and ``devs`` the run's ``_deviations`` on
    either lane, or gives None where a rule could fire, for ``take``, which
    advances by the float operations of ``push``; ``finish`` reports at
    the end of the terms. It reads terms while ``live``. On a ``mirror``
    run (``_product_pass``) ``q2s`` and ``lg2s`` are ``q1s`` and ``lg1s``:
    the second component's values are their conjugates, up to the sign of
    a zero part."""

    __slots__ = ("open", "report")

    def __init__(self):
        self.open = True
        self.report = None

    @property
    def live(self) -> bool:
        return self.open

    def end(self) -> None:
        self.open = False


class _Absolute(_Consumer):
    """The absolute check: the norm series of ``||log w_n||`` and of
    ``||w_n - 1||`` on two ``series._Tracker``, and the hypothesis that
    every component real part is positive, to the first term that breaks
    it or until both series decide. The series read on while undecided,
    for the product verdict's report; after ``end``, for it alone."""

    __slots__ = ("log", "dev")

    def __init__(self, tol, window):
        super().__init__()
        self.log = _Tracker(tol, window, _HARMONIC_RATIO)
        self.dev = _Tracker(tol, window, _HARMONIC_RATIO)

    @property
    def live(self) -> bool:
        return self.open or self.log.verdict is None or self.dev.verdict is None

    def push(self, w1, w2, q1, q2, lg1, lg2, l1, l2, dev, used) -> bool:
        if self.open and (w1.real <= 0.0 or w2.real <= 0.0):
            self._freeze("hypothesis_violated", "hypothesis_violated", True, used, used)
        self.dev.push(dev, dev, used)
        log = self.log
        if log.verdict is None:
            log_norm = _rms(lg1, lg2)
            log.push(log_norm, log_norm, used)
            if log.verdict is None:
                return self.open
        if self.open and self.dev.verdict is not None:
            self.finish(q1, q2, l1, l2, used)
        return self.open

    def screen(self, run, used):
        # |w - 1| < 1 in each component makes every real part positive
        _, _, lg1s, lg2s, _, _, (d1s, d2s, dmax), _ = run
        steps = []
        if self.open or self.dev.verdict is None:
            if self.open and dmax >= 1.0:
                return None
            dev_norms = _norms(d1s, d2s)
            steps.append((self.dev, dev_norms, dev_norms))
        if self.log.verdict is None:
            log_norms = _norms(*_each(_moduli, lg1s, lg2s))
            steps.append((self.log, log_norms, log_norms))
        return _run_sums(steps)

    def take(self, runs) -> None:
        for tracker, totals, mags in runs:
            tracker.take(totals, mags)

    def finish(self, q1, q2, l1, l2, used) -> None:
        if self.open:
            log, dev = self.log.verdict, self.dev.verdict
            self._freeze(log or "inconclusive", dev or "inconclusive", log == dev, None, used)

    def _freeze(self, via_log, via_dev, agree, violation, used) -> None:
        self.open = False
        self.report = AbsoluteReport(via_log, via_dev, agree, violation, used)


class _Verdict(_Consumer):
    """The product verdict: the rules of the module docstring over the
    partial products, a window of each component's (whose norms a rule
    maps ``_rms`` over) and the dyadic checkpoints over the deviation
    norms, in a deque of their own, read past the deviation series'
    verdict; its report reads ``norms``'."""

    __slots__ = ("tol", "window", "singularity_tol", "norms", "win1", "win2", "checks", "nc_ok")

    def __init__(self, tol, window, singularity_tol, norms):
        super().__init__()
        self.tol = tol
        self.window = window
        self.singularity_tol = singularity_tol
        self.norms = norms
        self.win1: deque[complex] = deque(maxlen=window)
        self.win2: deque[complex] = deque(maxlen=window)
        self.checks = _Checkpoints(tol, window, _FLAT_RATIO)
        self.nc_ok = True

    def push(self, w1, w2, q1, q2, lg1, lg2, l1, l2, dev, used) -> bool:
        if not self.open:
            return False
        win1, win2, checks = self.win1, self.win2, self.checks
        checks.mags.append(dev)
        pnorm = _rms(q1, q2)
        win1.append(q1)
        win2.append(q2)
        verdict = None
        if pnorm > OVERFLOW_GUARD:
            verdict = "diverged"
        elif pnorm < ZERO_COLLAPSE and _shrinking(win1, win2):
            verdict = "diverged_to_zero"
        elif (
            used >= self.window
            and abs(q1 - win1[0]) < (tol := self.tol)
            and abs(q2 - win2[0]) < tol
            and _diameter(win1, tol) < tol
            and _diameter(win2, tol) < tol
        ):
            # stable; classification depends on whether the recent terms
            # actually sit near 1
            if max(checks.mags) < _FLOOR_FACTOR * tol:
                if _pair_zero_divisor_test(q1, q2, self.singularity_tol)[0]:
                    verdict = "diverged"
                else:
                    verdict = "converged_nonsingular"
            elif pnorm < _FLOOR_FACTOR * tol and _shrinking(win1, win2):
                verdict = "diverged_to_zero"
            # stable partial products under far-from-1 terms with no drain
            # toward zero: keep consuming evidence
        if verdict is None and _checkpoint(used) and checks.stalled():
            self.nc_ok = False
            if pnorm >= _rms(win1[0], win2[0]) * (1.0 - 1e-12):
                verdict = "diverged"
        if verdict is None:
            return True
        self.close(verdict, q1, q2, l1, l2, used)
        return False

    def screen(self, run, used):
        """The run's partial products lie inside the guard and the floor,
        and no window pre-test passes: one component moves by tol or more
        across every window.

        The one range rule is ``_moduli_within``, which scans no ``|q|``; a
        run it refuses goes to the per-term body. With ``D = dmax + 1e-15``,
        ``k`` the run's length and ``m1``, ``m2`` the computed moduli of its
        first partial products ``q1s[0]`` and ``q2s[0]``, each component's
        ``|q|`` over the run lies in ``[m*(1 - D)**k/2, 2*m*(1 + D)**k]``,
        ``m`` its own first modulus: so the larger least modulus is at least
        the lower end for ``max(m1, m2)``, and every modulus at most its
        upper end. The computed ``d`` is within 3u of ``|p - 1|`` (u =
        2**-53: one rounding in the real part of ``p - 1``, at most two in
        ``abs``), so ``|p - 1| <= d + 1e-15`` for ``d < 1/2``, and each term
        moves ``|q|`` by a factor in ``[1 - D, 1 + D]``. Python's complex
        product has relative error at most ``sqrt(5)*u`` (Brent, Percival
        and Zimmermann, 2007), and ``abs`` and ``**`` add a few u: over
        ``k`` terms a factor ``(1 ± 3u)**k`` at most, which the factor-2
        margin covers for any run that fits in memory.

        The second pre-test runs where ``q2s`` is not ``q1s``: on the scalar
        lane it would repeat the first bit for bit, and on a mirror run it
        could only pass more runs, as the window rule needs both components
        still. The take extends ``win2`` with the last window's conjugates.
        """
        q1s, q2s, _, _, _, _, (d1s, d2s, dmax), mirror = run
        window, tol = self.window, self.tol
        if not _moduli_within(q1s[0], q2s[0], dmax, len(q1s)):
            return None
        if not (
            min(map(abs, _gaps(self.win1, q1s, window)), default=math.inf) >= tol
            or q2s is not q1s
            and min(map(abs, _gaps(self.win2, q2s, window)), default=math.inf) >= tol
        ):
            return None
        tail = q1s[-window:]
        return (tail, [q.conjugate() for q in tail] if mirror else q2s[-window:],
                _norms(d1s[-window:], d2s[-window:]))

    def take(self, state) -> None:
        q1s, q2s, devs = state
        self.win1.extend(q1s)
        self.win2.extend(q2s)
        self.checks.mags.extend(devs)

    def close(self, verdict, q1, q2, l1, l2, used) -> None:
        if self.open:
            self.open = False
            log, dev = self.norms.log.verdict, self.norms.dev.verdict
            self.report = ProductReport(
                verdict, _pair_or_none(q1, q2), used, self.nc_ok and verdict != "diverged_to_zero",
                log == "converged", _pair_or_none(l1, l2), log == dev,
                used if verdict == "singular_term" else None,
            )

    def finish(self, q1, q2, l1, l2, used) -> None:
        self.close("inconclusive" if self.nc_ok else "diverged", q1, q2, l1, l2, used)


class _Identity(_Consumer):
    """The log-sum identity over the first ``cap`` terms: the discrepancy
    between exp(log sum) and the partial product, and the branch offset
    between the log sum and the product's principal log. NonFiniteError
    where a partial product leaves the finite range or has a 0 component."""

    __slots__ = ("cap", "max_disc", "offset", "changes")

    def __init__(self, cap):
        super().__init__()
        self.cap = cap
        self.max_disc = 0.0
        self.offset = (0, 0)
        self.changes = 0

    def push(self, w1, w2, q1, q2, lg1, lg2, l1, l2, dev, used) -> bool:
        if not self.open:
            return False
        try:
            e1 = cmath.exp(l1)
            e2 = cmath.exp(l2)
        except OverflowError:
            raise NonFiniteError("exponential of log sum overflowed", term_index=used) from None
        den = _rms(q1, q2)
        if den == 0.0:
            raise NonFiniteError("partial product underflowed to zero", term_index=used)
        if den == math.inf:
            raise NonFiniteError("partial product overflowed", term_index=used)
        if q1 == 0.0 or q2 == 0.0:
            raise NonFiniteError("partial product component underflowed to zero", term_index=used)
        disc = _rms(e1 - q1, e2 - q2) / den
        if disc > self.max_disc:
            self.max_disc = disc
        a = (l1 - cmath.log(q1)) / _TURN
        b = (l2 - cmath.log(q2)) / _TURN
        current = (round(a.real), round(b.real))
        if current != self.offset:
            self.changes += 1
            self.offset = current
        if used == self.cap:
            self.finish(q1, q2, l1, l2, used)
        return self.open

    def screen(self, run, used):
        # the terms up to the cap, where every step of push is defined:
        # no exp overflows (OverflowError), every norm is positive and
        # finite (a NaN fails the sum), and no component is 0
        k = self.cap - used
        q1s, q2s, lg1s, lg2s, l1, l2 = run[:6]
        scalar = q2s is q1s
        if k < len(q1s):
            (q1s, q2s), (lg1s, lg2s) = _cut((q1s, q2s), 0, k), _cut((lg1s, lg2s), 0, k)
        ls1s = _partials(lg1s, add, l1)
        ls2s = ls1s if scalar else _partials(lg2s, add, l2)
        e1s, e2s = _each(lambda ls: list(map(cmath.exp, ls)), ls1s, ls2s)
        m1s, m2s = _each(_moduli, q1s, q2s)
        dens = _norms(m1s, m2s)
        if not (0.0 < min(dens) and sum(dens) < math.inf and 0.0 < min(m1s) and 0.0 < min(m2s)):
            return None
        g1s = list(map(abs, map(sub, e1s, q1s)))
        g2s = g1s if scalar else list(map(abs, map(sub, e2s, q2s)))
        discs = list(map(truediv, _norms(g1s, g2s), dens))
        turn, real = repeat(_TURN), attrgetter("real")
        r1s = list(map(round, map(real, map(truediv, map(sub, ls1s, map(cmath.log, q1s)), turn))))
        r2s = r1s if scalar else list(
            map(round, map(real, map(truediv, map(sub, ls2s, map(cmath.log, q2s)), turn)))
        )
        o1, o2 = self.offset
        changes = sum(map(or_, map(ne, r1s, [o1, *r1s[:-1]]), map(ne, r2s, [o2, *r2s[:-1]])))
        last = (q1s[-1], q2s[-1], ls1s[-1], ls2s[-1], self.cap) if used + len(q1s) == self.cap else None
        return max(discs), (r1s[-1], r2s[-1]), changes, last

    def take(self, state) -> None:
        disc, offset, changes, last = state
        if disc > self.max_disc:
            self.max_disc = disc
        self.offset = offset
        self.changes += changes
        if last is not None:
            self.finish(*last)

    def finish(self, q1, q2, l1, l2, used) -> None:
        # no exp overflows: the sums are 0, or push or screen took their exp
        if self.open:
            self.open = False
            self.report = LogSumReport(
                _pair_or_none(q1, q2), _pair_or_none(cmath.exp(l1), cmath.exp(l2)),
                self.max_disc, self.offset, self.changes, used,
            )


def _product_pass(blocks, n_max: int, singularity_tol: float, consumers) -> None:
    """The one loop over the terms, given in blocks ``(p1s, p2s)``, behind
    every product analysis: ``series._drive`` feeds the ``consumers`` (the
    absolute check before the product verdict, which reads its series)
    while any is open. The pass forms what they read; the block step forms
    it as lists and takes a run that its zero-divisor screen and every live
    consumer's screen pass. Every other term goes to the per-term body,
    which makes the pair zero-divisor test on it: a screen only routes.

    A run whose two lists are one is on the scalar lane, as is every run of
    its term, so the partial products and log sums have equal components:
    the block step forms one list of each for both, and the per-term body's
    second component is a bit-identical copy. A run of floats (the float
    lane of ``seqspec``) holds finite nonnegative terms, and every carried
    product is ``(a, +0.0)`` with ``0 <= a`` below the overflow guard, so
    ``q*x`` is ``(a*x, +0.0)`` whether CPython takes ``x`` as ``complex(x,
    0.0)``, as through 3.13, or by the mixed-mode rule of 3.14, ``(a*x,
    (+0.0)*x)``. On both lanes the block step first forms the run's
    ``_deviations`` ``|p - 1|`` once, with their largest ``dmax``, which
    its screens read. Where ``dmax < 1/2`` and
    ``singularity_tol < 1/9`` (nonnegative: the analyzers check it on
    entry), no term of the run is singular, with no scan; elsewhere
    ``core._none_singular``, the one zero-divisor screen of a block,
    decides on either lane. The 1/9, ``p1 == p2`` included: ``|p1||p2| >=
    1/4`` against a threshold of at most ``tol*(3/2)**2``. The rounding
    slack: a computed ``d`` is within 3u of ``|p - 1|`` (u = 2**-53: one
    rounding in the real part of ``p - 1``, at most two in ``abs``), so
    each computed modulus ``m`` lies in ``[1/2 - 4u, 3/2 + 4u]``. The
    test's own pair then leaves a wide margin: where its ``(m1*m1 +
    m2*m2)/2.0`` is at most 1, the threshold is ``tol < 1/9`` against
    ``m1*m2 >= 1/4 - 5u``; elsewhere ``m1*m2`` over that mean is ``2r/(1 +
    r*r)`` for the ratio ``r <= 3 + 40u`` of the moduli, at least ``3/5 -
    8u``, and each side of the test rounds by a factor ``(1 ± u)**3`` at
    most.

    A pair-lane run is a mirror run where its second component is the
    conjugate of its first, as for a term ``z1 + z2*i2`` with ``z1`` and
    ``z2`` real: the log-sum identity is closed; the carried state mirrors
    (``q2 == conj(q1)`` and ``l2 == conj(l1)``); ``p2s`` equals the
    conjugates of ``p1s``, tested after its first term;
    and ``dmax < 1/2``. Each test is by value, which ignores only the sign
    of a zero. Complex ``*`` and ``+`` keep that relation: conjugating both
    operands negates each product or sum that makes up the result's
    imaginary part and leaves its real part, and rounding to nearest is
    symmetric, except that an exact zero is ``+0.0`` either way
    (``conj((1+1j)*(1-1j))`` is ``2-0j``, ``conj(1+1j)*conj(1-1j)`` is
    ``2+0j``). ``abs`` reads the magnitudes of the parts alone, and
    ``cmath.log`` keeps the relation where ``Re p > 0``, which ``dmax <
    1/2`` gives: off the negative real axis no sign of a zero turns into
    ``±pi``. So each second-component value of a mirror run equals the
    conjugate of the first's up to the sign of its zero parts, and the
    step forms the first alone: ``d2s`` is ``d1s`` (also where ``dmax``
    ends the route), the log moduli are ``|log p1|``, and the verdict's
    screen reads ``q1s`` and ``win1`` alone; none of these reads a sign of
    a zero. ``win2`` needs no test: the take appends the conjugates of the
    run's last ``q1`` values, the per-term ``q2`` values up to zero signs,
    which no reader of ``win2`` sees (each takes ``abs`` or ``_rms``), and
    keeps its older, per-term entries. At the end of the run ``q2`` and
    ``l2`` are the conjugates of ``q1`` and ``l1`` where both parts are
    nonzero, where value and bits agree; elsewhere the step forms them
    from ``p2s`` as on any other run, so every carried bit stays the
    per-term body's. The identity is left out because it reads
    ``log(q2)`` bit for bit, and ``q`` can reach the negative real axis.
    ``tests/test_products.py`` checks the premises on the platform.

    With the product verdict among the consumers, failures are routed as
    ``analyze_product`` states: a singular term freezes it as
    singular_term and ends the others; a term that cannot be evaluated
    once it is frozen, or the identity's NonFiniteError, ends each
    consumer it reaches. Without it, they propagate, and a singular term
    raises SingularTerm.
    """
    verdict = next((c for c in consumers if type(c) is _Verdict), None)
    identity = next((c for c in consumers if type(c) is _Identity), None)
    feeds = [(consumer, consumer.push) for consumer in consumers]
    q1 = q2 = 1.0 + 0j
    l1 = l2 = 0j

    def step(p1s, p2s, used):
        nonlocal q1, q2, l1, l2
        taken = []
        # the mirror-run tests but dmax's, the carried state's first
        mirror = (
            p2s is not p1s
            and (identity is None or not identity.open)
            and q2 == q1.conjugate() and l2 == l1.conjugate()
            and p2s[0] == p1s[0].conjugate()
            and p2s == [p.conjugate() for p in p1s]
        )
        try:
            devs = _deviations(p1s, p1s if mirror else p2s)
            if not (devs[2] < 0.5 and singularity_tol < 1.0 / 9.0
                    or _none_singular(p1s, p2s, singularity_tol)):
                return None
            mirror = mirror and devs[2] < 0.5
            q1s, lg1s = _partials(p1s, mul, q1), list(map(cmath.log, p1s))
            if p2s is p1s or mirror:
                q2s, lg2s = q1s, lg1s
            else:
                q2s, lg2s = _partials(p2s, mul, q2), list(map(cmath.log, p2s))
            run = (q1s, q2s, lg1s, lg2s, l1, l2, devs, mirror)
            for consumer in consumers:
                if consumer.live:
                    state = consumer.screen(run, used)
                    if state is None:
                        return None
                    taken.append((consumer, state))
        except OverflowError:
            return None
        for consumer, state in taken:
            consumer.take(state)
        q1 = q1s[-1]
        l1 = reduce(add, lg1s, l1)
        if mirror:
            q2 = q1.conjugate() if q1.real and q1.imag else reduce(mul, p2s, q2)
            l2 = l1.conjugate() if l1.real and l1.imag else reduce(add, map(cmath.log, p2s), l2)
        else:
            q2 = q2s[-1]
            l2 = l1 if lg2s is lg1s else reduce(add, lg2s, l2)
        return any(consumer.open for consumer in consumers)

    def read(w1, w2, used):
        nonlocal q1, q2, l1, l2
        if _pair_zero_divisor_test(w1, w2, singularity_tol)[0]:
            if verdict is None:
                raise SingularTerm(f"singular term at position {used}", index=used)
            verdict.close("singular_term", q1, q2, l1, l2, used)
            for consumer in consumers:
                consumer.end()
            return False
        q1 *= w1
        lg1 = cmath.log(w1)
        l1 += lg1
        q2 *= w2
        lg2 = cmath.log(w2)
        l2 += lg2
        dev = _rms(w1 - 1.0, w2 - 1.0)
        reading = False
        for consumer, push in feeds:
            try:
                if push(w1, w2, q1, q2, lg1, lg2, l1, l2, dev, used):
                    reading = True
            except NonFiniteError:
                if verdict is None:
                    raise
                consumer.end()
        return reading

    try:
        used = _drive(blocks, n_max, step, read)
    except _TermError:
        # once the product verdict is frozen, a term that cannot be
        # evaluated ends the consumers still open without a report
        if verdict is None or verdict.open:
            raise
        for consumer in consumers:
            consumer.end()
        return
    for consumer in consumers:
        consumer.finish(q1, q2, l1, l2, used)


def analyze_product(
    terms,
    *,
    tol: float = 1e-10,
    window: int = 8,
    n_max: int = 10**6,
) -> ProductAnalysis:
    """Product verdict, absolute check and log-sum identity in one pass.

    The reports equal those of the three views given the terms afresh
    (the identity over ``min(n_max, LOG_SUM_CAP)`` terms). While the
    verdict is open, failures propagate as from ``evaluate_product``
    and a singular term gives singular_term with the other two None.
    Once it is frozen, a singular or failing term, or the identity's
    own NonFiniteError, sets each report it ends to None.
    """
    _validate(tol, window, n_max)
    return _analyze_product_pairs(_term_pairs(terms), tol, window, n_max)


def _analyze_product_pairs(pairs, tol, window, n_max) -> ProductAnalysis:
    """analyze_product over blocks of (p1, p2) term pairs, arguments
    checked; the CLI's ``product``."""
    absolute = _Absolute(tol, window)
    verdict = _Verdict(tol, window, SINGULARITY_TOLERANCE, absolute)
    identity = _Identity(min(n_max, LOG_SUM_CAP))
    _product_pass(pairs, n_max, SINGULARITY_TOLERANCE, (absolute, verdict, identity))
    if verdict.report.verdict == "singular_term":
        return ProductAnalysis(verdict.report, None, None)
    return ProductAnalysis(verdict.report, absolute.report, identity.report)


def evaluate_product(
    terms,
    *,
    tol: float = 1e-10,
    window: int = 8,
    n_max: int = 10**6,
    singularity_tol: float = SINGULARITY_TOLERANCE,
) -> ProductReport:
    """Classify the convergence of a bicomplex infinite product.

    Consumes at most ``n_max`` terms. Divergence is only ever declared
    on explicit evidence; see the module docstring for the verdict
    catalogue. Raises NonFiniteError with the term position if a term
    itself is non-finite.
    """
    _validate(tol, window, n_max)
    _check_tolerance(singularity_tol)
    norms = _Absolute(tol, window)
    norms.end()
    verdict = _Verdict(tol, window, singularity_tol, norms)
    _product_pass(_term_pairs(terms), n_max, singularity_tol, (norms, verdict))
    return verdict.report


def log_sum_equivalence(
    terms,
    *,
    n_max: int = 1000,
    singularity_tol: float = SINGULARITY_TOLERANCE,
) -> LogSumReport:
    """Compare partial products against exponentials of log partial sums.

    At every step the exponential of the accumulated componentwise
    principal logarithms is compared with the running product; the worst
    relative Euclidean discrepancy is reported. The accumulated log sum
    is itself a logarithm of the product, but generally on a different
    branch: the integer branch offset per component is tracked, together
    with how many times it changed along the way.

    Raises SingularTerm for a singular term, NonFiniteError if the
    accumulation leaves the finite range or a component of the partial
    product underflows to zero; both carry the 1-based index.
    """
    _validate(1.0, 2, n_max)
    _check_tolerance(singularity_tol)
    identity = _Identity(n_max)
    _product_pass(_term_pairs(terms), n_max, singularity_tol, (identity,))
    return identity.report


def absolute_convergence_check(
    terms,
    *,
    tol: float = 1e-10,
    window: int = 8,
    n_max: int = 10**6,
    singularity_tol: float = SINGULARITY_TOLERANCE,
) -> AbsoluteReport:
    """Run the two absolute-convergence criteria side by side.

    Criterion one sums the norms of the componentwise principal log of
    each term; criterion two sums the norms of the deviations from 1.
    The two are equivalent for terms near 1 whose components stay in the
    right half plane; a term with a component real part <= 0 stops the
    comparison with verdict "hypothesis_violated" on both sides and
    records the index. Raises SingularTerm for singular terms.
    """
    _validate(tol, window, n_max)
    _check_tolerance(singularity_tol)
    absolute = _Absolute(tol, window)
    _product_pass(_term_pairs(terms), n_max, singularity_tol, (absolute,))
    return absolute.report
