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

The companion checks relate the product to the series of term
logarithms: ``log_sum_equivalence`` verifies exp(sum of logs) against
the partial products and tracks the branch offset between the two,
``absolute_convergence_check`` compares the log-norm and the
deviation-norm convergence criteria, and ``log_bound_check`` tests the
two-sided norm comparison that justifies swapping one criterion for the
other for small deviations. ``SingularTerm`` (from ``core``),
``log_bound_check`` and ``BoundCheck`` (from ``transcendental``) are
re-exported here.

``analyze_product`` gives the product report, the absolute check and
the log-sum identity from one pass that reads each term once, as its
idempotent components ``(p1, p2)``, and computes its logarithms and
deviation norm once. Each report freezes at its own stop rule: the
product at its verdict or the budget ``n_max``; the absolute check at
the first term with a component real part <= 0 (tested before the term
counts) or once both norm series, which the product report shares,
have decided; the identity after ``min(n_max, LOG_SUM_CAP)`` terms.
``evaluate_product``, ``absolute_convergence_check`` and
``log_sum_equivalence`` run the same pass for one report each. The
pass reads its terms in blocks: the public analyzers hand it the pair a
Bicomplex term stores, one term per block, as each is read; the CLI's
``product`` hands it the index walker's blocks of compiled terms, with
no ``Bicomplex``, and a scalar term as one complex, both components.
A run of terms where no rule can fire is taken in one block step
(``_product_pass``). Zero divisors are found with the zero-divisor test
on the pair.

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
from operator import add, mul, sub, truediv

from .core import (
    SINGULARITY_TOLERANCE, Bicomplex, NonFiniteError, SingularTerm, _none_singular,
    _pair_zero_divisor_test, _pairs_none_singular, _Record, _validate, _zero_divisor_test,
)
from .seqspec import _TERM_ERRORS
from .series import (
    _EXACT_RMS_MAX, _EXACT_RMS_MIN, _FLAT_RATIO, _FLOOR_FACTOR, _HARMONIC_RATIO,
    _MIN_RUN, OVERFLOW_GUARD, _Checkpoints, _diameter, _gaps, _pair_or_none,
    _partials, _rising_quiet, _running, _runs, _term_pairs,
)
from .transcendental import TWO_PI, BoundCheck, log1p, log_bound_check

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

# the identity diagnostic is quadratic-feeling in practice (an exp per
# step), so it gets its own cap
LOG_SUM_CAP = 1000

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
    """``sqrt((|a|**2 + |b|**2)/2)``, or inf where the squares overflow,
    so that the overflow guards see it."""
    try:
        return math.sqrt((abs(a) ** 2 + abs(b) ** 2) / 2.0)
    except OverflowError:
        return math.inf


def _modulus_rms(x: complex) -> float:
    """``_rms(x, x)``: ``abs(x)`` itself in the exact-RMS range."""
    try:
        m = abs(x)
    except OverflowError:
        return math.inf
    return m if _EXACT_RMS_MIN <= m <= _EXACT_RMS_MAX else _rms(x, x)


def _norms(m1s, m2s, scalar: bool):
    """``_rms(a, b)`` of each pair of values whose moduli are ``m1s`` and
    ``m2s``, or with ``scalar`` ``_modulus_rms(a)`` of each value whose
    modulus is in ``m1s``, at C speed with the same float operations; None
    where one would leave the float range (``_rms`` gives inf there) or,
    with ``scalar``, a modulus lies outside the exact-RMS range."""
    if scalar:
        return m1s if _EXACT_RMS_MIN <= min(m1s) and max(m1s) <= _EXACT_RMS_MAX else None
    try:
        squares = map(add, map(pow, m1s, repeat(2)), map(pow, m2s, repeat(2)))
        return list(map(math.sqrt, map(truediv, squares, repeat(2.0))))
    except OverflowError:
        return None


def partial_products(terms, n_max: int = 10**6) -> list[Bicomplex]:
    """Running products of the first ``n_max`` terms.

    Raises NonFiniteError (with the 1-based position) if a term is
    non-finite or the accumulation overflows.
    """
    return _running(terms, n_max, Bicomplex(1.0), Bicomplex.__mul__)


def _shrinking(pnorms: deque[float]) -> bool:
    return all(b <= a * (1.0 + 1e-12) for a, b in pairwise(pnorms))


# the norm series' verdicts: "converged", "diverged", or None while open
def _product_report(
    verdict, q1, q2, l1, l2, used, nc_ok, log_verdict, dev_verdict
) -> ProductReport:
    return ProductReport(
        verdict=verdict,
        limit_estimate=_pair_or_none(q1, q2),
        terms_used=used,
        necessary_condition_ok=nc_ok and verdict != "diverged_to_zero",
        absolute=log_verdict == "converged",
        log_sum=_pair_or_none(l1, l2),
        criteria_agreement=log_verdict == dev_verdict,
        singular_index=used if verdict == "singular_term" else None,
    )


def _absolute_report(log_verdict, dev_verdict, used) -> AbsoluteReport:
    return AbsoluteReport(
        via_log_norms=log_verdict or "inconclusive",
        via_deviation_norms=dev_verdict or "inconclusive",
        agree=log_verdict == dev_verdict,
        hypothesis_violation_index=None,
        terms_used=used,
    )


def _identity_step(q1, q2, l1, l2, used) -> tuple[float, tuple[int, int]]:
    """Discrepancy between exp(log sum) and the partial product, and the
    branch offset between the log sum and the principal log of the
    product, after ``used`` terms."""
    try:
        e1 = cmath.exp(l1)
        e2 = cmath.exp(l2)
    except OverflowError:
        raise NonFiniteError(
            "exponential of log sum overflowed", term_index=used
        ) from None
    den = _rms(q1, q2)
    if den == 0.0:
        raise NonFiniteError("partial product underflowed to zero", term_index=used)
    if den == math.inf:
        raise NonFiniteError("partial product overflowed", term_index=used)
    if q1 == 0.0 or q2 == 0.0:
        raise NonFiniteError(
            "partial product component underflowed to zero", term_index=used
        )
    disc = _rms(e1 - q1, e2 - q2) / den
    a = (l1 - cmath.log(q1)) / complex(0.0, TWO_PI)
    b = (l2 - cmath.log(q2)) / complex(0.0, TWO_PI)
    return disc, (round(a.real), round(b.real))


def _identity_report(q1, q2, l1, l2, max_disc, offset, changes, used) -> LogSumReport:
    # cannot overflow: built before any term (sums 0) or just after
    # _identity_step took cmath.exp of the same sums
    return LogSumReport(
        product_limit=_pair_or_none(q1, q2),
        exp_of_log_sum=_pair_or_none(cmath.exp(l1), cmath.exp(l2)),
        max_discrepancy=max_disc,
        branch_offset=offset,
        branch_offset_changes=changes,
        terms_used=used,
    )


def _product_pass(
    blocks,
    n_max: int,
    singularity_tol: float,
    *,
    tol: float = 1e-10,
    window: int = 8,
    product: bool = False,
    absolute: bool = False,
    identity_terms: int = 0,
    scalar: bool = False,
) -> ProductAnalysis:
    """The one loop over the terms, given in blocks ``(p1s, p2s)``, behind
    every product analysis.

    With ``scalar``, each block is one list, each term one complex, both
    of its components: one accumulator, log sum and window run, the
    zero-divisor tests read the one component, and each norm
    ``_rms(x, x)`` is ``abs(x)`` where that is exact (``_modulus_rms``).

    The norm series of the absolute check, of ``||log w_n||`` and of
    ``||w_n - 1||``, run in lockstep as local state (a total, a window of
    partial sums and a ``_Checkpoints`` each; the product verdict shares
    the deviations' magnitudes) under the rules of ``series._Tracker.push``,
    written inline so that a term makes no call for bookkeeping.

    The block step: once the identity is over, a run of ``_MIN_RUN`` or
    more terms, none of them a checkpoint (``series._runs``), is taken at
    once where C-level scans show that no rule can fire at any of its
    terms:

    * no zero divisor (``_none_singular``, ``_pairs_none_singular``; both
      need ``0 <= singularity_tol < 1``, which the CLI's tolerance is);
    * while the absolute check is live, every ``|w - 1| < 1`` in each
      component, which makes every real part positive;
    * the norm series' partial sums pass ``series._rising_quiet``;
    * while the product is live, its norms lie inside the overflow guard
      and above the zero-collapse floor, bounded by the component moduli
      on the pair lane, and no window pre-test passes.

    Accumulators, windows and magnitude deques then advance with the
    float operations of the per-term body, in its order; the deques take
    only the last ``window`` values, which is all they keep. Any other run
    is read one term at a time by the per-term body, the one spelling of
    every rule.

    Feeds the requested consumers (the identity over the first
    ``identity_terms <= n_max`` terms) while any is live. With the
    product consumer, failures are routed as ``analyze_product`` states;
    without it, they propagate and a singular term raises SingularTerm.
    """
    prod_live, abs_live, id_live = product, absolute, identity_terms > 0
    prod_report = abs_report = id_report = verdict = None
    # shared accumulators: partial products and log sums
    q1 = 1.0 + 0j
    q2 = 1.0 + 0j
    l1 = 0j
    l2 = 0j
    # the norm series, each with a verdict that is None while open
    log_verdict = dev_verdict = None
    log_total = dev_total = 0.0
    log_sums: deque[float] = deque(maxlen=window)
    dev_sums: deque[float] = deque(maxlen=window)
    log_checks = _Checkpoints(tol, window, _HARMONIC_RATIO)
    dev_checks = _Checkpoints(tol, window, _HARMONIC_RATIO)
    # product verdict state
    win1: deque[complex] = deque(maxlen=window)
    win2 = win1 if scalar else deque(maxlen=window)
    pnorms: deque[float] = deque(maxlen=window)
    checks = _Checkpoints(tol, window, _FLAT_RATIO)  # over the deviations
    checks.mags = dev_checks.mags
    nc_ok = True
    # identity state
    max_disc = 0.0
    offset = (0, 0)
    changes = 0
    used = 0
    log_sum_push, dev_sum_push = log_sums.append, dev_sums.append
    log_mag_push, dev_mag_push = log_checks.mags.append, checks.mags.append
    win1_push, win2_push, pnorm_push = win1.append, win2.append, pnorms.append

    try:
        for p1s, p2s in _runs(blocks, n_max, scalar):
            if len(p1s) >= _MIN_RUN and not id_live and (
                _none_singular(p1s, singularity_tol) if scalar
                else _pairs_none_singular(p1s, p2s, singularity_tol)
            ):
                # the block step
                try:
                    q1s = _partials(p1s, mul, q1)
                    lg1s = list(map(cmath.log, p1s))
                    if scalar:
                        q2s, lg2s = q1s, lg1s
                    else:
                        q2s = _partials(p2s, mul, q2)
                        lg2s = list(map(cmath.log, p2s))
                    # the deviations: all of them while the deviation series
                    # or the absolute check is open (|w - 1| < 1 makes the
                    # real part positive: the hypothesis screen), else the
                    # last window, all that the magnitudes keep
                    tail = (slice(None) if dev_verdict is None or abs_live
                            else slice(-window, None))
                    d1s = list(map(abs, map(sub, p1s[tail], repeat(1.0))))
                    d2s = d1s if scalar else list(map(abs, map(sub, p2s[tail], repeat(1.0))))
                    devs = _norms(d1s, d2s, scalar)
                    quiet = devs is not None and not (
                        abs_live and (max(d1s) >= 1.0 or max(d2s) >= 1.0)
                    )
                    if quiet and dev_verdict is None:
                        dev_totals = _partials(devs, add, dev_total)
                        quiet = _rising_quiet(dev_sums, dev_totals, window, tol)
                    if quiet and log_verdict is None:
                        lm1s = list(map(abs, lg1s))
                        log_norms = _norms(lm1s, lm1s if scalar else list(map(abs, lg2s)), scalar)
                        quiet = log_norms is not None
                        if quiet:
                            log_totals = _partials(log_norms, add, log_total)
                            quiet = _rising_quiet(log_sums, log_totals, window, tol)
                    if quiet and prod_live:
                        m1s = list(map(abs, q1s))
                        if scalar:
                            # inside the guard and the floor, the norms are
                            # the moduli: the exact-RMS range holds both
                            quiet = ZERO_COLLAPSE <= min(m1s) and max(m1s) <= OVERFLOW_GUARD
                            qnorms = m1s
                        else:
                            # m/sqrt(2) <= _rms(a, b) <= m, m the larger
                            # modulus, up to a few ulps: halve the margins
                            m2s = list(map(abs, q2s))
                            quiet = (2.0 * ZERO_COLLAPSE <= max(min(m1s), min(m2s))
                                     and max(max(m1s), max(m2s)) <= 0.5 * OVERFLOW_GUARD)
                            qnorms = list(map(_rms, q1s[-window:], q2s[-window:]))
                        # no window pre-test passes: one component moves by
                        # tol or more across every window
                        quiet = quiet and (
                            min(map(abs, _gaps(win1, q1s, window)), default=math.inf) >= tol
                            or not scalar
                            and min(map(abs, _gaps(win2, q2s, window)), default=math.inf) >= tol
                        )
                except OverflowError:
                    quiet = False
                if quiet:
                    used += len(p1s)
                    q1 = q1s[-1]
                    q2 = q2s[-1]
                    l1 = reduce(add, lg1s, l1)
                    l2 = l1 if scalar else reduce(add, lg2s, l2)
                    checks.mags.extend(devs[-window:])
                    if dev_verdict is None:
                        dev_total = dev_totals[-1]
                        dev_sums.extend(dev_totals[-window:])
                    if log_verdict is None:
                        log_total = log_totals[-1]
                        log_sums.extend(log_totals[-window:])
                        log_checks.mags.extend(log_norms[-window:])
                    if prod_live:
                        win1.extend(q1s[-window:])
                        if not scalar:
                            win2.extend(q2s[-window:])
                        pnorms.extend(qnorms[-window:])
                    continue

            for wp1, wp2 in zip(p1s, p2s):
                used += 1
                if (
                    _zero_divisor_test(wp1, singularity_tol) if scalar
                    else _pair_zero_divisor_test(wp1, wp2, singularity_tol)
                )[0]:
                    if not product:
                        raise SingularTerm(f"singular term at position {used}", index=used)
                    if prod_live:
                        verdict = "singular_term"
                        abs_report = id_report = None
                    abs_live = id_live = False
                    break

                if abs_live and (wp1.real <= 0.0 or wp2.real <= 0.0):
                    abs_report = AbsoluteReport(
                        via_log_norms="hypothesis_violated",
                        via_deviation_norms="hypothesis_violated",
                        agree=True,
                        hypothesis_violation_index=used,
                        terms_used=used,
                    )
                    abs_live = False
                q1 *= wp1
                lg1 = cmath.log(wp1)
                l1 += lg1
                if scalar:
                    q2, lg2, l2 = q1, lg1, l1
                else:
                    q2 *= wp2
                    lg2 = cmath.log(wp2)
                    l2 += lg2

                if prod_live or abs_live:
                    dev = _modulus_rms(wp1 - 1.0) if scalar else _rms(wp1 - 1.0, wp2 - 1.0)
                    dev_mag_push(dev)
                    # a norm series reads every term up to its verdict: ``used``
                    # is its count, and its rising sums make newest - oldest the
                    # window pre-test
                    if log_verdict is None:
                        log_norm = _modulus_rms(lg1) if scalar else _rms(lg1, lg2)
                        log_total += log_norm
                        log_sum_push(log_total)
                        log_mag_push(log_norm)
                        if log_total > OVERFLOW_GUARD:
                            log_verdict = "diverged"
                        elif (used >= window and log_total - log_sums[0] < tol
                              and _diameter(log_sums) < tol):
                            log_verdict = "converged"
                        elif used == log_checks.due and log_checks.stalled():
                            log_verdict = "diverged"
                    if dev_verdict is None:
                        dev_total += dev
                        dev_sum_push(dev_total)
                        if dev_total > OVERFLOW_GUARD:
                            dev_verdict = "diverged"
                        elif (used >= window and dev_total - dev_sums[0] < tol
                              and _diameter(dev_sums) < tol):
                            dev_verdict = "converged"
                        elif used == dev_checks.due and dev_checks.stalled():
                            dev_verdict = "diverged"
                    if abs_live and log_verdict is not None and dev_verdict is not None:
                        abs_report = _absolute_report(log_verdict, dev_verdict, used)
                        abs_live = False

                if prod_live:
                    pnorm = _modulus_rms(q1) if scalar else _rms(q1, q2)
                    win1_push(q1)
                    if not scalar:
                        win2_push(q2)
                    pnorm_push(pnorm)
                    if pnorm > OVERFLOW_GUARD:
                        verdict = "diverged"
                    elif pnorm < ZERO_COLLAPSE and _shrinking(pnorms):
                        verdict = "diverged_to_zero"
                    elif (
                        used >= window
                        and abs(q1 - win1[0]) < tol
                        and abs(q2 - win2[0]) < tol
                        and _diameter(win1) < tol
                        and _diameter(win2) < tol
                    ):
                        # stable; classification depends on whether the recent
                        # terms actually sit near 1
                        if max(checks.mags) < _FLOOR_FACTOR * tol:
                            if (
                                _zero_divisor_test(q1, singularity_tol) if scalar
                                else _pair_zero_divisor_test(q1, q2, singularity_tol)
                            )[0]:
                                verdict = "diverged"
                            else:
                                verdict = "converged_nonsingular"
                        elif pnorm < _FLOOR_FACTOR * tol and _shrinking(pnorms):
                            verdict = "diverged_to_zero"
                        # stable partial products under far-from-1 terms with no
                        # drain toward zero: keep consuming evidence
                    if verdict is None and used == checks.due and checks.stalled():
                        nc_ok = False
                        if pnorms[-1] >= pnorms[0] * (1.0 - 1e-12):
                            verdict = "diverged"
                    if verdict is not None:
                        prod_report = _product_report(
                            verdict, q1, q2, l1, l2, used, nc_ok, log_verdict, dev_verdict
                        )
                        prod_live = False

                if id_live:
                    try:
                        disc, current = _identity_step(q1, q2, l1, l2, used)
                    except NonFiniteError:
                        if not product:
                            raise
                        id_live = False
                    else:
                        if disc > max_disc:
                            max_disc = disc
                        if current != offset:
                            changes += 1
                            offset = current
                        if used == identity_terms:
                            id_report = _identity_report(
                                q1, q2, l1, l2, max_disc, offset, changes, used
                            )
                            id_live = False
                if not (prod_live or abs_live or id_live):
                    break
            else:
                continue
            break
    except _TERM_ERRORS:
        # once the product verdict is frozen, a term that cannot be
        # evaluated ends the consumers still live without a report
        if prod_live or not product:
            raise
        abs_live = id_live = False

    # a singular term, or the terms ran out: every consumer still live
    # reports what it has
    if prod_live:
        if verdict is None:
            verdict = "diverged" if not nc_ok else "inconclusive"
        prod_report = _product_report(
            verdict, q1, q2, l1, l2, used, nc_ok, log_verdict, dev_verdict
        )
    if abs_live:
        abs_report = _absolute_report(log_verdict, dev_verdict, used)
    if id_live:
        id_report = _identity_report(q1, q2, l1, l2, max_disc, offset, changes, used)
    return ProductAnalysis(prod_report, abs_report, id_report)


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


def _analyze_product_pairs(pairs, tol, window, n_max, scalar=False) -> ProductAnalysis:
    """analyze_product over (p1, p2) term pairs, or one complex per term
    with ``scalar``, with arguments already checked by _validate; the
    CLI's ``product`` enters here."""
    return _product_pass(
        pairs, n_max, SINGULARITY_TOLERANCE, tol=tol, window=window,
        product=True, absolute=True, identity_terms=min(n_max, LOG_SUM_CAP),
        scalar=scalar,
    )


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
    return _product_pass(
        _term_pairs(terms), n_max, singularity_tol, tol=tol, window=window, product=True
    ).product


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
    return _product_pass(
        _term_pairs(terms), n_max, singularity_tol, identity_terms=n_max
    ).identity


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
    return _product_pass(
        _term_pairs(terms), n_max, singularity_tol, tol=tol, window=window, absolute=True
    ).absolute
