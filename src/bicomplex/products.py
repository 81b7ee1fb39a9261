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
other for small deviations.

``analyze_product`` gives the product report, the absolute check and
the log-sum identity from one pass that reads each term once, as its
idempotent components ``(p1, p2)``, and computes its logarithms and
deviation norm once. Each report freezes at its own stop rule: the
product at its verdict or the budget ``n_max``; the absolute check at
the first term with a component real part <= 0 (tested before the term
counts) or once both norm trackers, which the product report shares,
have decided; the identity after ``min(n_max, LOG_SUM_CAP)`` terms.
``evaluate_product``, ``absolute_convergence_check`` and
``log_sum_equivalence`` run the same pass for one report each. The
public analyzers split each Bicomplex term once on its way in; the
CLI's ``product`` feeds the pairs of compiled terms straight in, with
no ``Bicomplex`` and no split. Zero divisors are found with the
zero-divisor test on the pair.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice, pairwise
from typing import NamedTuple

from .core import (
    SINGULARITY_TOLERANCE, Bicomplex, NonFiniteError, SingularOperand, _coerce,
    _pair_zero_divisor_test,
)
from .seqspec import IdempotentSlotError
from .series import (
    _FIRST_CHECKPOINT, _FLAT_RATIO, _FLOOR_FACTOR, _HARMONIC_RATIO, OVERFLOW_GUARD,
    _diameter, _pair_or_none, _running, _split_terms, _stalled, _Tracker, _validate,
)
from .transcendental import TWO_PI, log1p

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

# What evaluating a term may raise (see seqspec.eval_term and
# seqspec._pair_generator). Once the product verdict is frozen, such a
# term ends the consumers still live without a report instead of
# propagating.
_TERM_ERRORS = (SingularOperand, NonFiniteError, IdempotentSlotError)


class SingularTerm(ArithmeticError):
    """A term of the sequence was a zero divisor (1-based index)."""

    def __init__(self, message: str = "singular term", index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ProductReport:
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


@dataclass(frozen=True)
class LogSumReport:
    product_limit: Bicomplex | None
    exp_of_log_sum: Bicomplex | None
    max_discrepancy: float
    branch_offset: tuple[int, int]
    branch_offset_changes: int
    terms_used: int


@dataclass(frozen=True)
class AbsoluteReport:
    via_log_norms: str
    via_deviation_norms: str
    agree: bool
    hypothesis_violation_index: int | None
    terms_used: int


class ProductAnalysis(NamedTuple):
    """The three reports of :func:`analyze_product`; ``absolute`` and
    ``identity`` are None where a failure ended them."""

    product: ProductReport
    absolute: AbsoluteReport | None
    identity: LogSumReport | None


@dataclass(frozen=True)
class BoundCheck:
    norm: float
    log_norm: float
    ratio: float
    lower_ok: bool
    upper_ok: bool


def _rms(a: complex, b: complex) -> float:
    """``sqrt((|a|**2 + |b|**2)/2)``, or inf where the squares overflow,
    so that the overflow guards see it."""
    try:
        return math.sqrt((abs(a) ** 2 + abs(b) ** 2) / 2.0)
    except OverflowError:
        return math.inf


def partial_products(terms, n_max: int = 10**6) -> list[Bicomplex]:
    """Running products of the first ``n_max`` terms.

    Raises NonFiniteError (with the 1-based position) if a term is
    non-finite or the accumulation overflows.
    """
    return _running(terms, n_max, Bicomplex(1.0), Bicomplex.__mul__)


def _shrinking(pnorms: deque[float]) -> bool:
    return all(b <= a * (1.0 + 1e-12) for a, b in pairwise(pnorms))


def _product_report(
    verdict, q1, q2, l1, l2, used, nc_ok, log_track, dev_track
) -> ProductReport:
    tri_log = log_track.verdict or "inconclusive"
    tri_dev = dev_track.verdict or "inconclusive"
    return ProductReport(
        verdict=verdict,
        limit_estimate=_pair_or_none(q1, q2),
        terms_used=used,
        necessary_condition_ok=nc_ok and verdict != "diverged_to_zero",
        absolute=tri_log == "converged",
        log_sum=_pair_or_none(l1, l2),
        criteria_agreement=tri_log == tri_dev,
        singular_index=used if verdict == "singular_term" else None,
    )


def _absolute_report(log_track, dev_track, used) -> AbsoluteReport:
    via_log = log_track.verdict or "inconclusive"
    via_dev = dev_track.verdict or "inconclusive"
    return AbsoluteReport(
        via_log_norms=via_log,
        via_deviation_norms=via_dev,
        agree=via_log == via_dev,
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
    try:
        exp_of_log_sum = _pair_or_none(cmath.exp(l1), cmath.exp(l2))
    except OverflowError:
        exp_of_log_sum = None
    return LogSumReport(
        product_limit=_pair_or_none(q1, q2),
        exp_of_log_sum=exp_of_log_sum,
        max_discrepancy=max_disc,
        branch_offset=offset,
        branch_offset_changes=changes,
        terms_used=used,
    )


def _product_pass(
    pairs,
    n_max: int,
    singularity_tol: float,
    *,
    tol: float = 1e-10,
    window: int = 8,
    product: bool = False,
    absolute: bool = False,
    identity_terms: int = 0,
) -> ProductAnalysis:
    """The one loop over the terms, given as (p1, p2) pairs, behind
    every product analysis.

    Feeds the requested consumers (the identity over the first
    ``identity_terms <= n_max`` terms) while any is live. With the
    product consumer, failures are routed as ``analyze_product`` states;
    without it, they propagate and a singular term raises SingularTerm.
    """
    prod_live, abs_live, id_live = product, absolute, identity_terms > 0
    prod_report = abs_report = id_report = verdict = None
    # shared accumulators: partial products, log sums, norm trackers
    q1 = 1.0 + 0j
    q2 = 1.0 + 0j
    l1 = 0j
    l2 = 0j
    log_track = _Tracker(tol, window, _HARMONIC_RATIO)
    dev_track = _Tracker(tol, window, _HARMONIC_RATIO)
    # product verdict state
    win1: deque[complex] = deque(maxlen=window)
    win2: deque[complex] = deque(maxlen=window)
    pnorms: deque[float] = deque(maxlen=window)
    devs: deque[float] = deque(maxlen=window)
    nc_ok = True
    next_checkpoint = _FIRST_CHECKPOINT
    prev_floor: float | None = None
    # identity state
    max_disc = 0.0
    offset = (0, 0)
    changes = 0
    used = 0

    pairs = islice(pairs, n_max)
    while prod_live or abs_live or id_live:
        try:
            wp1, wp2 = next(pairs)
        except StopIteration:
            break
        except _TERM_ERRORS:
            if prod_live or not product:
                raise
            abs_live = id_live = False
            break
        used += 1
        if _pair_zero_divisor_test(wp1, wp2, singularity_tol)[0]:
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
        q2 *= wp2
        lg1 = cmath.log(wp1)
        lg2 = cmath.log(wp2)
        l1 += lg1
        l2 += lg2

        if prod_live or abs_live:
            dev = _rms(wp1 - 1.0, wp2 - 1.0)
            log_norm = _rms(lg1, lg2)
            log_track.push(log_norm, log_norm)
            dev_track.push(dev, dev)
            if abs_live and log_track.verdict is not None and dev_track.verdict is not None:
                abs_report = _absolute_report(log_track, dev_track, used)
                abs_live = False

        if prod_live:
            pnorm = _rms(q1, q2)
            win1.append(q1)
            win2.append(q2)
            pnorms.append(pnorm)
            devs.append(dev)
            if pnorm > OVERFLOW_GUARD:
                verdict = "diverged"
            elif pnorm < ZERO_COLLAPSE and _shrinking(pnorms):
                verdict = "diverged_to_zero"
            elif (
                len(win1) == window
                and abs(q1 - win1[0]) < tol
                and abs(q2 - win2[0]) < tol
                and _diameter(win1) < tol
                and _diameter(win2) < tol
            ):
                # stable; classification depends on whether the recent
                # terms actually sit near 1
                if max(devs) < _FLOOR_FACTOR * tol:
                    if _pair_zero_divisor_test(q1, q2, singularity_tol)[0]:
                        verdict = "diverged"
                    else:
                        verdict = "converged_nonsingular"
                elif pnorm < _FLOOR_FACTOR * tol and _shrinking(pnorms):
                    verdict = "diverged_to_zero"
                # stable partial products under far-from-1 terms with no
                # drain toward zero: keep consuming evidence
            if verdict is None and used == next_checkpoint:
                floor = min(devs)
                if _stalled(floor, prev_floor, tol, _FLAT_RATIO):
                    nc_ok = False
                    if pnorms[-1] >= pnorms[0] * (1.0 - 1e-12):
                        verdict = "diverged"
                prev_floor = floor
                next_checkpoint *= 2
            if verdict is not None:
                prod_report = _product_report(
                    verdict, q1, q2, l1, l2, used, nc_ok, log_track, dev_track
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

    # a singular term, or the terms ran out: every consumer still live
    # reports what it has
    if prod_live:
        if verdict is None:
            verdict = "diverged" if not nc_ok else "inconclusive"
        prod_report = _product_report(
            verdict, q1, q2, l1, l2, used, nc_ok, log_track, dev_track
        )
    if abs_live:
        abs_report = _absolute_report(log_track, dev_track, used)
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
    return _analyze_product_pairs(_split_terms(terms), tol, window, n_max)


def _analyze_product_pairs(pairs, tol: float, window: int, n_max: int) -> ProductAnalysis:
    """analyze_product over (p1, p2) term pairs, with arguments already
    checked by _validate; the CLI's ``product`` enters here."""
    return _product_pass(
        pairs, n_max, SINGULARITY_TOLERANCE, tol=tol, window=window,
        product=True, absolute=True, identity_terms=min(n_max, LOG_SUM_CAP),
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
        _split_terms(terms), n_max, singularity_tol, tol=tol, window=window, product=True
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
        _split_terms(terms), n_max, singularity_tol, identity_terms=n_max
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
        _split_terms(terms), n_max, singularity_tol, tol=tol, window=window, absolute=True
    ).absolute


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
