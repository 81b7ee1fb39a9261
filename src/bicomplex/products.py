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
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice, pairwise

from .core import SINGULARITY_TOLERANCE, Bicomplex, NonFiniteError, _coerce
from .series import OVERFLOW_GUARD, _evidence_floor, _NormTracker
from .transcendental import log1p

__all__ = [
    "SingularTerm",
    "ProductReport",
    "LogSumReport",
    "AbsoluteReport",
    "BoundCheck",
    "partial_products",
    "evaluate_product",
    "log_sum_equivalence",
    "absolute_convergence_check",
    "log_bound_check",
]

# Below this Euclidean norm a partial product is treated as having
# collapsed to zero. Well above the subnormal range, far below anything
# a legitimately convergent product passes through.
ZERO_COLLAPSE = 1e-30

_TWO_PI = 2.0 * math.pi
_FIRST_CHECKPOINT = 16   # dyadic schedule, matches the series module
_FLAT_RATIO = 0.99
_RATIO_SLACK = 1.0 - 1e-9
_FLOOR_FACTOR = 10.0


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


@dataclass(frozen=True)
class BoundCheck:
    norm: float
    log_norm: float
    ratio: float
    lower_ok: bool
    upper_ok: bool


def _coerce_term(term, index: int) -> Bicomplex:
    try:
        value = _coerce(term)
    except NonFiniteError as err:
        raise NonFiniteError(str(err), term_index=index) from None
    if value is None:
        raise TypeError(f"cannot interpret term as Bicomplex: {term!r}")
    return value


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
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out: list[Bicomplex] = []
    total = Bicomplex(1.0)
    for k, term in enumerate(islice(terms, n_max), start=1):
        value = _coerce_term(term, k)
        try:
            total = total * value
        except NonFiniteError as err:
            raise NonFiniteError(str(err), term_index=k) from None
        out.append(total)
    return out


def _window_diameter(values: deque[complex]) -> float:
    items = list(values)
    worst = 0.0
    for i in range(len(items)):
        vi = items[i]
        for vj in items[i + 1 :]:
            d = abs(vi - vj)
            if d > worst:
                worst = d
    return worst


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
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if window < 2:
        raise ValueError("window must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    q1 = 1.0 + 0j
    q2 = 1.0 + 0j
    l1 = 0j
    l2 = 0j
    win1: deque[complex] = deque(maxlen=window)
    win2: deque[complex] = deque(maxlen=window)
    pnorms: deque[float] = deque(maxlen=window)
    devs: deque[float] = deque(maxlen=window)
    log_track = _NormTracker(tol, window)
    dev_track = _NormTracker(tol, window)
    nc_ok = True
    next_checkpoint = _FIRST_CHECKPOINT
    prev_floor: float | None = None
    used = 0
    verdict: str | None = None

    for term in islice(terms, n_max):
        used += 1
        w = _coerce_term(term, used)
        sing = w.is_singular(singularity_tol)
        if sing.is_singular:
            verdict = "singular_term"
            break

        wp1 = w.z1 - 1j * w.z2
        wp2 = w.z1 + 1j * w.z2
        q1 *= wp1
        q2 *= wp2
        lg1 = cmath.log(wp1)
        lg2 = cmath.log(wp2)
        l1 += lg1
        l2 += lg2

        pnorm = _rms(q1, q2)
        dev = _rms(wp1 - 1.0, wp2 - 1.0)
        win1.append(q1)
        win2.append(q2)
        pnorms.append(pnorm)
        devs.append(dev)
        log_track.push(_rms(lg1, lg2))
        dev_track.push(dev)

        if pnorm > OVERFLOW_GUARD:
            verdict = "diverged"
            break
        shrinking = all(b <= a * (1.0 + 1e-12) for a, b in pairwise(pnorms))
        if pnorm < ZERO_COLLAPSE and shrinking:
            verdict = "diverged_to_zero"
            break

        if len(win1) == window and abs(q1 - win1[0]) < tol and abs(q2 - win2[0]) < tol:
            if _window_diameter(win1) < tol and _window_diameter(win2) < tol:
                # stable; classification depends on whether the recent
                # terms actually sit near 1
                if max(devs) < _FLOOR_FACTOR * tol:
                    limit = Bicomplex.from_idempotent(q1, q2)
                    if limit.is_singular(singularity_tol).is_singular:
                        verdict = "diverged"
                    else:
                        verdict = "converged_nonsingular"
                    break
                if shrinking and pnorm < _FLOOR_FACTOR * tol:
                    verdict = "diverged_to_zero"
                    break
                # stable partial products under far-from-1 terms with no
                # drain toward zero: keep consuming evidence

        if used == next_checkpoint:
            floor = min(devs)
            if (
                prev_floor is not None
                and floor >= _evidence_floor(tol)
                and floor >= _FLAT_RATIO * prev_floor * _RATIO_SLACK
            ):
                nc_ok = False
                if pnorms[-1] >= pnorms[0] * (1.0 - 1e-12):
                    verdict = "diverged"
                    break
            prev_floor = floor
            next_checkpoint *= 2

    if verdict is None:
        verdict = "diverged" if not nc_ok else "inconclusive"
    if verdict in ("diverged_to_zero",):
        nc_ok = False

    try:
        limit_estimate = Bicomplex.from_idempotent(q1, q2)
    except NonFiniteError:
        limit_estimate = None
    try:
        log_sum = Bicomplex.from_idempotent(l1, l2)
    except NonFiniteError:
        log_sum = None
    tri_log = log_track.verdict or "inconclusive"
    tri_dev = dev_track.verdict or "inconclusive"
    return ProductReport(
        verdict=verdict,
        limit_estimate=limit_estimate,
        terms_used=used,
        necessary_condition_ok=nc_ok,
        absolute=tri_log == "converged",
        log_sum=log_sum,
        criteria_agreement=tri_log == tri_dev,
        singular_index=used if verdict == "singular_term" else None,
    )


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
    accumulation leaves the finite range; both carry the 1-based index.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    q1 = 1.0 + 0j
    q2 = 1.0 + 0j
    l1 = 0j
    l2 = 0j
    max_disc = 0.0
    offset = (0, 0)
    changes = 0
    used = 0
    for term in islice(terms, n_max):
        used += 1
        w = _coerce_term(term, used)
        if w.is_singular(singularity_tol).is_singular:
            raise SingularTerm(f"singular term at position {used}", index=used)
        wp1 = w.z1 - 1j * w.z2
        wp2 = w.z1 + 1j * w.z2
        q1 *= wp1
        q2 *= wp2
        l1 += cmath.log(wp1)
        l2 += cmath.log(wp2)
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
        num = _rms(e1 - q1, e2 - q2)
        disc = num / den
        if disc > max_disc:
            max_disc = disc
        a = (l1 - cmath.log(q1)) / complex(0.0, _TWO_PI)
        b = (l2 - cmath.log(q2)) / complex(0.0, _TWO_PI)
        current = (round(a.real), round(b.real))
        if current != offset:
            changes += 1
            offset = current

    try:
        product_limit = Bicomplex.from_idempotent(q1, q2)
    except NonFiniteError:
        product_limit = None
    try:
        exp_of_log_sum = Bicomplex.from_idempotent(cmath.exp(l1), cmath.exp(l2))
    except (NonFiniteError, OverflowError):
        exp_of_log_sum = None
    return LogSumReport(
        product_limit=product_limit,
        exp_of_log_sum=exp_of_log_sum,
        max_discrepancy=max_disc,
        branch_offset=offset,
        branch_offset_changes=changes,
        terms_used=used,
    )


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
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if window < 2:
        raise ValueError("window must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    log_track = _NormTracker(tol, window)
    dev_track = _NormTracker(tol, window)
    used = 0
    for term in islice(terms, n_max):
        used += 1
        w = _coerce_term(term, used)
        if w.is_singular(singularity_tol).is_singular:
            raise SingularTerm(f"singular term at position {used}", index=used)
        wp1 = w.z1 - 1j * w.z2
        wp2 = w.z1 + 1j * w.z2
        if wp1.real <= 0.0 or wp2.real <= 0.0:
            return AbsoluteReport(
                via_log_norms="hypothesis_violated",
                via_deviation_norms="hypothesis_violated",
                agree=True,
                hypothesis_violation_index=used,
                terms_used=used,
            )
        lg1 = cmath.log(wp1)
        lg2 = cmath.log(wp2)
        log_track.push(_rms(lg1, lg2))
        dev_track.push(_rms(wp1 - 1.0, wp2 - 1.0))
        if log_track.verdict is not None and dev_track.verdict is not None:
            break
    via_log = log_track.verdict or "inconclusive"
    via_dev = dev_track.verdict or "inconclusive"
    return AbsoluteReport(
        via_log_norms=via_log,
        via_deviation_norms=via_dev,
        agree=via_log == via_dev,
        hypothesis_violation_index=None,
        terms_used=used,
    )


def log_bound_check(w) -> BoundCheck:
    """Test the two-sided comparison between ||log(1+w)|| and ||w||.

    Requires ||w|| < 1/2 (ValueError otherwise). Checks
    (1/2)*||w|| <= ||log(1+w)|| <= (3/2)*||w||. The lower comparison
    holds throughout the half-ball. The upper one can fail near the
    outer edge: an idempotent component of modulus up to sqrt(2)*||w||
    can push the componentwise ratio toward -log(1-r)/r, which crosses
    3/2 once a component modulus exceeds about 0.583. Both comparisons
    hold whenever ||w|| <= 0.41. The booleans report what was actually
    measured.
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
