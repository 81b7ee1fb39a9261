"""Convergence analysis for bicomplex series.

A bicomplex series converges exactly when both of its idempotent
component series converge, so every verdict here is the conjunction of
two scalar complex verdicts produced by the same machinery. The pass
reads the terms as idempotent pairs ``(p1, p2)``, which is how a
Bicomplex stores them, in blocks, the lists ``(p1s, p2s)``:
``analyze_series`` reads them off each term, one term per block, and
the CLI feeds the index walker's blocks of compiled terms straight in,
with no ``Bicomplex``; a scalar term's block is one list, both components.
A run of terms where no rule can fire is taken in one block step, with
the sums the per-term rules would make (see ``_analyze_pairs``); the
screens and the cut of blocks into runs here serve the product pass
too.

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

converged certifies only that the last ``window`` partial sums lie within
``tol`` of each other. ``limit_estimate``, the last partial sum, misses
the tail: ``1/n^2`` stops 2.3e-6 (relative) short of ``pi^2/6`` at the
default ``tol``, about ``1/N`` after its ``N = terms_used`` = 264,579 terms.

The absolute-convergence verdict applies the nonnegative-series variant
of the same rules to the term-norm series; there, terms decaying no
faster than harmonically between dyadic checkpoints (a factor >= 1/2
over a doubling) count as divergence evidence.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from functools import reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, itemgetter, mul, sub, truediv

from .core import Bicomplex, NonFiniteError, _coerce, _each, _floats, _moduli, _Record, _validate

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

# The block step takes runs of at least this many terms: its screens and
# lists cost about as much as a dozen terms of the per-term body, whatever
# the run's length, so a shorter run is read term by term.
_MIN_RUN = 16


def _checkpoint(n: int) -> bool:
    """Whether term ``n`` is a checkpoint, ``16*2**k``: the one schedule of
    both passes' rules, and the indices ``_runs`` cuts as runs of their own."""
    return n >= _FIRST_CHECKPOINT and not n & (n - 1)


def _partials(terms, op, start) -> list:
    """The running values after each of ``terms``: ``start`` combined with
    each in turn by ``op``, the float operations of ``start = op(start,
    term)`` in the same order."""
    values = list(accumulate(terms, op, initial=start))
    del values[0]
    return values


def _gaps(sums, totals, window: int):
    """The window pre-test's distances: newest minus oldest partial sum of
    each full window of ``window`` sums that ends at one of ``totals``,
    the partial sums that follow the window ``sums``."""
    seq = [*sums, *totals]
    first = max(len(sums), window - 1)
    return map(sub, seq[first:], seq[first - window + 1 : len(seq) - window + 1])


def _runs(blocks, n_max: int):
    """The terms of ``blocks``, each the lists ``(p1s, p2s)``, as runs for a
    pass to read in order: at most ``n_max`` terms in all, and each
    checkpoint index (``_checkpoint``) a run of its own, so that a run of
    several terms holds none; a one-list block gives one-list runs. No
    block is read past the run that ends the pass."""
    used = 0
    check = _FIRST_CHECKPOINT  # the next checkpoint
    for block in blocks:
        k = len(block[0])
        if k > n_max - used:
            k = n_max - used
            block = _cut(block, 0, k)
        while used + k >= check:
            cut = check - used - 1  # the checkpoint term's place in the block
            if cut:
                yield _cut(block, 0, cut)
            yield _cut(block, cut, cut + 1)
            block = _cut(block, cut + 1, k)
            k -= cut + 1
            used = check
            check += check
        if k:
            yield block
            used += k
        if used == n_max:
            return


def _cut(block, start: int, stop: int):
    """``block``'s terms ``start`` to ``stop``; one list stays one list."""
    return _each(itemgetter(slice(start, stop)), *block)


def _norms(m1s, m2s) -> list[float]:
    """``sqrt((m1*m1 + m2*m2)/2.0)`` of each pair of moduli, the RMS
    tracker's term, at C speed; or ``m1s`` itself where the two lists are
    equal and every modulus lies in the exact-RMS range: there each RMS is
    its modulus, as doubling and halving are exact and a correctly rounded
    ``sqrt(m*m)`` is ``m``. Equal moduli come from every term whose
    components are conjugate, one built from reals, ``n`` and ``i2``."""
    if (m1s is m2s or m1s == m2s) and _EXACT_RMS_MIN <= min(m1s) and max(m1s) <= _EXACT_RMS_MAX:
        return m1s
    squares = map(add, map(mul, m1s, m1s), map(mul, m2s, m2s))
    return list(map(math.sqrt, map(truediv, squares, repeat(2.0))))


def _diameter(values, stop=math.inf) -> float:
    """Largest pairwise distance among a window of partial sums, 0.0 for
    an empty one, inf where one is past the float range, or the first
    distance of ``stop`` or more, so ``_diameter(w, tol) < tol`` decides
    as the full scan.

    Float sums (``core._floats``) are those of nonnegative terms, and they
    rise. So for ``i < j`` the exact ``s_j - s_i`` is at most ``newest -
    oldest`` exactly, and its rounding at most that of ``newest -
    oldest``: the window's computed diameter is ``newest - oldest``, with
    no pair scan. Complex sums take the pair scan."""
    if values and _floats(values):
        return abs(values[-1] - values[0])
    items = list(values)
    worst = 0.0
    try:
        for i in range(len(items)):
            vi = items[i]
            for vj in items[i + 1 :]:
                d = abs(vi - vj)
                if d > worst:
                    if d >= stop:
                        return d
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
    magnitudes ``mags``; its owner calls ``stalled`` where the pass's
    term index is a ``_checkpoint``."""

    __slots__ = ("tol", "ratio", "mags", "prev_floor")

    def __init__(self, tol: float, window: int, ratio: float):
        self.tol = tol
        self.ratio = ratio
        self.mags: deque[float] = deque(maxlen=window)
        self.prev_floor: float | None = None

    def stalled(self) -> bool:
        """The checkpoint test: the floor of ``mags`` is above the
        evidence floor and at least ``ratio`` times the floor at the
        previous checkpoint."""
        floor = min(self.mags)
        prev_floor, self.prev_floor = self.prev_floor, floor
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
    _FLAT_RATIO for a general series, _HARMONIC_RATIO for a norm series
    alone. Partial sums of a norm series are monotone, so there the window
    test comes down to the gap between newest and oldest. The series
    pass runs its component and modulus series on trackers, and the
    product pass its two norm series, of ``||log w_n||`` and of
    ``||w_n - 1||``. An undecided tracker reads every term, by ``push`` or
    ``take``, so it counts none: ``push`` is handed the pass's index.

    ``run_sums`` and ``take`` are the block step: the first screens a run
    of terms that holds no checkpoint, the second advances the tracker
    over it with the sums ``push`` would make, in the same order.
    """

    __slots__ = ("window", "total", "sums", "verdict")

    def __init__(self, tol: float, window: int, ratio: float = _FLAT_RATIO):
        super().__init__(tol, window, ratio)
        self.window = window
        self.total = 0.0
        self.sums: deque = deque(maxlen=window)
        self.verdict: str | None = None

    def push(self, term, mag: float, used: int) -> None:
        """Add ``term``, the pass's term ``used``; ``mag`` is ``abs(term)``.
        Float sums (a norm series, or the float lane's values) rise, so
        there the pre-test alone decides (``_diameter``)."""
        if self.verdict is not None:
            return
        self.total = total = self.total + term
        sums = self.sums
        sums.append(total)
        self.mags.append(mag)
        try:
            overflowed = abs(total) > OVERFLOW_GUARD
        except OverflowError:  # the modulus is past the float range
            overflowed = True
        if overflowed:
            self.verdict = "diverged"
            return
        if len(sums) == self.window:
            if abs(total - sums[0]) < (tol := self.tol) and _diameter(sums, tol) < tol:
                self.verdict = "converged"
                return
        if _checkpoint(used) and self.stalled():
            self.verdict = "diverged"

    def run_sums(self, terms):
        """The partial sums after each of ``terms``, or None where a rule
        of ``push`` could fire at one of them; float terms that pass the
        least-term screen get the last ``window`` sums only. Raises
        OverflowError where a modulus leaves the float range.

        Float terms are nonnegative (see ``push``), so the sums rise, and
        ``T``, the run's last sum, is the largest (a NaN fails the test,
        and stays in every later sum); one ``reduce(add, ...)`` makes the
        sums before the last window, and ``_partials`` that window, by the
        adds of ``push`` in its order, so every bit is ``push``'s (never
        ``sum``, which compensates floats from Python 3.12). A window's
        spread is ``newest - oldest``, over the ``window - 1`` terms added
        after its oldest sum. Let ``t`` be the least of the run's terms and
        of ``self.mags`` (the terms before it) and u = 2**-53. Each computed
        sum ``s_k = fl(s_{k-1} + t_k)`` errs by at most ``u*s_k <= u*T`` (a
        rounded sum is ``x/(1 + d)`` with ``|d| <= u``, also below the
        normal range), so ``s_j - s_i >= (window - 1)*(t - u*T)``, and its
        computed difference is at least ``(window - 1)*(t - u*T)*(1 - u)``.
        The test takes ``2u*T`` for ``u*T``: at least ``u*T`` where ``T >=
        2**-1022``, and below that every sum is exact, so each spread is at
        least ``(window - 1)*t``; and ``1 - 4u`` for ``1 - u``, which covers
        the test's own three roundings, ``(1 + u)**3*(1 - 4u) < 1 - u``,
        while below the normal range they err by less than 2**-1074 in all,
        less than the step between ``tol`` and the float below it. So where
        it holds, no spread is below ``tol``. Where it fails, the run takes
        the route of complex sums: every sum is formed, the overflow guard
        reads their moduli and each window's exact gap decides. On
        nonnegative floats ``abs`` is the identity, and the largest of
        rising sums is the last."""
        window, tol = self.window, self.tol
        if _floats(terms):
            k = max(len(terms) - window, 0)
            head = reduce(add, islice(terms, k), self.total)
            totals = _partials(islice(terms, k, None), add, head)
            if not totals[-1] <= OVERFLOW_GUARD:
                return None
            least = min(min(terms), min(self.mags, default=math.inf))
            if (window - 1) * (least - totals[-1] * 2**-52) * (1.0 - 2**-51) >= tol:
                return totals
        totals = _partials(terms, add, self.total)
        if not max(map(abs, totals)) <= OVERFLOW_GUARD:
            return None
        gaps = map(abs, _gaps(self.sums, totals, window))
        return totals if min(gaps, default=math.inf) >= tol else None

    def take(self, totals, mags) -> None:
        """Advance over a run that ``run_sums`` passed, as ``push`` would."""
        self.total = totals[-1]
        self.sums.extend(totals[-self.window :])
        self.mags.extend(mags[-self.window :])


def _run_sums(steps):
    """The block step's screen over trackers: ``steps`` holds ``(tracker,
    terms, mags)`` for each. Where ``run_sums`` passes the run for every
    live tracker, the ``(tracker, totals, mags)`` that each takes it with
    (``_Tracker.take``); else None.

    A live tracker handed the same list of terms as an earlier live
    tracker, and whose ``total``, ``sums`` and ``mags`` equal that one's,
    takes that one's totals and runs no ``run_sums``. ``run_sums`` reads
    only the terms and those fields, besides ``tol`` and ``window``, which
    the trackers of one pass share. Only float lists are ever handed
    twice: a complex list holds one component's terms, which only that
    component's tracker reads (the series pass's scalar lane has ``c2 is
    c1``). The passes' floats are never -0.0 or NaN, so equal by ``==``
    means equal bits, and the totals are those the tracker's own
    ``run_sums`` would give."""
    runs = []
    first = {}  # id of a list of terms: the first live tracker handed it, and its totals
    for tracker, terms, mags in steps:
        if tracker.verdict is None:
            other, totals = first.get(id(terms), (None, None))
            if other is None or (other.total, other.sums, other.mags) != (
                    tracker.total, tracker.sums, tracker.mags):
                totals = tracker.run_sums(terms)
                if totals is None:
                    return None
                first.setdefault(id(terms), (tracker, totals))
            runs.append((tracker, totals, mags))
    return runs


def _drive(blocks, n_max: int, step, read) -> int:
    """The one loop of a pass over ``blocks``, each the lists ``(p1s,
    p2s)``, cut into runs by ``_runs``; returns the number of terms read.

    A run of ``_MIN_RUN`` or more terms goes to the block step ``step(p1s,
    p2s, used)``, ``used`` the terms before it: None where it refuses the
    run, else it took the run and tells whether the pass reads on, as
    ``read(p1, p2, used)`` does for each term of a shorter or refused run.
    """
    used = 0
    for p1s, p2s in _runs(blocks, n_max):
        on = step(p1s, p2s, used) if len(p1s) >= _MIN_RUN else None
        if on is not None:
            used += len(p1s)
            if not on:
                return used
            continue
        for p1, p2 in zip(p1s, p2s):
            used += 1
            if not read(p1, p2, used):
                return used
    return used


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
    """The terms as one-term blocks ``([p1], [p2])`` of their idempotent
    components, each term lifted to Bicomplex first when it is read: how
    the analyzers' Bicomplex terms reach the passes, which read blocks."""
    for k, term in enumerate(terms, start=1):
        w = term if type(term) is Bicomplex else _coerce_term(term, k)
        yield [w.p1], [w.p2]


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


def _analyze_pairs(blocks, tol, window, n_max) -> SeriesReport:
    """Run the component and norm trackers over blocks of terms given as
    ``(p1s, p2s)``; the pass behind analyze_series, eval_power_series and
    the CLI's ``series``, with arguments already checked by _validate.

    The lane is read off the first block, term 1's, which the pass reads
    first anyway. Where its two lists are one, the scalar lane: one
    component tracker and one modulus tracker run, and the report reads
    each for both components. The RMS tracker ``ae`` runs on every lane;
    its terms are ``sqrt((m1*m1 + m2*m2)/2)``, which is ``m1`` where the
    moduli are equal and in the exact-RMS range.

    It runs on ``_drive``: the block step advances every live tracker over
    a run that ``_Tracker.run_sums`` passes. ``ae``'s terms there are
    ``_norms`` of the moduli, the moduli list itself for equal moduli in
    range, as of conjugate components or on the scalar lane. Where ``ae``
    holds the state of the modulus tracker ``a1``, ``_run_sums`` hands it
    ``a1``'s totals, and on the float lane it hands ``a1`` those of the
    component tracker ``c1``, whose terms are their own moduli.

    The blocks' floats must be nonnegative (``core._floats``): the float lane
    of ``seqspec`` gives no other. Such a term is its own modulus, so no
    ``abs`` is taken, and every tracker screens its runs as a nonnegative
    series (``_Tracker.run_sums``).
    """
    blocks = iter(blocks)
    head = list(islice(blocks, 1))
    c1 = _Tracker(tol, window)
    a1 = _Tracker(tol, window, _HARMONIC_RATIO)
    ae = _Tracker(tol, window, _HARMONIC_RATIO)
    if head and head[0][0] is head[0][1]:
        c2, a2 = c1, a1
    else:
        c2 = _Tracker(tol, window)
        a2 = _Tracker(tol, window, _HARMONIC_RATIO)

    def step(p1s, p2s, used):
        try:
            # a float term is its own modulus
            m1s, m2s = (p1s, p2s) if _floats(p1s) else _each(_moduli, p1s, p2s)
            steps = [(c1, p1s, m1s), (a1, m1s, m1s)]
            if c2 is not c1:
                steps += [(c2, p2s, m2s), (a2, m2s, m2s)]
            mes = _norms(m1s, m2s)
            steps.append((ae, mes, mes))
            runs = _run_sums(steps)
        except OverflowError:
            return None
        if runs is None:
            return None
        for tracker, totals, mags in runs:
            tracker.take(totals, mags)
        return True

    def read(p1, p2, used):
        try:
            m1 = abs(p1)
            m2 = abs(p2)
        except OverflowError:
            m1, m2 = _modulus(p1), _modulus(p2)
        c1.push(p1, m1, used)
        a1.push(m1, m1, used)
        if c2 is not c1:
            c2.push(p2, m2, used)
            a2.push(m2, m2, used)
        me = math.sqrt((m1 * m1 + m2 * m2) / 2.0)
        ae.push(me, me, used)
        main_done = (
            c1.verdict == "diverged"
            or c2.verdict == "diverged"
            or (c1.verdict is not None and c2.verdict is not None)
        )
        return not main_done or not (
            a1.verdict == "diverged"
            or a2.verdict == "diverged"
            or (a1.verdict is not None and a2.verdict is not None and ae.verdict is not None)
        )

    used = _drive(chain(head, blocks), n_max, step, read)

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
        tail_delta=max(_diameter(c1.sums), 0.0 if c2 is c1 else _diameter(c2.sums)),
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
    value = _coerce(w)
    if value is None:
        raise TypeError(f"cannot interpret argument as Bicomplex: {w!r}")
    w1, w2 = value.p1, value.p2

    def pairs():
        wp1 = 1.0 + 0j
        wp2 = 1.0 + 0j
        for k, coeff in enumerate(coeffs, start=1):
            c = _coerce_term(coeff, k)
            yield [c.p1 * wp1], [c.p2 * wp2]
            wp1 *= w1
            wp2 *= w2
            if not (cmath.isfinite(wp1) and cmath.isfinite(wp2)):
                # power overflow: any remaining evidence is already in the
                # trackers; stop producing terms
                return

    return _analyze_pairs(pairs(), tol, window, n_max)
