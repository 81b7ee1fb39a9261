import cmath
import math
import sys
from operator import add

import numpy as np
import pytest

from bicomplex import (
    E1,
    E2,
    I1,
    I2,
    ONE,
    Bicomplex,
    NonFiniteError,
    analyze_series,
    eval_power_series,
    exp,
    partial_sums,
    series,
)
from bicomplex.series import (
    _HARMONIC_RATIO, OVERFLOW_GUARD, _diameter, _gaps, _partials, _Tracker,
)
from helpers import C, assert_close, gauss_bicomplex


def geometric_terms(r1: float, r2: float):
    n = 1
    while True:
        yield Bicomplex.from_idempotent(r1**n, r2**n)
        n += 1


def test_partial_sums_values():
    sums = partial_sums(iter([ONE, I1, I2]), n_max=10)
    assert sums == [ONE, ONE + I1, ONE + I1 + I2]
    assert len(partial_sums((ONE for _ in range(100)), n_max=7)) == 7


def test_partial_sums_tags_bad_term():
    def terms():
        yield ONE
        yield ONE
        yield complex(float("inf"), 0)

    with pytest.raises(NonFiniteError) as info:
        partial_sums(terms())
    assert info.value.term_index == 3
    # two finite terms whose sum overflows: the second is tagged
    with pytest.raises(NonFiniteError) as info:
        partial_sums([Bicomplex(1e308), Bicomplex(1e308)])
    assert info.value.term_index == 2


def test_geometric_series_converges():
    report = analyze_series(geometric_terms(0.5, 1 / 3))
    assert report.verdict == "converged"
    assert report.component_verdicts == ("converged", "converged")
    assert report.absolute is True
    assert report.absolute_component_verdicts == ("converged", "converged")
    assert report.tail_delta <= 1e-10
    # component limits r/(1-r)
    pair = report.limit_estimate.idempotent()
    assert abs(pair.p1 - 1.0) < 1e-8
    assert abs(pair.p2 - 0.5) < 1e-8


def test_alternating_unit_series_diverges_quickly():
    def terms():
        s = 1.0
        while True:
            yield Bicomplex(s)
            s = -s

    report = analyze_series(terms())
    assert report.verdict == "diverged"
    assert report.terms_used == 32


def test_harmonic_absolute_divergence():
    def terms():
        n = 1
        while True:
            yield I1 * Bicomplex(1.0 / n)
            n += 1

    report = analyze_series(terms(), n_max=5000)
    assert report.verdict == "inconclusive"
    assert report.absolute is False
    assert report.absolute_component_verdicts == ("diverged", "diverged")


def test_slow_decay_is_inconclusive_not_diverged():
    def terms():
        n = 1
        while True:
            yield I2 * Bicomplex(n**-1.5)
            n += 1

    report = analyze_series(terms(), n_max=10**4)
    assert report.verdict == "inconclusive"
    assert report.component_verdicts == ("inconclusive", "inconclusive")
    assert report.absolute_component_verdicts == ("inconclusive", "inconclusive")


def test_single_component_series():
    # terms supported on e1 only: the e2 component converges trivially
    def terms():
        n = 0
        while True:
            yield E1 * Bicomplex(0.5**n)
            n += 1

    report = analyze_series(terms())
    assert report.verdict == "converged"
    pair = report.limit_estimate.idempotent()
    assert abs(pair.p1 - 2.0) < 1e-8
    assert pair.p2 == 0


def test_absolute_matches_component_conjunction():
    cases = [
        geometric_terms(0.5, 1 / 3),
        (Bicomplex(1.0 / n**2) * (ONE + I2) for n in range(1, 10**6)),
        (I1 * Bicomplex(1.0 / n) for n in range(1, 10**6)),
    ]
    for terms in cases:
        report = analyze_series(terms, n_max=5000)
        conjunction = all(v == "converged" for v in report.absolute_component_verdicts)
        assert report.absolute == conjunction


def test_overflow_guard_marks_divergence():
    def terms():
        n = 1
        while True:
            yield Bicomplex(10.0**n)
            n += 1

    report = analyze_series(terms())
    assert report.verdict == "diverged"


def test_limit_estimate_where_the_sum_of_components_overflows():
    # p1 + p2 overflows, but their midpoint formed from the halves does not
    report = analyze_series(iter([Bicomplex(1.7e308)]))
    assert report.verdict == "diverged"
    assert report.limit_estimate == Bicomplex(1.7e308)
    # a value whose split overflows cannot be built
    with pytest.raises(NonFiniteError):
        Bicomplex(1e308, 1e308j)
    # a term that cannot be lifted raises with its position
    with pytest.raises(NonFiniteError) as info:
        analyze_series(iter([ONE, complex("inf")]))
    assert info.value.term_index == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        analyze_series(iter([ONE]), tol=0.0)
    with pytest.raises(ValueError):
        analyze_series(iter([ONE]), window=1)
    with pytest.raises(ValueError):
        analyze_series(iter([ONE]), n_max=0)
    # an infinite tolerance settles every window; sizes past sys.maxsize
    # are more than deque and islice can take
    with pytest.raises(ValueError, match="^tol must be finite$"):
        analyze_series(iter([ONE]), tol=math.inf)
    with pytest.raises(ValueError, match=f"^window must be at most {sys.maxsize}$"):
        analyze_series(iter([ONE]), window=sys.maxsize + 1)
    with pytest.raises(ValueError, match=f"^n_max must be at most {sys.maxsize}$"):
        analyze_series(iter([ONE]), n_max=10**20)
    with pytest.raises(ValueError, match="^n_max must be at most"):
        partial_sums(iter([ONE]), n_max=sys.maxsize + 1)
    assert analyze_series(iter([ONE]), window=sys.maxsize, n_max=sys.maxsize).terms_used == 1
    with pytest.raises(TypeError):
        analyze_series(iter(["x"]))


def test_power_series_duplex_ratio_example():
    # unit coefficients with argument e1 + 2*e2: the second component is
    # a geometric series with ratio 2 and forces divergence
    coeffs = (ONE for _ in range(200))
    report = eval_power_series(coeffs, E1 + 2 * E2)
    assert report.verdict == "diverged"
    assert report.component_verdicts[1] == "diverged"


def test_power_series_exponential():
    rng = np.random.default_rng(211)
    for _ in range(20):
        w = gauss_bicomplex(rng, 0.8)

        def coeffs():
            k = 0
            f = 1.0
            while True:
                yield Bicomplex(1.0 / f)
                k += 1
                f *= k

        report = eval_power_series(coeffs(), w)
        assert report.verdict == "converged"
        assert_close(report.limit_estimate, exp(w), rel=1e-10)


def test_power_series_geometric_closed_form():
    rng = np.random.default_rng(223)
    for _ in range(20):
        radii = 0.8 * np.sqrt(rng.random(2))
        phases = rng.uniform(-math.pi, math.pi, 2)
        w = Bicomplex.from_idempotent(
            radii[0] * complex(math.cos(phases[0]), math.sin(phases[0])),
            radii[1] * complex(math.cos(phases[1]), math.sin(phases[1])),
        )
        report = eval_power_series((ONE for _ in range(10**5)), w)
        assert report.verdict == "converged"
        pair = w.idempotent()
        want = Bicomplex.from_idempotent(1 / (1 - pair.p1), 1 / (1 - pair.p2))
        assert_close(report.limit_estimate, want, rel=1e-9)


def test_power_series_tags_bad_coefficient():
    def coeffs():
        yield ONE
        yield float("nan")

    with pytest.raises(NonFiniteError) as info:
        eval_power_series(coeffs(), Bicomplex(0.5))
    assert info.value.term_index == 2


def test_power_series_argument_is_no_term():
    # w is the argument: a non-finite one carries no term index, and a
    # non-number is named as the argument
    for w in (complex(math.inf, 0.0), math.nan):
        with pytest.raises(NonFiniteError) as info:
            eval_power_series([ONE], w)
        assert info.value.term_index is None
    with pytest.raises(TypeError, match="^cannot interpret argument as Bicomplex: 'x'$"):
        eval_power_series([ONE], "x")


def test_power_series_survives_power_overflow():
    # |w| > 1 with unit coefficients: powers eventually overflow the
    # float range; the verdict must still resolve from earlier evidence
    report = eval_power_series((ONE for _ in range(10**4)), Bicomplex(10.0))
    assert report.verdict == "diverged"
    # each term c_k*w**k is 1 until w**31 = 1e310 leaves the float range:
    # the terms end there, with no evidence either way
    report = eval_power_series((10.0 ** (-10 * k) for k in range(100)), Bicomplex(1e10))
    assert (report.verdict, report.terms_used) == ("inconclusive", 31)


def test_power_series_past_the_float_range_diverges():
    # the second term's modulus is past the float range
    report = eval_power_series([1.0] * 5, Bicomplex(1.5e308, -1.5e308))
    assert report.verdict == "diverged"
    # 1 + w, in which the 1 is lost to rounding
    assert report.limit_estimate == Bicomplex(1.5e308, -1.5e308)


def _diameter_oracle(values) -> float:
    """The window rules' full pair loop, kept as the oracle of the scan
    that stops at its answer."""
    items = list(values)
    worst = 0.0
    try:
        for i in range(len(items)):
            for vj in items[i + 1 :]:
                d = abs(items[i] - vj)
                if d > worst:
                    worst = d
    except OverflowError:
        return math.inf
    return worst


def _assert_diameter_decides_as_the_oracle(window, tol):
    want = _diameter_oracle(window)
    got = _diameter(window, tol)
    assert (got < tol) == (want < tol), (window, tol)
    if want < tol:
        assert got.hex() == want.hex(), (window, tol)
    # with no stop, the scan is the full loop: tail_delta's value
    assert _diameter(window).hex() == want.hex(), window


def _spread_tols(d: float):
    """Tolerances at and around the spread ``d``: ``d*(1 ± 4u)``, the
    neighbouring floats and far from it."""
    u = 2.0**-53
    return [d, d * (1 + 4 * u), d * (1 - 4 * u), math.nextafter(d, math.inf),
            math.nextafter(d, 0.0), d / 2, d * 2, 1e-10, math.inf]


def test_diameter_with_a_stop_decides_as_the_full_pair_loop():
    rng = np.random.default_rng(6060)
    windows = []
    for _ in range(300):
        size = int(rng.integers(2, 24))
        scale = 10.0 ** rng.uniform(-12, 3)
        centre = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
        windows.append([centre + scale * complex(*xy) for xy in rng.normal(size=(size, 2))])
    for _ in range(60):
        size = int(rng.integers(2, 24))
        # collinear, co-circular and repeated points
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2)) * 1e-9
        windows.append([a + t * b for t in rng.uniform(-1, 1, size)])
        r = 10.0 ** rng.uniform(-11, 0)
        windows.append([a + r * cmath.exp(1j * t) for t in rng.uniform(-math.pi, math.pi, size)])
        windows.append([a] * size)
        windows.append([a] * (size - 1) + [a + b])
    # parts near ±1e308: a difference whose part is inf, and one whose
    # parts are finite but whose modulus abs refuses (OverflowError)
    big = sys.float_info.max
    windows += [
        [complex(big, 0.0), complex(-big, 0.0)],
        [0j, complex(big, big)],
        [complex(1e308, -1e308), 1 + 1j, complex(-1e308, 1e308)],
        [1 + 1j, 1 + 1j, complex(big / 2, big / 2), complex(-big / 2, -big / 2)],
        # the window of a series with no terms
        [],
    ]
    for window in windows:
        for tol in _spread_tols(_diameter_oracle(window)):
            if tol > 0.0:
                _assert_diameter_decides_as_the_oracle(window, tol)
    assert _diameter([complex(big, 0.0), complex(-big, 0.0)], 1.0) == math.inf
    assert _diameter([0j, complex(big, big)], 1.0) == math.inf
    assert analyze_series([]).tail_delta == 0.0


# -- nonnegative float series: the least-term screen and the monotone diameter --

U = 2.0**-53


def _run_sums_oracle(tracker, terms):
    """The block step's screen as every run took it before the least-term
    screen: all partial sums, the overflow guard on each, and each full
    window's exact newest-minus-oldest gap."""
    totals = _partials(terms, add, tracker.total)
    gaps = _gaps(tracker.sums, totals, tracker.window)
    quiet = max(map(abs, totals)) <= OVERFLOW_GUARD and min(
        map(abs, gaps), default=math.inf) >= tracker.tol
    return totals if quiet else None


def _tracker(tol, window, prefix, ratio=_HARMONIC_RATIO):
    """A tracker that has read ``prefix``, as ``take`` leaves it."""
    tracker = _Tracker(tol, window, ratio)
    if prefix:
        tracker.take(_partials(prefix, add, tracker.total), list(map(abs, prefix)))
    return tracker


def _assert_run_sums_match(tracker, terms):
    """``run_sums`` refuses the run exactly where the oracle does, and
    hands ``take`` the oracle's last sums bit for bit; returns whether it
    passed the run."""
    got = tracker.run_sums(terms)
    want = _run_sums_oracle(tracker, terms)
    assert (got is None) == (want is None), (tracker.tol, tracker.window, terms)
    if got is None:
        return False
    tail = tracker.window
    assert list(map(_hex, got[-tail:])) == list(map(_hex, want[-tail:]))
    return True


def _hex(z) -> tuple:
    return z.real.hex(), z.imag.hex()


def _float_runs(rng):
    """Runs of nonnegative floats with the tolerance and window to screen
    them at, and the terms read before each run."""
    tiny = 5e-324
    for _ in range(1500):
        window = int(rng.choice([2, 3, 8, 50]))
        kind = rng.integers(0, 5)
        k = int(rng.integers(1, 120))
        if kind == 0:
            # terms across many binades, zeros and subnormals among them
            terms = list(10.0 ** rng.uniform(-320, 140, k))
            for i in rng.integers(0, k, int(rng.integers(0, 3))):
                terms[i] = float(rng.choice([0.0, tiny, 3 * tiny, 2.0**-1022]))
            tol = float(10.0 ** rng.uniform(-320, 10))
        elif kind == 1:
            # window gaps at tol*(1 ± 4u) and the floats next to it
            tol = float(10.0 ** rng.uniform(-300, 0))
            step = tol / (window - 1)
            choices = [step * (1 + 4 * U), step * (1 - 4 * U), math.nextafter(step, 0.0),
                       math.nextafter(step, math.inf), step * (1 + 64 * U), step]
            terms = [float(rng.choice(choices)) for _ in range(k)]
        elif kind == 2:
            # sums near the overflow guard, and past it
            tol = 1e-10
            terms = list(OVERFLOW_GUARD * 10.0 ** rng.uniform(-30, 0, k) / k)
            if rng.random() < 0.5:
                terms[int(rng.integers(0, k))] = OVERFLOW_GUARD * float(rng.uniform(0.5, 2.0))
        elif kind == 3:
            # subnormal terms at a subnormal tolerance
            tol = tiny * float(rng.integers(1, 40))
            terms = [tiny * float(m) for m in rng.integers(0, 60, k)]
        else:
            # decaying terms, as a convergent series gives
            n0 = int(rng.integers(1, 10**6))
            terms = [1.0 / (n * n) for n in range(n0, n0 + k)]
            tol = float(rng.choice([1e-10, 1e-14, 1e-16]))
        # the terms before the run: none, of the run's size, or far
        # smaller, so that a window across the run's start has a gap
        # below tol where every term of the run passes
        shrink = float(rng.choice([1.0, 1.0, 1e-6, 0.0]))
        prefix = [] if rng.random() < 0.3 else list(
            terms[0] * shrink * rng.uniform(0.5, 2.0, int(rng.integers(1, 2 * window))))
        scale = float(rng.choice([0.0, 1.0, 1e6])) if kind != 2 else 0.0
        if scale:
            prefix = [scale] + prefix
        yield tol, window, [float(x) for x in prefix], terms


def test_the_least_term_screen_passes_no_run_whose_exact_gaps_fail(monkeypatch):
    rng = np.random.default_rng(4242)
    gapless = passed = refused = 0
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _gaps(*args)

    monkeypatch.setattr(series, "_gaps", counted)
    for tol, window, prefix, terms in _float_runs(rng):
        tracker = _tracker(tol, window, prefix)
        calls[0] = 0
        if _assert_run_sums_match(tracker, terms):
            passed += 1
            gapless += calls[0] == 0
        else:
            refused += 1
    # the sample reaches runs the screen alone passes, runs the exact gaps
    # pass after it fails, and refused runs
    assert gapless > 100 and passed - gapless > 100 and refused > 500, (gapless, passed, refused)


def test_trackers_handed_one_float_list_share_totals_only_from_equal_states(monkeypatch):
    # two live trackers handed one run: the second takes the first's
    # totals exactly where it is handed the same list and its total, sums
    # and mags equal the first's, and those totals are its own run_sums'
    # bit for bit; one float of its state moved up, or a copy of the list,
    # gets a run_sums of its own
    rng = np.random.default_rng(4545)
    run_sums = _Tracker.run_sums
    callers = []

    def counted(tracker, terms):
        callers.append(tracker)
        return run_sums(tracker, terms)

    shared = own = 0
    for tol, window, prefix, terms in _float_runs(rng):
        first = _tracker(tol, window, prefix)
        second = _tracker(tol, window, prefix, 0.99)
        listed = terms
        change = int(rng.integers(0, 5))
        if change == 1:
            second.total = math.nextafter(second.total, math.inf)
        elif change == 2 and second.sums:
            second.sums[0] = math.nextafter(second.sums[0], math.inf)
        elif change == 3 and second.mags:
            second.mags[-1] = math.nextafter(second.mags[-1], math.inf)
        elif change == 4:
            listed = list(terms)
        equal = (first.total, *first.sums, *first.mags) == (second.total, *second.sums, *second.mags)
        callers.clear()
        monkeypatch.setattr(_Tracker, "run_sums", counted)
        runs = series._run_sums([(first, terms, terms), (second, listed, listed)])
        monkeypatch.undo()
        if runs is None:
            continue
        took = callers == [first]
        assert took == (equal and listed is terms), (change, equal)
        want = run_sums(second, listed)
        assert want is not None and list(map(float.hex, runs[1][1])) == list(map(float.hex, want))
        shared += took
        own += not took
    assert shared > 100 and own > 100, (shared, own)


def test_complex_runs_refuse_sums_past_the_guard_as_the_oracle_does():
    # sums near and past OVERFLOW_GUARD: the modulus scan decides
    rng = np.random.default_rng(4343)
    for _ in range(800):
        window = int(rng.choice([2, 8, 30]))
        k = int(rng.integers(1, 80))
        scale = OVERFLOW_GUARD * 10.0 ** rng.uniform(-4, 0.5)
        terms = [complex(*xy) * scale / k for xy in rng.normal(size=(k, 2))]
        prefix = [complex(*xy) * scale for xy in rng.normal(size=(int(rng.integers(0, 9)), 2))]
        tracker = _tracker(float(10.0 ** rng.uniform(-10, 150)), window, prefix, 0.99)
        _assert_run_sums_match(tracker, terms)


def test_complex_sums_keep_the_pair_scan():
    # sums 1, 1 + 1j, 1: newest minus oldest is 0, the window's diameter 1
    tracker = _Tracker(1e-10, 3)
    for used, term in enumerate((1 + 0j, 1j, -1j), start=1):
        tracker.push(term, abs(term), used)
    assert tracker.verdict is None and _diameter(tracker.sums) == 1.0


def test_rising_float_sums_decide_by_newest_minus_oldest():
    # a float tracker's window rule and the report's tail_delta read
    # newest minus oldest; the same terms as complex values take the pair
    # loop: every verdict and every window diameter agree in bits
    rng = np.random.default_rng(4444)
    for _ in range(200):
        window = int(rng.choice([2, 3, 8, 40]))
        tol = float(10.0 ** rng.uniform(-14, -2))
        start = int(rng.integers(1, 10**5))
        power = float(rng.uniform(1.0, 3.0))
        terms = [float(n) ** -power for n in range(start, start + 400)]
        real = _Tracker(tol, window, 0.99)
        pair = _Tracker(tol, window, 0.99)
        for used, term in enumerate(terms, start=1):
            real.push(term, term, used)
            pair.push(term + 0j, term, used)
            assert real.verdict == pair.verdict, (tol, window, used)
            assert _diameter(real.sums).hex() == _diameter_oracle(real.sums).hex()
            assert _diameter(pair.sums).hex() == _diameter(real.sums).hex()
            if real.verdict:
                break
