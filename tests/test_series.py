import math
import sys

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
