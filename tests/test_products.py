import dataclasses
import json
import math

import numpy as np
import pytest

from bicomplex import (
    E1,
    I1,
    I2,
    ONE,
    Bicomplex,
    NonFiniteError,
    SingularOperand,
    SingularTerm,
    absolute_convergence_check,
    analyze_product,
    evaluate_product,
    exp,
    log_bound_check,
    log_principal,
    log_sum_equivalence,
    partial_products,
    render,
    seqspec,
    term_generator,
)
from bicomplex.products import LOG_SUM_CAP
from bicomplex.seqspec import IdempotentSlotError
from helpers import (
    C,
    assert_close,
    ball_bicomplex,
    dev_geometric_family,
    dev_power_family,
    mp_components,
    mp_partial_product,
    mp_rel_diff,
    run_cli,
)
from test_seqspec import _random_ast


def constant_terms(w: Bicomplex):
    while True:
        yield w


def test_partial_products_telescoping():
    terms = (Bicomplex((n + 1) / n) for n in range(1, 6))
    prods = partial_products(terms)
    assert len(prods) == 5
    assert_close(prods[-1], Bicomplex(6.0))


def test_partial_products_tags_bad_term():
    with pytest.raises(NonFiniteError) as info:
        partial_products(iter([ONE, float("inf")]))
    assert info.value.term_index == 2


def test_convergent_product():
    report = evaluate_product(dev_power_family(2), tol=1e-6, n_max=10**4)
    assert report.verdict == "converged_nonsingular"
    assert report.necessary_condition_ok is True
    assert report.absolute is True
    assert report.criteria_agreement is True
    assert report.singular_index is None
    assert report.terms_used < 10**4

    # converged_nonsingular implies the recent terms sat within 10*tol of 1
    checked = 0
    for n, w in enumerate(dev_power_family(2), start=1):
        if n > report.terms_used:
            break
        if n > report.terms_used - 8:
            assert abs(w - ONE) < 10 * 1e-6
            checked += 1
    assert checked == 8


def test_convergent_product_matches_extended_precision():
    report = evaluate_product(dev_power_family(2), tol=1e-6, n_max=10**4)
    c1, c2 = mp_components()
    q1, q2 = mp_partial_product(lambda n: (c1 / n**2, c2 / n**2), report.terms_used)
    assert mp_rel_diff(report.limit_estimate, q1, q2) < 1e-12


def test_product_log_sum_is_a_log_of_the_product():
    report = evaluate_product(dev_power_family(2), tol=1e-6, n_max=10**4)
    assert_close(exp(report.log_sum), report.limit_estimate, rel=1e-10)


def test_geometric_decay_diverges_to_zero():
    report = evaluate_product(constant_terms(Bicomplex(0.9)))
    assert report.verdict == "diverged_to_zero"
    assert report.necessary_condition_ok is False
    assert abs(report.limit_estimate) < 1e-8


def test_oscillating_product_diverges():
    report = evaluate_product(constant_terms(Bicomplex(-1.0)))
    assert report.verdict == "diverged"
    assert report.necessary_condition_ok is False
    assert report.terms_used == 32


def test_growing_product_diverges():
    report = evaluate_product(constant_terms(Bicomplex(1.5)))
    assert report.verdict == "diverged"
    assert report.necessary_condition_ok is False


def test_overflowing_partial_products_diverge():
    # |q|**2 overflows long before q itself: the guard must still see it
    report = evaluate_product(constant_terms(Bicomplex(1e10)))
    assert report.verdict == "diverged"
    assert report.terms_used == 16
    report = evaluate_product(Bicomplex(float(n)) for n in range(1, 10**4))
    assert report.verdict == "diverged"
    report = evaluate_product(constant_terms(Bicomplex(1e200)))
    assert report.verdict == "diverged"
    assert report.terms_used == 1
    absolute = absolute_convergence_check(constant_terms(Bicomplex(1e200)))
    assert absolute.via_deviation_norms == "diverged"


def test_log_sum_equivalence_reports_overflow_with_index():
    with pytest.raises(NonFiniteError) as info:
        log_sum_equivalence(constant_terms(Bicomplex(1e10)))
    assert info.value.term_index == 16


def test_harmonic_drift_is_inconclusive():
    report = evaluate_product(dev_power_family(1), n_max=10**4)
    assert report.verdict == "inconclusive"
    assert report.necessary_condition_ok is True
    assert report.absolute is False
    assert report.criteria_agreement is True
    assert report.terms_used == 10**4


def test_singular_term_aborts_with_index():
    def terms():
        n = 1
        while True:
            yield E1 if n == 57 else ONE + Bicomplex(1.0 / (n * n))
            n += 1

    report = evaluate_product(terms())
    assert report.verdict == "singular_term"
    assert report.singular_index == 57
    assert report.terms_used == 57


def test_component_collapse_is_divergence():
    # one component halves forever, the other stays at 1: the limit
    # would be a zero divisor, but the evidence is only the flat
    # deviations, so the verdict resolves at the budget
    term = Bicomplex.from_idempotent(0.5, 1.0)
    report = evaluate_product(constant_terms(term), n_max=2000)
    assert report.verdict == "diverged"
    assert report.necessary_condition_ok is False


def test_product_validation():
    with pytest.raises(ValueError):
        evaluate_product(iter([ONE]), tol=-1.0)
    with pytest.raises(ValueError):
        evaluate_product(iter([ONE]), window=0)
    with pytest.raises(ValueError):
        evaluate_product(iter([ONE]), n_max=0)


def test_log_sum_equivalence_identity_holds():
    for family in (
        dev_power_family(2),
        dev_geometric_family(),
        (exp(I2 * Bicomplex(0.5**n)) for n in range(1, 10**4)),
    ):
        report = log_sum_equivalence(family, n_max=1000)
        assert report.max_discrepancy < 1e-10
        assert report.terms_used == 1000


def test_log_sum_equivalence_tracks_branch_offsets():
    # constant rotation by 2 radians per factor: the accumulated log
    # leaves the principal strip over and over
    report = log_sum_equivalence(constant_terms(exp(2 * I2)), n_max=100)
    assert report.max_discrepancy < 1e-10
    assert report.branch_offset_changes > 5
    # total angle 200 in each component, opposite signs
    k = round((2 * 100) / (2 * math.pi))
    assert report.branch_offset == (-k, k)


def test_log_sum_equivalence_rejects_singular_terms():
    def terms():
        yield ONE
        yield E1

    with pytest.raises(SingularTerm) as info:
        log_sum_equivalence(terms())
    assert info.value.index == 2


def test_log_sum_equivalence_reports_component_underflow():
    # one idempotent component of the partial product underflows to
    # exactly 0 while the other stays finite, so the product has no
    # principal logarithm to compare the log sum with
    for text, n_max, index in (
        ("[sqrt(n) | (n^-2)^3]", 63, 44),
        ("(n/((1e3^3)*i2)) - e1", 73, 42),
    ):
        with pytest.raises(NonFiniteError, match="component underflowed") as info:
            log_sum_equivalence(term_generator(text), n_max=n_max)
        assert info.value.term_index == index


def test_absolute_check_agreement_on_families():
    expectations = [
        (dev_power_family(2), "converged"),
        (dev_power_family(3), "converged"),
        (dev_geometric_family(), "converged"),
        (dev_power_family(1), "diverged"),
        (dev_power_family(0.5), "diverged"),
    ]
    for family, want in expectations:
        report = absolute_convergence_check(family, tol=1e-6, n_max=10**4)
        assert report.agree is True
        assert report.via_log_norms == want
        assert report.via_deviation_norms == want
        assert report.hypothesis_violation_index is None


def test_absolute_check_trivial_family():
    report = absolute_convergence_check(constant_terms(ONE), n_max=1000)
    assert report.via_log_norms == "converged"
    assert report.via_deviation_norms == "converged"


def test_absolute_check_hypothesis_violation():
    def terms():
        n = 1
        while True:
            yield Bicomplex(-1.0) if n == 5 else ONE + C * Bicomplex(1.0 / (n * n))
            n += 1

    report = absolute_convergence_check(terms())
    assert report.via_log_norms == "hypothesis_violated"
    assert report.via_deviation_norms == "hypothesis_violated"
    assert report.agree is True
    assert report.hypothesis_violation_index == 5
    assert report.terms_used == 5


def test_absolute_check_rejects_singular_terms():
    with pytest.raises(SingularTerm) as info:
        absolute_convergence_check(iter([ONE, ONE, E1]))
    assert info.value.index == 3


def test_log_bound_check_basics():
    zero = log_bound_check(Bicomplex(0.0))
    assert zero.lower_ok and zero.upper_ok and zero.ratio == 1.0

    real = log_bound_check(Bicomplex(0.1))
    assert real.ratio == pytest.approx(math.log(1.1) / 0.1, rel=1e-12)
    assert real.lower_ok and real.upper_ok

    with pytest.raises(ValueError):
        log_bound_check(Bicomplex(0.5))
    with pytest.raises(ValueError):
        log_bound_check(ONE + I1)


def test_log_bound_check_lower_holds_on_half_ball():
    rng = np.random.default_rng(307)
    for _ in range(2000):
        w = ball_bicomplex(rng, 0.4999)
        assert log_bound_check(w).lower_ok


def test_log_bound_check_upper_fails_near_edge():
    check = log_bound_check(Bicomplex.from_idempotent(-0.6, 0.1))
    assert check.lower_ok is True
    assert check.upper_ok is False
    assert check.ratio > 1.5


# -- one pass: analyze_product against the three views run separately --

# the errors on which `bicomplex product` drops the absolute check or
# the identity section
_SECTION_ERRORS = (SingularTerm, SingularOperand, NonFiniteError, IdempotentSlotError)


def _separate_passes(source, tol, window, n_max):
    report = evaluate_product(term_generator(source), tol=tol, window=window, n_max=n_max)
    if report.verdict == "singular_term":
        return report, None, None
    try:
        absolute = absolute_convergence_check(
            term_generator(source), tol=tol, window=window, n_max=n_max
        )
    except _SECTION_ERRORS:
        absolute = None
    try:
        identity = log_sum_equivalence(
            term_generator(source), n_max=min(n_max, LOG_SUM_CAP)
        )
    except _SECTION_ERRORS:
        identity = None
    return report, absolute, identity


def _one_pass(source, tol, window, n_max):
    return analyze_product(term_generator(source), tol=tol, window=window, n_max=n_max)


def _bits(value):
    """A report field by field, every float by its bit pattern."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Bicomplex):
        return tuple(x.hex() for x in value.four_reals)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return value


def _outcome(run, source, tol, window, n_max):
    try:
        return _bits(tuple(run(source, tol, window, n_max)))
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err).__name__, str(err), getattr(err, "term_index", None))


# (expression, tol, window, n_max)
PASS_EDGE_CASES = [
    ("1e10", 1e-10, 8, 1000),                        # overflow guard
    ("n", 1e-10, 8, 1000),
    ("1e200", 1e-10, 8, 1000),
    ("0.9", 1e-10, 8, 1000),                         # diverged_to_zero
    ("1 + (3/10 + 2/5*i2)/n^2", 1e-6, 8, 20000),     # the three stop apart
    ("1+1/n", 1e-10, 8, 3000),                       # budget runs out
    ("(n - 200)*e1 + 2*e2", 1e-10, 8, 1000),         # singular after the verdict
    ("1/(n-100)", 1e-10, 8, 1000),                   # evaluation fails after it
    ("[1e10 | 1e10 + exp(-20000/n)*i2]", 1e-10, 8, 1000),  # slot error after it
    ("[sqrt(n) | (n^-2)^3]", 1e-10, 9, 63),          # component underflow
    ("(n/((1e3^3)*i2)) - e1", 1e-10, 8, 73),
    ("e1 + 1/n", 1e-10, 8, 1000),
    ("-2 + 1/n^2", 1e-10, 8, 1000),                  # hypothesis violations
    ("1 + (-3/2)/n^2", 1e-6, 8, 3000),
    ("e1", 1e-10, 8, 100),                           # singular while the verdict is open
    ("[1 | n*i2]", 1e-10, 8, 100),                   # evaluation fails while it is open
    ("1 + 1/n^2", 1e-10, 8, 5),
]


def test_one_pass_matches_separate_passes_on_edge_cases():
    for case in PASS_EDGE_CASES:
        assert _outcome(_one_pass, *case) == _outcome(_separate_passes, *case), case


def test_one_pass_matches_separate_passes_on_random_expressions():
    rng = np.random.default_rng(505)
    outcomes = set()
    for _ in range(300):
        text = render(_random_ast(rng, int(rng.integers(1, 4))))
        case = (
            text,
            float(rng.choice([1e-10, 1e-6, 1e-3])),
            int(rng.integers(2, 10)),
            int(rng.integers(1, 120)),
        )
        one = _outcome(_one_pass, *case)
        assert one == _outcome(_separate_passes, *case), case
        outcomes.add(one[0] if one[0] == "raised" else one[0][1])
    # the sample reaches failures and several verdicts
    assert "raised" in outcomes and len(outcomes) >= 4


def _count_pair_evaluations(monkeypatch) -> list[int]:
    """Record the index of every evaluation of a compiled pair closure,
    the seam through which the CLI's product and series read terms."""
    calls = []
    original = seqspec._compile_pairs

    def compile_counting(node):
        pairs = original(node)

        def counting(n):
            calls.append(n)
            return pairs(n)

        return counting

    monkeypatch.setattr(seqspec, "_compile_pairs", compile_counting)
    return calls


def test_cli_product_evaluates_each_term_once(monkeypatch):
    calls = _count_pair_evaluations(monkeypatch)
    code, out, _ = run_cli([
        "product", "1 + (3/10 + 2/5*i2)/n^2",
        "--tol", "1e-6", "--max-terms", "20000", "--json",
    ])
    assert code == 0
    doc = json.loads(out)
    used = [
        doc["product"]["terms_used"],
        doc["absolute_check"]["terms_used"],
        doc["log_sum_identity"]["terms_used"],
    ]
    assert len(set(used)) == 3
    assert calls == list(range(1, max(used) + 1))


def test_cli_series_evaluates_each_term_once(monkeypatch):
    calls = _count_pair_evaluations(monkeypatch)
    code, out, _ = run_cli(["series", "[exp(-n) | exp(-2*n)]", "--json"])
    assert code == 0
    used = json.loads(out)["report"]["terms_used"]
    assert 1 < used < 10**6
    assert calls == list(range(1, used + 1))
