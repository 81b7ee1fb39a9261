import cmath
import json
import math
import sys

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
    analyze_series,
    evaluate_product,
    exp,
    log_bound_check,
    log_principal,
    log_sum_equivalence,
    partial_products,
    products,
    render,
    seqspec,
    series,
    term_generator,
)
from bicomplex.core import _pair_zero_divisor_test, _Record
from bicomplex.products import LOG_SUM_CAP, _analyze_product_pairs, _modulus_rms, _rms
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
    one_term_blocks,
    run_cli,
    walker_blocks,
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
    if isinstance(value, _Record):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, name)) for name in value._fields
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
        if one[0] != "raised":
            identity = _one_pass(*case).identity
            assert identity is None or identity.exp_of_log_sum is not None, case
    # the sample reaches failures and several verdicts
    assert "raised" in outcomes and len(outcomes) >= 4


def _count_pair_evaluations(monkeypatch) -> list[int]:
    """Record the indices of every block a compiled closure is evaluated
    on by the index walker's blocks ``seqspec._blocks``, the seam through
    which the CLI's product and series read terms on either lane."""
    calls = []
    original = seqspec._blocks

    def blocks_counting(fn, start, stop):
        def counting(ns):
            calls.extend(ns)
            return fn(ns)

        return original(counting, start, stop)

    monkeypatch.setattr(seqspec, "_blocks", blocks_counting)
    return calls


def _assert_read_ahead(calls: list[int], used: int) -> None:
    """Where a verdict ends the pass, the walker has evaluated indices 1..k,
    each once and in order, k reaching at most to the end of the block
    that holds the last term read."""
    k = len(calls)
    assert calls == list(range(1, k + 1))
    assert used <= k < used + seqspec._BLOCK_CAP


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
    _assert_read_ahead(calls, max(used))

    # the scalar lane: the budget runs out, the absolute check stops early
    calls.clear()
    code, out, _ = run_cli(["product", "1+1/n", "--max-terms", "3000", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["product"]["terms_used"] == 3000
    assert doc["absolute_check"]["terms_used"] < 3000
    assert calls == list(range(1, 3001))


def test_cli_series_evaluates_each_term_once(monkeypatch):
    calls = _count_pair_evaluations(monkeypatch)
    code, out, _ = run_cli(["series", "[exp(-n) | exp(-2*n)]", "--json"])
    assert code == 0
    used = json.loads(out)["report"]["terms_used"]
    assert 1 < used < 10**6
    _assert_read_ahead(calls, used)

    # the scalar lane: the budget runs out
    calls.clear()
    code, out, _ = run_cli(["series", "1/n^2", "--max-terms", "5000", "--json"])
    assert code == 0
    assert json.loads(out)["report"]["terms_used"] == 5000
    assert calls == list(range(1, 5001))


def _count_pair_zero_divisor_tests(monkeypatch) -> list[tuple]:
    """Record the arguments of every call of
    ``core._pair_zero_divisor_test``, through each package module that
    binds the name."""
    calls = []

    def counting(p1, p2, tol):
        calls.append((p1, p2, tol))
        return _pair_zero_divisor_test(p1, p2, tol)

    for name, module in list(sys.modules.items()):
        if name.startswith("bicomplex.") and "_pair_zero_divisor_test" in vars(module):
            monkeypatch.setattr(module, "_pair_zero_divisor_test", counting)
    return calls


def test_cli_scalar_lane_makes_no_pair_zero_divisor_test(monkeypatch):
    calls = _count_pair_zero_divisor_tests(monkeypatch)
    for argv in (
        ["series", "1/n^2", "--max-terms", "5000"],
        ["product", "1+1/n", "--max-terms", "3000"],
    ):
        code, _, _ = run_cli(argv)
        assert code == 0
        assert calls == [], argv
    # the pair lane tests each term as a pair
    code, _, _ = run_cli(["product", "1 + (3/10 + 2/5*i2)/n^2", "--max-terms", "100"])
    assert code == 0
    assert len(calls) >= 100


@pytest.mark.parametrize(
    "argv, scalar",
    [
        (["series", "1/n^2", "--max-terms", "100"], True),
        (["product", "1+1/n", "--max-terms", "100"], True),
        (["product", "1 + (3/10 + 2/5*i2)/n^2", "--max-terms", "100"], False),
        (["series", "[exp(-n) | exp(-2*n)]", "--max-terms", "100"], False),
    ],
)
def test_cli_passes_take_the_lane_of_the_expression(monkeypatch, argv, scalar):
    lanes = []

    def recording(original):
        def run(terms, tol, window, n_max, lane):
            lanes.append(lane)
            return original(terms, tol, window, n_max, lane)

        return run

    # the CLI imports its pass from the pass's module when the command runs
    monkeypatch.setattr(series, "_analyze_pairs", recording(series._analyze_pairs))
    monkeypatch.setattr(products, "_analyze_product_pairs",
                        recording(products._analyze_product_pairs))
    code, _, _ = run_cli(argv)
    assert code == 0
    assert lanes == [scalar]


# -- lanes: the scalar passes against the pair passes on the same terms --


def _lane_reports(text, tol, window, n_max):
    """The series and product reports of the CLI's passes over a scalar
    expression, on the scalar lane and on the pair lane (each value read
    as both components), field by field in bits, or the error raised."""
    node = seqspec.parse(text)
    scalar, _ = seqspec._lane_blocks(node)
    assert scalar, text
    outcomes = []
    for lane in (True, False):
        for run in (series._analyze_pairs, _analyze_product_pairs):
            blocks = seqspec._lane_blocks(node, 1, n_max + 1)[1]
            if not lane:
                blocks = ((xs, xs) for xs in blocks)
            try:
                outcomes.append(_bits(run(blocks, tol, window, n_max, lane)))
            except (ArithmeticError, ValueError) as err:
                outcomes.append(
                    ("raised", type(err).__name__, str(err), getattr(err, "term_index", None))
                )
    return outcomes[:2], outcomes[2:]


# (expression, tol, window, n_max): moduli whose squares leave the float
# range, where the RMS tracker splits off the modulus tracker
LANE_EDGE_CASES = [
    ("1e-160/n^2", 1e-300, 8, 3000),
    ("1e-155*(1+1/n)", 1e-300, 8, 3000),
    # m*m of 1e-161 is subnormal: the RMS value is 9.94e-162, so only the
    # RMS tracker's seven increments stay below tol
    ("1e-161", 6.99e-161, 8, 100),
    ("1e155/n", 1e-10, 8, 3000),
    ("1e-160/n^2", 1e-10, 8, 3000),
    ("1e160 - n", 1e-10, 8, 300),
    ("exp(-n)", 1e-300, 8, 2000),
    ("1 - 1e-160/n", 1e-300, 8, 300),
    ("n - n", 1e-10, 8, 300),
    ("1/(n - 40)", 1e-10, 8, 300),
    ("1/n^2", 1e-10, 8, 5000),
    ("1+1/n", 1e-10, 8, 3000),
    ("0.9", 1e-10, 8, 1000),
    ("log(-1.73)", 1e-10, 8, 50),
    # deviations and partial products on both sides of the exact-RMS
    # range, where the product pass takes abs(x) or _rms(x, x)
    ("1+1e155/n", 1e-10, 8, 3000),
    ("1+1e155/n", 1e-300, 8, 3000),
    ("1+1e-300/n", 1e-10, 8, 3000),
    ("1+1e-300/n", 1e-300, 8, 3000),
    ("1+1e-160/n^2", 1e-10, 8, 3000),
    ("1+1e-160/n^2", 1e-300, 8, 3000),
]


def test_scalar_lane_passes_match_pair_lane_on_edge_cases():
    for case in LANE_EDGE_CASES:
        scalar_lane, pair_lane = _lane_reports(*case)
        assert scalar_lane == pair_lane, case


def test_scalar_lane_rms_tracker_splits_where_squares_leave_the_float_range():
    # every m*m of 1e-160/n^2 underflows to 0, so the RMS tracker sums
    # zeros and converges at tol 1e-300 while both modulus trackers stay
    # open: read as the modulus tracker, it would report absolute False
    report = series._analyze_pairs(
        seqspec._lane_blocks(seqspec.parse("1e-160/n^2"))[1], 1e-300, 8, 3000, True
    )
    assert report.absolute_component_verdicts == ("inconclusive", "inconclusive")
    assert report.absolute is True


def test_rms_of_equal_components_is_the_modulus_in_the_exact_range():
    # _rms squares with abs(x) ** 2, a C pow that need not round
    # correctly, so the identity is checked, not assumed
    rng = np.random.default_rng(1717)
    moduli = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(-511, 511, 100_000))
    angles = rng.uniform(-math.pi, math.pi, 100_000)
    values = [cmath.rect(m, a) for m, a in zip(moduli.tolist(), angles.tolist())]
    values += [complex(2.0**-511), complex(0.0, 2.0**511), complex(-(2.0**511), 0.0)]
    inside = [x for x in values if series._EXACT_RMS_MIN <= abs(x) <= series._EXACT_RMS_MAX]
    assert len(inside) > 99_000
    assert [x for x in inside if _rms(x, x) != abs(x)] == []
    # _modulus_rms is _rms(x, x) inside the range and outside it
    for x in inside[:1000] + [0j, 5e-324j, 1e-160 + 0j, 1e155 + 0j,
                              complex(1.5e308, 1.5e308), complex(math.inf, 0.0)]:
        assert _modulus_rms(x).hex() == _rms(x, x).hex(), x


def test_scalar_lane_passes_match_pair_lane_on_random_expressions():
    from test_compiled import _random_scalar_ast

    rng = np.random.default_rng(1515)
    verdicts = set()
    for _ in range(300):
        case = (
            render(_random_scalar_ast(rng, int(rng.integers(1, 4)))),
            float(rng.choice([1e-300, 1e-10, 1e-6, 1e-3])),
            int(rng.integers(2, 10)),
            int(rng.integers(1, 300)),
        )
        scalar_lane, pair_lane = _lane_reports(*case)
        assert scalar_lane == pair_lane, case
        verdicts.update(o[1] if o[0] != "raised" else "raised" for o in scalar_lane)
    # the sample reaches failures and every series verdict
    assert {"raised", "converged", "diverged", "inconclusive"} <= verdicts


# -- swap symmetry: conj(2) swaps the idempotent components exactly ----

# component shifts of the families: products converge, drain to zero or
# grow, and series converge, stall or diverge
SWAP_SHIFTS = (0.0, 0.0, 1.0, 1.0, 0.9, 1.1)


def _swap_family(rng):
    """Terms ``w_n = a + c/n^k`` for n = 1..budget, with the two
    components of ``a`` drawn apart, so that swapping them changes the
    family."""
    a = Bicomplex.from_idempotent(*rng.choice(SWAP_SHIFTS, size=2))
    c = Bicomplex.from_idempotent(*(complex(*rng.normal(size=2)) for _ in range(2)))
    k = int(rng.integers(0, 4))
    budget = int(rng.integers(100, 3001))
    return [a + c / float(n) ** k for n in range(1, budget + 1)], budget


def _swapped(w):
    return None if w is None else w.conj(2)


def test_swapping_the_components_swaps_the_reports():
    rng = np.random.default_rng(1706)
    product_verdicts, series_verdicts = set(), set()
    for _ in range(30):
        terms, budget = _swap_family(rng)
        swapped = [w.conj(2) for w in terms]
        assert all(w.conj(2).conj(2) == w for w in swapped)

        p = analyze_product(iter(terms), tol=1e-6, n_max=budget).product
        q = analyze_product(iter(swapped), tol=1e-6, n_max=budget).product
        assert (q.verdict, q.terms_used) == (p.verdict, p.terms_used)
        assert q.limit_estimate == _swapped(p.limit_estimate)
        assert q.log_sum == _swapped(p.log_sum)
        product_verdicts.add(p.verdict)

        s = analyze_series(iter(terms), tol=1e-6, n_max=budget)
        t = analyze_series(iter(swapped), tol=1e-6, n_max=budget)
        assert (t.verdict, t.terms_used) == (s.verdict, s.terms_used)
        assert t.component_verdicts == s.component_verdicts[::-1]
        assert t.absolute_component_verdicts == s.absolute_component_verdicts[::-1]
        assert t.limit_estimate == _swapped(s.limit_estimate)
        series_verdicts.add(s.verdict)
    # the families reach every verdict but singular_term, and all three
    # series verdicts
    assert len(product_verdicts) == 4 and len(series_verdicts) == 3


# -- the product pass's norm series against series._Tracker -----------

# (family, tol, n_max, the absolute check's (via_log_norms,
# via_deviation_norms, terms_used); None: the family's own budget)
NORM_FAMILIES = [
    # 1 + c/n^2: both norm series converge, at different terms
    ("converge", 1e-6, 20000, ("converged", "converged", None)),
    # 1 + c/n: both stall at the second checkpoint
    ("stall", 1e-10, 1000, ("diverged", "diverged", 32)),
    # 1e200*(1 + c/n): every deviation norm overflows to inf, so that
    # series passes the guard at term 1, while the log norms stall
    ("overflow", 1e-10, 1000, ("diverged", "diverged", 32)),
    # 1 + c/n^2 on a short budget: neither decides
    ("budget", 1e-10, 500, ("inconclusive", "inconclusive", 500)),
]


def _norm_family(family, c1, c2, scalar, n_max):
    k = 2 if family in ("converge", "budget") else 1
    scale = 1e200 if family == "overflow" else 1.0
    for n in range(1, n_max + 1):
        w1 = scale * (1.0 + c1 / n**k)
        yield w1 if scalar else (w1, scale * (1.0 + c2 / n**k))


def _tracked_norm_series(terms, scalar, tol, window, product_used):
    """Two ``series._Tracker`` fed the log and deviation norms that the
    product pass takes of each term: the absolute check's
    ``(via_log_norms, via_deviation_norms, terms_used)``, and the two
    verdicts (None while open) after ``product_used`` terms."""
    log_track, dev_track = (
        series._Tracker(tol, window, series._HARMONIC_RATIO) for _ in range(2)
    )
    absolute = at_product = None
    for used, term in enumerate(terms, start=1):
        w1, w2 = (term, term) if scalar else term
        if scalar:
            log_norm, dev = _modulus_rms(cmath.log(w1)), _modulus_rms(w1 - 1.0)
        else:
            log_norm = _rms(cmath.log(w1), cmath.log(w2))
            dev = _rms(w1 - 1.0, w2 - 1.0)
        log_track.push(log_norm, log_norm)
        dev_track.push(dev, dev)
        if used == product_used:
            at_product = (log_track.verdict, dev_track.verdict)
        if absolute is None and None not in (log_track.verdict, dev_track.verdict):
            absolute = (log_track.verdict, dev_track.verdict, used)
    if absolute is None:
        absolute = ("inconclusive", "inconclusive", used)
    return absolute, at_product


def test_product_pass_norm_series_match_the_tracker():
    # the pass keeps both norm series inline; series._Tracker.push is the
    # rule they must follow, term for term, on both lanes
    rng = np.random.default_rng(1818)
    for scalar in (True, False):
        for family, tol, n_max, expected in NORM_FAMILIES:
            for _ in range(4):
                # Re c > 0 keeps every real part positive and makes the
                # log norms of 1 + c/n decay no faster than harmonically
                c1, c2 = (complex(rng.uniform(0.1, 0.5), rng.uniform(-0.5, 0.5))
                          for _ in range(2))
                terms = list(_norm_family(family, c1, c2, scalar, n_max))
                case = (family, scalar, c1, c2)
                report = _analyze_product_pairs(walker_blocks(terms, scalar), tol, 8, n_max, scalar)
                absolute, (log_verdict, dev_verdict) = _tracked_norm_series(
                    terms, scalar, tol, 8, report.product.terms_used
                )
                got = report.absolute
                assert (got.via_log_norms, got.via_deviation_norms, got.terms_used) == absolute, case
                assert got.agree == (absolute[0] == absolute[1]), case
                assert report.product.absolute == (log_verdict == "converged"), case
                assert report.product.criteria_agreement == (
                    (log_verdict or "inconclusive") == (dev_verdict or "inconclusive")
                ), case
                # each family reaches the outcome it is there for
                assert absolute[:2] == expected[:2], case
                assert expected[2] in (None, absolute[2]), case
                if family == "overflow":
                    assert (report.product.terms_used, log_verdict, dev_verdict) == (
                        1, None, "diverged"
                    ), case
                    assert not report.product.criteria_agreement, case
                if family == "converge":
                    assert report.product.absolute, case
