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
from bicomplex.products import LOG_SUM_CAP, _analyze_product_pairs, _rms
from bicomplex.seqspec import IdempotentSlotError
from bicomplex.series import _norms
from helpers import (
    C,
    assert_close,
    ball_bicomplex,
    dev_geometric_family,
    dev_power_family,
    mp_components,
    mp_partial_product,
    mp_rel_diff,
    mp_rms,
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
    with pytest.raises(TypeError, match="^cannot interpret argument as Bicomplex: 'x'$"):
        log_bound_check("x")


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


def test_cli_per_term_body_tests_each_product_term_it_reads(monkeypatch):
    calls = _count_pair_zero_divisor_tests(monkeypatch)
    # a series makes no zero-divisor test
    code, _, _ = run_cli(["series", "1/n^2", "--max-terms", "5000"])
    assert code == 0
    assert calls == []
    # on either lane the product's per-term body tests as a pair each term
    # it reads: terms 1 to 32 and the checkpoint 64, around the runs 33-63
    # and 65-100 that the block step takes
    for text in ("1+1/n", "1 + (3/10 + 2/5*i2)/n^2"):
        calls.clear()
        code, _, _ = run_cli(["product", text, "--max-terms", "100"])
        assert code == 0
        terms = [seqspec.eval_term(seqspec.parse(text), n) for n in (*range(1, 33), 64)]
        assert calls == [(w.p1, w.p2, 1e-12) for w in terms], text


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
    # the lane is the identity of the lists the CLI hands the pass
    calls, lanes = [], set()

    def recording(original):
        def run(blocks, tol, window, n_max):
            def seen():
                for p1s, p2s in blocks:
                    lanes.add(p1s is p2s)
                    yield p1s, p2s

            calls.append(original.__name__)
            return original(seen(), tol, window, n_max)

        return run

    # the CLI imports its pass from the pass's module when the command runs
    monkeypatch.setattr(series, "_analyze_pairs", recording(series._analyze_pairs))
    monkeypatch.setattr(products, "_analyze_product_pairs",
                        recording(products._analyze_product_pairs))
    code, _, _ = run_cli(argv)
    assert code == 0
    assert len(calls) == 1 and lanes == {scalar}


# -- lanes: the scalar passes against the pair passes on the same terms --


def _lane_reports(text, tol, window, n_max):
    """The series and product reports of the CLI's passes over a scalar
    expression, on the scalar lane and on the pair lane (each block's one
    list copied, so that the copy is the second component), field by field
    in bits, or the error raised."""
    from test_compiled import _tree_lane

    node = seqspec.parse(text)
    assert _tree_lane(node), text
    outcomes = []
    for lane in (True, False):
        for run in (series._analyze_pairs, _analyze_product_pairs):
            blocks = seqspec._lane_blocks(node, 1, n_max + 1)
            if not lane:
                blocks = ((p1s, list(p2s)) for p1s, p2s in blocks)
            try:
                outcomes.append(_bits(run(blocks, tol, window, n_max)))
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
        seqspec._lane_blocks(seqspec.parse("1e-160/n^2")), 1e-300, 8, 3000
    )
    assert report.absolute_component_verdicts == ("inconclusive", "inconclusive")
    assert report.absolute is True


def test_rms_of_equal_components_is_the_modulus_in_the_exact_range():
    # _rms squares as m*m: in the exact-RMS range doubling and halving are
    # exact and a correctly rounded sqrt(m*m) is m, so this holds by proof;
    # the sample checks the proof's premises on this platform
    rng = np.random.default_rng(1717)
    moduli = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(-511, 511, 100_000))
    angles = rng.uniform(-math.pi, math.pi, 100_000)
    values = [cmath.rect(m, a) for m, a in zip(moduli.tolist(), angles.tolist())]
    values += [complex(2.0**-511), complex(0.0, 2.0**511), complex(-(2.0**511), 0.0)]
    inside = [x for x in values if series._EXACT_RMS_MIN <= abs(x) <= series._EXACT_RMS_MAX]
    assert len(inside) > 99_000
    assert [x for x in inside if _rms(x, x) != abs(x)] == []
    # the block steps' norms are _rms(a, b) of each pair, inside the range
    # and outside it, wherever _norms skips the RMS for equal moduli; a
    # modulus past the float range gives inf
    def check(pairs):
        m1s = [series._modulus(a) for a, _ in pairs]
        m2s = [series._modulus(b) for _, b in pairs]
        want = [_rms(a, b).hex() for a, b in pairs]
        assert [m.hex() for m in _norms(m1s, m2s)] == want, pairs
        if m1s == m2s:
            assert [m.hex() for m in _norms(m1s, m1s)] == want, pairs

    # seeded conjugate pairs, as of a term built from reals, n and i2
    conjugate = [(x, x.conjugate()) for x in inside[:2000]]
    # equal moduli that are not conjugate: [a | b] with |a| = |b|
    rotated = [(x, y) for x in inside[:2000]
               for y in (x * 1j, -x, complex(x.imag, x.real)) if abs(y) == abs(x)]
    assert len(rotated) > 5000
    check(conjugate)
    check(rotated)
    # the exact-range edges, their float neighbours, subnormals, 0 and inf,
    # each alone and in a run of values inside the range
    edges = [0.0, 5e-324, 2.0**-1070, 1e-160, 1e155, 1.5e308, math.inf]
    for bound in (series._EXACT_RMS_MIN, series._EXACT_RMS_MAX):
        edges += [math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)]
    for m in edges:
        for x in (complex(m), complex(0.0, m), cmath.rect(m, 0.7) if m < math.inf else complex(m)):
            check([(x, x.conjugate())])
            check(conjugate[:20] + [(x, x.conjugate())] + conjugate[20:40])
    # lists that differ only in their last element
    for tail in ((inside[0], inside[1]), (1.5, 1.5 * (1 + 2**-52)), (1.5, 2.0**-600)):
        assert abs(tail[0]) != abs(tail[1])
        check(conjugate[:100] + [tail])
    assert _rms(complex(1.5e308, 1.5e308), 0j) == math.inf


def _parts(z) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_mirror_run_premises_hold_bit_for_bit():
    # a mirror run of the product pass takes the second component's logs,
    # log moduli and deviations from the first's, and its partial products
    # and log sums as conjugates where no part is zero
    # (products._product_pass); these are the premises, on this platform
    rng = np.random.default_rng(3434)
    k = 20_000
    # right half plane: positive real parts and imaginary parts of either
    # sign across the float range, subnormals included, and values within
    # 1/2 of 1, as the run's terms are
    parts = np.ldexp(rng.uniform(1.0, 2.0, (2, k)), rng.integers(-1074, 1000, (2, k)))
    signs = rng.choice([-1.0, 1.0], k)
    right = [complex(x, y) for x, y in zip(parts[0].tolist(), (parts[1] * signs).tolist())]
    near = 1.0 + 0.5 * rng.random(k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    right += near.tolist()
    edges = [5e-324, 2.0**-1070, 1e-300, 0.5, 1.0, 1e300]
    right += [complex(x, s * y) for x in edges for y in [0.0, *edges] for s in (1.0, -1.0)]
    assert sum(z.imag == 0.0 for z in right) == 2 * len(edges)
    assert [z for z in right
            if _parts(cmath.log(z.conjugate())) != _parts(cmath.log(z).conjugate())
            or abs(z.conjugate()).hex() != abs(z).hex()
            or abs(z.conjugate() - 1.0).hex() != abs(z - 1.0).hex()] == []

    # * and + on seeded operands near 1, as of partial products and log
    # sums, and across scales that neither overflow nor underflow
    scales = np.ldexp(1.0, rng.integers(-400, 400, (2, k)))
    angles = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, k)))
    operands = [(scales * angles).tolist(), (1.0 + 0.5 * rng.random((2, k)) * angles).tolist()]
    checked = 0
    for a_s, b_s in operands:
        for a, b in zip(a_s, b_s):
            for result, mirrored in ((a * b, a.conjugate() * b.conjugate()),
                                     (a + b, a.conjugate() + b.conjugate())):
                if result.real and result.imag:
                    checked += 1
                    assert _parts(mirrored) == _parts(result.conjugate()), (a, b)
    assert checked > 3.9 * k
    # where a part cancels to an exact zero, the mirror has +0.0: equal by
    # value only, which is why the step conjugates only nonzero parts
    for a, b, op in ((1 + 1j, 1 - 1j, complex.__mul__), (1 + 1j, 1 - 1j, complex.__add__)):
        result, mirrored = op(a, b), op(a.conjugate(), b.conjugate())
        assert mirrored == result.conjugate()
        assert _parts(result.conjugate()) == ("0x1.0000000000000p+1", "-0x0.0p+0")
        assert _parts(mirrored) == ("0x1.0000000000000p+1", "0x0.0p+0")


def test_rms_is_no_less_accurate_than_squaring_with_pow():
    # _rms squares each modulus as m*m, which rounds correctly; the C pow
    # behind abs(a) ** 2 need not. Against mpmath, on moduli inside the
    # exact-RMS range and on both sides of it (squares that lose bits as
    # subnormals or underflow, and squares that overflow):
    import mpmath as mp

    def pow_rms(a, b):
        try:
            return math.sqrt((abs(a) ** 2 + abs(b) ** 2) / 2.0)
        except OverflowError:
            return math.inf

    rng = np.random.default_rng(2222)
    k = 20_000
    e1 = rng.integers(-1070, 1015, k)
    # half the pairs close in scale, so both squares count
    e2 = np.where(rng.random(k) < 0.5, e1 + rng.integers(-8, 9, k), rng.integers(-1070, 1015, k))
    m1 = np.ldexp(rng.uniform(1.0, 2.0, k), e1).tolist()
    m2 = np.ldexp(rng.uniform(1.0, 2.0, k), e2).tolist()
    angles = rng.uniform(-math.pi, math.pi, (k, 2)).tolist()
    pairs = [(cmath.rect(a, t), cmath.rect(b, u)) for a, b, (t, u) in zip(m1, m2, angles)]

    # each square m*m is at least as close to the exact square as pow's,
    # and the two differ on some of the sample
    differ = 0
    for m in map(abs, (x for pair in pairs for x in pair)):
        if m < 2.0**511 and m * m != m**2:
            differ += 1
            exact = mp.mpf(m) ** 2
            assert abs(m * m - exact) < abs(m**2 - exact), m
    assert differ > 0

    # the RMS: no worse by max relative error inside the range or outside
    # it, nor by median relative error over the whole sample. (Where the
    # two differ, the last roundings can favour either, so the median of
    # one side alone moves with the sample either way.)
    inside = [all(series._EXACT_RMS_MIN <= abs(x) <= series._EXACT_RMS_MAX for x in pair)
              for pair in pairs]
    assert 0.2 * k < sum(inside) < 0.8 * k
    errors = {True: ([], []), False: ([], [])}
    for (a, b), side in zip(pairs, inside):
        exact = mp_rms(a, b)
        for got, errs in zip((_rms(a, b), pow_rms(a, b)), errors[side]):
            errs.append(float(abs(got - exact) / exact))
    for side, (ours, theirs) in errors.items():
        assert max(ours) <= max(theirs), side
    ours, theirs = (errors[True][i] + errors[False][i] for i in (0, 1))
    assert np.median(ours) <= np.median(theirs)
    # inside the range both are within a few ulps
    assert max(errors[True][0]) < 4 * 2.0**-53


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
        log_norm = _rms(cmath.log(w1), cmath.log(w2))
        dev = _rms(w1 - 1.0, w2 - 1.0)
        log_track.push(log_norm, log_norm, used)
        dev_track.push(dev, dev, used)
        if used == product_used:
            at_product = (log_track.verdict, dev_track.verdict)
        if absolute is None and None not in (log_track.verdict, dev_track.verdict):
            absolute = (log_track.verdict, dev_track.verdict, used)
    if absolute is None:
        absolute = ("inconclusive", "inconclusive", used)
    return absolute, at_product


def test_product_pass_norm_series_match_the_tracker():
    # the pass runs both norm series on series._Tracker, with a block
    # step and a separate deviation deque for the product's checkpoints;
    # trackers fed term by term must agree, on both lanes
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
                report = _analyze_product_pairs(walker_blocks(terms, scalar), tol, 8, n_max)
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


# -- closed forms: what a converged product's limit estimate is worth --

# (expression, the coefficient a of 1 + a/n^2 in each idempotent
# component): each component product is sinh(pi*sqrt(a))/(pi*sqrt(a)).
# The first three run on the scalar lane, the last two on the pair lane.
CLOSED_FORMS = [
    ("1 + 1/n^2", (1.0, 1.0)),
    ("1 - 1/(4*n^2)", (-0.25, -0.25)),
    ("1 + (1/2 + i1)/n^2", (0.5 + 1j, 0.5 + 1j)),
    ("1 + (3/10 + 2/5*i2)/n^2", (0.3 - 0.4j, 0.3 + 0.4j)),
    ("[1 + 1/n^2 | 1 - 1/(4*n^2)]", (1.0, -0.25)),
]


@pytest.mark.parametrize("text, coefficients", CLOSED_FORMS)
def test_converged_products_lie_within_the_tail_bound_of_their_closed_form(
    text, coefficients
):
    # converged_nonsingular certifies only that the last window of partial
    # products agree within tol; the estimate misses the tail. The paper's
    # absolute-convergence bound |prod_{n>N}(1 + u_n) - 1| <= exp(sum_{n>N}
    # |u_n|) - 1, with sum_{n>N} |a|/n^2 < |a|/N, puts each component's
    # limit within |q|*expm1(|a|/N) of the component q of the estimate
    # after N terms. At --tol 1e-8 that bound is 13 to 1,400 times the
    # rounding of N partial products; at the default 1e-10 it shrinks to
    # the size of that rounding, and the test would prove nothing.
    import mpmath as mp

    code, out, err = run_cli(["product", "--json", "--tol", "1e-8", "--", text])
    assert code == 0, err
    report = json.loads(out)["product"]
    assert report["verdict"] == "converged_nonsingular", text
    n = report["terms_used"]
    with mp.workdps(30):
        for (re, im), a in zip(report["limit_estimate"]["idempotent"], coefficients):
            q = complex(re, im)
            root = mp.pi * mp.sqrt(mp.mpc(a))
            gap = abs(mp.mpc(q) - mp.sinh(root) / root)
            assert gap <= abs(q) * math.expm1(abs(a) / n), (text, n, float(gap))


# the divisors of the known-truth families, with the exponent p of each
# as n^p: a component product of 1 + a/d converges where sum |a|/d does,
# which is where p > 1
DIVISORS = (("n", 1.0), ("n^2", 2.0), ("n^3", 3.0), ("sqrt(n)", 0.5), ("n*sqrt(n)", 1.5))


def _coefficient(rng) -> str:
    """A complex ``a`` with ``|a|`` log-uniform in [1e-7, 1) and a random
    phase, as text in ``i1``."""
    a = cmath.rect(10.0 ** rng.uniform(-7.0, 0.0), rng.uniform(-math.pi, math.pi))
    return f"({a.real!r} {'-' if a.imag < 0 else '+'} {abs(a.imag)!r}*i1)"


def test_no_convergent_known_truth_product_is_called_divergent():
    # [1 + a/d1 | 1 + b/d2] on seeded draws, through the CLI's pass at the
    # CLI's tol and window: |a|, |b| < 1, so no term vanishes, and the
    # bicomplex product converges where both component products do. The
    # rules promise no divergence verdict there; they do not promise the
    # reverse, as a window that settles on a slowly divergent product says
    # converged_nonsingular
    rng = np.random.default_rng(3131)
    for _ in range(40):
        (d1, p1), (d2, p2) = (DIVISORS[i] for i in rng.integers(0, len(DIVISORS), size=2))
        text = f"[1 + {_coefficient(rng)}/({d1}) | 1 + {_coefficient(rng)}/({d2})]"
        blocks = seqspec._lane_blocks(seqspec.parse(text), 1, 20_001)
        verdict = _analyze_product_pairs(blocks, 1e-10, 8, 20_000).product.verdict
        if p1 > 1 and p2 > 1:
            assert verdict not in ("diverged", "diverged_to_zero"), text
