"""End-to-end acceptance checks, one per stated requirement.

Each test prints a single PASS/FAIL line (bypassing capture) and then
asserts, so a full run leaves a ten-line scoreboard in the output.
Criteria 1, 2 and 5 gate their own run time and are marked
``wallclock``, which ``tools/line_trace.py`` runs untraced.
"""

import json
import math
import time

import numpy as np
import pytest

from bicomplex import (
    E1,
    E2,
    ONE,
    ZERO,
    Bicomplex,
    I1,
    I2,
    SingularOperand,
    absolute_convergence_check,
    evaluate_product,
    exp,
    exp_lattice_coords,
    log_branch,
    log_bound_check,
    log_principal,
    log_sum_equivalence,
    parse,
    render,
)
from helpers import (
    C,
    GOLDEN_DIR,
    ball_bicomplex,
    dev_geometric_family,
    dev_power_family,
    gauss_bicomplex,
    mp_components,
    mp_partial_product,
    mp_rel_diff,
    nonsingular_bicomplex,
    null_cone_bicomplex,
    rel_diff,
    run_cli,
)
from test_cli import GOLDEN_CASES as CLI_GOLDEN_CASES
from test_seqspec import GOLDEN_CASES as AST_GOLDEN_CASES
from test_seqspec import _random_ast

TWO_PI = 2.0 * math.pi


@pytest.fixture
def report(capsys):
    def _report(num: int, description: str, failures: list[str]):
        status = "PASS" if not failures else "FAIL"
        line = f"{status} criterion {num}: {description}"
        if failures:
            line += " [" + "; ".join(failures) + "]"
        with capsys.disabled():
            print(line)
        assert not failures, line

    return _report


@pytest.mark.wallclock
def test_criterion_1_exponential_identities(report):
    failures = []
    t0 = time.perf_counter()

    if exp(ZERO) != ONE:
        failures.append("exp(0) != 1")
    if abs(exp(Bicomplex(0.0, math.pi)) + ONE) >= 1e-12:
        failures.append("exp(pi*i2) missed -1")

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        w = ball_bicomplex(rng, 5.0)
        m = int(rng.integers(-3, 4))
        n = int(rng.integers(-3, 4))
        shift = Bicomplex(complex(0.0, TWO_PI * m), TWO_PI * n)
        worst = max(worst, rel_diff(exp(w + shift), exp(w)))
    if worst >= 1e-10:
        failures.append(f"periodicity worst rel {worst:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s")
    report(1, "exponential identities and lattice periodicity", failures)


@pytest.mark.wallclock
def test_criterion_2_ring_and_idempotent_laws(report):
    failures = []
    t0 = time.perf_counter()

    if E1 * E1 != E1 or E2 * E2 != E2:
        failures.append("idempotency broken")
    if E1 * E2 != ZERO or E1 + E2 != ONE:
        failures.append("partition of unity broken")

    rng = np.random.default_rng(202)
    N = 10**5
    xa = rng.normal(size=(N, 4))
    xb = rng.normal(size=(N, 4))
    A = [Bicomplex(complex(r[0], r[1]), complex(r[2], r[3])) for r in xa]
    B = [Bicomplex(complex(r[0], r[1]), complex(r[2], r[3])) for r in xb]

    tol = 1e-12
    bad_ring = bad_proj = bad_cn = 0
    for a, b in zip(A, B):
        ab = a * b
        scale = max(1.0, abs(ab))
        if abs(ab - b * a) > tol * scale:
            bad_ring += 1
        if abs(ab * b - a * (b * b)) > tol * max(1.0, scale * abs(b)):
            bad_ring += 1
        if abs(a * (b + ONE) - (ab + a)) > tol * max(1.0, scale, abs(a)):
            bad_ring += 1
        pr = ab.idempotent()
        if abs(pr.p1 - a.p1 * b.p1) > tol * max(1.0, abs(pr.p1)):
            bad_proj += 1
        if abs(pr.p2 - a.p2 * b.p2) > tol * max(1.0, abs(pr.p2)):
            bad_proj += 1
        ca = a.cn()
        cb = b.cn()
        if abs(ab.cn() - ca * cb) > tol * max(1.0, abs(ca) * abs(cb)):
            bad_cn += 1
    if bad_ring:
        failures.append(f"{bad_ring} ring-law violations")
    if bad_proj:
        failures.append(f"{bad_proj} projection-homomorphism violations")
    if bad_cn:
        failures.append(f"{bad_cn} norm-multiplicativity violations")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s")
    report(2, "idempotent ring laws, projections, norm multiplicativity", failures)


def test_criterion_3_inverse_correctness(report):
    failures = []
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10**5):
        w = nonsingular_bicomplex(rng)
        worst = max(worst, abs(w * w.inverse() - ONE))
    if worst >= 1e-12:
        failures.append(f"worst |w*inv(w) - 1| = {worst:.2e}")

    missed = 0
    for k in range(200):
        w = null_cone_bicomplex(rng, sign=1 if k % 2 else -1)
        try:
            w.inverse()
            missed += 1
        except SingularOperand:
            pass
    if missed:
        failures.append(f"{missed} null-cone inversions not rejected")
    report(3, "inverse correctness and null-cone rejection", failures)


def test_criterion_4_log_exp_duality(report):
    failures = []
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10**4):
        w = nonsingular_bicomplex(rng)
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        worst = max(worst, rel_diff(exp(log_branch(w, (m, n))), w))
    if worst >= 1e-10:
        failures.append(f"roundtrip worst rel {worst:.2e}")

    worst_coord = 0.0
    for _ in range(10**4):
        w = gauss_bicomplex(rng, scale=2.0)
        d = log_principal(exp(w)) - w
        for coord in exp_lattice_coords(d):
            worst_coord = max(
                worst_coord,
                abs(coord.imag),
                abs(coord.real - round(coord.real)),
            )
    if worst_coord >= 1e-8:
        failures.append(f"lattice coordinate off-integer by {worst_coord:.2e}")
    report(4, "log/exp duality across branches with lattice recovery", failures)


def _log1p_majorant(s: float) -> float:
    """Sharp bound on |log(1+z)|/|z| over |z| = s < 1, reached at z = -s.

    Termwise, |log(1+z)| <= sum s**k/k = -log(1-s). The function grows
    with s, so the largest idempotent modulus bounds the Euclidean ratio.
    """
    return -math.log1p(-s) / s if s else 1.0


@pytest.mark.wallclock
def test_criterion_5_log1p_two_sided_bound(report):
    # The paper states (1/2)||w|| <= ||log(1+w)|| <= (3/2)||w|| for
    # ||w|| < 1/2. Its upper half borrows the complex lemma, which needs
    # |z| < 1/2 per idempotent component, but ||w||**2 = (|p1|**2 +
    # |p2|**2)/2 lets a component reach 1/sqrt(2) inside the ball. Checked
    # instead, on every sample: the lower bound; the upper 3/2 where both
    # components satisfy the complex lemma; and the sharp upper bound
    # ratio <= f(max |p_k|) (at most -sqrt(2)*log(1 - 1/sqrt(2)) = 1.7366).
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    lower_bad = lemma_bad = sharp_bad = paper_bad = lemma_samples = 0
    max_ratio = 0.0
    min_ratio = math.inf
    for _ in range(10**5):
        w = ball_bicomplex(rng, 0.5)
        chk = log_bound_check(w)
        s = max(abs(w.p1), abs(w.p2))
        if not chk.lower_ok:
            lower_bad += 1
        if not chk.upper_ok:
            paper_bad += 1
        if s < 0.5:
            lemma_samples += 1
            if not chk.upper_ok:
                lemma_bad += 1
        if chk.ratio > _log1p_majorant(s) * (1.0 + 1e-12):
            sharp_bad += 1
        max_ratio = max(max_ratio, chk.ratio)
        min_ratio = min(min_ratio, chk.ratio)
    if lower_bad:
        failures.append(f"lower bound violated {lower_bad} times (min ratio {min_ratio:.4f})")
    if not lemma_samples:
        failures.append("no sample with both idempotent moduli below 1/2")
    if lemma_bad:
        failures.append(f"upper bound 3/2 violated {lemma_bad} times with both moduli < 1/2")
    if sharp_bad:
        failures.append(f"sharp bound -log(1-s)/s violated {sharp_bad} times")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s")
    report(
        5,
        "log1p norm lemma on the half-ball: lower 1/2 everywhere, upper 3/2 "
        f"on {lemma_samples} samples with both idempotent moduli < 1/2, "
        "sharp -log(1-s)/s at s = max modulus everywhere "
        f"(the paper's 3/2 on the whole ball fails {paper_bad} times, "
        f"max ratio {max_ratio:.4f})",
        failures,
    )


def test_criterion_6_log_sum_matches_partial_products(report):
    failures = []

    def oscillating_family():
        n = 1
        while True:
            yield ONE + C * Bicomplex((-1.0) ** n / n**1.5)
            n += 1

    def rotation_family():
        n = 1
        while True:
            yield exp(I2 * Bicomplex(0.5**n))
            n += 1

    families = [
        ("quadratic decay", dev_power_family(2)),
        ("shrinking rotation", rotation_family()),
        ("oscillating decay", oscillating_family()),
    ]
    for name, family in families:
        identity = log_sum_equivalence(family, n_max=1000)
        if identity.terms_used != 1000:
            failures.append(f"{name}: stopped at {identity.terms_used}")
        if identity.max_discrepancy >= 1e-10:
            failures.append(f"{name}: discrepancy {identity.max_discrepancy:.2e}")
    report(6, "running exp(log-sum) matches partial products", failures)


def test_criterion_7_absolute_criteria_and_budget_stability(report):
    failures = []
    c1, c2 = mp_components()

    converging = [
        ("1 + c/n^2", lambda: dev_power_family(2), lambda n: (c1 / n**2, c2 / n**2)),
        ("1 + c/n^3", lambda: dev_power_family(3), lambda n: (c1 / n**3, c2 / n**3)),
        ("1 + c/2^n", lambda: dev_geometric_family(), lambda n: (c1 / 2**n, c2 / 2**n)),
    ]
    diverging = [
        ("1 + c/n", lambda: dev_power_family(1)),
        ("1 + c/sqrt(n)", lambda: dev_power_family(0.5)),
    ]

    for name, make, mp_dev in converging:
        check = absolute_convergence_check(make(), tol=1e-6, n_max=10**4)
        if not check.agree or check.via_log_norms != "converged":
            failures.append(
                f"{name}: criteria {check.via_log_norms}/{check.via_deviation_norms}"
            )
        small = evaluate_product(make(), tol=1e-6, n_max=10**4)
        large = evaluate_product(make(), tol=1e-6, n_max=2 * 10**4)
        if small.verdict != "converged_nonsingular":
            failures.append(f"{name}: verdict {small.verdict}")
            continue
        drift = rel_diff(small.limit_estimate, large.limit_estimate)
        if drift >= 1e-8:
            failures.append(f"{name}: budget drift {drift:.2e}")
        q1, q2 = mp_partial_product(mp_dev, small.terms_used)
        oracle_gap = mp_rel_diff(small.limit_estimate, q1, q2)
        if oracle_gap >= 1e-8:
            failures.append(f"{name}: oracle gap {oracle_gap:.2e}")

    for name, make in diverging:
        check = absolute_convergence_check(make(), tol=1e-6, n_max=10**4)
        if not check.agree or check.via_log_norms != "diverged":
            failures.append(
                f"{name}: criteria {check.via_log_norms}/{check.via_deviation_norms}"
            )
    report(7, "absolute-convergence criteria agree; limits budget-stable and oracle-checked", failures)


def test_criterion_8_pathology_detection(report):
    failures = []

    code, out, _ = run_cli(["product", "0.9", "--json"])
    doc = json.loads(out)
    if doc["product"]["verdict"] != "diverged_to_zero":
        failures.append(f"0.9 verdict {doc['product']['verdict']}")
    if doc["product"]["necessary_condition_ok"] is not False:
        failures.append("0.9 necessary condition not flagged")

    code, out, _ = run_cli(["product", "-1", "--json"])
    doc = json.loads(out)
    if doc["product"]["verdict"] != "diverged":
        failures.append(f"-1 verdict {doc['product']['verdict']}")

    def trap_family():
        n = 1
        while True:
            yield E1 if n == 57 else ONE + C * Bicomplex(1.0 / n**2)
            n += 1

    rep = evaluate_product(trap_family(), n_max=10**4)
    if rep.verdict != "singular_term" or rep.singular_index != 57:
        failures.append(f"trap: {rep.verdict} at {rep.singular_index}")
    report(8, "pathology detection: zero collapse, divergence, singular term", failures)


def test_criterion_9_rearrangement_stability(report):
    failures = []
    N = 10**4
    terms = [ONE + C * Bicomplex(1.0 / n**2) for n in range(1, N + 1)]
    perm = np.random.default_rng(2024).permutation(N)
    shuffled = [terms[i] for i in perm]

    straight = evaluate_product(iter(terms), n_max=N)
    rearranged = evaluate_product(iter(shuffled), n_max=N)
    if straight.limit_estimate is None or rearranged.limit_estimate is None:
        failures.append("missing limit estimate")
    else:
        drift = rel_diff(straight.limit_estimate, rearranged.limit_estimate)
        if drift >= 1e-8:
            failures.append(f"limit moved by {drift:.2e}")
    report(9, "rearrangement stability of an absolutely convergent product", failures)


def test_criterion_10_parser_goldens_and_cli_stability(report):
    failures = []

    if len(AST_GOLDEN_CASES) != 20:
        failures.append(f"{len(AST_GOLDEN_CASES)} golden expressions")
    mismatched = sum(1 for text, want in AST_GOLDEN_CASES if parse(text) != want)
    if mismatched:
        failures.append(f"{mismatched} golden AST mismatches")

    rng = np.random.default_rng(1010)
    broken = 0
    for _ in range(1000):
        ast = _random_ast(rng, int(rng.integers(1, 5)))
        if parse(render(ast)) != ast:
            broken += 1
    if broken:
        failures.append(f"{broken} round-trip failures")

    for name, argv in CLI_GOLDEN_CASES.items():
        code_a, out_a, _ = run_cli(argv)
        code_b, out_b, _ = run_cli(argv)
        frozen = (GOLDEN_DIR / name).read_bytes()
        if code_a != 0 or code_b != 0:
            failures.append(f"{name}: exit {code_a}/{code_b}")
        elif out_a != out_b:
            failures.append(f"{name}: unstable output")
        elif out_a.encode() != frozen:
            failures.append(f"{name}: differs from golden file")
    report(10, "parser goldens, render round-trip, CLI golden byte stability", failures)
