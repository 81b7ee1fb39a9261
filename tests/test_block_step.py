"""The passes' block step against their per-term body.

The CLI hands the series and product passes the index walker's blocks
(1, 2, 4, ..., 1,024 terms), and the passes take a run of terms at once
where their screens show that no rule fires in it; the public analyzers
hand them one-term blocks, which the per-term body reads. Both must give
the same reports, bit for bit, on every decision site.
"""

import json
import math

import numpy as np
import pytest

from bicomplex import analyze_series, evaluate_product, products, series
from helpers import one_term_blocks, run_cli, walker_blocks
from test_products import _bits

# the first index of each block the walker hands on
BLOCK_STARTS = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512} | set(range(1024, 10**6, 1024))


PASSES = {"product": products._analyze_product_pairs, "series": series._analyze_pairs}


def _outcome(run, blocks, *args):
    """The pass's report in bits, or the error it raised."""
    try:
        return _bits(run(blocks, *args))
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err).__name__, str(err), getattr(err, "term_index", None))


def _per_term_reads(monkeypatch) -> list[int]:
    """Count the terms the passes' per-term bodies read: each reads a run
    through ``zip``."""
    count = [0]

    def counting_zip(*runs):
        for term in zip(*runs):
            count[0] += 1
            yield term

    for module in (products, series):
        monkeypatch.setattr(module, "zip", counting_zip, raising=False)
    return count


def _compare(monkeypatch, command, terms, scalar, tol, n_max, window=8):
    """The report of ``command``'s pass over ``terms`` as walker blocks,
    after checking that one-term blocks give it bit for bit, and the
    number of terms the per-term body read on the walker blocks."""
    run = PASSES[command]
    single = _outcome(run, one_term_blocks(terms, scalar), tol, window, n_max, scalar)
    count = _per_term_reads(monkeypatch)
    report = run(walker_blocks(terms, scalar), tol, window, n_max, scalar)
    monkeypatch.undo()
    assert _bits(report) == single, (command, scalar)
    return report, count[0]


def _family(n_max, term):
    return [term(n) for n in range(1, n_max + 1)]


C1, C2 = 0.3 - 0.4j, 0.3 + 0.4j
# a partial product that shrinks toward its limit
SHRINKING = -0.3 - 0.4j


def _mid_block(index: int) -> bool:
    """Past term 2,048, so that the run of terms 1,025 to 2,047 lies
    before the deciding one, and not the first term of a block."""
    return index > 2048 and index not in BLOCK_STARTS


# -- products: every decision site ------------------------------------

def _near_one(n):
    return 1 + C1 / n**2, 1 + C2 / n**2


# (name, pair-lane terms by index, scalar-lane terms by index, tol,
# n_max, the product verdict)
PRODUCT_CASES = [
    ("singular_term",
     lambda n: (1.0 + 0j, 0j) if n == 2500 else _near_one(n),
     lambda n: 0j if n == 2500 else 1 + 0.3 / n**2, 1e-10, 4000, "singular_term"),
    ("overflow_guard",
     lambda n: (1 + 3.45 / math.sqrt(n), 1 + (3.45 + 1j) / math.sqrt(n)),
     lambda n: 1 + (3.45 + 1j) / math.sqrt(n), 1e-10, 4000, "diverged"),
    ("zero_collapse",
     lambda n: (1 - 0.7 / math.sqrt(n + 1), 1 - (0.7 + 0.2j) / math.sqrt(n + 1)),
     lambda n: 1 - (0.7 + 0.2j) / math.sqrt(n + 1), 1e-300, 4000, "diverged_to_zero"),
    ("cauchy_window", _near_one, lambda n: 1 + C1 / n**2, 1e-7, 8000, "converged_nonsingular"),
    ("stable_limit_singular",
     lambda n: (1 + SHRINKING / n**2, 0.5 if n <= 43 else 1 + C2 / n**2),
     lambda n: 0.5 if n <= 21 else 1 + (4 - 3j) / n**2, 1e-7, 8000, "diverged"),
    ("stable_floor_drain",
     lambda n: (1 - 0.6 / math.sqrt(n + 1), 1 - (0.6 + 0.1j) / math.sqrt(n + 1)),
     lambda n: 1 - (0.6 + 0.1j) / math.sqrt(n + 1), 1e-25, 4000, "diverged_to_zero"),
    ("flat_checkpoint",
     lambda n: (1 + 1 / math.sqrt(n), 1 + 0.9j / math.sqrt(n)) if n < 1024
     else (1.03125, 1 + 0.028125j),
     lambda n: 1 + 1 / math.sqrt(n) if n < 1024 else 1.03125 + 0j, 1e-10, 3000, "diverged"),
    ("budget_exhausted",
     lambda n: (1 + 1 / n, 1 + 0.5j / n), lambda n: 1 + 1 / n, 1e-10, 2500, "inconclusive"),
]


@pytest.mark.parametrize("case", PRODUCT_CASES, ids=[c[0] for c in PRODUCT_CASES])
def test_product_block_step_matches_the_per_term_body(monkeypatch, case):
    name, pair_term, scalar_term, tol, n_max, verdict = case
    for term, scalar in ((pair_term, False), (scalar_term, True)):
        analysis, per_term = _compare(
            monkeypatch, "product", _family(n_max, term), scalar, tol, n_max
        )
        report = analysis.product
        assert report.verdict == verdict, (name, scalar)
        if name == "flat_checkpoint":
            # decided at a checkpoint, which is a run of its own
            assert report.terms_used == 2048
        else:
            assert _mid_block(report.terms_used), (name, scalar, report.terms_used)
        # the block step took runs of at least 500 terms in all
        read = max(part.terms_used for part in analysis if part is not None)
        assert per_term <= read - 500, (name, scalar, per_term)


def test_product_block_step_stops_the_absolute_check_in_mid_block(monkeypatch):
    # a term with a negative real part at 2500, while both norm series
    # are open; the product reads on
    pair = [(1 + C1 / n**2, -0.5 + 0j if n == 2500 else 1 + C2 / n**2) for n in range(1, 4001)]
    scalar = [-0.5 + 0j if n == 2500 else 1 + 0.3 / n**2 for n in range(1, 4001)]
    for terms, lane in ((pair, False), (scalar, True), ([(x, x) for x in scalar], False)):
        analysis, per_term = _compare(monkeypatch, "product", terms, lane, 1e-10, 4000)
        assert analysis.absolute.hypothesis_violation_index == 2500
        assert analysis.absolute.via_log_norms == "hypothesis_violated"
        assert analysis.product.terms_used == 4000
        assert per_term <= 3000


def test_product_block_step_norm_series_decide_in_mid_block(monkeypatch):
    # both norm series converge past term 1,000, each in mid-block
    pair = _family(8000, _near_one)
    analysis, _ = _compare(monkeypatch, "product", pair, False, 1e-7, 8000)
    assert analysis.absolute.via_log_norms == "converged"
    assert analysis.absolute.via_deviation_norms == "converged"
    assert _mid_block(analysis.absolute.terms_used)


def test_product_block_step_after_the_identity_fails():
    # the second component's partial product underflows at about term
    # 108, which ends the identity with its NonFiniteError; the block step
    # takes over from there and the limit is a zero divisor
    pair = [(1 + SHRINKING / n**2, 1e-3 if n <= 110 else 1 + C2 / n**2) for n in range(1, 5001)]
    single = _outcome(PASSES["product"], one_term_blocks(pair, False), 1e-6, 8, 5000, False)
    walker = _outcome(PASSES["product"], walker_blocks(pair, False), 1e-6, 8, 5000, False)
    assert walker == single
    analysis = PASSES["product"](walker_blocks(pair, False), 1e-6, 8, 5000, False)
    assert analysis.identity is None
    assert analysis.product.verdict == "diverged" and analysis.product.terms_used > 1000


# -- series: overflow, convergence, checkpoints and the RMS tracker ---

# (name, terms by index (complex; the pair lane reads two components),
# tol, n_max, the series verdict)
SERIES_CASES = [
    ("overflow_guard", lambda n: 8e147 * (1 + 0.5j) / math.sqrt(n), 1e-10, 4000, "diverged"),
    ("cauchy_window", lambda n: (1 + 0.5j) / n**2, 1e-6, 5000, "converged"),
    ("flat_checkpoint", lambda n: 1 / math.sqrt(n) if n < 1024 else 0.03125 + 0j,
     1e-10, 3000, "diverged"),
    # moduli below the exact-RMS range from 2500 on: the RMS tracker splits
    # off the scalar lane's modulus tracker in mid-block. The square of
    # 1e-161 is subnormal, so the RMS value is 9.94e-162, and only the RMS
    # tracker's seven increments stay below tol
    ("rms_split", lambda n: complex(2.0**-510) if n < 2500 else 1e-161 + 0j,
     6.99e-161, 3500, "inconclusive"),
    ("budget_exhausted", lambda n: 1 / n, 1e-10, 2500, "inconclusive"),
]


@pytest.mark.parametrize("case", SERIES_CASES, ids=[c[0] for c in SERIES_CASES])
def test_series_block_step_matches_the_per_term_body(monkeypatch, case):
    name, term, tol, n_max, verdict = case
    values = _family(n_max, term)
    pair = [(x, x.conjugate() * 0.5) for x in values]
    for terms, scalar in ((values, True), (pair, False)):
        report, per_term = _compare(monkeypatch, "series", terms, scalar, tol, n_max)
        assert report.verdict == verdict, (name, scalar)
        assert per_term < report.terms_used - 500, (name, scalar, per_term)
        if name not in ("flat_checkpoint", "rms_split"):
            assert _mid_block(report.terms_used), report.terms_used
        if name == "rms_split" and scalar:
            assert report.absolute_component_verdicts == ("inconclusive", "inconclusive")
            assert report.absolute is True


# -- the public analyzers read no term past the one that decides ------

def _raising_after(terms, count):
    yield from terms[:count]
    raise RuntimeError("read past the verdict term")


def test_public_analyzers_read_nothing_past_the_verdict_term():
    from bicomplex import Bicomplex

    product_terms = [Bicomplex(0.5 + 0.1j, 0.1) for _ in range(1000)]
    report = evaluate_product(iter(product_terms))
    assert report.verdict == "diverged_to_zero" and report.terms_used < 1000
    assert evaluate_product(_raising_after(product_terms, report.terms_used)) == report

    series_terms = [Bicomplex(0.5**n, 0.25**n) for n in range(1, 200)]
    report = analyze_series(iter(series_terms))
    assert report.verdict == "converged" and report.terms_used < 199
    assert analyze_series(_raising_after(series_terms, report.terms_used)) == report


# -- the paper's decomposition through the CLI's block route ----------

CONVERGED, DIVERGED, TO_ZERO, OPEN = (
    "converged_nonsingular", "diverged", "diverged_to_zero", "inconclusive",
)
# the product verdict of [a | b] from the verdicts of a and b as complex
# products (the table in the products module docstring), either order
DECOMPOSITION = {
    (CONVERGED, CONVERGED): {CONVERGED},
    (CONVERGED, TO_ZERO): {DIVERGED},
    (CONVERGED, DIVERGED): {DIVERGED},
    (CONVERGED, OPEN): {OPEN},
    (DIVERGED, DIVERGED): {DIVERGED},
    (DIVERGED, TO_ZERO): {DIVERGED},
    (DIVERGED, OPEN): {DIVERGED},
    (TO_ZERO, TO_ZERO): {TO_ZERO},
    (TO_ZERO, OPEN): {DIVERGED, OPEN},
    (OPEN, OPEN): {OPEN},
}
SHIFTS = (1.0, 1.0, 0.9, 1.1)


def _cli_verdict(text: str) -> str:
    code, out, err = run_cli(
        ["product", "--json", "--tol", "1e-6", "--max-terms", "3000", "--", text]
    )
    assert code == 0, (text, err)
    return json.loads(out)["product"]["verdict"]


def _row(a: str, b: str):
    for key in ((a, b), (b, a)):
        if key in DECOMPOSITION:
            return key
    raise AssertionError(f"no row for ({a}, {b})")


def test_product_verdict_decomposes_into_component_verdicts():
    rng = np.random.default_rng(606)
    rows = set()
    for _ in range(150):
        while True:
            ks = rng.integers(0, 4, size=2)
            shifts = rng.choice(SHIFTS, size=2)
            if (ks[0], shifts[0]) != (ks[1], shifts[1]):
                break
        a, b = (
            f"{shift} + ({c.real} + {c.imag}*i1)/n^{k}"
            for shift, k, c in (
                (shifts[i], ks[i], complex(*np.round(rng.normal(scale=0.5, size=2), 3)))
                for i in range(2)
            )
        )
        row = _row(_cli_verdict(a), _cli_verdict(b))
        assert _cli_verdict(f"[{a} | {b}]") in DECOMPOSITION[row], (a, b, row)
        rows.add(row)
    # the families reach the singular-limit row and nine of the ten
    assert (CONVERGED, TO_ZERO) in rows and len(rows) >= 9, rows
