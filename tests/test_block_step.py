"""The passes' block step against their per-term body.

The CLI hands the series and product passes the index walker's blocks
(1, 2, 4, ..., 1,024 terms), and the passes take a run of terms at once
where their screens show that no rule fires in it; the public analyzers
hand them one-term blocks, which the per-term body reads. Both must give
the same reports, bit for bit, on every decision site.
"""

import cmath
import json
import math
import sys
from itertools import accumulate, repeat

import numpy as np
import pytest

from bicomplex import Bicomplex, analyze_series, evaluate_product, products, seqspec, series
from bicomplex.core import SINGULARITY_TOLERANCE
from bicomplex.seqspec import Add, Div, Num, Pow, Var
from helpers import one_term_blocks, run_cli, walker_blocks
from test_compiled import _tree_lane
from test_products import _bits
from test_seqspec import _random_ast

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
    single = _outcome(run, one_term_blocks(terms, scalar), tol, window, n_max)
    count = _per_term_reads(monkeypatch)
    report = run(walker_blocks(terms, scalar), tol, window, n_max)
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


# -- runs: the blocks cut at the checkpoints and at the budget --------

def test_runs_keep_the_lane_of_their_blocks():
    # a block whose two lists are one is cut into runs of one list twice,
    # at each checkpoint and at n_max, and a pair block into two lists:
    # the passes read the lane off each run. Walker blocks start at the
    # checkpoints, which blocks of ten terms cut in mid-block
    values = [complex(n) for n in range(1, 3001)]

    def tens(lane):
        for i in range(0, len(values), 10):
            xs = values[i : i + 10]
            yield (xs, xs) if lane else (xs, list(xs))

    for n_max in (16, 100, 1000, 2047, 3000):
        for lane in (True, False):
            pairs = values if lane else [(x, x) for x in values]
            for blocks in (walker_blocks(pairs, lane), tens(lane)):
                runs = list(series._runs(blocks, n_max))
                assert {p1s is p2s for p1s, p2s in runs} == {lane}, (n_max, lane)
                for side in (0, 1):
                    assert [x for run in runs for x in run[side]] == values[:n_max]
                # each checkpoint is a run of its own
                ends = set(accumulate(len(p1s) for p1s, _ in runs))
                for due in (16, 32, 64, 128, 256, 512, 1024, 2048):
                    if due <= n_max:
                        assert {due - 1, due} <= ends, (n_max, lane, due)


def test_the_checkpoint_rule_reads_the_indices_the_runs_cut():
    # blocks of ten terms never start at a checkpoint, as 16*2**k is not
    # 1 mod 10: the one-term runs cut in mid-block are the checkpoints,
    # which both passes' rules read off the term index alone
    values = [complex(n) for n in range(1, 3001)]
    blocks = ((xs, xs) for xs in (values[i : i + 10] for i in range(0, 3000, 10)))
    used, cut = 0, set()
    for p1s, _ in series._runs(blocks, 3000):
        if len(p1s) == 1 and used % 10:
            cut.add(used + 1)
        used += len(p1s)
    assert used == 3000
    assert cut == {n for n in range(3001) if series._checkpoint(n)} == {
        16, 32, 64, 128, 256, 512, 1024, 2048
    }
    assert series._checkpoint(2**62)
    assert not series._checkpoint(2**62 - 1) and not series._checkpoint(2**62 + 1)


# -- products: every decision site ------------------------------------

def _near_one(n):
    return 1 + C1 / n**2, 1 + C2 / n**2


# scattered indices past 1,024 where a term lies 0.6 from 1, the next
# undoing it: the long runs that hold them take the zero-divisor scan,
# and their dmax of 0.6 sends them past the verdict's range bound to the
# per-term body
SPIKES = set(range(1100, 8000, 337))


def _spiked(n):
    if n in SPIKES:
        return 1.6 + 0j, 0.625 + 0j
    if n - 1 in SPIKES:
        return 0.625 + 0j, 1.6 + 0j
    return _near_one(n)


def _dyadic(n):
    """C1/n**2 rounded to a multiple of 2**-50, so that 1 plus it and
    minus 1 again is exact."""
    return complex(*(math.ldexp(round(math.ldexp(x / n**2, 50)), -50) for x in (0.3, -0.4)))


def _rotated(n):
    # [1 + x | 1 + i*x]: equal deviation moduli, not conjugate
    x = _dyadic(n)
    return 1 + x, 1 + x * 1j


# a term whose components are conjugate, and not exactly real
A = 0.99 + 0.1j


def _alternating(n):
    """1, then A and conj(A) in turn, and their conjugates as the second
    component: past term 1,024 every run ends after an odd term, where the
    log sums come out exactly real, and some partial products do."""
    if n == 1:
        return 1.0 + 0j, 1.0 + 0j
    return (A, A.conjugate()) if n % 2 == 0 else (A.conjugate(), A)


def _through_the_cut(n):
    """Conjugate components, with terms on the negative real axis at 5,000
    and 5,001, whose logs are +pi*i in both components; term 1 ends the
    absolute check, which would refuse that run."""
    if n == 1:
        return -1 + 1j, -1 - 1j
    if n in (5000, 5001):
        x = -2 + 0j if n == 5000 else -0.5 + 0j
        return x, x
    return _near_one(n)


# three terms whose log sums in the two orders, (a + b) + c and
# conj((c + b) + a), are conjugate bit for bit, and whose products are not
REORDERED = (1.07047151227967 - 0.22398046046983816j, 0.7010649173215209 + 0.22284284683456929j,
             0.8256738294970707 - 0.17071129846516064j)


def _reordered(n):
    """The three REORDERED terms, the second component taking their
    conjugates in the other order, then conjugate components: the log sums
    mirror from term 3 on, the partial products miss it by a rounding."""
    if n <= 3:
        return REORDERED[n - 1], REORDERED[3 - n].conjugate()
    return _near_one(n)


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
    ("deviation_spikes", _spiked,
     lambda n: 1.6 + 0j if n in SPIKES else 0.625 + 0j if n - 1 in SPIKES else 1 + C1 / n**2,
     1e-7, 8000, "converged_nonsingular"),
    ("equal_moduli_not_conjugate", _rotated, lambda n: 1 + _dyadic(n), 1e-7, 9000,
     "converged_nonsingular"),
    # mirror runs past the identity's cap, whose zero parts are formed from
    # the second component's terms (a budget of 3,071 ends the pass with
    # the run 2,049-3,071, so the reports read its end); the log of -2 at
    # term 1 is +pi*i in both components, so the log sums never mirror;
    # float components, whose partial products and log sums stay real; a
    # run through the branch cut, which dmax keeps off the mirror route;
    # partial products that do not mirror, which keep the runs off it
    ("mirror_zero_parts", _alternating, lambda n: _alternating(n)[0], 1e-10, 3071, "diverged"),
    ("mirror_branch_offset", lambda n: (-2 + 0j, -2 + 0j) if n == 1 else _near_one(n),
     lambda n: -2 + 0j if n == 1 else 1 + C1 / n**2, 2e-7, 8000, "converged_nonsingular"),
    ("mirror_float_components", lambda n: (1 + 0.3 / n**2, 1 + 0.3 / n**2),
     lambda n: 1 + 0.3 / n**2, 1e-7, 3071, "inconclusive"),
    ("mirror_branch_cut", _through_the_cut, lambda n: _through_the_cut(n)[1], 1e-7, 8000,
     "converged_nonsingular"),
    ("mirror_rounding", _reordered, lambda n: _reordered(n)[0], 1e-7, 8000,
     "converged_nonsingular"),
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


def _carried(monkeypatch, blocks, tol, n_max):
    """The partial products and log sums ``(q1, q2, l1, l2)`` that the
    product pass hands its consumers' ``close`` and ``finish``, every part
    by ``.hex()``, signed zeros included, and the mirror flag of each run
    the product verdict screened."""
    handed, mirrors = [], []

    def spy(method):
        def run(self, *args):
            state = args[-5:-1]
            handed.append((method.__qualname__, *(x.hex() for z in state for x in (z.real, z.imag))))
            return method(self, *args)

        return run

    for kind in (products._Absolute, products._Verdict, products._Identity):
        monkeypatch.setattr(kind, "finish", spy(kind.finish))
    monkeypatch.setattr(products._Verdict, "close", spy(products._Verdict.close))
    screen = products._Verdict.screen
    monkeypatch.setattr(products._Verdict, "screen",
                        lambda self, run, used: mirrors.append(run[-1]) or screen(self, run, used))
    PASSES["product"](blocks, tol, 8, n_max)
    monkeypatch.undo()
    return handed, mirrors


@pytest.mark.parametrize("name", ["mirror_zero_parts", "mirror_branch_offset",
                                  "mirror_float_components", "mirror_branch_cut",
                                  "mirror_rounding", "cauchy_window"])
def test_mirror_runs_carry_the_per_term_bits(monkeypatch, name):
    # the step takes mirror runs where the carried log sums mirror, and
    # where they do not (the log of -2 at term 1) it forms the second
    # component, as on a run through the branch cut: either way the state
    # it carries is the per-term body's
    _, pair_term, _, tol, n_max, _ = next(c for c in PRODUCT_CASES if c[0] == name)
    terms = _family(n_max, pair_term)
    single, _ = _carried(monkeypatch, one_term_blocks(terms, False), tol, n_max)
    walker, mirrors = _carried(monkeypatch, walker_blocks(terms, False), tol, n_max)
    assert walker == single
    assert len(single) >= 3
    assert any(mirrors) == (name not in ("mirror_branch_offset", "mirror_rounding")), mirrors


def _analysis_at(blocks, singularity_tol, n_max):
    """The three reports of the product pass at a zero-divisor tolerance
    of its own, as analyze_product gives them at the CLI's."""
    absolute = products._Absolute(1e-10, 8)
    verdict = products._Verdict(1e-10, 8, singularity_tol, absolute)
    identity = products._Identity(min(n_max, products.LOG_SUM_CAP))
    products._product_pass(blocks, n_max, singularity_tol, (absolute, verdict, identity))
    return products.ProductAnalysis(verdict.report, absolute.report, identity.report)


def test_product_block_step_zero_divisor_clearance_at_and_above_one_ninth(monkeypatch):
    # every term lies within 1/2 of 1, and term 2,500 is (0.55, 1.45):
    # singular from a tolerance of 0.6632 on. Below 1/9 the deviations
    # clear each long run; from 1/9 on, _none_singular decides. The run
    # 2,049-3,071 that holds it is read term by term: its dmax of 0.45
    # over 1,023 terms leaves the verdict's range bound
    terms = [(0.55 + 0j, 1.45 + 0j) if n == 2500 else _near_one(n) for n in range(1, 4001)]
    scans = []
    scan = products._none_singular
    for tol, singular in ((1e-12, False), (1.0 / 9.0, False), (0.2, False), (0.7, True)):
        single = _outcome(_analysis_at, one_term_blocks(terms, False), tol, 4000)
        monkeypatch.setattr(products, "_none_singular",
                            lambda *args: scans.append(args[2]) or scan(*args))
        count = _per_term_reads(monkeypatch)
        walker = _outcome(_analysis_at, walker_blocks(terms, False), tol, 4000)
        monkeypatch.undo()
        assert walker == single, tol
        analysis = _analysis_at(walker_blocks(terms, False), tol, 4000)
        if singular:
            assert analysis.product.verdict == "singular_term"
            assert analysis.product.singular_index == 2500
        else:
            assert analysis.product.terms_used == 4000
            assert count[0] <= 1023 + 100, (tol, count[0])
    assert 1e-12 not in scans and {1.0 / 9.0, 0.2, 0.7} <= set(scans)


def test_product_pass_screen_does_not_depend_on_the_lane():
    # 2 is singular from a tolerance of 1 on: the same 20 terms, as one list
    # and as two, give the same reports at every tolerance
    for tol, verdict in ((0.5, "inconclusive"), (1.0, "singular_term"), (2.0, "singular_term")):
        ps = [2 + 0j] * 20
        scalar = _bits(_analysis_at([(ps, ps)], tol, 20))
        pair = _analysis_at([(ps, list(ps))], tol, 20)
        assert _bits(pair) == scalar, tol
        assert pair.product.verdict == verdict, tol


def test_partial_product_range_bound_implies_the_scan():
    # the verdict's range screen from the run's first partial products and
    # its largest deviation: it holds only below 1/2, and wherever it
    # holds, the scan of every modulus does, on seeded runs whose moduli
    # start near the floor and the guard, with deviations on both sides
    rng = np.random.default_rng(2727)
    held = 0
    for _ in range(1000):
        k = int(rng.integers(16, 1025))
        spread = float(rng.choice([1e-6, 0.01, 0.3, 0.499, 0.9, 1.5, 3.0]))
        start = 10.0 ** rng.uniform(-31, 151, 2) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
        angles = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, k)))
        p1s, p2s = (1 + spread * rng.random((2, k)) * angles).tolist()
        q1s = series._partials(p1s, complex.__mul__, complex(start[0]))
        q2s = series._partials(p2s, complex.__mul__, complex(start[1]))
        dmax = products._deviations(p1s, p2s)[2]
        if products._moduli_within(q1s[0], q2s[0], dmax, k):
            held += 1
            assert dmax < 0.5
            m1s, m2s = list(map(abs, q1s)), list(map(abs, q2s))
            assert 2.0 * products.ZERO_COLLAPSE <= max(min(m1s), min(m2s)), (spread, k)
            assert max(max(m1s), max(m2s)) <= 0.5 * products.OVERFLOW_GUARD, (spread, k)
    assert held > 200, held
    # 1.45**1951 overflows, but the lower side 0.55**1951 underflows to 0
    # first: the bound is False and raises nothing
    with pytest.raises(OverflowError):
        1.45**1951
    assert products._moduli_within(1.0, 1.0, 0.45, 1951) is False


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


def _identity_alone(blocks, n_max):
    """The log-sum identity's report, the only consumer of the product
    pass, as ``log_sum_equivalence`` runs it: its failures propagate."""
    identity = products._Identity(min(n_max, products.LOG_SUM_CAP))
    products._product_pass(blocks, n_max, SINGULARITY_TOLERANCE, (identity,))
    return identity.report


def _compare_identity(monkeypatch, terms, scalar, n_max):
    """The identity's outcome alone over ``terms`` as walker blocks, after
    checking that one-term blocks give it bit for bit (errors by type,
    message and index), and the number of terms the per-term body read on
    the walker blocks; the full analysis must match too."""
    _compare(monkeypatch, "product", terms, scalar, 1e-10, n_max)
    single = _outcome(_identity_alone, one_term_blocks(terms, scalar), n_max)
    count = _per_term_reads(monkeypatch)
    walker = _outcome(_identity_alone, walker_blocks(terms, scalar), n_max)
    monkeypatch.undo()
    assert walker == single, scalar
    return walker, count[0]


# the terms read one at a time before the run 513-1,023: 1 to 32 and the
# checkpoints 64, 128, 256 and 512
BEFORE_513 = 36


def test_identity_block_step_exp_of_the_log_sum_overflows_in_mid_run(monkeypatch):
    # 1e10 up to term 14, near 1 after but for 1e200 at term 700: the
    # partial product overflows there, inside the run 513-1,023, and the
    # exp of the log sum, which is tested first, overflows with it
    for scalar in (True, False):
        terms = [1e10 + 0j if n <= 14 else 1e200 + 0j if n == 700 else 1 + 0.3 / n**2 + 0j
                 for n in range(1, 1001)]
        if not scalar:
            terms = [(w, w * (1 + 0.5j) / abs(1 + 0.5j)) for w in terms]
        outcome, per_term = _compare_identity(monkeypatch, terms, scalar, 1000)
        kind, name, message, index = outcome
        assert (kind, name, message) == (
            "raised", "NonFiniteError", "exponential of log sum overflowed"
        ), outcome
        assert index == 700
        # the runs before were taken whole; this one is read up to the term
        assert per_term <= BEFORE_513 + index - 512, (scalar, per_term)


def test_product_block_step_after_the_identity_fails():
    # the second component's partial product underflows to 0 at about term
    # 108, inside the run 65-127, which ends the identity with its
    # NonFiniteError; the block step takes over from there and the limit
    # is a zero divisor. On the scalar lane the squared modulus underflows
    # first, inside the run 33-63
    pair = [(1 + SHRINKING / n**2, 1e-3 if n <= 110 else 1 + C2 / n**2) for n in range(1, 5001)]
    single = _outcome(PASSES["product"], one_term_blocks(pair, False), 1e-6, 8, 5000)
    walker = _outcome(PASSES["product"], walker_blocks(pair, False), 1e-6, 8, 5000)
    assert walker == single
    analysis = PASSES["product"](walker_blocks(pair, False), 1e-6, 8, 5000)
    assert analysis.identity is None
    assert analysis.product.verdict == "diverged" and analysis.product.terms_used > 1000

    scalar = [1e-3 + 0j if n <= 110 else 1 + 0.3 / n**2 for n in range(1, 1001)]
    cases = (
        (pair[:1000], False, "partial product component underflowed to zero", 64),
        (scalar, True, "partial product underflowed to zero", 32),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        for terms, lane, message, before in cases:
            outcome, per_term = _compare_identity(monkeypatch, terms, lane, 1000)
            assert outcome[:3] == ("raised", "NonFiniteError", message), outcome
            index = outcome[3]
            assert before + 1 < index < 2 * before, (lane, index)
            assert per_term <= 33 + index - before, (lane, per_term)


def test_identity_block_step_counts_a_branch_offset_change_in_mid_run(monkeypatch):
    # terms on the unit circle whose angles a/n sum past pi inside the run
    # 513-1,023, near term 706 (and the second component's past -pi near
    # term 602): the branch offset changes there, once in each component
    for scalar in (True, False):
        terms = [cmath.exp(0.44j / n) for n in range(1, 1001)]
        if not scalar:
            terms = [(w, cmath.exp(-0.45j / n)) for n, w in enumerate(terms, start=1)]
        report, per_term = _compare_identity(monkeypatch, terms, scalar, 1000)
        assert report[0] == "LogSumReport"
        before = _identity_alone(one_term_blocks(terms[:600], scalar), 600)
        after = _identity_alone(one_term_blocks(terms, scalar), 1000)
        assert before.branch_offset_changes == 0
        assert after.branch_offset_changes == (1 if scalar else 2)
        assert after.branch_offset == ((1, 1) if scalar else (1, -1))
        assert per_term <= BEFORE_513, (scalar, per_term)


def test_identity_block_step_reaches_its_cap_in_mid_run(monkeypatch):
    # the identity stops at term 1,000, inside the run 513-1,023, with the
    # partial product and log sum of that term; alone, the pass stops there
    for scalar in (True, False):
        terms = [1 + 0.3 / n**2 + 0j for n in range(1, 3001)]
        if not scalar:
            terms = [_near_one(n) for n in range(1, 3001)]
        report, per_term = _compare_identity(monkeypatch, terms, scalar, 3000)
        assert report[0] == "LogSumReport"
        alone = _identity_alone(walker_blocks(terms, scalar), 3000)
        assert alone.terms_used == products.LOG_SUM_CAP
        first = _identity_alone(one_term_blocks(terms[:1000], scalar), 1000)
        assert _bits(alone) == _bits(first)
        assert per_term <= BEFORE_513, (scalar, per_term)


def test_product_pass_reads_few_of_its_first_1000_terms_one_at_a_time(monkeypatch):
    # the identity is live over the first 1,000 terms and screens its runs
    # with the rest: the per-term body reads terms 1 to 32 and the
    # checkpoints, on the default product at the CLI's budget (fed its
    # blocks up to term 1,023, which hold those runs whole) and on 1+1/n
    for text, n_max in (("1 + (3/10 + 2/5*i2)/n^2", 10**6), ("1+1/n", 1000)):
        blocks = seqspec._lane_blocks(seqspec.parse(text), 1, 1024)
        count = _per_term_reads(monkeypatch)
        analysis = PASSES["product"](blocks, 1e-10, 8, n_max)
        monkeypatch.undo()
        assert analysis.identity.terms_used == 1000
        assert count[0] <= 40, (text, count[0])


def test_default_product_pair_lane_scans_its_deviations_once(monkeypatch):
    # the default product's terms stay within 1/2 of 1 and have conjugate
    # components: the deviations clear each long run of zero divisors with
    # no _none_singular scan, and the deviation and log-norm series
    # take the equal moduli with no RMS. 1+1/n's long runs, on the scalar
    # lane, take the same route: the deviations clear them with no scan
    # either, and on every run the verdict screens, its range
    # bound holds from the run's deviations, with no scan of the moduli
    none_singular = products._none_singular
    moduli_within, norms = products._moduli_within, products._norms
    for text, pair in (("1 + (3/10 + 2/5*i2)/n^2", True), ("1+1/n", False)):
        singular_scans = []
        bounds = []
        rms_callers = []

        def spy_scan(scan):
            def spy(p1s, *args):
                singular_scans.append(len(p1s))
                return scan(p1s, *args)

            return spy

        def spy_bound(*args):
            bounds.append(moduli_within(*args))
            return bounds[-1]

        def spy_norms(m1s, m2s):
            rms = norms(m1s, m2s)
            if rms is not m1s:
                # an RMS was formed: the consumer whose screen called _norms
                rms_callers.append(type(sys._getframe(1).f_locals.get("self")))
            return rms

        monkeypatch.setattr(products, "_none_singular", spy_scan(none_singular))
        monkeypatch.setattr(products, "_moduli_within", spy_bound)
        monkeypatch.setattr(products, "_norms", spy_norms)
        blocks = list(seqspec._lane_blocks(seqspec.parse(text), 1, 20001))
        assert all((p1s is not p2s) == pair for p1s, p2s in blocks)
        analysis = PASSES["product"](iter(blocks), 1e-10, 8, 20_000)
        monkeypatch.undo()
        assert analysis.product.terms_used == 20_000
        assert [k for k in singular_scans if k >= series._MIN_RUN] == [], text
        assert bounds and all(bounds), text
        assert [c for c in rms_callers if c in (products._Absolute, products._Verdict)] == [], text
        if pair:
            assert singular_scans == []
            # the identity's discrepancies, equal but 0 at some terms, still do
            assert rms_callers


def test_default_product_mirror_runs_form_no_second_component(monkeypatch):
    # past the identity's cap the default product's long runs are mirror
    # runs: the block step takes its logs and partial products from the
    # first component's terms alone, with no cmath.log or _partials call
    # on a second-component list, and so does each run's end
    logs, partials = [], []
    log, partial = cmath.log, products._partials

    def step_frame():
        frame = sys._getframe(2)
        return frame if frame.f_code.co_name == "step" else None

    def spy_log(z):
        frame = step_frame()
        if frame is not None:
            p1s, p2s = frame.f_locals["p1s"], frame.f_locals["p2s"]
            # a map over a list starts at its first term
            for side, ps in ((1, p1s), (2, p2s)):
                if z is ps[0]:
                    logs.append((side, frame.f_locals["used"]))
        return log(z)

    def spy_partials(terms, op, start):
        frame = step_frame()
        if frame is not None:
            side = 1 if terms is frame.f_locals["p1s"] else 2
            partials.append((side, frame.f_locals["used"]))
        return partial(terms, op, start)

    blocks = list(seqspec._lane_blocks(seqspec.parse("1 + (3/10 + 2/5*i2)/n^2"), 1, 20001))
    monkeypatch.setattr(cmath, "log", spy_log)
    monkeypatch.setattr(products, "_partials", spy_partials)
    analysis = PASSES["product"](iter(blocks), 1e-10, 8, 20_000)
    monkeypatch.undo()
    assert analysis.product.terms_used == 20_000
    cap = products.LOG_SUM_CAP
    for calls in (logs, partials):
        # both components' inside the cap, the first's alone past it
        assert {side for side, used in calls if used < cap} == {1, 2}
        assert {side for side, used in calls if used >= cap} == {1}
        assert sum(used >= cap for _, used in calls) >= 15


def test_a_modulus_past_the_float_range_sends_its_run_to_the_per_term_body(monkeypatch):
    # term 40, whose components' moduli are past the float range, lies in
    # the 31-term run 33..63 of the walker's 32-term block, and is no
    # checkpoint: the product's zero-divisor screen cannot form the run's
    # deviations and the series block step cannot take its moduli, so both
    # passes read the run term by term, as they read one-term blocks
    big = complex(1.5e308, 1.5e308)

    def spiked(term):
        return [(big, big) if n == 40 else term(n) for n in range(1, 101)]

    analysis, per_term = _compare(monkeypatch, "product", spiked(_near_one), False, 1e-10, 100)
    assert (analysis.product.verdict, analysis.product.terms_used) == ("diverged", 40)
    # the absolute check reads on to n_max: the block step takes 65..100
    assert analysis.absolute.terms_used == 100 and per_term == 64
    report, per_term = _compare(
        monkeypatch, "series", spiked(lambda n: (C1 / n**2, C2 / n**2)), False, 1e-10, 100
    )
    assert (report.verdict, report.terms_used, per_term) == ("diverged", 40, 40)


# -- series: overflow, convergence, checkpoints and the RMS tracker ---

# (name, terms by index (complex; the pair lane reads two components),
# tol, n_max, the series verdict)
SERIES_CASES = [
    ("overflow_guard", lambda n: 8e147 * (1 + 0.5j) / math.sqrt(n), 1e-10, 4000, "diverged"),
    ("cauchy_window", lambda n: (1 + 0.5j) / n**2, 1e-6, 5000, "converged"),
    ("flat_checkpoint", lambda n: 1 / math.sqrt(n) if n < 1024 else 0.03125 + 0j,
     1e-10, 3000, "diverged"),
    # moduli below the exact-RMS range from 2500 on: from there the RMS
    # tracker no longer holds the modulus tracker's sums, in mid-block. The
    # square of 1e-161 is subnormal, so the RMS value is 9.94e-162, and
    # only the RMS tracker's seven increments stay below tol
    ("rms_split", lambda n: complex(2.0**-510) if n < 2500 else 1e-161 + 0j,
     6.99e-161, 3500, "inconclusive"),
    ("budget_exhausted", lambda n: 1 / n, 1e-10, 2500, "inconclusive"),
    # a first term of 0, whose RMS sqrt(0) == 0 is exact: the RMS tracker
    # holds the modulus tracker's sums throughout
    ("zero_first_term", lambda n: complex((1 - 1 / n) / n**2), 1e-6, 4000, "converged"),
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
        if name == "flat_checkpoint":
            # decided at a checkpoint, which is a run of its own
            assert report.terms_used == 2048
        elif name != "rms_split":
            assert _mid_block(report.terms_used), report.terms_used
        if name == "rms_split" and scalar:
            assert report.absolute_component_verdicts == ("inconclusive", "inconclusive")
            assert report.absolute is True


def _series_steps(monkeypatch) -> list[tuple[int, int, bool, int]]:
    """Record each run the series pass hands its block step, as ``(used,
    terms, taken, run_sums calls)``."""
    steps = []
    drive, run_sums = series._drive, series._Tracker.run_sums
    calls = [0]

    def counted(tracker, terms):
        calls[0] += 1
        return run_sums(tracker, terms)

    def spied(blocks, n_max, step, read):
        def recorded(p1s, p2s, used):
            calls[0] = 0
            on = step(p1s, p2s, used)
            steps.append((used, len(p1s), on is not None, calls[0]))
            return on

        return drive(blocks, n_max, recorded, read)

    monkeypatch.setattr(series._Tracker, "run_sums", counted)
    monkeypatch.setattr(series, "_drive", spied)
    return steps


def test_each_series_makes_one_run_sums_per_run(monkeypatch):
    # 1/n^2 is on the float lane, where a term is its own modulus: the
    # component, modulus and RMS trackers hold one series, and the first
    # makes the one run_sums of each run the block step takes.
    # (1 - 1/n)/n^2 is on the scalar lane, from a first term of 0: the
    # component tracker sums complex terms, and the RMS tracker takes the
    # modulus tracker's totals
    for text, calls in (("1/n^2", 1), ("(1 - 1/n)/n^2", 2)):
        steps = _series_steps(monkeypatch)
        blocks = seqspec._lane_blocks(seqspec.parse(text), 1, 10**6 + 1)
        report = series._analyze_pairs(blocks, 1e-10, 8, 10**6)
        monkeypatch.undo()
        assert report.verdict == "converged" and report.absolute, text
        taken = [k for _, _, on, k in steps if on]
        assert len(taken) > 100 and set(taken) == {calls}, (text, len(taken), set(taken))


def test_the_rms_tracker_past_the_exact_range_runs_in_the_block_step(monkeypatch):
    # rms_split on the scalar lane: from term 2,500 the RMS tracker's
    # terms are RMS values, not the moduli, and the run 2,049 to 3,071
    # that holds term 2,500 goes through the three trackers' screens. At
    # the case's tol the RMS tracker converges in it, at term 2,506, so the
    # screens refuse it; at 6.9e-161 no rule fires in it, and the block
    # step takes it
    _, term, case_tol, n_max, _ = next(case for case in SERIES_CASES if case[0] == "rms_split")
    values = _family(n_max, term)
    for tol, taken, absolute in ((case_tol, False, True), (6.9e-161, True, False)):
        single = _outcome(series._analyze_pairs, one_term_blocks(values, True), tol, 8, n_max)
        steps = _series_steps(monkeypatch)
        report = series._analyze_pairs(walker_blocks(values, True), tol, 8, n_max)
        monkeypatch.undo()
        assert _bits(report) == single, tol
        assert report.absolute is absolute and report.terms_used == n_max, tol
        assert (2048, 1023, taken, 3) in steps, (tol, steps)


# -- a seeded differential over random terms --------------------------

def _random_term(rng):
    """A random AST as it stands, or as ``x/n^k`` or ``1 + x/n^k``, which
    decay toward 0 or 1 and so give the passes long runs to take."""
    ast = _random_ast(rng, int(rng.integers(1, 4)))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return ast
    scaled = Div(ast, Pow(Var(), int(rng.integers(1, 4))))
    return scaled if kind == 1 else Add(Num(1.0), scaled)


def _terms_read(report) -> int:
    """The terms a pass read: a product's is the largest ``terms_used`` of
    its reports."""
    if isinstance(report, tuple):
        return max(part.terms_used for part in report if part is not None)
    return report.terms_used


def test_passes_match_on_random_terms(monkeypatch):
    # both passes over the walker's blocks of a compiled term against
    # one-index blocks of the same closure: every report float in bits,
    # every error by type, message and term index
    rng = np.random.default_rng(2626)
    lanes = {True: 0, False: 0}
    past_2048 = screened = 0
    for _ in range(200):
        node = _random_term(rng)
        fn = seqspec._compile(node)[0]
        scalar = _tree_lane(node)
        tol = float(rng.choice([1e-6, 1e-8, 1e-10]))
        window = int(rng.integers(2, 11))
        n_max = int(rng.integers(2049, 3001) if rng.random() < 0.4 else rng.integers(1, 2049))
        lanes[scalar] += 1
        past_2048 += n_max > 2048
        for command, run in PASSES.items():
            one_index = map(seqspec._at, repeat(fn), range(1, n_max + 1))
            single = _outcome(run, one_index, tol, window, n_max)
            count = _per_term_reads(monkeypatch)
            try:
                report = run(seqspec._lane_blocks(node, 1, n_max + 1), tol, window, n_max)
            except (ArithmeticError, ValueError) as err:
                walker = ("raised", type(err).__name__, str(err), getattr(err, "term_index", None))
            else:
                walker = _bits(report)
                screened += count[0] < _terms_read(report)
            monkeypatch.undo()
            assert walker == single, (seqspec.render(node), command, tol, window, n_max)
    # both lanes, budgets past 2,048, and runs the block step took
    assert min(lanes.values()) >= 15, lanes
    assert past_2048 >= 15 and screened >= 30, (past_2048, screened)


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


# -- the float lane: float blocks against complex blocks of the same values --

def _value_bits(value):
    """``_bits``, with each bicomplex value's idempotent parts too."""
    if isinstance(value, Bicomplex):
        return _bits(value), tuple(x.hex() for p in (value.p1, value.p2) for x in (p.real, p.imag))
    if isinstance(value, tuple) and not isinstance(value, str):
        return tuple(map(_value_bits, value))
    if hasattr(value, "_fields") and not isinstance(value, tuple):
        return tuple(_value_bits(getattr(value, name)) for name in value._fields)
    return _bits(value)


def _lane_outcome(run, terms, tol, window, n_max):
    try:
        report = run(walker_blocks(terms, True), tol, window, n_max)
    except (ArithmeticError, ValueError) as err:
        return ("raised", type(err).__name__, str(err), getattr(err, "term_index", None))
    return repr(report), _value_bits(report)


def _nonnegative_families(rng):
    """Nonnegative real term sequences, as the float lane gives them."""
    for p in (1.0, 1.5, 2.0, 3.0):
        yield [1.0 / n**p for n in range(1, 6001)]
        yield [1.0 + 1.0 / n**p for n in range(1, 6001)]
    yield [1.0 + 1e-6 / n for n in range(1, 6001)]
    yield [0.0] * 100 + [1.0 / (n * n) for n in range(101, 3001)]
    yield [5e-324 * (n % 7) for n in range(1, 3001)]
    yield [1e149 / n for n in range(1, 3001)]
    yield [float(n) for n in range(1, 3001)]
    for _ in range(6):
        yield list(map(float, 10.0 ** rng.uniform(-12, 1, 4000) / np.arange(1, 4001) ** 2))


def test_float_blocks_give_the_reports_of_complex_blocks():
    # the passes over one list of floats and over one list of the same
    # values as complex numbers, (x, +0.0): the reports agree by repr and
    # in every bit, for both passes
    rng = np.random.default_rng(4545)
    verdicts = set()
    for terms in _nonnegative_families(rng):
        as_complex = [complex(x) for x in terms]
        for command, run in PASSES.items():
            for tol, window, n_max in ((1e-10, 8, len(terms)), (1e-6, 2, 3000),
                                       (1e-8, 50, len(terms))):
                got = _lane_outcome(run, terms, tol, window, n_max)
                assert got == _lane_outcome(run, as_complex, tol, window, n_max), (
                    command, terms[:3], tol, window, n_max)
                verdicts.add(got[0].split("(")[0] if got[0] != "raised" else got[1])
    assert {"SeriesReport", "ProductAnalysis"} <= verdicts, verdicts
