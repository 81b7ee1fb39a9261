"""Split of each long CLI run's cost between term evaluation and the pass.

For each of the three long workloads -- ``product "1 + (3/10 +
2/5*i2)/n^2"``, ``product --max-terms 100000 "1+1/n"`` and ``series
"1/n^2"`` -- and for ``series "(3/10 + 2/5*i2)/n^2"``, the default
product's deviations as a series, on the pair lane with conjugate
components, where the RMS tracker takes the first modulus tracker's
totals, all at the CLI's default tolerance and window, prints one row:

* the lane the CLI runs the expression on (real, scalar or pair), read
  off the first block the pass reads: one list of floats as both
  components (the float lane of a nonnegative real term), one list of
  complex values, or two;
* the number of terms its pass reads;
* the number of indices the index walker evaluates in that run, its
  read-ahead to the end of the block that holds the last term read
  included;
* evaluation ns/term: the compiled term evaluated through the index
  walker's blocks, with the CLI's term budget, until the blocks the pass
  reads are built (read-ahead included), per term read;
* pass ns/term: the CLI's pass (``_analyze_product_pairs`` or
  ``_analyze_pairs``) over those blocks, prebuilt in a list, as the CLI
  feeds them;
* screened: the share of the terms read that the pass's block step took
  a run at a time. The rest went through its per-term body, which reads
  a run through ``zip``; the tool counts them there.

A second table gives the product pass on short budgets, where the
log-sum identity's first ``LOG_SUM_CAP`` terms are most of the run: the
CLI's pass (``_analyze_product_pairs``) over the index walker's blocks
of the default product (pair lane) and of ``1+1/n`` (real lane),
prebuilt in a list, at ``n_max`` 128 and 1,000, with its ns/term and the
terms its per-term body read. Each short time is the minimum of 20
times ``--repeats`` runs.

A third table gives one row per public analyzer --
``evaluate_product``, ``absolute_convergence_check`` and
``analyze_product`` on the default product's terms, ``analyze_series``
on ``1/n^2``'s -- with the terms it read (for ``analyze_product``, the
most any of its three reports read) and its ns/term on 20,000 prebuilt
``Bicomplex`` terms fed as ``iter(list)``, the inputs of the harness's
prebuilt analyzer rows. These reach the passes one term per block, so
the per-term body reads every term.

A fourth table gives the cost of ``eval_term`` at one index, in µs per
call, for the three workload expressions and for ``(1 + i2/n)^-3 +
sqrt(2 - e1/n)*n^2/(n+3)``, which mixes pair and scalar subtrees: on the
AST, which compiles the term for each call as the CLI's ``eval`` does,
and on a term compiled once. Each figure is one pass of 1,000 calls, at
indices 1 to 1,000.

A fifth and a sixth table split the pass column of the first two rows,
the default product on the pair lane and ``1+1/n`` on the real lane,
by the pieces of the block step, which are the same on both lanes, in
ns per term read: the deviation scan with the zero-divisor clearance
(``_deviations`` and ``_none_singular``, which the step runs first on
each run ``_drive`` hands it), the screens of the absolute check, the
product verdict and the log-sum identity, and the rest of the step: its
partial products, logs and the consumers' takes.
Each piece is timed around its call, once per run; the per-term body
and the cutting of blocks into runs are in no piece. A last row gives
the share of the terms read that the step took on mirror runs, where
the second component is the conjugate of the first and the step forms
the first alone (``_product_pass``); it reads the flag the consumers'
screens are handed, and is 0 on the real and scalar lanes.

A last table gives, for each long workload, the scans the compiled
term's closures run per 1,000 terms read in the CLI's run: calls of
``seqspec._checked``, the finiteness scan of a ring operation or of a
power's result, and of ``seqspec._none_singular``, the zero-divisor screen of an inverse,
``log`` or ``sqrt``. A node skips each scan that its bound on its
values' moduli proves will pass.

Each time is the minimum of ``--repeats`` runs, in-process. Compare
figures taken on one machine in one session: the speed of a shared box
drifts between runs.

Usage, from any directory (the checkout is the parent of ``tools/``)::

    python tools/layer_split.py [--repeats K] [--max-terms N]

``--max-terms`` lowers every workload's term budget, the number of
prebuilt terms and the calls per ``eval_term`` figure to at most N, for
a quick run. Only the standard library and ``src/`` are used.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bicomplex import core, products, seqspec, series  # noqa: E402

TOL = 1e-10
WINDOW = 8
# (command, expression, term budget) of the three long workloads
WORKLOADS = (
    ("product", "1 + (3/10 + 2/5*i2)/n^2", 10**6),
    ("product", "1+1/n", 100_000),
    ("series", "1/n^2", 10**6),
)
# the rows of the first table: the long workloads, and a pair-lane series
SPLIT_ROWS = WORKLOADS + (("series", "(3/10 + 2/5*i2)/n^2", 10**6),)
PASSES = {"product": products._analyze_product_pairs, "series": series._analyze_pairs}
# (analyzer, expression of its prebuilt terms), at the default tolerance
# and window
ANALYZERS = (
    (products.evaluate_product, WORKLOADS[0][1]),
    (products.absolute_convergence_check, WORKLOADS[0][1]),
    (products.analyze_product, WORKLOADS[0][1]),
    (series.analyze_series, WORKLOADS[2][1]),
)
PREBUILT_TERMS = 20_000
# the expressions and term budgets of the short-budget product table
SHORT_PRODUCTS = (WORKLOADS[0][1], WORKLOADS[1][1])
SHORT_BUDGETS = (128, 1000)
# the expressions of the one-index table: the workloads' and one that
# mixes pair and scalar subtrees
ONE_INDEX = tuple(text for _, text, _ in WORKLOADS) + (
    "(1 + i2/n)^-3 + sqrt(2 - e1/n)*n^2/(n+3)",
)
ONE_INDEX_CALLS = 1000
# the block-step pieces of the fifth and sixth tables: the clearance (the
# functions the step calls first), the consumers' screens, and the step's
# own work, all of the step that is no screen
CLEARANCE = ("_deviations", "_none_singular")
STEP_SCREENS = (products._Absolute, products._Verdict, products._Identity)
# the closures' scans the last table counts
SCANS = ("_checked", "_none_singular")
STEP_PIECES = ("deviation scan and clearance",
               *(f"`{kind.__name__}.screen`" for kind in STEP_SCREENS),
               "partial products, logs and takes")


def _min_ns(run, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        run()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _evaluated(run) -> int:
    """The number of indices the index walker evaluates during ``run()``:
    its block closures are counted at the walker's seam."""
    total = 0
    original = seqspec._blocks

    def counting_blocks(fn, start, stop):
        def counting(ns):
            nonlocal total
            total += len(ns)
            return fn(ns)

        return original(counting, start, stop)

    seqspec._blocks = counting_blocks
    try:
        run()
    finally:
        seqspec._blocks = original
    return total


def _per_term(run) -> int:
    """The number of terms the passes' per-term bodies read during
    ``run()``, counted at the ``zip`` each reads a run through."""
    total = 0

    def counting_zip(*runs):
        nonlocal total
        for term in zip(*runs):
            total += 1
            yield term

    for module in (products, series):
        module.zip = counting_zip
    try:
        run()
    finally:
        for module in (products, series):
            del module.zip
    return total


def _terms_read(report) -> int:
    """The terms a pass read: a product's is the largest ``terms_used`` of
    its reports."""
    if isinstance(report, tuple):
        return max(part.terms_used for part in report if part is not None)
    return report.terms_used


def _lane(blocks) -> str:
    """The lane of the first of ``blocks``, as the passes read it."""
    p1s, p2s = blocks[0]
    if p1s is not p2s:
        return "pair"
    return "real" if core._floats(p1s) else "scalar"


def split(
    command: str, text: str, n_max: int, repeats: int
) -> tuple[str, int, int, float, float, float]:
    """``(lane, terms, evaluated, eval ns/term, pass ns/term, screened)`` of
    one CLI run."""
    node = seqspec.parse(text)
    run_pass = PASSES[command]
    # the pass reads exactly the blocks it needs: keep those
    read = []

    def cli_run():
        blocks = seqspec._lane_blocks(node, 1, n_max + 1)
        run_pass((read.append(block) or block for block in blocks), TOL, WINDOW, n_max)

    evaluated = _evaluated(cli_run)

    def evaluate():
        deque(islice(seqspec._lane_blocks(node, 1, n_max + 1), len(read)), maxlen=0)

    def run_read():
        return run_pass(iter(read), TOL, WINDOW, n_max)

    count = _terms_read(run_read())
    eval_ns = _min_ns(evaluate, repeats)
    pass_ns = _min_ns(run_read, repeats)
    screened = 1.0 - _per_term(run_read) / count
    return _lane(read), count, evaluated, eval_ns / count, pass_ns / count, screened


def short_product(text: str, n_max: int, repeats: int) -> tuple[str, float, int]:
    """``(lane, pass ns/term, per-term reads)`` of the CLI's product pass
    over the prebuilt walker blocks of ``text``'s first ``n_max`` terms."""
    blocks = list(seqspec._lane_blocks(seqspec.parse(text), 1, n_max + 1))

    def run():
        return products._analyze_product_pairs(iter(blocks), TOL, WINDOW, n_max)

    count = _terms_read(run())
    pass_ns = _min_ns(run, 20 * repeats)
    return _lane(blocks), pass_ns / count, _per_term(run)


def analyzer_cost(analyzer, text: str, n: int, repeats: int) -> tuple[int, float]:
    """``(terms, ns/term)`` of ``analyzer`` on the first ``n`` terms of
    ``text``, prebuilt as ``Bicomplex`` values and fed as ``iter(list)``."""
    node = seqspec.parse(text)
    terms = [seqspec.eval_term(node, i) for i in range(1, n + 1)]

    def run():
        return analyzer(iter(terms), n_max=n)

    count = _terms_read(run())
    return count, _min_ns(run, repeats) / count


def block_step_split(
    text: str, n_max: int, repeats: int
) -> tuple[str, int, list[float], float]:
    """``(lane, terms, ns/term of each of STEP_PIECES, mirror share)``: the
    CLI's product pass over the prebuilt walker blocks of ``text`` that it
    reads, its block step timed by piece through wrappers on the ``step``
    that ``_product_pass`` hands ``_drive``, on the ``_deviations`` and
    ``_none_singular`` that the step looks up in ``products`` and on the
    consumers' ``screen``; each piece's time is its minimum over
    ``repeats`` runs. The mirror share counts the runs the step took whose
    screens were handed a run flagged ``mirror`` (its last field)."""
    node = seqspec.parse(text)
    blocks = seqspec._lane_blocks(node, 1, n_max + 1)
    read = []
    products._analyze_product_pairs(
        (read.append(block) or block for block in blocks), TOL, WINDOW, n_max
    )
    spent = {}
    mirrored = 0
    flags = []

    def timed(fn, piece):
        def run(*args):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                spent[piece] = spent.get(piece, 0) + time.perf_counter_ns() - t0

        return run

    drive = products._drive
    clearance = {name: getattr(products, name) for name in CLEARANCE}

    def timed_drive(blocks, n_max, step, read):
        timed_step = timed(step, "step")

        def counted(p1s, p2s, used):
            nonlocal mirrored
            flags.clear()
            on = timed_step(p1s, p2s, used)
            if on is not None and flags[0]:
                mirrored += len(p1s)
            return on

        return drive(blocks, n_max, counted, read)

    def flagged(screen):
        def noted(self, run, used):
            flags.append(run[-1])
            return screen(self, run, used)

        return noted

    screens = {kind: kind.screen for kind in STEP_SCREENS}
    products._drive = timed_drive
    for name, fn in clearance.items():
        setattr(products, name, timed(fn, "clearance"))
    for kind in STEP_SCREENS:
        kind.screen = timed(flagged(screens[kind]), kind)
    best = None
    try:
        for _ in range(repeats):
            spent.clear()
            mirrored = 0
            count = _terms_read(
                products._analyze_product_pairs(iter(read), TOL, WINDOW, n_max)
            )
            inner = [spent.get("clearance", 0), *(spent.get(kind, 0) for kind in STEP_SCREENS)]
            pieces = [*inner, spent.get("step", 0) - sum(inner)]
            best = pieces if best is None else list(map(min, best, pieces))
    finally:
        products._drive = drive
        for name, fn in clearance.items():
            setattr(products, name, fn)
        for kind in STEP_SCREENS:
            kind.screen = screens[kind]
    return _lane(read), count, [ns / count for ns in best], mirrored / count


def scans(command: str, text: str, n_max: int) -> tuple[int, float, float]:
    """``(terms, _checked, _none_singular)``: the terms the CLI's pass
    reads, and the calls of each scan the closures make in that run, per
    1,000 terms read, counted at the names the closures look up in
    ``seqspec``."""
    calls = dict.fromkeys(SCANS, 0)
    originals = {name: getattr(seqspec, name) for name in SCANS}

    def counted(name):
        def run(*args):
            calls[name] += 1
            return originals[name](*args)

        return run

    for name in SCANS:
        setattr(seqspec, name, counted(name))
    try:
        blocks = seqspec._lane_blocks(seqspec.parse(text), 1, n_max + 1)
        count = _terms_read(PASSES[command](blocks, TOL, WINDOW, n_max))
    finally:
        for name, fn in originals.items():
            setattr(seqspec, name, fn)
    return count, *(1000.0 * calls[name] / count for name in SCANS)


def one_index_cost(text: str, calls: int, repeats: int) -> tuple[float, float]:
    """``(AST µs, compiled µs)``: ``eval_term`` per call at one index, on
    the AST and on the term compiled once, over indices 1 to ``calls``."""
    node = seqspec.parse(text)
    term = seqspec.compile_term(node)
    eval_term = seqspec.eval_term
    indices = range(1, calls + 1)

    def on_ast():
        for n in indices:
            eval_term(node, n)

    def on_compiled():
        for n in indices:
            eval_term(term, n)

    return (_min_ns(on_ast, repeats) / calls / 1000.0,
            _min_ns(on_compiled, repeats) / calls / 1000.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="runs per figure (min taken)")
    parser.add_argument("--max-terms", type=int, help="cap every workload's term budget")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.max_terms is not None and args.max_terms < 1:
        parser.error("--max-terms must be at least 1")

    print("| term | lane | terms | evaluated | eval ns/term | pass ns/term | screened |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for command, text, budget in SPLIT_ROWS:
        n_max = budget if args.max_terms is None else min(budget, args.max_terms)
        lane, count, evaluated, eval_ns, pass_ns, screened = split(
            command, text, n_max, args.repeats
        )
        term = f'{command} "{text}"'
        print(
            f"| `{term}` | {lane} | {count:,} | {evaluated:,}"
            f" | {eval_ns:,.0f} | {pass_ns:,.0f} | {screened:.1%} |"
        )

    print()
    print("| short product | lane | n_max | pass ns/term | per-term reads |")
    print("|---|---|---:|---:|---:|")
    for text in SHORT_PRODUCTS:
        for budget in SHORT_BUDGETS:
            n_max = budget if args.max_terms is None else min(budget, args.max_terms)
            lane, pass_ns, reads = short_product(text, n_max, args.repeats)
            print(f'| `product "{text}"` | {lane} | {n_max:,} | {pass_ns:,.0f} | {reads:,} |')

    n = PREBUILT_TERMS if args.max_terms is None else min(PREBUILT_TERMS, args.max_terms)
    print()
    print("| analyzer | terms | ns/term |")
    print("|---|---:|---:|")
    for analyzer, text in ANALYZERS:
        count, ns = analyzer_cost(analyzer, text, n, args.repeats)
        print(f'| `{analyzer.__name__}` on "{text}" | {count:,} | {ns:,.0f} |')

    calls = ONE_INDEX_CALLS if args.max_terms is None else min(ONE_INDEX_CALLS, args.max_terms)
    print()
    print("| eval_term at one index | calls | AST µs | compiled µs |")
    print("|---|---:|---:|---:|")
    for text in ONE_INDEX:
        ast_us, compiled_us = one_index_cost(text, calls, args.repeats)
        print(f'| "{text}" | {calls:,} | {ast_us:.2f} | {compiled_us:.2f} |')

    for command, text, budget in WORKLOADS[:2]:
        n_max = budget if args.max_terms is None else min(budget, args.max_terms)
        lane, count, pieces, mirror_share = block_step_split(text, n_max, args.repeats)
        print()
        print(f'| {lane}-lane block step of `{command} "{text}"` | terms | ns/term |')
        print("|---|---:|---:|")
        for piece, ns in zip(STEP_PIECES, pieces):
            print(f"| {piece} | {count:,} | {ns:,.0f} |")
        print(f"| share taken on mirror runs | {count:,} | {mirror_share:.1%} |")

    print()
    print("| scans per 1,000 terms read | terms | `_checked` | `_none_singular` |")
    print("|---|---:|---:|---:|")
    for command, text, budget in WORKLOADS:
        n_max = budget if args.max_terms is None else min(budget, args.max_terms)
        count, checked, screened = scans(command, text, n_max)
        print(f'| `{command} "{text}"` | {count:,} | {checked:.1f} | {screened:.1f} |')
    return 0


if __name__ == "__main__":
    sys.exit(main())
