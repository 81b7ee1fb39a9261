"""Split of each long CLI run's cost between term evaluation and the pass.

For each of the three long workloads -- ``product "1 + (3/10 +
2/5*i2)/n^2"``, ``product --max-terms 100000 "1+1/n"`` and ``series
"1/n^2"``, at the CLI's default tolerance and window -- prints one row:

* the lane the CLI runs the expression on (scalar or pair);
* the number of terms its pass reads;
* the number of indices the index walker evaluates in that run, its
  read-ahead to the end of the block that holds the last term read
  included;
* evaluation ns/term: the compiled term evaluated through the index
  walker, with the CLI's term budget, until the pass's terms are read
  (read-ahead included), per term read;
* pass ns/term: the CLI's pass (``_analyze_product_pairs`` or
  ``_analyze_pairs``) over those terms prebuilt in a list.

Each figure is the minimum of ``--repeats`` runs, in-process. Compare
figures taken on one machine in one session: the speed of a shared box
drifts between runs.

Usage, from any directory (the checkout is the parent of ``tools/``)::

    python tools/layer_split.py [--repeats K] [--max-terms N]

``--max-terms`` lowers every workload's term budget to at most N, for a
quick run. Only the standard library and ``src/`` are used.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bicomplex import seqspec  # noqa: E402
from bicomplex.products import _analyze_product_pairs  # noqa: E402
from bicomplex.series import _analyze_pairs  # noqa: E402

TOL = 1e-10
WINDOW = 8
# (command, expression, term budget) of the three long workloads
WORKLOADS = (
    ("product", "1 + (3/10 + 2/5*i2)/n^2", 10**6),
    ("product", "1+1/n", 100_000),
    ("series", "1/n^2", 10**6),
)
PASSES = {"product": _analyze_product_pairs, "series": _analyze_pairs}


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
    original = seqspec._indexed

    def counting_indexed(fn, start, stop=None):
        def counting(ns):
            nonlocal total
            total += len(ns)
            return fn(ns)

        return original(counting, start, stop)

    seqspec._indexed = counting_indexed
    try:
        run()
    finally:
        seqspec._indexed = original
    return total


def split(
    command: str, text: str, n_max: int, repeats: int
) -> tuple[str, int, int, float, float]:
    """``(lane, terms, evaluated, eval ns/term, pass ns/term)`` of one CLI
    run."""
    node = seqspec.parse(text)
    run_pass = PASSES[command]
    scalar = seqspec._lane_terms(node)[0]
    # the pass reads exactly the terms it needs: keep those
    read = []

    def cli_run():
        terms = seqspec._lane_terms(node, 1, n_max + 1)[1]
        run_pass((read.append(term) or term for term in terms), TOL, WINDOW, n_max, scalar)

    evaluated = _evaluated(cli_run)
    count = len(read)

    def evaluate():
        deque(islice(seqspec._lane_terms(node, 1, n_max + 1)[1], count), maxlen=0)

    eval_ns = _min_ns(evaluate, repeats)
    pass_ns = _min_ns(lambda: run_pass(iter(read), TOL, WINDOW, n_max, scalar), repeats)
    lane = "scalar" if scalar else "pair"
    return lane, count, evaluated, eval_ns / count, pass_ns / count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="runs per figure (min taken)")
    parser.add_argument("--max-terms", type=int, help="cap every workload's term budget")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.max_terms is not None and args.max_terms < 1:
        parser.error("--max-terms must be at least 1")

    print("| term | lane | terms | evaluated | eval ns/term | pass ns/term |")
    print("|---|---|---:|---:|---:|---:|")
    for command, text, budget in WORKLOADS:
        n_max = budget if args.max_terms is None else min(budget, args.max_terms)
        lane, count, evaluated, eval_ns, pass_ns = split(command, text, n_max, args.repeats)
        term = f'{command} "{text}"'
        print(
            f"| `{term}` | {lane} | {count:,} | {evaluated:,}"
            f" | {eval_ns:,.0f} | {pass_ns:,.0f} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
