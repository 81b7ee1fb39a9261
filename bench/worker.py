"""Child process of the benchmark: runs CLI jobs in-process, traced or
not, and the per-op microbenchmarks.

Usage: ``python -m bench.worker '<json config>'`` from the checkout root
with ``src`` on ``PYTHONPATH``. Prints one JSON document on stdout.

Config keys:

* ``mode``: ``"jobs"`` or ``"micro"``;
* ``seed``: job-stream seed (short jobs) or operand seed (micro);
* ``argv``: one CLI argument list, run ``count`` times (long jobs);
  without it jobs come from ``jobs.generate(seed)``;
* ``count``: the number of jobs;
* ``calibrate``: also give each job's times at the reference speed (see
  ``speed.py``);
* ``trace``: wrap the program with ``tracer.Tracer`` and replay the
  golden CLI cases after the workload's jobs;
* ``stdout``: return each job's standard output.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

from bench import jobs, speed

# the six CLI cases whose output tests/golden/ freezes
GOLDEN = (
    ["eval", "--json", "--", "exp(i2*pi)"],
    ["eval", "--branch", "1", "-1", "--json", "--", "j"],
    ["series", "--json", "--", "[exp(-n) | exp(-2*n)]"],
    ["product", "--json", "--", "0.9"],
    ["product", "--tol", "1e-6", "--max-terms", "20000", "--json", "--",
     "1 + (3/10 + 2/5*i2)/n^2"],
    ["check-bounds", "--json", "--", "(1+i1)/10"],
)

# the long workloads' expressions; their terms also feed the prebuilt
# analyzer rows
PRODUCT_EXPR = "1 + (3/10 + 2/5*i2)/n^2"
SERIES_EXPR = "1/n^2"
# product_budget: the budget runs out before evaluate_product decides
BUDGET_EXPR = "1+1/n"
BUDGET_TERMS = 100000
PREBUILT_TERMS = 20000
MICRO_OPERANDS = 256
MICRO_REPEATS = 15


def run_cli(main, argv) -> jobs.Outcome:
    out = io.StringIO()
    code = uncaught = None
    c0 = time.process_time_ns()
    t0 = time.perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else 1
        except Exception as err:  # a traceback for a CLI user
            uncaught = type(err).__name__
    t1 = time.perf_counter_ns()
    c1 = time.process_time_ns()
    return jobs.Outcome(code, uncaught, out.getvalue(), t1 - t0, c1 - c0, t0)


def run_jobs(cfg: dict) -> dict:
    from bicomplex import cli

    tracer = None
    if cfg.get("trace"):
        from bench.tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if "argv" in cfg:
        job = jobs.Job(argv=cfg["argv"], command=cfg["argv"][0], tree=None, valid=True,
                       json=True, at=1, max_terms=1)
        stream = [job] * cfg["count"]
    else:
        stream = list(islice(jobs.generate(cfg["seed"]), cfg["count"]))
    # Each job runs once. With ``calibrate``, both kinds of calibration
    # burst run between jobs (see speed.py) and each job's time is also
    # given at the reference speed: by ``cli_burst``, whose kind of work
    # a typical short job does most, and by the mean over both kinds,
    # for the slowest jobs, which spend most of their time on terms.
    # Jobs are checked against the reference after the last one,
    # outside the timing, and their output dropped.
    samplers = []
    if cfg.get("calibrate"):
        samplers = [speed.Sampler(speed.cli_burst, speed.REF_CLI_S),
                    speed.Sampler(speed.arithmetic_burst, speed.REF_ARITHMETIC_S)]
    outcomes: list[jobs.Outcome] = []
    start = time.perf_counter()
    for job in stream:
        for sampler in samplers:
            sampler.maybe_tick()
        if tracer is None:
            outcomes.append(run_cli(cli.main, job.argv))
        else:
            with tracer.job(job.argv):
                outcomes.append(run_cli(cli.main, job.argv))
    measured_s = time.perf_counter() - start
    for sampler in samplers:
        sampler.tick()
    converters = [sampler.converter() for sampler in samplers]

    records = []
    for job, outcome in zip(stream, outcomes):
        record = {
            "code": outcome.code,
            "uncaught": outcome.uncaught,
            "wall_ns": outcome.wall_ns,
            "cpu_ns": outcome.cpu_ns,
            "terms": jobs.terms_used(job, outcome.stdout),
        }
        if converters:
            t0 = outcome.start_ns / 1e9
            (raw, ref), (_, ref_terms) = (c(t0, t0 + outcome.wall_ns / 1e9) for c in converters)
            record["ref_wall_s"] = ref
            record["ref_cpu_s"] = outcome.cpu_ns / 1e9 * ref / raw
            record["ref_tail_s"] = 0.5 * (ref + ref_terms)
        if cfg.get("stdout"):
            record["stdout"] = outcome.stdout
        else:
            record["fail"] = jobs.check(job, outcome)
        records.append(record)

    result = {"jobs": records, "measured_s": measured_s}
    if tracer is not None:
        result["evals"] = list(tracer.evals)
        tracer.phase = "golden"
        for argv in GOLDEN:
            with tracer.job(argv):
                run_cli(cli.main, argv)
        tracer.uninstall()
        result["evals_all"] = list(tracer.evals)
        result["spans"] = tracer.spans
    return result


def _per_op_ns(loop, count: int) -> float:
    """Median over repeats of one timed pass over ``count`` operands."""
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter_ns()
        loop()
        samples.append((time.perf_counter_ns() - t0) / count)
    return statistics.median(samples)


def run_micro(cfg: dict) -> dict:
    from bicomplex import core, products, series, seqspec, transcendental as tr

    rng = random.Random(cfg["seed"])

    def operand(scale: float):
        while True:
            w = core.Bicomplex(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale,
                               complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale)
            if not w.is_singular(1e-6).is_singular:
                return w

    xs = [operand(2.0) for _ in range(MICRO_OPERANDS)]
    ys = [operand(2.0) for _ in range(MICRO_OPERANDS)]
    small = [operand(0.35) for _ in range(MICRO_OPERANDS)]
    small = [w for w in small if abs(w) < 0.5]
    raw = [(w.z1, w.z2) for w in xs]
    pairs = list(zip(xs, ys))
    B = core.Bicomplex
    k = len(xs)

    def loop_init():
        for z1, z2 in raw:
            B(z1, z2)

    def loop_add():
        for a, b in pairs:
            a + b

    def loop_mul():
        for a, b in pairs:
            a * b

    def loop_div():
        for a, b in pairs:
            a / b

    def loop_inverse():
        for a in xs:
            a.inverse()

    def loop_is_singular():
        for a in xs:
            a.is_singular()

    def loop_pow():
        for a in xs:
            a ** -2

    def over(func, values):
        def loop():
            for a in values:
                func(a)
        return loop

    rows = {
        "core.init_ns": _per_op_ns(loop_init, k),
        "core.add_ns": _per_op_ns(loop_add, k),
        "core.mul_ns": _per_op_ns(loop_mul, k),
        "core.div_ns": _per_op_ns(loop_div, k),
        "core.inverse_ns": _per_op_ns(loop_inverse, k),
        "core.is_singular_ns": _per_op_ns(loop_is_singular, k),
        "core.pow_neg2_ns": _per_op_ns(loop_pow, k),
        "transcendental.exp_ns": _per_op_ns(over(tr.exp, xs), k),
        "transcendental.log_principal_ns": _per_op_ns(over(tr.log_principal, xs), k),
        "transcendental.sqrt_ns": _per_op_ns(over(tr.sqrt, xs), k),
        "transcendental.log1p_ns": _per_op_ns(over(tr.log1p, small), len(small)),
    }
    counts = {"micro.operands": k, "micro.log1p_operands": len(small)}

    # analyzers on prebuilt term lists: no term evaluation in the timing
    n = PREBUILT_TERMS
    prod_node, ser_node = seqspec.parse(PRODUCT_EXPR), seqspec.parse(SERIES_EXPR)
    prod_terms = [seqspec.eval_term(prod_node, i) for i in range(1, n + 1)]
    ser_terms = [seqspec.eval_term(ser_node, i) for i in range(1, n + 1)]
    analyzers = {
        "products.evaluate": lambda: products.evaluate_product(iter(prod_terms), n_max=n),
        "products.absolute": lambda: products.absolute_convergence_check(iter(prod_terms), n_max=n),
        "products.log_sum": lambda: products.log_sum_equivalence(iter(prod_terms), n_max=n),
        "series": lambda: series.analyze_series(iter(ser_terms), n_max=n),
    }
    for name, call in analyzers.items():
        samples = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            report = call()
            samples.append((time.perf_counter_ns() - t0) / report.terms_used)
        rows[f"{name}.prebuilt_ns_per_term"] = statistics.median(samples)
        counts[f"{name}.prebuilt_terms"] = report.terms_used
    return {"rows": rows, "counts": counts}


def peak_rss_kb() -> int:
    """Peak resident set of this process since it exec'd."""
    try:
        with open("/proc/self/status") as f:
            return int(next(line for line in f if line.startswith("VmHWM:")).split()[1])
    except (OSError, StopIteration):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    cfg = json.loads(sys.argv[1])
    result = run_micro(cfg) if cfg["mode"] == "micro" else run_jobs(cfg)
    result["peak_rss_kb"] = peak_rss_kb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
