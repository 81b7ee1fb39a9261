"""Benchmark of the bicomplex CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see BENCHMARK.json and bench/LAYERS.md for why each exists):

* ``product_default``, ``product_budget``, ``series_p2`` -- one CLI
  job per fresh ``python -m bicomplex.cli`` process, a fixed number of
  jobs per ``--seconds`` (``LONG_JOB_S``);
* ``short_jobs`` -- seeded random jobs over the whole grammar and all
  four commands, run in-process in one worker, ``SHORT_JOBS_PER_S`` of
  them per ``--seconds``.

``--trace 0`` measures the end-to-end metrics untraced, with times at
the reference speed of ``speed.py``. ``--trace 1``
runs the per-op microbenchmarks, then the workload's jobs untraced and
traced in-process (see ``tracer.py``), and reports the per-layer rows.
Every output is checked against ``reference.py``; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, and the exit code is 1 when ``correct`` is false.
``--workload all`` runs every workload in turn and ends with one object
over all of them. Exit code 2, and no result, when the program is
missing from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import jobs, reference as ref, speed, worker  # noqa: E402
from bench.tracer import ANALYZERS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
JOB_TIMEOUT_S = 170
SETUP_REPEATS = 15
# short_jobs runs this many jobs from the seed's stream per ``--seconds``:
# a fixed count, so attempted and failed depend on the seed and
# ``--seconds`` alone; the traced run takes the same jobs
SHORT_JOBS_PER_S = 400
# long workloads run this many jobs per ``--seconds`` (at least one):
# a fixed count, so attempted depends on ``--seconds`` alone
LONG_JOB_S = {"product_default": 15.0, "product_budget": 2.5, "series_p2": 3.0}

# for ``python -S -c``: prints the seconds it takes to import the CLI and
# build its argument parser
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bicomplex.cli as cli\n"
    "cli._build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# ``python -m bicomplex.cli ARGS`` with calibration bursts on a timer
# (see speed.py), which reports on exit its measured and reference
# seconds, the bursts' seconds, and its peak RSS. A child's ru_maxrss
# also counts the parent it was forked from, so the child reports VmHWM,
# which belongs to the image it exec'd.
LAUNCH_CODE = inspect.getsource(worker.peak_rss_kb) + (
    "import runpy, sys, time\n"
    "from bench.speed import REF_ARITHMETIC_S, Sampler, arithmetic_burst\n"
    "sys.argv[0] = 'bicomplex'\n"
    "sampler = Sampler(arithmetic_burst, REF_ARITHMETIC_S)\n"
    "sampler.start()\n"
    "t0 = time.perf_counter()\n"
    "try:\n"
    "    runpy.run_module('bicomplex.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    t1 = time.perf_counter()\n"
    "    sampler.stop()\n"
    "    raw, ref = sampler.converter()(t0, t1)\n"
    "    print('speed', raw, ref, sampler.burst_s(), file=sys.stderr)\n"
    "    print('peak_rss_kb', peak_rss_kb(), file=sys.stderr)\n"
)

LONG_JOBS = {
    "product_default": ["product", "--json", "--", worker.PRODUCT_EXPR],
    "product_budget": ["product", "--max-terms", str(worker.BUDGET_TERMS), "--json", "--",
                       worker.BUDGET_EXPR],
    "series_p2": ["series", "--json", "--", worker.SERIES_EXPR],
}
WORKLOADS = (*LONG_JOBS, "short_jobs")

UNCAUGHT_TYPES = ("ValueError", "OverflowError", "RecursionError")
# ROADMAP re-anchor baselines, printed beside the micro rows
BASELINE_NS = {"core.init_ns": 1200, "core.mul_ns": 2200, "core.add_ns": 1600,
               "core.inverse_ns": 3200, "transcendental.exp_ns": 1400}


class ChildResult:
    def __init__(self, code, stdout, stderr, wall_s, cpu_s):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall_s, self.cpu_s = wall_s, cpu_s

    def tail(self, key: str) -> list[float]:
        """Numbers on the last ``key`` line a LAUNCH_CODE child wrote."""
        for line in reversed(self.stderr.splitlines()):
            if line.startswith(key + " "):
                return [float(x) for x in line.split()[1:]]
        raise RuntimeError(f"child did not report {key}:\n{self.stderr[-2000:]}")

    def reference_times(self) -> tuple[float, float]:
        """Wall and CPU seconds of the job at the reference speed, the
        child's calibration bursts left out."""
        raw, ref, bursts = self.tail("speed")
        factor = ref / raw
        return (self.wall_s - bursts) * factor, (self.cpu_s - bursts) * factor


def _alarm(signum, frame):
    raise TimeoutError("child process ran past its time limit")


def run_child(args: list[str], timeout: int = JOB_TIMEOUT_S) -> ChildResult:
    """Run a Python child from the checkout root with ``src`` importable;
    wall and CPU time come from the child alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(),
                           wall, usage.ru_utime + usage.ru_stime)


def run_worker(cfg: dict) -> dict:
    child = run_child(["-m", "bench.worker", json.dumps(cfg)])
    if child.code != 0:
        raise RuntimeError(f"benchmark worker failed with exit {child.code}:\n{child.stderr}")
    return json.loads(child.stdout)


# -- reference checks for the long workloads --------------------------


def check_product_default(doc: dict) -> str | None:
    report = doc["product"]
    if report["verdict"] != "converged_nonsingular":
        return f"verdict {report['verdict']}"
    n = report["terms_used"]
    tol = ref.quadratic_product_tol(n)
    for got, want in zip(jobs.pair(report["limit_estimate"]), ref.quadratic_product_limit()):
        rel = abs(got / want - 1.0)
        if rel > tol:
            return f"limit component off by {rel:.3e} > {tol:.3e} after {n} terms"
    return None


def check_product_budget(doc: dict) -> str | None:
    report = doc["product"]
    if report["verdict"] != "inconclusive" or report["terms_used"] != worker.BUDGET_TERMS:
        return f"verdict {report['verdict']} after {report['terms_used']} terms"
    n = report["terms_used"]
    want, tol = ref.telescoping_log_sum(n), ref.telescoping_log_sum_tol(n)
    for got in jobs.pair(report["log_sum"]):
        if abs(got - want) > tol:
            return f"log sum {got!r} off log(N+1) by more than {tol:.3e} after {n} terms"
    return None


def check_series_p2(doc: dict) -> str | None:
    report = doc["report"]
    if report["verdict"] != "converged":
        return f"verdict {report['verdict']}"
    n = report["terms_used"]
    tol = ref.series_p2_tol(n)
    for got in jobs.pair(report["limit_estimate"]):
        if abs(got - math.pi ** 2 / 6.0) > tol:
            return f"limit {got!r} off pi^2/6 by more than {tol:.3e} after {n} terms"
    return None


CHECKS = {
    "product_default": check_product_default,
    "product_budget": check_product_budget,
    "series_p2": check_series_p2,
}


def check_long(workload: str, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    return CHECKS[workload](doc)


# -- end-to-end run ---------------------------------------------------


def _timed_child(code: str) -> float:
    child = run_child(["-S", "-c", code])
    if child.code != 0:
        raise RuntimeError(f"set-up child failed:\n{child.stderr}")
    return float(child.stdout)


def measure_setup() -> float:
    """Median time, at the reference speed, for a fresh interpreter with
    ``site`` off to import bicomplex.cli and build its argument parser.
    Each import is timed between two runs of ``speed.IMPORT_CODE``."""
    calibration = [_timed_child(speed.IMPORT_CODE)]
    samples = []
    for _ in range(SETUP_REPEATS):
        measured = _timed_child(SETUP_CODE)
        calibration.append(_timed_child(speed.IMPORT_CODE))
        nearby = 0.5 * (calibration[-2] + calibration[-1])
        samples.append(measured * speed.REF_IMPORT_S / nearby)
    return statistics.median(samples)


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def short_job_count(seconds: float) -> int:
    return max(1, round(SHORT_JOBS_PER_S * seconds))


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup = measure_setup()
    records = []   # (wall_s, cpu_s, terms, fail reason or None) at the reference speed
    tails = []     # job wall times at the reference speed for job_ms_p99
    measured_s = 0.0
    rss_kb = 0
    if workload in LONG_JOBS:
        argv = ["-c", LAUNCH_CODE, *LONG_JOBS[workload]]
        for _ in range(max(1, round(seconds / LONG_JOB_S[workload]))):
            child = run_child(argv)
            fail = check_long(workload, child.code, child.stdout)
            terms = 0 if fail else _terms(child.stdout)
            records.append((*child.reference_times(), terms, fail))
            measured_s += child.wall_s
            print(f"job {len(records)}: {child.wall_s:.3f} s measured, "
                  f"{records[-1][0]:.3f} s at the reference speed")
            rss_kb = max(rss_kb, int(child.tail("peak_rss_kb")[0]))
        tails = [r[0] for r in records if r[3] is None]
    else:
        result = run_worker({"mode": "jobs", "seed": seed, "calibrate": True,
                             "count": short_job_count(seconds)})
        rss_kb = result["peak_rss_kb"]
        records = [(j["ref_wall_s"], j["ref_cpu_s"], j["terms"], j["fail"])
                   for j in result["jobs"]]
        tails = [j["ref_tail_s"] for j in result["jobs"] if j["fail"] is None]
        measured_s = result["measured_s"]
    walls = [r[0] for r in records]
    good = [r[0] for r in records if r[3] is None]
    if workload in LONG_JOBS:
        # the jobs are identical: rates at the median job, which one job
        # that the calibration followed less well does not move
        busy = len(records) * statistics.median(walls)
    else:
        busy = sum(walls)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r[1] for r in records),
        "terms_per_s": sum(r[2] for r in records) / busy,
        "jobs_per_s": len(good) / busy,
        # undefined (null) when no job passed, and then correct is false
        "job_ms_p50": 1e3 * statistics.median(good) if good else None,
        "job_ms_p99": 1e3 * _p99(tails) if tails else None,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": len(good) / len(records),
    }
    # failure reasons without the numbers in them, for a breakdown
    reasons = Counter(re.split(r"[-\d(']", r[3])[0].strip()
                      for r in records if r[3] is not None)
    print(f"{workload}: {len(records)} jobs, {len(good)} passed their check, "
          f"{busy:.3f} s of job time at the reference speed, {measured_s:.3f} s measured")
    for reason, count in reasons.most_common():
        print(f"  failed: {count} x {reason}")
    if workload in LONG_JOBS:
        for r in records:
            if r[3] is not None:
                print(f"  reference check failed: {r[3]}")
    failed = len(records) - len(good)
    correct = bool(good) and (workload == "short_jobs" or failed == 0)
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": with_units(metrics, "end_to_end")}


def _terms(stdout: str) -> int:
    doc = json.loads(stdout)
    return (doc.get("product") or doc.get("report"))["terms_used"]


# -- traced run -------------------------------------------------------


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bicomplex").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _self_ns_per_term(spans: list[dict]) -> float:
    terms = sum(s["terms"] for s in spans)
    busy = sum(s["end"] - s["start"] - s["eval_ns"] for s in spans)
    return busy / terms if terms else 0.0


def _mean_us(spans: list[dict]) -> float:
    return statistics.fmean((s["end"] - s["start"]) / 1e3 for s in spans)


def layer_rows(traced: dict) -> tuple[dict, dict]:
    """Timing rows over every traced span (workload jobs and the golden
    replay); count rows over the workload's jobs only."""
    spans = traced["spans"]
    work = [s for s in spans if s["phase"] == "workload"]
    job_spans = [s for s in work if s["name"] == "job"]
    calls, eval_ns, ctor_in_eval = traced["evals"]
    all_calls, all_eval_ns, _ = traced["evals_all"]
    timing = {
        "seqspec.parse_us": _mean_us([s for s in spans if s["name"] == "parse"]),
        "seqspec.eval_term_ns": all_eval_ns / all_calls,
        "seqspec.eval_share": eval_ns / sum(s["end"] - s["start"] for s in job_spans),
        "cli.emit_us": _mean_us([s for s in spans if s["name"] == "emit"]),
    }
    counts = {"seqspec.eval_terms": calls,
              "core.ctor_per_term": ctor_in_eval / calls if calls else 0.0}
    analyzer_spans = [s for s in work if s["name"] in ANALYZERS.values()]
    by_job: dict[int, list[dict]] = {}
    for s in analyzer_spans:
        by_job.setdefault(s["job"], []).append(s)
    verdict_terms = sum(group[0]["terms"] for group in by_job.values())
    counts["cli.passes"] = len(analyzer_spans) / len(by_job) if by_job else 0.0
    counts["cli.evals_per_verdict_term"] = (
        sum(s["evals"] for s in analyzer_spans) / verdict_terms if verdict_terms else 0.0)
    for label in ANALYZERS.values():
        timing[f"{label}.self_ns_per_term"] = _self_ns_per_term(
            [s for s in spans if s["name"] == label])
        counts[f"{label}.terms_used"] = sum(s["terms"] for s in work if s["name"] == label)
    uncaught = Counter(j["uncaught"] for j in traced["jobs"] if j["uncaught"])
    counts["cli.uncaught"] = sum(uncaught.values())
    for name in UNCAUGHT_TYPES:
        counts[f"cli.uncaught.{name}"] = uncaught.pop(name, 0)
    counts["cli.uncaught.other"] = sum(uncaught.values())
    return timing, counts


def check_repeat(workload: str, seed: int, counts: dict) -> list[str]:
    """Counts must repeat bit for bit across runs of the same program,
    workload and seed; the first run records them."""
    path = OUT / f"counts-{workload}-{seed}-{_src_digest()}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [name for name, value in counts.items() if before.get(name) != value]


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    micro = run_worker({"mode": "micro", "seed": seed})
    if workload in LONG_JOBS:
        cfg = {"mode": "jobs", "argv": LONG_JOBS[workload], "count": 1, "stdout": True}
    else:
        cfg = {"mode": "jobs", "seed": seed, "count": short_job_count(seconds)}
    plain = run_worker(cfg)
    traced = run_worker(dict(cfg, trace=True))

    fails = []
    for run in (plain, traced):
        for j in run["jobs"]:
            if workload in LONG_JOBS:
                fails.append(check_long(workload, j["code"], j["stdout"]))
            else:
                fails.append(j["fail"])
    spans_path = OUT / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(traced["spans"]))
    print(f"{len(traced['spans'])} spans written to {spans_path.relative_to(ROOT)}")
    timing, counts = layer_rows(traced)
    timing.update(micro["rows"])
    counts.update(micro["counts"])
    plain_ns = sum(j["wall_ns"] for j in plain["jobs"])
    traced_ns = sum(j["wall_ns"] for j in traced["jobs"])
    timing["trace.overhead_frac"] = traced_ns / plain_ns - 1.0

    for name, value in sorted(counts.items()):
        print(f"{name} {value!r} count")
    for name, value in sorted(timing.items()):
        note = f" (ROADMAP baseline {BASELINE_NS[name]} ns)" if name in BASELINE_NS else ""
        print(f"{name} {value:.6g}{note}")
    changed = check_repeat(workload, seed, counts)
    for name in changed:
        print(f"count {name} differs from an earlier run of this program and seed")
    failed = sum(f is not None for f in fails)
    long_failed = workload in LONG_JOBS and failed > 0
    return {"correct": not (changed or long_failed), "attempted": len(fails),
            "failed": failed, "metrics": with_units({**timing, **counts}, "per_layer")}


def with_units(values: dict, kind: str) -> dict:
    """Metrics in the order and with the units BENCHMARK.json lists for
    ``kind`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        return per_layer(workload, seed, seconds)
    result = end_to_end(workload, seed, seconds)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bicomplex" / "cli.py").is_file():
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {}
        for workload in WORKLOADS:
            results[workload] = run(workload, args.seed, args.seconds, args.trace)
            print(json.dumps(results[workload]))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
