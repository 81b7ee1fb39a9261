"""Per-layer tracing of the bicomplex CLI from outside the program.

``Tracer.install`` replaces public names with timing wrappers and
``uninstall`` puts the originals back:

* ``seqspec.parse`` and ``cli._emit`` get a span per call;
* the analyzers that ``cli`` imports (``evaluate_product``,
  ``absolute_convergence_check``, ``log_sum_equivalence``,
  ``analyze_series``) get a span per call that also records the
  ``eval_term`` time and calls inside it, so self time is the span
  minus that;
* ``seqspec.eval_term`` is hot (hundreds of thousands of calls per job),
  so it gets a count and a busy-time sum instead of spans, plus the
  number of ``Bicomplex`` constructions made inside it;
* ``Bicomplex.__init__`` is hotter still and only gets a count.

The caller opens a span per CLI job with ``job``. Spans stay in memory
and go to the caller as plain dicts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ANALYZERS = {
    "evaluate_product": "products.evaluate",
    "absolute_convergence_check": "products.absolute",
    "log_sum_equivalence": "products.log_sum",
    "analyze_series": "series",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "workload"
        # eval_term: calls, busy ns, constructions inside
        self.evals = [0, 0, 0]
        self.ctors = [0]
        self._job: dict | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        from bicomplex import cli, core, seqspec

        perf = time.perf_counter_ns
        evals, ctors = self.evals, self.ctors
        orig_init = core.Bicomplex.__init__
        orig_eval = seqspec.eval_term

        def init(obj, *args, **kwargs):
            ctors[0] += 1
            orig_init(obj, *args, **kwargs)

        def eval_term(node, n):
            c0 = ctors[0]
            t0 = perf()
            try:
                return orig_eval(node, n)
            finally:
                evals[1] += perf() - t0
                evals[0] += 1
                evals[2] += ctors[0] - c0

        self._replace(core.Bicomplex, "__init__", init)
        self._replace(seqspec, "eval_term", eval_term)
        self._replace(seqspec, "parse", self._spanned("parse", seqspec.parse))
        self._replace(cli, "_emit", self._spanned("emit", cli._emit))
        for name, label in ANALYZERS.items():
            self._replace(cli, name, self._analyzer(label, getattr(cli, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _open(self, name: str) -> dict:
        span = {"name": name, "phase": self.phase,
                "job": None if self._job is None else self._job["id"]}
        self.spans.append(span)
        return span

    def _spanned(self, name: str, func):
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = self._open(name)
            span["start"] = perf()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = perf()

        return wrapper

    def _analyzer(self, name: str, func):
        perf = time.perf_counter_ns
        evals = self.evals

        def wrapper(*args, **kwargs):
            span = self._open(name)
            n0, e0 = evals[0], evals[1]
            span["start"] = perf()
            try:
                report = func(*args, **kwargs)
                span["terms"] = report.terms_used
                return report
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = perf()
                span["evals"] = evals[0] - n0
                span["eval_ns"] = evals[1] - e0
                span.setdefault("terms", span["evals"])

        return wrapper

    @contextmanager
    def job(self, argv):
        span = self._open("job")
        span["id"] = len(self.spans)
        span["argv"] = list(argv)
        self._job = span
        span["start"] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter_ns()
            self._job = None
