"""Wall time of whole ``bicomplex`` processes, start-up included.

Prints one row per command -- a bare interpreter, ``eval``,
``check-bounds`` and short ``series`` and ``product`` runs -- with the
minimum and the median wall time, in ms, of ``--repeats`` fresh
processes, and the ``bicomplex`` modules that command loaded (``-`` for
none). Each process is ``python -S`` under ``PYTHONDONTWRITEBYTECODE=1``,
on a copy of ``src/`` with no ``__pycache__``, so that every run compiles
the package's source as it does where no ``.pyc`` is kept. A command runs
as the ``bicomplex`` console script does: it imports ``bicomplex.cli``
and calls ``main``. The rows alternate, one process each in turn, so that
a drift in the machine's speed reaches all of them alike.

A second table times two steps inside those processes, in one more
fresh ``python -S`` process: the minimum and the median, in µs, of
``PARSER_CALLS`` calls each of ``cli._build_parser()``, the full
argparse tree, and of ``cli._parse`` on the ``product`` row's argv, the
route ``main`` takes to parse it (one parser for the named command,
built and run).

Usage, from any directory (the checkout is the parent of ``tools/``)::

    python tools/startup.py [--repeats K]

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a console script's body, which then reports the modules it loaded
RUN_CLI = (
    "import sys\n"
    "from bicomplex.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(sorted(m[10:] for m in sys.modules if m.startswith('bicomplex.'))),"
    " file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# (label, arguments after ``python -S``)
ROWS = (
    ("python -S -c pass", ["-c", "pass"]),
    ('bicomplex eval "1+i2"', ["-c", RUN_CLI, "eval", "1+i2"]),
    ('bicomplex check-bounds "(1+i1)/10"', ["-c", RUN_CLI, "check-bounds", "(1+i1)/10"]),
    ('bicomplex series --max-terms 64 "1/n^2"',
     ["-c", RUN_CLI, "series", "--max-terms", "64", "1/n^2"]),
    ('bicomplex product --max-terms 64 "1+1/n^2"',
     ["-c", RUN_CLI, "product", "--max-terms", "64", "1+1/n^2"]),
)

# the product row's argv, as main parses it
PARSE_ARGV = ["product", "--max-terms", "64", "--", "1+1/n^2"]
# calls of cli._build_parser(), then of cli._parse(PARSE_ARGV), each timed
# one by one in one process, which prints the minimum and the median in
# µs of each on a line of its own
PARSER_CALLS = 200
TIME_PARSER = (
    "import statistics, time\n"
    "from bicomplex.cli import _build_parser, _parse\n"
    f"for call, args in ((_build_parser, ()), (_parse, ({PARSE_ARGV!r},))):\n"
    "    samples = []\n"
    f"    for _ in range({PARSER_CALLS}):\n"
    "        t0 = time.perf_counter_ns()\n"
    "        call(*args)\n"
    "        samples.append(time.perf_counter_ns() - t0)\n"
    "    print(min(samples) / 1e3, statistics.median(samples) / 1e3)\n"
)


def _run(args: list[str], env: dict) -> tuple[float, str]:
    """Wall seconds of one fresh ``python -S`` process, and the modules
    it reported on its last line of stderr."""
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-S", *args], env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if child.returncode != 0:
        raise RuntimeError(f"{args[-1]!r} exited {child.returncode}:\n{child.stderr}")
    lines = child.stderr.splitlines()
    return elapsed, lines[-1] if lines else ""


def _parser_us(env: dict) -> list[tuple[float, float]]:
    """The minimum and the median µs of a ``cli._build_parser()`` call and
    of a ``cli._parse(PARSE_ARGV)`` call, over ``PARSER_CALLS`` calls each
    in one fresh ``python -S`` process."""
    child = subprocess.run([sys.executable, "-S", "-c", TIME_PARSER], env=env,
                           capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"parser timing exited {child.returncode}:\n{child.stderr}")
    return [tuple(map(float, line.split())) for line in child.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=25, help="processes per row")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(SRC / "bicomplex", Path(tmp, "bicomplex"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        times = [[] for _ in ROWS]
        modules = [""] * len(ROWS)
        for _ in range(args.repeats):
            for i, (_, row_args) in enumerate(ROWS):
                elapsed, modules[i] = _run(row_args, env)
                times[i].append(elapsed)
        (build_low, build_median), (parse_low, parse_median) = _parser_us(env)

    print("| command | min ms | median ms | bicomplex modules |")
    print("|---|---:|---:|---|")
    for (label, _), samples, loaded in zip(ROWS, times, modules):
        print(f"| `{label}` | {1e3 * min(samples):.1f} | {1e3 * statistics.median(samples):.1f}"
              f" | {loaded.replace(' ', ', ') or '-'} |")
    print()
    print("| call | min µs | median µs | calls |")
    print("|---|---:|---:|---:|")
    print(f"| `cli._build_parser()` | {build_low:.1f} | {build_median:.1f} | {PARSER_CALLS} |")
    print(f"| `cli._parse({' '.join(PARSE_ARGV)})` | {parse_low:.1f} | {parse_median:.1f}"
          f" | {PARSER_CALLS} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
