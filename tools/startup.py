"""Wall time of whole ``bicomplex`` processes, start-up included.

Prints one row per command -- a bare interpreter, ``eval``,
``check-bounds`` and a short ``series`` run -- with the minimum and the
median wall time, in ms, of ``--repeats`` fresh processes, and the
``bicomplex`` modules that command loaded (``-`` for none). Each process
is ``python -S`` under ``PYTHONDONTWRITEBYTECODE=1``, on a copy of
``src/`` with no ``__pycache__``, so that every run compiles the
package's source as it does where no ``.pyc`` is kept. A command runs as
the ``bicomplex`` console script does: it imports ``bicomplex.cli`` and
calls ``main``. The rows alternate, one process each in turn, so that a
drift in the machine's speed reaches all of them alike.

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

    print("| command | min ms | median ms | bicomplex modules |")
    print("|---|---:|---:|---|")
    for (label, _), samples, loaded in zip(ROWS, times, modules):
        print(f"| `{label}` | {1e3 * min(samples):.1f} | {1e3 * statistics.median(samples):.1f}"
              f" | {loaded.replace(' ', ', ') or '-'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
