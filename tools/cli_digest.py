"""Digest of the CLI's behaviour on the benchmark's generated jobs.

Runs ``bicomplex.cli.main`` in-process on the first N jobs of
``bench.jobs.generate(seed)`` for each seed given, and prints one sha256
over every job's argv, exit code, stdout and stderr. Two checkouts that
print the same digest behave identically on those jobs; ``--dump PATH``
also writes one JSON record per job, so that two dumps can be diffed to
find the jobs that differ.

Usage, from any directory (the checkout is the parent of ``tools/``)::

    python tools/cli_digest.py --seeds 1 2 3 --jobs 3000 --dump out.jsonl

Only the standard library is used; ``bench/`` is imported, not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import jobs  # noqa: E402
from bicomplex import cli  # noqa: E402


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call. An exception that
    escapes ``main`` is recorded as its last traceback line on stderr,
    with exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            err.write(traceback.format_exc().splitlines()[-1])
    return code, out.getvalue(), err.getvalue()


def records(seeds: list[int], count: int):
    for seed in seeds:
        for index, job in enumerate(islice(jobs.generate(seed), count)):
            code, out, err = run(job.argv)
            yield {"seed": seed, "job": index, "argv": job.argv,
                   "code": code, "stdout": out, "stderr": err}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--jobs", type=int, default=3000, help="jobs per seed")
    parser.add_argument("--dump", type=Path, help="write one JSON record per job here")
    args = parser.parse_args(argv)

    digest = hashlib.sha256()
    dump = args.dump.open("w", encoding="utf-8") if args.dump else None
    try:
        for record in records(args.seeds, args.jobs):
            line = json.dumps(record, sort_keys=True) + "\n"
            digest.update(line.encode())
            if dump:
                dump.write(line)
    finally:
        if dump:
            dump.close()
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
