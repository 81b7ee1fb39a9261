"""Digest of the CLI's behaviour on the benchmark's generated jobs.

Runs ``bicomplex.cli.main`` in-process on the first N jobs of
``bench.jobs.generate(seed)`` for each seed given, and prints one sha256
over every job's argv, exit code, stdout and stderr. Two checkouts that
print the same digest behave identically on those jobs; ``--dump PATH``
also writes one JSON record per job, and ``--compare OLD NEW`` lists the
jobs that differ between two dumps, grouped by which of exit code,
stdout and stderr changed (exit status 1 when any differ, or when the
reader closes stdout first, which stops the tool quietly). Jobs whose
stdout differs only in the sign of zeros (``-0.0`` and ``0.0``, ``- 0*``
and ``+ 0*``) form a group of their own.

Usage, from any directory (the checkout is the parent of ``tools/``)::

    python tools/cli_digest.py --seeds 1 2 3 --jobs 3000 --dump out.jsonl
    python tools/cli_digest.py --compare old.jsonl new.jsonl

Only the standard library is used; ``bench/`` is imported, not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import shlex
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


FIELDS = ("code", "stdout", "stderr")
SIGN_OF_ZEROS = "stdout (sign of zeros only)"

# the minus of a zero: a number -0.0 or -0, or a text coefficient "- 0*"
_ZERO_SIGN = re.compile(r"-(?=0(?:\.0)?(?![\w.]))|- (?=0\*)")


def _unsigned_zeros(text: str) -> str:
    return _ZERO_SIGN.sub(lambda m: "" if m.group() == "-" else "+ ", text)


def load(path: Path) -> dict:
    with path.open(encoding="utf-8") as f:
        return {(r["seed"], r["job"]): r for r in map(json.loads, f)}


def compare(old_path: Path, new_path: Path) -> int:
    """Print the jobs whose records differ, grouped by the fields that
    changed; 1 when any job differs, else 0."""
    old, new = load(old_path), load(new_path)
    groups: dict[str, list[str]] = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        line = f"seed {key[0]} job {key[1]}: {shlex.join((a or b)['argv'])}"
        if a is None or b is None or a["argv"] != b["argv"]:
            label = "job missing or argv changed"
        else:
            changed = [name for name in FIELDS if a[name] != b[name]]
            if not changed:
                continue
            label = "+".join(changed)
            if changed == ["stdout"] and (
                _unsigned_zeros(a["stdout"]) == _unsigned_zeros(b["stdout"])
            ):
                label = SIGN_OF_ZEROS
            if "code" in changed:
                line += f" (exit {a['code']} -> {b['code']})"
        groups.setdefault(label, []).append(line)
    differ = sum(map(len, groups.values()))
    print(f"{len(old.keys() | new.keys())} jobs compared, {differ} differ")
    for label, lines in sorted(groups.items()):
        print(f"{label}: {len(lines)} jobs")
        for line in lines:
            print(f"  {line}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--jobs", type=int, default=3000, help="jobs per seed")
    parser.add_argument("--dump", type=Path, help="write one JSON record per job here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="list the jobs that differ between two --dump files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``--compare OLD NEW | head``): stop
        # quietly, and point stdout at devnull so the flush at exit does not
        # fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
