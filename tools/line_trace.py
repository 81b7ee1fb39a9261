"""Lines of ``src/bicomplex`` that no test runs.

Runs pytest in-process under ``sys.settrace``, tracing only frames whose
code lives in ``src/bicomplex``, and prints each executable line that no
traced test ran as ``path:line: text``, the path relative to the checkout
and the text the stripped source line. A module's executable lines are those that
``co_lines()`` lists for its code object and every code object nested in
it: functions, classes, comprehensions and lambdas.

The arguments go to pytest, so one file, one test or one ``-k`` selection
can be traced; with none, pytest runs its configured test paths. Usage,
from any directory (the checkout is the parent of ``tools/``)::

    python tools/line_trace.py -q
    python tools/line_trace.py -q tests/test_series.py

The report is printed whatever the tests' outcome. The trace slows the
code several times over, so a test marked ``wallclock`` (one that gates
its own run time, such as acceptance criteria 1, 2 and 5) runs its call
phase untraced, at full speed; its set-up and tear-down stay traced.
Lines that only such tests reach are reported as not run, as are lines
that only tests running the CLI in a subprocess reach.

Exit status: 0 where every executable line ran, 1 where some did not;
where pytest could not run the tests (interrupted, internal error, usage
error or no tests collected), its own status and no report.

Only the standard library is used, besides pytest itself.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bicomplex"


def executable_lines(code) -> set[int]:
    """The line numbers that ``co_lines()`` lists for ``code`` and each
    code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None and line > 0}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on ``pytest_args`` and, for each module of the
    package, the lines that ran, keyed by its resolved path."""
    import pytest

    hits = {str(path.resolve()): set() for path in PACKAGE.glob("*.py")}
    # co_filename -> the set of lines its frames ran, or None: not traced
    seen: dict[str, set[int] | None] = {}

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        found = seen.get(filename, False)
        if found is False:
            found = seen[filename] = hits.get(os.path.realpath(filename))
        if found is None:
            return None
        found.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                found.add(frame.f_lineno)
            return local

        return local

    class Untraced:
        """Suspends the trace for the call phase of ``wallclock`` tests."""

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            marked = item.get_closest_marker("wallclock") is not None
            if marked:
                sys.settrace(None)
            yield
            if marked:
                sys.settrace(start)

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(start)
    try:
        status = pytest.main(pytest_args, plugins=[Untraced()])
    finally:
        sys.settrace(None)
    return int(status), hits


def unrun(hits: dict[str, set[int]]) -> list[str]:
    """``path:line: text`` for each executable line of the package that is
    not in ``hits``, in path and line order."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = hits[str(path.resolve())]
        code = compile(source, str(path), "exec")
        rel = path.relative_to(ROOT).as_posix()
        for line in sorted(executable_lines(code) - ran):
            rows.append(f"{rel}:{line}: {text[line - 1].strip()}")
    return rows


def main() -> int:
    status, hits = trace(sys.argv[1:])
    # interrupted, internal error, usage error, no tests collected
    if status in (2, 3, 4, 5):
        return status
    rows = unrun(hits)
    for row in rows:
        print(row)
    print(f"{len(rows)} executable lines in src/bicomplex not run", file=sys.stderr)
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
