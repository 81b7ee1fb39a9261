"""tools/line_trace.py lists the lines of src/bicomplex that no test ran.

The tool is run as a script, as it is used, on one small test file.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "line_trace.py"
ROW = re.compile(r"(src/bicomplex/\w+\.py):(\d+): (.+)")

# runs partial_sums, then fails: the report must come all the same
TRACED = '''
from bicomplex import partial_sums


def test_partial_sums_then_fail():
    assert len(partial_sums([1.0, 2.0])) == 2
    assert False
'''


# a test marked wallclock runs untraced, and the tests around it traced
UNTRACED = '''
import sys

import pytest


@pytest.mark.wallclock
def test_marked_runs_untraced():
    assert sys.gettrace() is None


def test_unmarked_runs_traced():
    assert sys.gettrace() is not None
'''


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )


def _line_of(path: str, text: str) -> int:
    """The number of the one line of ``path`` whose stripped text is ``text``."""
    lines = (ROOT / path).read_text().splitlines()
    found = [k for k, line in enumerate(lines, start=1) if line.strip() == text]
    assert len(found) == 1, (path, text, found)
    return found[0]


def test_line_trace_lists_the_lines_no_test_ran(tmp_path):
    traced = tmp_path / "test_traced.py"
    traced.write_text(TRACED)
    run = _tool(str(traced))
    assert run.returncode == 1, run.stderr
    assert "1 failed" in run.stdout
    rows = [m for m in map(ROW.fullmatch, run.stdout.splitlines()) if m]
    assert run.stderr.splitlines()[-1] == f"{len(rows)} executable lines in src/bicomplex not run"
    listed = set()
    for m in rows:
        path, line, text = m[1], int(m[2]), m[3]
        assert (ROOT / path).read_text().splitlines()[line - 1].strip() == text, m[0]
        listed.add((path, line))
    assert len(listed) == len(rows)
    # the body of the fold that partial_sums runs is not listed; a line
    # that no term of it reaches is
    ran = _line_of("src/bicomplex/series.py", "out.append(total)")
    assert ("src/bicomplex/series.py", ran) not in listed
    unrun = _line_of("src/bicomplex/series.py", "raise NonFiniteError(str(err), term_index=k) from None")
    assert ("src/bicomplex/series.py", unrun) in listed


def test_line_trace_reports_nothing_where_pytest_cannot_run():
    run = _tool("--no-such-option")
    assert run.returncode == 4
    assert not any(map(ROW.fullmatch, run.stdout.splitlines()))


def test_line_trace_runs_wallclock_tests_untraced(tmp_path):
    untraced = tmp_path / "test_untraced.py"
    untraced.write_text(UNTRACED)
    run = _tool("-c", str(ROOT / "pyproject.toml"), str(untraced))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 passed" in run.stdout and "warning" not in run.stdout, run.stdout
