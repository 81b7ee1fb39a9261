"""tools/startup.py times whole processes and prints one row per command,
with the minimum and median wall time and the bicomplex modules that
command loaded, then one row timing ``cli._build_parser()`` calls and one
timing the parse that ``main`` makes of the product row's argv.

The tool is run as a script, as it is used.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "startup.py"


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_startup_prints_one_row_per_command():
    run = _tool("--repeats", "1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == [
        "| command | min ms | median ms | bicomplex modules |",
        "|---|---:|---:|---|",
    ]
    rows = [re.fullmatch(r"\| `(.+)` \| ([\d.]+) \| ([\d.]+) \| (.+) \|", line)
            for line in lines[2:-5]]
    assert all(rows), lines
    assert [(m[1], m[4]) for m in rows] == [
        ("python -S -c pass", "-"),
        ('bicomplex eval "1+i2"', "cli, core, seqspec, transcendental"),
        ('bicomplex check-bounds "(1+i1)/10"', "cli, core, seqspec, transcendental"),
        ('bicomplex series --max-terms 64 "1/n^2"', "cli, core, seqspec, series, transcendental"),
        ('bicomplex product --max-terms 64 "1+1/n^2"',
         "cli, core, products, seqspec, series, transcendental"),
    ]
    for m in rows:
        # one process per row: its minimum is its median
        assert 0.0 < float(m[2]) == float(m[3])
    assert lines[-5:-2] == ["", "| call | min µs | median µs | calls |", "|---|---:|---:|---:|"]
    calls = [re.fullmatch(r"\| `(.+)` \| ([\d.]+) \| ([\d.]+) \| 200 \|", line)
             for line in lines[-2:]]
    assert all(calls), lines[-2:]
    assert [m[1] for m in calls] == [
        "cli._build_parser()", "cli._parse(product --max-terms 64 -- 1+1/n^2)",
    ]
    for m in calls:
        assert 0.0 < float(m[2]) <= float(m[3])


def test_startup_refuses_bad_repeats():
    run = _tool("--repeats", "0")
    assert run.returncode == 2
    assert "must be at least 1" in run.stderr
