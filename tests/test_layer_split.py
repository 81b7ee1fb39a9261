"""tools/layer_split.py runs on a small term budget and prints one row
per long workload and one for a pair-lane series, with its lane, term
count, evaluated indices, two costs and the share of terms the block
step screened, then one row per short-budget product run, with its
lane, budget, cost and per-term reads, then one row per public
analyzer on prebuilt terms, with its term count and cost, then one row
per expression of eval_term's one-index cost, then one row per piece
of the block step of the default product, on the pair lane, and of
1+1/n, on the real lane, each with the share of terms the step took on
mirror runs, then one row per long workload with the closures' scans
per 1,000 terms read.

The tool is run as a script, as it is used.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_split.py"


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_layer_split_prints_one_row_per_long_workload():
    run = _tool("--max-terms", "2000", "--repeats", "1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == [
        "| term | lane | terms | evaluated | eval ns/term | pass ns/term | screened |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    rows = [
        re.fullmatch(r"\| `(.+)` \| (\w+)" + r" \| ([\d,]+)" * 4 + r" \| ([\d.]+)% \|", line)
        for line in lines[2:6]
    ]
    assert all(rows), lines
    got = [(m[1], m[2], int(m[3].replace(",", ""))) for m in rows]
    # on 2,000 terms no verdict is reached: each pass reads the whole
    # budget; the last row is a series on the pair lane
    assert got == [
        ('product "1 + (3/10 + 2/5*i2)/n^2"', "pair", 2000),
        ('product "1+1/n"', "real", 2000),
        ('series "1/n^2"', "real", 2000),
        ('series "(3/10 + 2/5*i2)/n^2"', "pair", 2000),
    ]
    for m in rows:
        terms, evaluated, eval_ns, pass_ns = (int(m[i].replace(",", "")) for i in range(3, 7))
        # read-ahead reaches at most to the end of the last term's block
        assert terms <= evaluated < terms + 1024
        assert eval_ns > 0 and pass_ns > 0
    # the block step takes most runs of every workload, the identity's
    # first 1,000 terms among them; every pass reads the checkpoint terms
    # and the first 32 one at a time
    screened = [float(m[7]) for m in rows]
    assert all(95.0 <= share < 100.0 for share in screened), screened

    assert lines[6:9] == [
        "",
        "| short product | lane | n_max | pass ns/term | per-term reads |",
        "|---|---|---:|---:|---:|",
    ]
    shorts = [re.fullmatch(r'\| `product "(.+)"` \| (\w+) \| ([\d,]+) \| ([\d,]+) \| (\d+) \|',
                           line) for line in lines[9:13]]
    assert all(shorts), lines
    assert [(m[1], m[2], m[3]) for m in shorts] == [
        ("1 + (3/10 + 2/5*i2)/n^2", "pair", "128"),
        ("1 + (3/10 + 2/5*i2)/n^2", "pair", "1,000"),
        ("1+1/n", "real", "128"),
        ("1+1/n", "real", "1,000"),
    ]
    assert all(int(m[4].replace(",", "")) > 0 for m in shorts)
    # the per-term body reads terms 1 to 32 and the checkpoints after
    assert [int(m[5]) for m in shorts] == [34, 36, 34, 36]

    assert lines[13:16] == ["", "| analyzer | terms | ns/term |", "|---|---:|---:|"]
    analyzers = [re.fullmatch(r'\| `(\w+)` on "(.+)" \| ([\d,]+) \| ([\d,]+) \|', line)
                 for line in lines[16:20]]
    assert all(analyzers), lines
    got = [(m[1], m[2], int(m[3].replace(",", ""))) for m in analyzers]
    # the prebuilt terms are capped too, and no verdict comes within 2,000
    assert got == [
        ("evaluate_product", "1 + (3/10 + 2/5*i2)/n^2", 2000),
        ("absolute_convergence_check", "1 + (3/10 + 2/5*i2)/n^2", 2000),
        ("analyze_product", "1 + (3/10 + 2/5*i2)/n^2", 2000),
        ("analyze_series", "1/n^2", 2000),
    ]
    assert all(int(m[4].replace(",", "")) > 0 for m in analyzers)

    assert lines[20:23] == [
        "",
        "| eval_term at one index | calls | AST µs | compiled µs |",
        "|---|---:|---:|---:|",
    ]
    one_index = [re.fullmatch(r'\| "(.+)" \| ([\d,]+) \| ([\d.]+) \| ([\d.]+) \|', line)
                 for line in lines[23:27]]
    assert all(one_index), lines
    # the three workload expressions, and one that mixes pair and scalar
    # subtrees; a cap of 2,000 leaves the 1,000 calls as they are
    assert [(m[1], m[2]) for m in one_index] == [
        ("1 + (3/10 + 2/5*i2)/n^2", "1,000"),
        ("1+1/n", "1,000"),
        ("1/n^2", "1,000"),
        ("(1 + i2/n)^-3 + sqrt(2 - e1/n)*n^2/(n+3)", "1,000"),
    ]
    assert all(float(m[3]) > 0 and float(m[4]) > 0 for m in one_index)

    assert lines[27:30] == [
        "",
        '| pair-lane block step of `product "1 + (3/10 + 2/5*i2)/n^2"` | terms | ns/term |',
        "|---|---:|---:|",
    ]
    # the same pieces on the real lane, for 1+1/n
    assert lines[36:39] == [
        "",
        '| real-lane block step of `product "1+1/n"` | terms | ns/term |',
        "|---|---:|---:|",
    ]
    assert len(lines) == 51, lines
    # past the identity's cap the default product's runs are mirror runs:
    # 1,025 to 2,000, 976 of the 2,000 terms; the real lane has none
    assert lines[35] == "| share taken on mirror runs | 2,000 | 48.8% |"
    assert lines[44] == "| share taken on mirror runs | 2,000 | 0.0% |"
    for start in (30, 39):
        pieces = [re.fullmatch(r"\| (.+) \| ([\d,]+) \| ([\d,]+) \|", line)
                  for line in lines[start:start + 5]]
        assert all(pieces), lines
        # the clearance, the three screens and the rest of the step, each
        # over the 2,000 terms the pass reads
        assert [(m[1], m[2]) for m in pieces] == [
            ("deviation scan and clearance", "2,000"),
            ("`_Absolute.screen`", "2,000"),
            ("`_Verdict.screen`", "2,000"),
            ("`_Identity.screen`", "2,000"),
            ("partial products, logs and takes", "2,000"),
        ]
        ns = [int(m[3].replace(",", "")) for m in pieces]
        if start == 30:
            assert all(n > 0 for n in ns), ns
        else:
            # 1+1/n's absolute check decides at term 32, before the first
            # long run, so its screen never runs
            assert ns[1] == 0 and all(n > 0 for n in ns[:1] + ns[2:]), ns

    assert lines[45:48] == [
        "",
        "| scans per 1,000 terms read | terms | `_checked` | `_none_singular` |",
        "|---|---:|---:|---:|",
    ]
    # every workload term's bounds prove its closures' scans will pass
    assert lines[48:51] == [
        '| `product "1 + (3/10 + 2/5*i2)/n^2"` | 2,000 | 0.0 | 0.0 |',
        '| `product "1+1/n"` | 2,000 | 0.0 | 0.0 |',
        '| `series "1/n^2"` | 2,000 | 0.0 | 0.0 |',
    ]


def test_layer_split_refuses_bad_sizes():
    for args in (["--repeats", "0"], ["--max-terms", "0"]):
        run = _tool(*args)
        assert run.returncode == 2, args
        assert "must be at least 1" in run.stderr
