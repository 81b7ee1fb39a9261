"""tools/cli_digest.py: its digest repeats, and --compare finds a change.

The tool is run as a script, as it is used, on the first 40 generated
jobs of seed 1.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_digest_repeats_and_compare_names_the_changed_job(tmp_path):
    dumps = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    digests = []
    for dump in dumps:
        run = _tool("--seeds", "1", "--jobs", "40", "--dump", str(dump))
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]
    assert re.fullmatch("[0-9a-f]{64}", digests[0])
    assert dumps[0].read_bytes() == dumps[1].read_bytes()

    same = _tool("--compare", str(dumps[0]), str(dumps[0]))
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines()[0] == "40 jobs compared, 0 differ"

    records = [json.loads(line) for line in dumps[0].read_text().splitlines()]
    assert len(records) == 40
    changed = next(r for r in records if r["stdout"])
    changed["stdout"] += "x"
    altered = tmp_path / "altered.jsonl"
    altered.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    diff = _tool("--compare", str(dumps[0]), str(altered))
    assert diff.returncode == 1, diff.stderr
    lines = diff.stdout.splitlines()
    assert lines[0] == "40 jobs compared, 1 differ"
    assert lines[1] == "stdout: 1 jobs"
    assert lines[2].startswith(f"  seed 1 job {changed['job']}: ")
