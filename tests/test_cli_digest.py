"""tools/cli_digest.py: its digest repeats, --compare finds a change, and
the CLI's output on the first 300 generated jobs of seed 1 is pinned.

The tool is run as a script, as it is used.
"""

import json
import os
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


def test_compare_exits_quietly_when_its_reader_closes_stdout(tmp_path):
    # as under `--compare OLD NEW | head`: stdout is a pipe whose read end
    # is closed before the tool writes to it
    dump, altered = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _tool("--seeds", "1", "--jobs", "10", "--dump", str(dump)).returncode == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    altered.write_text("".join(
        json.dumps({**r, "stdout": r["stdout"] + "x"}, sort_keys=True) + "\n" for r in records
    ))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, str(TOOL), "--compare", str(dump), str(altered)],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write)
    assert run.returncode == 1 and run.stderr == ""


# sha256 over argv, exit code, stdout and stderr of the first 300 jobs of
# bench.jobs.generate(1). A change that alters CLI output on purpose, or
# the job stream, updates it and says so in CHANGES.md.
DIGEST_SEED_1_300 = "0418821361c1e604781ecb3b1edf9408ae30b6bc3589227c10a31bd82e6635ae"


def test_cli_output_on_300_generated_jobs_is_pinned():
    run = _tool("--seeds", "1", "--jobs", "300")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == DIGEST_SEED_1_300
