import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke_runs_correct():
    # one small job per benchmark workload, with all its output checks; fails
    # on schema or oracle breakage before a full benchmark run would
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    for line in lines:
        row = json.loads(line)
        assert row["correct"] is True and row["failed"] == 0, line
