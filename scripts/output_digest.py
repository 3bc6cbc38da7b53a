#!/usr/bin/env python3
"""Output digest: one sha256 per benchmark run and per benchmark workload
over the exit code, stdout and stderr of every job, so two trees can be
compared for byte-identical output with one command in each.

Usage:
    python3 scripts/output_digest.py --seeds 0 1 > digest.txt

The job lists come from bench/jobs.py (imported, never changed).  Each job
runs in process through cli.main at every given seed, once plain and once
under _seeds.perturbed(), which jitters the float constants that feed
report-only numbers.  The output is one line per run, "workload index
digest argv" (index counts the runs of the workload, plain and perturbed),
then one line per workload, "workload runs digest".  A diff of two trees'
listings names each changed run; equal workload lines mean every run of
that workload printed the same bytes and exited with the same code.
"""

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import jobs as joblist  # noqa: E402
from sexticlab import _seeds, cli  # noqa: E402


def run(argv: list) -> bytes:
    """argv, exit code, stdout and stderr of one job, as one byte record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return repr((argv, code, out.getvalue(), err.getvalue())).encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = ap.parse_args(argv)

    total, lines = 0, []
    for workload in joblist.WORKLOADS:
        digest, runs = hashlib.sha256(), 0
        for seed in args.seeds:
            jobs = joblist.make_jobs(workload, seed)
            for perturb in (contextlib.nullcontext, _seeds.perturbed):
                with perturb():
                    for job in jobs:
                        record = run(job.argv)
                        digest.update(record)
                        sha = hashlib.sha256(record).hexdigest()
                        print(f"{workload} {runs} {sha} {shlex.join(job.argv)}")
                        runs += 1
        total += runs
        lines.append(f"{workload} {runs} {digest.hexdigest()}")
    print("\n".join(lines))
    print(f"# {total} runs, seeds {' '.join(map(str, args.seeds))}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
