#!/usr/bin/env python3
"""Dead-code audit: list every function of src/sexticlab whose body never
runs while all jobs of the four benchmark workloads go through cli.main.

Usage:
    python3 scripts/trace_audit.py --seed 0

The job lists come from bench/jobs.py (imported, never changed); each job
writes to a temporary --out file that is thrown away.  Counting uses the
stdlib trace module, so a full run takes about a minute.  A function counts
as run when any line of its body executed in this process: code reached only
from tests, or only inside a --workers process pool, is listed as well, so
check each name against its callers before deleting it.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "sexticlab")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import jobs as joblist  # noqa: E402
from sexticlab import cli  # noqa: E402


def run_jobs(seed: int, out_path: str):
    for workload in joblist.WORKLOADS:
        for job in joblist.make_jobs(workload, seed):
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(job.argv + ["--out", out_path])


def unrun_defs(tree, ran: set, prefix=""):
    """(line, qualified name) of every def in tree with no executed body line."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from unrun_defs(node, ran, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not ran.intersection(range(node.body[0].lineno, node.end_lineno + 1)):
                yield node.lineno, prefix + node.name


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(run_jobs, args.seed, os.path.join(tmp, "out"))
    ran = {}
    for (filename, line), _n in tracer.results().counts.items():
        ran.setdefault(os.path.realpath(filename), set()).add(line)

    total = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PKG, name))
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for line, qualname in sorted(unrun_defs(tree, ran.get(path, set()))):
            print(f"{name}:{line} {qualname}")
            total += 1
    print(f"# {total} functions never ran (seed {args.seed})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
