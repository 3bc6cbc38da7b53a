#!/usr/bin/env python3
"""Dead-code audit: list every function of src/sexticlab whose body never
runs while all jobs of the four benchmark workloads go through cli.main,
then every line that never runs inside the functions that do run.

Usage:
    python3 scripts/trace_audit.py --seed 0

The job lists come from bench/jobs.py (imported, never changed); each job
writes to a temporary --out file that is thrown away.  Counting uses the
stdlib trace module, so a full run takes about a minute.  A function counts
as run when any line of its body executed in this process: code reached only
from tests, or only inside a --workers process pool, is listed as well, so
check each name against its callers before deleting it.

The second list holds, for each function that ran, its lines that have
bytecode but never ran, one consecutive stretch per output line
("file:first-last function").  Most are error branches: the benchmark feeds
valid input, so a raise that guards a contract shows up here and stays.
"""

import argparse
import ast
import contextlib
import dis
import io
import itertools
import os
import sys
import tempfile
import trace
import types

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


def defs(tree, prefix=""):
    """(qualified name, node) of every def at module or class level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from defs(node, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def code_lines(code) -> set:
    """Lines with bytecode in every code object nested in code."""
    out = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= {line for _, line in dis.findlinestarts(const) if line}
            out |= code_lines(const)
    return out


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

    unrun_lines, nfuncs, nlines = [], 0, 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PKG, name))
        with open(path) as fh:
            source = fh.read()
        executable = code_lines(compile(source, path, "exec"))
        ran_here = ran.get(path, set())
        for qualname, node in sorted(defs(ast.parse(source)), key=lambda d: d[1].lineno):
            body = range(node.body[0].lineno, node.end_lineno + 1)
            if not ran_here.intersection(body):
                print(f"{name}:{node.lineno} {qualname}")
                nfuncs += 1
                continue
            lines = sorted(executable.intersection(body))
            for unrun, group in itertools.groupby(lines, lambda line: line not in ran_here):
                if unrun:
                    group = list(group)
                    nlines += len(group)
                    span = f"{group[0]}" if len(group) == 1 else f"{group[0]}-{group[-1]}"
                    unrun_lines.append(f"{name}:{span} {qualname}")
    print(f"# {nfuncs} functions never ran (seed {args.seed})", file=sys.stderr)
    for line in unrun_lines:
        print(line)
    print(f"# {nlines} lines never ran inside functions that ran (seed {args.seed})",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
