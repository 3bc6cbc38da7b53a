#!/usr/bin/env python3
"""Benchmark trajectory point: end-to-end metrics of bench/run.py, summed up
as median and [q1, q3] per workload, appended to a BENCH_*.json file.

Usage:
    python3 scripts/bench_point.py --out BENCH_<n>.json --label "my change"
    python3 scripts/bench_point.py --out BENCH_<n>.json --parent ../parent

Every workload gets PAIRS runs per tree.  Without --parent every run is on
this checkout ("head").  With --parent DIR (another checkout root of the
same repository) the runs come in pairs, one on each tree, in alternating
order: pair i runs the parent first when i is even and this checkout first
when i is odd, and uses seed FIRST_SEED + i on both.  Each run is
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` in its
tree's root, with that tree's own bench/, where T is run_seconds of this
checkout's BENCHMARK.json.  Before every run the tree's
src/sexticlab/__pycache__ is deleted and rebuilt with compileall, so both
trees load fresh bytecode and no run pays for compiling (which adds about
1 MB to peak_rss_mb).

The point records, per tree, workload and metric, the median, [q1, q3] and
the raw values, and for pairs how many the change won (all four metrics
are better when lower).  It also records an id of each tree (`git
describe`, or a sha256 of src/sexticlab/*.py where the tree is not a git
checkout), the Python version and the host speed: the median of
bench/hostspeed.py samples taken before each run over its NOMINAL_S (above
1 is a slower host than the nominal one).  An existing --out file keeps
every other key (such as a hand-written "history") and gains the point at
the end of "points".
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import hostspeed  # noqa: E402
import jobs as joblist  # noqa: E402

METRICS = ("setup_s", "pass_s", "job_p50_ms", "peak_rss_mb")
PAIRS = 10
FIRST_SEED = 1
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SECONDS = json.load(_fh)["run_seconds"]


def fresh_bytecode(tree: str) -> None:
    cache = os.path.join(tree, "src", "sexticlab", "__pycache__")
    shutil.rmtree(cache, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.dirname(cache)],
                   check=True)


def bench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one bench/run.py run in tree."""
    fresh_bytecode(tree)
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed its checks:\n{proc.stderr}")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 4), "iqr": [round(q1, 4), round(q3, 4)],
            "runs": [round(v, 4) for v in values]}


def tree_id(tree: str) -> str:
    """`git describe` of a git checkout; for any other tree, the sha256 of
    its src/sexticlab/*.py files (relative paths in sorted order, each
    followed by the file's bytes), so a point names the code it measured."""
    if os.path.exists(os.path.join(tree, ".git")):
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                              capture_output=True, text=True)
        if proc.stdout.strip():
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(tree, "src", "sexticlab", "*.py"))):
        digest.update(os.path.relpath(path, tree).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="BENCH_*.json file to append the point to")
    ap.add_argument("--label", default="", help="free text stored with the point")
    ap.add_argument("--parent", help="checkout root to compare against, in alternating pairs")
    args = ap.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": ROOT} if args.parent else {
        "head": ROOT}
    runs = {side: {w: [] for w in joblist.WORKLOADS} for side in trees}
    speed = []
    for workload in joblist.WORKLOADS:
        for i in range(PAIRS):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for side in order:
                speed.append(hostspeed.sample() / hostspeed.NOMINAL_S)
                t0 = time.monotonic()
                runs[side][workload].append(bench_run(trees[side], workload, FIRST_SEED + i,
                                                      SECONDS))
                print(f"{workload} pair {i} {side}: {runs[side][workload][-1]} "
                      f"({time.monotonic() - t0:.0f} s)", file=sys.stderr)

    point = {
        "label": args.label,
        "python": sys.version.split()[0],
        "host_speed": round(statistics.median(speed), 3),
        "seeds": [FIRST_SEED, FIRST_SEED + PAIRS - 1],
        "seconds": SECONDS,
        "trees": {side: tree_id(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in joblist.WORKLOADS:
        entry = point["workloads"][workload] = {}
        for m in METRICS:
            entry[m] = {side: summary([r[m] for r in runs[side][workload]]) for side in trees}
            if args.parent:
                pairs = zip(runs["parent"][workload], runs["change"][workload])
                entry[m]["change_wins"] = sum(c[m] < p[m] for p, c in pairs)

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.setdefault("points", []).append(point)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
