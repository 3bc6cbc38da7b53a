"""Benchmark of the `sextic-sieve` command line on four seeded workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a source checkout; the package is taken from `src/`
(PYTHONPATH=src), not from an installed copy.  Each run starts fresh
interpreters: a few that only set up (import `sexticlab`, build the job
list), for `setup_s`, and one that runs whole passes over the job list for
about --seconds.  Every job's output is then checked by `oracles.py`, and
the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
job_p50_ms, peak_rss_mb); with --trace 1 they are the per-layer ones from
`tracer.py`, and the spans are written to .bench_run/.  --smoke runs one
small job per workload with every check and prints one line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import jobs as joblist  # noqa: E402
import oracles  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(mode: str, workload: str, seed: int, *extra, timeout=CHILD_TIMEOUT_S):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SEXTIC_SIEVE_MEM", None)  # the default bitmap cap is part of the workloads
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {workload} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def setup_seconds(workload: str, seed: int) -> float:
    """Interpreter start to `sexticlab` imported and the job list built."""
    t0 = time.monotonic()
    proc = _child("setup", workload, seed, timeout=60)
    return float(proc.stdout.split()[-1]) - t0


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    runs = ROOT / ".bench_run"
    workdir = runs / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        extra = ["--seconds", str(seconds), "--workdir", str(workdir)]
        if smoke:
            extra.append("--smoke")
        if trace:
            extra += ["--spans", str(runs / f"spans-{workload}-seed{seed}.json")]
        _child("trace" if trace else "measure", workload, seed, *extra)
        with open(workdir / "result.json") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def judge(workload: str, seed: int, smoke: bool, result: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  A job whose output fails a check, or
    differs between passes, counts as failed on each pass concerned; only a
    job marked with a known fault may fail and leave `correct` true."""
    jobs = joblist.make_jobs(workload, seed, smoke)
    passes = len(result["refs"])
    if [job.argv for job in jobs] != [rec["argv"] for rec in result["jobs"]]:
        raise BenchError("the measured job list differs from the generated one")
    correct, failed = True, 0
    for job, rec in zip(jobs, result["jobs"]):
        problems = oracles.judge(job, rec["exit_code"], rec["output"])
        if problems:
            failed += passes
        elif rec["mismatches"]:
            failed += rec["mismatches"]
            problems = [f"output changed on {rec['mismatches']} of {passes} passes"]
        else:
            continue
        if job.known_fault is None:
            correct = False
            print(f"FAILED {job.name}: " + "; ".join(problems), file=sys.stderr)
    # worker determinism: the --workers 2 job prints what its twin prints
    pair = workers_pair(result)
    if pair and pair[0]["output"] != pair[1]["output"]:
        failed += passes
        correct = False
        print(f"FAILED {' '.join(pair[1]['argv'])}: output differs from --workers 1",
              file=sys.stderr)
    return correct, passes * len(jobs), failed


def workers_pair(result: dict):
    """(`--workers 1` job, `--workers 2` job) records, or None."""
    by_argv = {tuple(rec["argv"]): rec for rec in result["jobs"]}
    for rec in result["jobs"]:
        one = by_argv.get(tuple(rec["argv"][:-2]))
        if rec["argv"][-2:] == ["--workers", "2"] and one is not None:
            return one, rec
    return None


def scaled(result: dict) -> list:
    """Job times scaled to the nominal host speed: [job][pass] seconds, each
    pass scaled by NOMINAL_S over the mean host-speed sample of that pass."""
    factors = [hostspeed.NOMINAL_S / statistics.fmean(refs) for refs in result["refs"]]
    return [[t * f for t, f in zip(rec["times"], factors)] for rec in result["jobs"]]


def pass_seconds(times: list) -> list:
    return [sum(col) for col in zip(*times)]


def end_to_end(setups: list, setup_refs: list, result: dict) -> dict:
    times = scaled(result)
    scale = hostspeed.NOMINAL_S / statistics.median(setup_refs)
    return {
        "setup_s": {"value": scale * statistics.median(setups), "unit": "s"},
        "pass_s": {"value": statistics.median(pass_seconds(times)), "unit": "s"},
        "job_p50_ms": {"value": 1000 * statistics.median(t for ts in times for t in ts),
                       "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    split = result["traced_from"]
    passes = pass_seconds(scaled(result))
    layers["trace.overhead_s"] = {
        "value": statistics.median(passes[split:]) - statistics.median(passes[:split]),
        "unit": "s"}
    layers["density.count_range.workers_speedup"] = {
        "value": workers_speedup(result, split), "unit": "ratio"}
    return layers


def workers_speedup(result: dict, untraced: int) -> float:
    """Untraced time of the `--workers 1` job over its `--workers 2` twin's;
    0 when the workload has no such pair."""
    pair = workers_pair(result)
    if pair is None:
        return 0.0
    one, two = (statistics.median(rec["times"][:untraced]) for rec in pair)
    return one / two


def smoke() -> int:
    ok = True
    for workload in joblist.WORKLOADS:
        t0 = time.perf_counter()
        setup_seconds(workload, 0)
        result = measure(workload, 0, 0, trace=False, smoke=True)
        correct, attempted, failed = judge(workload, 0, True, result)
        ok = ok and correct and not failed
        print(json.dumps({"workload": workload, "correct": correct, "attempted": attempted,
                          "failed": failed, "seconds": round(time.perf_counter() - t0, 3)}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=joblist.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one small job per workload")
    args = ap.parse_args()
    if not (ROOT / "src" / "sexticlab" / "__init__.py").is_file():
        print(f"error: no sexticlab sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        setups, setup_refs = [], []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            setup_refs.append(hostspeed.sample())
            setups.append(setup_seconds(args.workload, args.seed))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), False)
        correct, attempted, failed = judge(args.workload, args.seed, False, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(result) if args.trace else end_to_end(setups, setup_refs, result)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
