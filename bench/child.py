"""One workload in a fresh interpreter; started by run.py, never by hand.

Modes:
  setup    import sexticlab, build the job list, print time.monotonic()
  measure  run whole passes over the job list for about --seconds
  trace    untraced passes for the first third of --seconds, then traced
           passes for the rest; adds per-layer metrics and writes --spans

Jobs are driven in process through `sexticlab.cli.main(argv)` with `--out`
to a file, so JSON encoding and the write are inside the timed call.  The
output of each job's first pass is kept for run.py's checks; every later
pass must reproduce it byte for byte.  After each job the collector runs
and the host-speed reference (hostspeed.py) is sampled for REF_SHARE of
the job's time; neither is inside a job's time.  The result goes to
result.json in --workdir.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import jobs as joblist

REF_SHARE = 0.1


class Runner:
    def __init__(self, cli, jobs, out_path):
        self.cli, self.jobs, self.out_path = cli, jobs, out_path
        self.first = [None] * len(jobs)  # (exit code, output) of the first pass
        self.mismatches = [0] * len(jobs)
        self.times = [[] for _ in jobs]  # wall seconds per job per pass
        self.refs = []  # host-speed samples per pass
        self.tracer = None

    @property
    def passes(self) -> int:
        return len(self.refs)

    def run_pass(self):
        if self.tracer is not None:
            self.tracer.pass_no = self.passes
        refs, owed = [], 0.0
        for i, job in enumerate(self.jobs):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                code = self.cli.main(job.argv + ["--out", self.out_path])
                dt = time.perf_counter() - t0
            self.times[i].append(dt)
            try:
                with open(self.out_path, "rb") as fh:
                    text = fh.read()
                os.remove(self.out_path)
            except FileNotFoundError:
                text = stderr.getvalue().encode()
            if self.first[i] is None:
                self.first[i] = (code, text)
            elif self.first[i] != (code, text):
                self.mismatches[i] += 1
            # every job starts, and every host-speed sample runs, with the
            # previous job's garbage collected, whatever the seeded order
            gc.collect()
            # sample the host for REF_SHARE of the job's time, right after it
            owed += REF_SHARE * dt
            while owed > 0:
                refs.append(hostspeed.sample())
                owed -= refs[-1]
        self.refs.append(refs)

    def pass_seconds(self, p: int) -> float:
        return sum(t[p] for t in self.times)

    def run_passes(self, budget: float, min_passes: int):
        """Whole passes until the next one would end after `budget` s."""
        start, begun = time.perf_counter(), self.passes
        while True:
            self.run_pass()
            spent = time.perf_counter() - start
            recent = [self.pass_seconds(p) for p in range(begun, self.passes)]
            if self.passes - begun >= min_passes and spent + statistics.median(recent) > budget:
                return


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--spans", help="where the trace mode writes its spans")
    args = ap.parse_args()

    from sexticlab import cli

    jobs = joblist.make_jobs(args.workload, args.seed, args.smoke)
    if args.mode == "setup":
        print(repr(time.monotonic()))
        return 0

    runner = Runner(cli, jobs, os.path.join(args.workdir, "job.out"))
    gc.collect()
    if args.smoke:
        runner.run_passes(0, 1)
    elif args.mode == "measure":
        runner.run_passes(args.seconds, 3)
    else:
        import tracer as tracing

        t0 = time.perf_counter()
        runner.run_passes(args.seconds / 3, 1)
        traced_from = runner.passes
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        runner.run_passes(args.seconds - (time.perf_counter() - t0), 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "jobs": [
            {"argv": job.argv, "times": runner.times[i], "exit_code": runner.first[i][0],
             "output": runner.first[i][1].decode(), "mismatches": runner.mismatches[i]}
            for i, job in enumerate(jobs)
        ],
        "refs": runner.refs,
        "peak_rss_mb": peak_rss_mb,
    }
    if runner.tracer is not None:
        tracer = runner.tracer
        silent = [name for name in tracing.EXPECTED[args.workload] if not tracer.calls(name)]
        if silent:
            print(f"wrapper never fired on {args.workload}: {', '.join(silent)}", file=sys.stderr)
            return 1
        result["traced_from"] = traced_from
        result["layers"] = tracing.layer_metrics(tracer, list(range(traced_from, runner.passes)))
        tracer.write(args.spans)
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
