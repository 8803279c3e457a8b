#!/usr/bin/env python3
"""Time two dsp_sweep builds against job count and append the result to
bench/BENCH_e2e.json.

    python3 tools/bench_e2e.py --before <dsp_sweep> --after <dsp_sweep> \\
        --cluster real --jobs 1000,2500,5000,10000 \\
        --before-label "..." --after-label "..."

For every job count N, each build runs

    dsp_sweep --cluster <c> --scale 0.1 --seeds 42 --threads 1 --jobs N

three times, the two builds alternating run by run so that host load
drifts hit both alike. The host wall time of each process is recorded.
Each build becomes one entry of the file's "entries" list with, per job
count, the minimum, the median and the individual runs, plus the growth
exponent: the least-squares slope of log(median) on log(jobs) over the
points with at least 2500 jobs. The script only measures; it gates
nothing.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "BENCH_e2e.json")
SCALE = "0.1"
SEED = "42"
REPS = 3
FIT_MIN_JOBS = 2500


def sweep_args(binary, cluster, jobs):
    return [binary, "--cluster", cluster, "--scale", SCALE, "--seeds", SEED,
            "--threads", "1", "--jobs", str(jobs)]


def time_run(binary, cluster, jobs):
    start = time.perf_counter()
    result = subprocess.run(sweep_args(binary, cluster, jobs),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace"))
        sys.exit("bench_e2e: %s failed at %d jobs (exit %d)" %
                 (binary, jobs, result.returncode))
    return round(elapsed, 3)


def growth_exponent(points):
    fit = [p for p in points if p["jobs"] >= FIT_MIN_JOBS]
    if len(fit) < 2:
        return None
    xs = [math.log(p["jobs"]) for p in fit]
    ys = [math.log(p["median_s"]) for p in fit]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return round(sxy / sxx, 3)


def entry(label, cluster, runs_by_jobs):
    points = []
    for jobs in sorted(runs_by_jobs):
        runs = runs_by_jobs[jobs]
        points.append({"jobs": jobs, "min_s": min(runs),
                       "median_s": round(statistics.median(runs), 3),
                       "runs_s": runs})
    return {"label": label, "cluster": cluster,
            "command": " ".join(sweep_args("dsp_sweep", cluster, "N")),
            "points": points,
            "growth_exponent": growth_exponent(points)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="dsp_sweep binary")
    parser.add_argument("--after", required=True, help="dsp_sweep binary")
    parser.add_argument("--before-label", required=True)
    parser.add_argument("--after-label", required=True)
    parser.add_argument("--cluster", required=True, choices=("ec2", "real"))
    parser.add_argument("--jobs", required=True,
                        help="comma-separated job counts")
    args = parser.parse_args()

    job_counts = [int(j) for j in args.jobs.split(",")]
    if any(j <= 0 for j in job_counts):
        sys.exit("bench_e2e: every job count must be positive")
    builds = [("before", args.before), ("after", args.after)]
    runs = {name: {j: [] for j in job_counts} for name, _ in builds}
    for jobs in job_counts:
        for rep in range(REPS):
            for name, binary in builds:
                runs[name][jobs].append(time_run(binary, args.cluster, jobs))
            print("%s %d jobs rep %d: before %.3f s, after %.3f s" %
                  (args.cluster, jobs, rep + 1, runs["before"][jobs][-1],
                   runs["after"][jobs][-1]), flush=True)

    with open(OUT) as f:
        bench = json.load(f)
    bench["entries"].extend([
        entry(args.before_label, args.cluster, runs["before"]),
        entry(args.after_label, args.cluster, runs["after"])])
    with open(OUT, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
