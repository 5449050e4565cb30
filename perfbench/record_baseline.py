#!/usr/bin/env python3
"""Records this machine's baseline: every workload at several seeds.

Usage, from the repository root:

    python3 perfbench/record_baseline.py [--out perfbench/baseline.json]

Runs `run.py` untraced once per seed in SEEDS for every workload, then
traced once per workload at the study seed, and writes each metric's
per-run values, median and quartile spread (interquartile range over
median) with a manifest of how and where the numbers were taken. Next to
the calibrated times it keeps each run's uncalibrated wall-clock figures
and the range of host speeds the calibration measured. Compare figures
only against a baseline recorded on the same machine.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark driver: workloads, seed default)

sys.path.pop(0)

SEEDS = tuple(range(1, 11))


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    sys.stderr.write(done.stderr)
    if done.returncode == 2:
        sys.exit(f"{' '.join(cmd[2:])} could not run")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    raw = re.search(r"uncalibrated: (.*); host speed (\S+)\.\.(\S+)$", done.stderr, re.M)
    if raw:
        result["raw"] = {k: float(v) for k, v in
                         (item.split() for item in raw.group(1).split(", "))}
        result["host_speed"] = [float(raw.group(2)), float(raw.group(3))]
    result["exit"] = done.returncode
    result["wall_s"] = round(time.monotonic() - started, 1)
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def manifest():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_rev": out(["git", "rev-parse", "HEAD"]),
        "rustc": out(["rustc", "--version"]),
        "build": "release, lto=fat, codegen-units=1; rv-sim alloc-stats compiled in, "
                 "counting allocator installed in the traced binary only",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "os": platform.platform(),
        "calibration": "end-to-end times are scaled by host speed: the nominal time of "
                       "the reference slice in perfbench/src/calib.rs over its median "
                       "time during the same campaign; uncalibrated figures are under "
                       "each workload's raw",
        "note": "Figures hold for this machine only. BENCH_campaign.json "
                "(157.8 sessions/sec) was recorded on another machine and is not a "
                "baseline for claims.",
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    baseline = {"manifest": manifest(), "workloads": {}}
    for workload in run.WORKLOADS:
        runs = []
        for seed in SEEDS:
            r = bench(workload, seed, 0)
            r["seed"] = seed
            runs.append(r)
            values = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
            print(workload, seed, r["exit"], r["correct"], r["wall_s"], values, flush=True)
        summary = {}
        raw = {}
        for name in runs[0].get("raw", {}):
            values = [r["raw"][name] for r in runs]
            raw[name] = {"median": statistics.median(values), "spread": spread(values),
                         "runs": values}
        for name, unit in run.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": unit, "median": statistics.median(values),
                             "spread": spread(values),
                             "runs": values}
            print(f"  {name:>20} median {summary[name]['median']:.6g} "
                  f"spread {summary[name]['spread']:.4f}", flush=True)
        traced = bench(workload, run.STUDY_SEED, 1)
        print(workload, "traced", traced["exit"], traced["correct"], traced["wall_s"], flush=True)
        release = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                               "release")
        w = json.loads(subprocess.run(
            [os.path.join(release, "campaign"), "--workload", workload, "--describe"],
            capture_output=True, text=True, check=True).stdout)
        baseline["workloads"][workload] = {
            "campaigns": w,
            "seeds": list(SEEDS),
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "run_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": summary,
            "raw": raw,
            "host_speed": [r.get("host_speed") for r in runs],
            "per_layer_at_study_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
