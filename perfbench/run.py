#!/usr/bin/env python3
"""Campaign benchmark: builds the benchmark package and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of classic, faulted_cluster, scaled_parallel (see README.md).
The package in perfbench/ is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Then

  --trace 0  runs SETUP_PROBES set-up probes and one measured run of the
             `campaign` binary, and reports the end-to-end metrics;
  --trace 1  runs the `traced` binary once and reports the per-layer
             metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; progress goes to standard
error. Output digests and traced work counts are remembered per binary in
the target directory, and a run whose digest differs from an earlier run
of the same binary, workload and seed fails its check. Exit status: 0 when
every check held, 1 when one failed, 2 when the benchmark could not be
built or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STUDY_SEED = 536937988
WORKLOADS = ("classic", "faulted_cluster", "scaled_parallel")
SETUP_PROBES = 31
# A run must end within 180 s of its build.
RUN_BUDGET_S = 170
END_TO_END = (
    ("sessions_per_sec", "1/s"),
    ("sim_seconds_per_sec", "s/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("session_fail_share", "share"),
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=880)
    if done.returncode != 0:
        fail(f"build failed with status {done.returncode}")
    log(f"build ready in {time.monotonic() - started:.1f} s")
    return os.path.join(target, "release")


def run_json(cmd, deadline):
    """Runs `cmd`, killing it at `deadline` (a `time.monotonic()` value),
    and parses the last line of its standard output."""
    timeout = deadline - time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd[1:])} did not finish within the run's {RUN_BUDGET_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{' '.join(cmd[1:])} exited with status {done.returncode} "
             f"and printed {done.stdout[-200:]!r}")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class DigestStore:
    """Digests seen earlier, per binary: the same binary, workload and
    seed must reproduce them exactly."""

    def __init__(self, target, binary):
        self.path = os.path.join(target, "perfbench-digests.json")
        self.binary = sha256(binary)
        try:
            with open(self.path) as f:
                self.all = json.load(f)
        except (OSError, ValueError):
            self.all = {}
        self.seen = self.all.setdefault(self.binary, {})

    def check(self, key, digest):
        """A check dict: does `digest` match what `key` had before?"""
        before = self.seen.setdefault(key, digest)
        return {"name": "digest_across_runs", "ok": before == digest,
                "detail": f"{key}: {before} before, {digest} now"}

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.all, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def untraced(args, release, store, deadline):
    campaign = os.path.join(release, "campaign")
    base = [campaign, "--workload", args.workload, "--seed", str(args.seed)]
    probes = [run_json(base + ["--probe"], deadline) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    result = run_json(base + ["--seconds", str(args.seconds)], deadline)
    checks = result["checks"]
    for d in result["digests"]:
        key = f"{args.workload}/output/{d['seed']}"
        checks.append(store.check(key, d["digest"]))
    metrics = dict(result["metrics"])
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, unit in END_TO_END:
        m = metrics[name]
        assert m["unit"] == unit, (name, m["unit"])
        extra = ""
        if name.startswith("session_ms"):
            extra = f" (n={result['session_samples']})"
        elif name == "setup_s":
            extra = f" (median of {SETUP_PROBES} probes)"
        log(f"{name:>20} = {m['value']:.6g} {unit}{extra}")
    raw = dict(result["raw"], setup_s=statistics.median(p["raw_setup_s"] for p in probes))
    log("uncalibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        + f"; host speed {min(result['speeds']):.3f}..{max(result['speeds']):.3f}")
    ordered = {name: metrics[name] for name, _ in END_TO_END}
    return result, checks, ordered


def traced(args, release, store, deadline):
    result = run_json([os.path.join(release, "traced"), "--workload",
                       args.workload, "--seed", str(args.seed)], deadline)
    checks = result["checks"]
    checks.append(store.check(f"{args.workload}/output/{args.seed}", result["output_digest"]))
    checks.append(store.check(f"{args.workload}/work/{args.seed}", result["work_digest"]))
    for name, m in result["metrics"].items():
        log(f"{name:>40} = {m['value']:.6g} {m['unit']}")
    return result, checks, result["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=STUDY_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        fail("--seed must fit in 64 bits and --seconds be at least 1")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    release = build(target)
    deadline = time.monotonic() + RUN_BUDGET_S
    binary = os.path.join(release, "traced" if args.trace else "campaign")
    store = DigestStore(target, binary)
    run = traced if args.trace else untraced
    result, checks, metrics = run(args, release, store, deadline)
    store.save()

    failed = [c for c in checks if not c["ok"]]
    for c in failed:
        log(f"CHECK FAILED {c['name']}: {c['detail']}")
    log(f"{len(checks) - len(failed)} of {len(checks)} checks held")
    correct = bool(result["correct"]) and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
