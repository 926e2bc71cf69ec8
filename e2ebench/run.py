#!/usr/bin/env python3
"""Build and run the awb repository benchmark (see README.md next to this file).

Run from the repository root:

    python3 e2ebench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

The benchmark is built from source with cargo (into $CARGO_TARGET_DIR, else
e2ebench/target), run once, and its output passed through. The last line of
standard output is the result object; the line before it records the host
(nproc, rustc -V, source revision) next to the workload and seed. A copy of
both goes to e2ebench/results/. Any failure exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_mobile", "plan_frontier")
BUILD_TIMEOUT_S = 600
# The benchmark caps itself at 160 s; this is the backstop.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "awb-e2ebench")


def source_revision():
    """The git commit, or a digest of the sources where there is no git."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    skip = {"target", ".bench_build", ".git", "out", "results", "__pycache__"}
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "e2ebench"):
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else []
        for folder, dirs, files in os.walk(start):
            dirs[:] = sorted(d for d in dirs if d not in skip)
            paths.extend(os.path.join(folder, f) for f in sorted(files))
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


def host():
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "rustc": rustc, "revision": source_revision()}


def main(argv):
    args = parse_args(argv)
    binary = build()
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result line has keys {sorted(result)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        **host(),
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({**record, "result": result}, f, indent=2, sort_keys=True)
        f.write("\n")
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(record, sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main(sys.argv[1:])
