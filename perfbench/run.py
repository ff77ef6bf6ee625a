#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source, run one
workload, and relay its record.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: batch-conus, serve-update, cluster-recovery (see
perfbench/README.md). The record starts with the run's environment
(nproc, source revision, rustc version, exact command line); the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a separate traced run and
writes its Chrome trace under `.bench_out/`.

Exit status: 0 when every answer was correct; 1 when one was not; 2 on a
usage error or when the tree to build is missing; 3 when the build
fails; 4 when the run exceeds its time limit. Only exit 0 and 1 print a
result line.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["batch-conus", "serve-update", "cluster-recovery"]
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Sources whose content identifies the program under test.
SOURCE_DIRS = ["crates", "shims", "src", "perfbench"]
SOURCE_FILES = ["Cargo.toml"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the program's source files, path and content, so runs
    from checkouts without git history still name the code they ran."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(p)]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            paths.extend(os.path.join(dirpath, f) for f in filenames
                         if f.endswith((".rs", ".toml", ".py")))
    for path in sorted(paths):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20140519)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    missing = [p for p in ["Cargo.toml", "crates", "shims"] if not os.path.exists(p)]
    if missing:
        log(f"missing {', '.join(missing)}: run from the root of a full checkout")
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        log("build failed")
        return 3
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "zonal-perfbench")

    print(f"# command: {shlex.join([os.path.basename(sys.executable)] + sys.argv)}")
    print(f"# nproc: {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    print(f"# git revision: {command_output(['git', 'rev-parse', 'HEAD']) or 'none (not a git checkout)'}")
    print(f"# source digest: {source_digest()}")
    print(f"# rustc: {command_output(['rustc', '--version']) or 'unknown'}")
    sys.stdout.flush()

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1):
        sys.stdout.write("".join(line + "\n" for line in lines if line.startswith("#")))
        log(f"benchmark exited with status {run.returncode}")
        return run.returncode or 1
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
