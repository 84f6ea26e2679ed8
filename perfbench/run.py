#!/usr/bin/env python3
"""Build the LAC benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <train-jpeg|sweep-cnn|serve-blur|serve-mix>
                             --seed N --seconds S --trace 0|1 [--smoke]

The program is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). Its standard output passes through unchanged: the last
line is the JSON result, the line before it the full report. The exit
code is the program's, or 2 when there is no repository to build.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-jpeg", "sweep-cnn", "serve-blur", "serve-mix")
# Files the benchmark builds from; without them there is nothing to run.
REQUIRED = (
    "Cargo.toml",
    "crates/lac-core/Cargo.toml",
    "crates/lac-serve/Cargo.toml",
    "crates/lac-bench/Cargo.toml",
)
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def source_hash():
    """SHA-256 over the benchmarked sources: identifies the code without git."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    files = []
    for r in roots:
        path = os.path.join(ROOT, r)
        if os.path.isfile(path):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            for f in filenames:
                if f.endswith((".rs", ".toml", ".lock", ".json", ".py")):
                    files.append(os.path.relpath(os.path.join(dirpath, f), ROOT))
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true", help="smoke sizes, for the self-tests")
    args = ap.parse_args()

    missing = [r for r in REQUIRED if not os.path.isfile(os.path.join(ROOT, r))]
    if missing:
        print(f"perfbench: not a LAC checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("LAC_")}
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(ROOT, target, "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rustc", command_output(["rustc", "--version"]),
        "--revision", command_output(["git", "rev-parse", "HEAD"]),
        "--source", source_hash(),
    ]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
