#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts, and comparison of saved reports.

Interleaved runs (the way to compare two revisions on one box):

    python3 perfbench/ab.py run --a ../lac-parent --b . --workload train-jpeg \
        [--trace 1] [--save ab.jsonl]

Each checkout is built once, into its own .bench_build. Every run lasts
run_seconds of B's BENCHMARK.json, as the gated runs do. Round i of 10
runs both sides on seed 1000 + i, A first on even rounds and B first on
odd ones, so slow drift of the machine hits both sides alike. For every
metric it prints each side's median and quartiles, the ratio B/A, how
many pairs B won, and a verdict:

    better / worse  B wins (loses) at least 9 of the 10 pairs AND the
                    medians differ by more than A's own interquartile
                    range; never "better" when B failed more checked
                    operations than A
    unresolved      anything else

A run whose outputs fail a correctness check is kept and counted: the
totals of failed operations are printed for both sides.

Saved reports (e.g. from two different machines):

    python3 perfbench/ab.py compare a.jsonl b.jsonl

Reports whose hosts differ (cores, CPU model or rustc) are never judged:
the comparison prints the numbers and the verdict "host mismatch".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Pairs per comparison, and the seed of the first.
ROUNDS = 10
SEED = 1000


def directions():
    with open(os.path.join(HERE, "metrics.json")) as fh:
        cat = json.load(fh)
    return {m["name"]: m["better"] for m in cat["end_to_end"] + cat["per_layer"]}


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def host_key(report):
    h = report["host"]
    return (h.get("cores"), h.get("cpu"), h.get("rustc"))


def build(root):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    rc = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                        cwd=root, env=env).returncode
    if rc != 0:
        raise SystemExit(f"ab: build of {root} failed")


def run_seconds(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run_once(root, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"ab: run in {root} failed:\n{out.stderr[-2000:]}")
    report = json.loads(lines[-2])["report"]
    report["result"] = json.loads(lines[-1])
    if not report["result"]["correct"]:
        print(f"ab: run in {root} seed {seed} FAILED {report['result']['failed']} checks: "
              + "; ".join(report["failures"][:3]), file=sys.stderr)
    return report


def judge(a_reports, b_reports, paired):
    better = directions()
    hosts = {host_key(r) for r in a_reports + b_reports}
    mismatch = len(hosts) > 1
    if mismatch:
        print("host mismatch: these reports come from different hosts; no verdict is given")
        for h in sorted(hosts, key=str):
            print(f"  host {h}")
    failed_a = sum(r["result"]["failed"] for r in a_reports)
    failed_b = sum(r["result"]["failed"] for r in b_reports)
    print(f"failed operations: A {failed_a}, B {failed_b}")
    names = sorted(set(a_reports[0]["result"]["metrics"]) & set(b_reports[0]["result"]["metrics"]))
    print(f"{'metric':<36}{'A median [q1, q3]':>30}{'B median [q1, q3]':>30}{'B/A':>8}  {'B wins':>7}  verdict")
    for name in names:
        a = [r["result"]["metrics"][name]["value"] for r in a_reports]
        b = [r["result"]["metrics"][name]["value"] for r in b_reports]
        aq, bq = quartiles(a), quartiles(b)
        ratio = bq[1] / aq[1] if aq[1] else float("nan")
        sign = 1 if better.get(name) == "higher" else -1
        wins = losses = 0
        if paired:
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        n = min(len(a), len(b))
        moved = abs(bq[1] - aq[1]) > (aq[2] - aq[0])
        if mismatch:
            verdict = "host mismatch"
        elif not paired:
            verdict = "unpaired: use `ab.py run`"
        elif n < ROUNDS:
            verdict = f"unresolved: fewer than {ROUNDS} pairs"
        elif wins >= 0.9 * n and moved and failed_b > failed_a:
            verdict = "unresolved: B failed more operations"
        elif wins >= 0.9 * n and moved:
            verdict = "better"
        elif losses >= 0.9 * n and moved:
            verdict = "worse"
        else:
            verdict = "unresolved"
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        wins_s = f"{wins}/{n}" if paired else "-"
        print(f"{name:<36}{fmt(aq):>30}{fmt(bq):>30}{ratio:>8.3f}  {wins_s:>7}  {verdict}")


def cmd_run(args):
    a_root, b_root = os.path.abspath(args.a), os.path.abspath(args.b)
    build(a_root)
    build(b_root)
    seconds = run_seconds(b_root)
    a_reports, b_reports = [], []
    for i in range(ROUNDS):
        seed = SEED + i
        order = [("A", a_root), ("B", b_root)] if i % 2 == 0 else [("B", b_root), ("A", a_root)]
        for side, root in order:
            r = run_once(root, args.workload, seed, seconds, args.trace)
            r["side"] = side
            (a_reports if side == "A" else b_reports).append(r)
            print(f"round {i + 1}/{ROUNDS} {side} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["result"]["metrics"].items()),
                  file=sys.stderr)
    if args.save:
        with open(args.save, "w") as fh:
            for r in a_reports + b_reports:
                fh.write(json.dumps(r) + "\n")
    judge(a_reports, b_reports, paired=True)


def load(path):
    reports = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            r = json.loads(line)
            r = r.get("report", r)
            # Result lines carry no host; their report line precedes them.
            if "host" in r:
                reports.append(r)
    for r in reports:
        if "result" not in r:
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in r["metrics"].items()}
            r["result"] = {"metrics": metrics, "failed": r["failed"]}
    return reports


def cmd_compare(args):
    judge(load(args.a), load(args.b), paired=False)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="interleaved runs of two checkouts")
    r.add_argument("--a", required=True, help="root of the reference checkout")
    r.add_argument("--b", required=True, help="root of the candidate checkout")
    r.add_argument("--workload", required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--save", help="write every report as JSON lines")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare", help="compare two files of saved reports")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(func=cmd_compare)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
