#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py            # everything (about two minutes)
    python3 perfbench/selftest.py --quick    # no workload smoke runs

Checks, in order:
  1. BENCHMARK.json keeps the benchmark contract (keys, name and unit
     alphabets, caps of 16 end-to-end and 128 per-layer metrics, bounds)
     and agrees with perfbench/metrics.json.
  2. The Rust unit tests pass, among them the open-loop generator
     keeping schedule at a trivial rate with every response correct.
  3. Every workload, at smoke size, untraced and traced, prints a result
     line with exactly the expected keys and metrics and fail_frac 0.
  4. In a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest: FAILED: {msg}")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        raw = fh.read()
    check(len(raw.encode()) <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")
    bm = json.loads(raw)
    check(set(bm) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(bm)}")
    check(1 <= len(bm["command"]) <= 32 and all(len(c) <= 200 for c in bm["command"]), "command shape")
    check(1 <= len(bm["paths"]) <= 16 and all(PATH.match(p) and ".." not in p for p in bm["paths"]), "paths")
    check(isinstance(bm["run_seconds"], int) and 1 <= bm["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bm["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(bm["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(bm["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in bm["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    for m in bm["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(m)}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in bm["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer keys {sorted(m)}")
        names.append(m["name"])
    for m in bm["end_to_end"] + bm["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    check(all(NAME.match(n) for n in names), "names match [A-Za-z0-9_.-], at most 64")
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in bm["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s in seconds, lower")
    check(setup[0]["bound"] >= max(m["bound"] for m in bm["end_to_end"]), "setup_s has the largest bound")

    with open(os.path.join(HERE, "metrics.json")) as fh:
        cat = json.load(fh)
    strip = lambda ms, keys: [{k: m[k] for k in keys} for m in ms]
    catalog_whys = {w["name"]: w["why"] for w in cat["workloads"]}
    check(all(catalog_whys.get(w["name"]) == w["why"] for w in bm["workloads"]),
          "every gated workload is in metrics.json with the same reason")
    check(strip(cat["end_to_end"], ("name", "unit", "better"))
          == strip(bm["end_to_end"], ("name", "unit", "better")), "end_to_end agrees with metrics.json")
    check(strip(cat["per_layer"], ("name", "unit", "better")) == bm["per_layer"], "per_layer agrees with metrics.json")
    print("selftest: contract ok")
    return bm


def rust_tests():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    rc = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env,
    ).returncode
    check(rc == 0, "Rust unit tests")
    print("selftest: unit tests ok")


def smoke(bm):
    """Every workload of the catalog, gated or not."""
    want = {"0": {m["name"] for m in bm["end_to_end"]}, "1": {m["name"] for m in bm["per_layer"]}}
    with open(os.path.join(HERE, "metrics.json")) as fh:
        workloads = json.load(fh)["workloads"]
    for w in workloads:
        for trace in ("0", "1"):
            out = subprocess.run(
                ["python3", os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", "7",
                 "--seconds", "2", "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            label = f"{w['name']} --trace {trace}"
            check(out.returncode == 0, f"{label} exited {out.returncode}: {out.stderr[-2000:]}")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} not correct: {report['failures']}")
            check(report["named_metrics"]["fail_frac"]["value"] == 0, f"{label} fail_frac")
            check(set(result["metrics"]) == want[trace], f"{label} metric set")
            for name, m in result["metrics"].items():
                check(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)), f"{label} {name}")
            print(f"selftest: smoke {label} ok")


def lonely():
    """run.py must fail cleanly where there is no repository to build."""
    tmp = os.path.join(ROOT, ".perfbench-work", "selftest-lonely")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "train-jpeg", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        check(out.returncode != 0, "run.py succeeded without a repository")
        check(not out.stdout.strip(), "run.py printed a result without a repository")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: lonely directory ok")


def main():
    bm = contract()
    rust_tests()
    lonely()
    if "--quick" not in sys.argv:
        smoke(bm)
    print("selftest: all ok")


if __name__ == "__main__":
    main()
