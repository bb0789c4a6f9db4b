#!/usr/bin/env python3
"""Repository benchmark: build the OCaml benchmark program from source, run one
workload, check its output, print the result object as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads and metrics are declared in
BENCHMARK.json; perfbench/layers.json says which end-to-end metric each
per-layer metric should move. Exit codes: 2 not a buildable checkout or
bad arguments, 3 a safety violation, 4 malformed output, 5 a simulated
metric differs from an earlier run of the same build and seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die(2, f"{ROOT} holds no dune project with lib/: nothing to build")
    dune = [shutil.which("dune")] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # the shared dune cache lives outside the checkout: keep the build inside it
    built = subprocess.run(
        dune + ["build", "--root", ROOT, "--cache=disabled", "-j", "2", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        die(2, "build failed")


def check_result(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(4, f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        die(4, "result not correct or nothing attempted")
    printed = result["metrics"]
    if set(printed) != set(expected):
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        die(4, f"metrics missing {missing}, undeclared {extra}")
    for name, unit in expected.items():
        entry = printed[name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            die(4, f"metric {name}: {entry} (declared unit {unit})")


def check_determinism(args, detail):
    """Simulated metrics are a function of the seed: a second run of the
    same build with the same seed must reproduce them bit for bit."""
    with open(EXE, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    tag = f"{build_id}-{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    path = os.path.join(STATE, "simulated", tag + ".json")
    simulated = detail["simulated"]
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != simulated:
            die(5, f"simulated metrics differ from an earlier run with seed {args.seed}: "
                   f"{earlier} vs {simulated}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(simulated, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(2, f"unknown workload {args.workload}")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        os.makedirs(STATE, exist_ok=True)
        cmd += ["--spans-out", os.path.join(STATE, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        die(4, "benchmark exceeded 175 s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        die(run.returncode if run.returncode > 0 else 1, f"benchmark exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])
    except (IndexError, ValueError) as e:
        die(4, f"unreadable output: {e}")
    kind = "per_layer" if args.trace else "end_to_end"
    check_result(result, {m["name"]: m["unit"] for m in bench[kind]})
    if not args.trace:
        check_determinism(args, detail)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
