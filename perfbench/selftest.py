#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that every workload prints every declared metric with its unit in
both passes, that simulated metrics repeat bit for bit for one seed, that
layers.json covers exactly the declared per-layer metrics, and that the
correctness gate trips on records with a planted violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORK = os.path.join(ROOT, ".perfbench", "selftest")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace):
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        return run.returncode, None, None
    return run.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def gate(record):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "record.json")
    with open(path, "w") as f:
        json.dump(record, f)
    return subprocess.run([EXE, "--check-record", path], capture_output=True).returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["metrics"]
    names = {m["name"] for m in declared["per_layer"]}
    check(set(layers) == names, "layers.json maps exactly the declared per-layer metrics")

    for w in declared["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = bench(w["name"], 7, trace)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {} if result is None else {
                k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and got == want,
                  f"{w['name']} --trace {trace}: every {kind} metric printed with its unit")
        first = bench(w["name"], 11, 0)
        second = bench(w["name"], 11, 0)
        check(first[0] == 0 and second[0] == 0 and first[1]["simulated"] == second[1]["simulated"],
              f"{w['name']}: simulated metrics bit-identical for one seed")

    fine = {"kind": "consensus", "proposals": [0, 1, 0, 1], "correct": [0, 1, 2, 3],
            "decisions": [[0, 1], [1, 1], [2, 1], [3, 1]]}
    check(gate(fine) == 0, "gate passes a clean consensus record")
    split = dict(fine, decisions=[[0, 1], [1, 0], [2, 1], [3, 1]])
    check(gate(split) == 3, "gate trips on a planted agreement violation")
    invalid = dict(fine, proposals=[1, 1, 1, 1], decisions=[[0, 0], [1, 0], [2, 0], [3, 0]])
    check(gate(invalid) == 3, "gate trips on a planted validity violation")
    log = {"kind": "log", "sequences": [["0:skip", "1:ab"], ["0:skip", "1:ab", "2:cd"]]}
    check(gate(log) == 0, "gate passes log sequences that agree on their common prefix")
    forked = {"kind": "log", "sequences": [["0:skip", "1:ab"], ["0:skip", "1:cd"]]}
    check(gate(forked) == 3, "gate trips on two nodes delivering different slot sequences")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
