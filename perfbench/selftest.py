#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the names the benchmark emits: every name
matches ``[A-Za-z0-9_.-]+``, every per-layer metric has an entry in
``tracing.MOVES``, and a toy-size run of every workload, untraced and
traced, prints exactly the declared metrics, each with its declared unit.
It also checks that a directory holding only BENCHMARK.json and this
directory makes the benchmark exit non-zero without a result. Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMEOUT_S = 180


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    errors = []

    def expect(cond, message):
        if not cond:
            errors.append(message)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracing import MOVES  # imports hsda from src/

    groups = {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for g in groups.values() for m in g]
    for name in names:
        expect(NAME_RE.fullmatch(name) is not None, "name %r has characters outside [A-Za-z0-9_.-]" % name)
    expect(len(names) == len(set(names)), "a name is used twice")
    for m in groups["end_to_end"] + groups["per_layer"]:
        expect(UNIT_RE.fullmatch(m["unit"]) is not None, "unit %r of %s" % (m["unit"], m["name"]))
    per_layer = {m["name"] for m in groups["per_layer"]}
    expect(per_layer == set(MOVES), "per_layer and tracing.MOVES differ: %s" % sorted(per_layer ^ set(MOVES)))

    from run import THREADS

    expect({w["name"] for w in spec["workloads"]} <= set(THREADS), "BENCHMARK.json lists an unknown workload")
    for workload in THREADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                errors.append("%s exited %d: %s" % (where, proc.returncode, proc.stderr[-400:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s: keys %s" % (where, sorted(result)))
            expect(result["correct"] is True, "%s: output check failed" % where)
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "%s: attempted" % where)
            emitted = result["metrics"]
            declared = {m["name"]: m["unit"] for m in groups[group]}
            expect(set(emitted) == set(declared), "%s: emitted and declared names differ: %s"
                   % (where, sorted(set(emitted) ^ set(declared))))
            for name, entry in emitted.items():
                expect(entry.get("unit") == declared.get(name), "%s: %s has unit %r, declared %r"
                       % (where, name, entry.get("unit"), declared.get(name)))
                value = entry.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value), "%s: %s = %r" % (where, name, value))
                if group == "end_to_end":
                    expect(value > 0, "%s: end-to-end %s is %r, must never be 0" % (where, name, value))

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    for e in errors:
        print("FAIL", e)
    print("selftest: %s (%d problems)" % ("ok" if not errors else "failed", len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
