#!/usr/bin/env python3
"""hsda benchmark: raw pen stream to class, and dataset to trained weights.

Run from the repository root:

    python3 perfbench/run.py --workload infer_full --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 35      # every workload, one process each

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``. The line before it holds the run's details and environment.
Without ``--workload`` every workload runs in its own process and a table of
their results is printed. The benchmark imports the program from ``src/``
next to this directory and exits 2 without a result if it is missing.
Each workload pins its BLAS threads (``HSDA_THREADS``) before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# BLAS threads per workload; train_full is the only one where 2 threads pay.
THREADS = {"train_synth": 1, "train_full": 2, "infer_full": 1, "preprocess_raw": 1}
# Workloads this command runs but BENCHMARK.json does not list, and why. On a
# shared 2-vCPU VM every workload slows by 20-40% in phases of 30-80 s, so the
# gated set is kept to two workloads, each run measuring 35 s.
NOT_GATED = {
    "train_synth": "not in BENCHMARK.json: memory-bound per-sample weight updates; "
    "17-28% IQR/median over ten seeds, above the 0.25 bound cap",
    "preprocess_raw": "not in BENCHMARK.json: 10-25% IQR/median over ten seeds; "
    "infer_full gates the same ingest and kinematics calls",
}
RUN_TIMEOUT_S = 180


def _pin_threads(n: int) -> None:
    os.environ["HSDA_THREADS"] = str(n)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(n)


def _commit():
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(workload: str) -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (deps.get("name"), deps.get("version"))
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "hsda_threads": THREADS[workload],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "commit": _commit(),
        "src_lines": _src_lines(),
    }


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "hsda", "__init__.py")):
        print("error: no hsda sources under %s" % SRC, file=sys.stderr)
        return 2
    _pin_threads(THREADS[args.workload])
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (imports numpy, after the thread pin)

    import_s = time.perf_counter() - T_START
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (tag, os.getpid()))
    os.makedirs(work_dir)
    os.makedirs(OUT_ROOT, exist_ok=True)
    correct = True
    try:
        attempted, failed, metrics, detail = workloads.run(
            args.workload,
            args.seed,
            float(args.seconds),
            bool(args.trace),
            args.toy,
            work_dir,
            import_s,
            os.path.join(OUT_ROOT, "spans-%s.jsonl" % tag),
        )
    except workloads.CheckFailed as exc:
        print("output check failed: %s" % exc, file=sys.stderr)
        correct, attempted, failed, metrics, detail = False, 1, 0, {}, {"check": str(exc)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, toy=args.toy)
    detail["env"] = environment(args.workload)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    samples = detail.pop("samples", {})
    with open(os.path.join(OUT_ROOT, "result-%s.json" % tag), "w") as fh:
        json.dump({"detail": detail, "result": result, "samples": samples}, fh)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if correct else 1


E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    from tracing import unit_of

    return unit_of(name)


# The workload-specific name each generic end-to-end metric stands for.
NAMED = {
    "train_synth": {"items_per_s": "train_samples_per_s", "latency_ms_p50": "train_step_ms_p50"},
    "train_full": {"items_per_s": "train_samples_per_s", "latency_ms_p50": "train_step_ms_p50"},
    "infer_full": {"items_per_s": "infer_records_per_s", "latency_ms_p50": "infer_ms_p50", "latency_ms_tail": "infer_ms_tail"},
    "preprocess_raw": {"items_per_s": "preprocess_records_per_s", "latency_ms_p50": "preprocess_file_ms_p50"},
}


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of named metrics."""
    status = 0
    for name in THREADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print("%s: dropped, exit %d: %s" % (name, proc.returncode, proc.stderr.strip()[-500:]))
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        print("== %s (HSDA_THREADS=%d, correct=%s, attempted=%d, failed=%d, fail_frac=%.4f)" % (
            name, detail["env"]["hsda_threads"], result["correct"], result["attempted"],
            result["failed"], detail.get("fail_frac", float("nan"))))
        if name in NOT_GATED:
            print("  note: %s" % NOT_GATED[name])
        for metric, entry in result["metrics"].items():
            alias = NAMED[name].get(metric)
            label = "%s (%s)" % (metric, alias) if alias else metric
            print("  %-44s %14.6g %s" % (label, entry["value"], entry["unit"]))
        if not args.trace and result["correct"]:
            print("  %-44s %14.6g %s" % ("tail percentile", detail["tail_percentile"], "of %d samples" % detail["latency_samples"]))
            if "train.loss_end" in detail:
                print("  %-44s %14.17g" % ("train_loss_end", detail["train.loss_end"]))
    env = environment("train_synth")
    del env["hsda_threads"]
    print("env: %s" % json.dumps(env))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(THREADS), help="one workload; all when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
