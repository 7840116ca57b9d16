"""Benchmark of the csve pipeline: one workload per invocation.

    python3 bench/run.py --workload desk_csve --seed 0 --seconds 25 --trace 0

Workloads: desk_csve, paper_csve, certify (see README.md).  The workload
runs in a child process (``workload.py``) with the BLAS thread count pinned
to 1.  Set-up is sampled ``SETUP_SAMPLES`` times: the workload process
itself plus probe processes that stop once set-up is done; ``setup_s`` is
the median time from process start to the end of set-up.  The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric of a traced run with ``--trace 1``.
Exits non-zero without a result when the program or a workload process
fails, or when the metrics differ from the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_csve", "paper_csve", "certify")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_child(args, work, extra, deadline):
    """Start workload.py; returns (process, seconds until it printed ready)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--profile", args.profile, "--work", str(work),
           *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process timed out") from None
    return out


def manifest_metrics(trace) -> set[str]:
    """Names of the metrics BENCHMARK.json lists for this kind of run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "csve" / "cli.py").is_file():
        print(f"benchmark: no csve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = HERE / "runs"
    work = runs / f"work-{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setup_times = []
        # set-up samples are only reported by the untraced run
        for i in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            proc, ready = start_child(args, work / f"probe{i}", ["--probe"], deadline)
            finish(proc, deadline)
            setup_times.append(ready)
        extra = ["--trace-out", str(runs / f"trace-{args.workload}-seed{args.seed}.json")]
        proc, ready = start_child(args, work / "main", extra if args.trace else [], deadline)
        setup_times.append(ready)
        out = finish(proc, deadline)
    except RuntimeError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        print(f"benchmark: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(out.strip().splitlines()[-1])
    metrics = child["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    expected = manifest_metrics(args.trace)
    if set(metrics) != expected:
        print(f"benchmark: metrics differ from BENCHMARK.json: missing "
              f"{sorted(expected - set(metrics))}, extra {sorted(set(metrics) - expected)}",
              file=sys.stderr)
        return 1
    info = dict(child["info"], workload=args.workload, seed=args.seed,
                setup_samples_s=setup_times, **BLAS_ENV)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
