"""Paired A/B timing of one benchmark workload: a base revision against this checkout.

    python3 tools/compare.py --base HEAD~1 --workload certify --pairs 10 --out BENCH.json \
        --hash-seeds 0,1,2

The base revision's committed files are unpacked with ``git archive`` into
a temporary directory (under ``$TMPDIR``), removed at exit.  Each pair runs
``bench/run.py`` once in the base copy and once in this checkout, each side
with its own ``bench/`` and ``src/``, for the run length ``BENCHMARK.json``
sets and at the same seed, ``--first-seed`` (default 0) plus the pair's
index; even pairs run the base first, odd pairs this checkout first.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the median of the paired ratios head/base with a
bootstrap 95% interval (the pairs resampled 2,000 times), the share of pairs
the head won (strictly better in the metric's direction), whether the
medians differ by more than the base's interquartile range, and whether a
gain may be claimed (``claim_met``: the head won at least nine tenths of the
pairs and its median is better by more than that range).  With
``--hash-seeds``, it then runs ``tools/output_hashes.py --seed s`` in both
checkouts for each listed seed and records the paths whose md5 differ.
Last, it runs one traced run (``--trace 1``, seed 0) per side and prints
the count metrics whose values differ between the two.  The JSON
written to ``--out`` holds both shas, a digest of each side's ``src/``,
nproc, the numpy version, the BLAS thread setting, every pair, the summary,
the hash diffs and both traced runs' metrics.  Exits 1, writing nothing, if
a run fails to produce a result or its checks reject its output (``correct``
false).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_digest(root: Path) -> str:
    """md5 over the sorted paths and bytes of ``src/**/*.py``."""
    digest = hashlib.md5()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in ``root``; returns its info and result lines."""
    done = subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py in {root} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"info": info, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def output_hashes(root: Path, seed: int) -> list[str]:
    """The ``md5  path`` lines of ``tools/output_hashes.py --seed seed`` in ``root``."""
    done = subprocess.run([sys.executable, str(root / "tools" / "output_hashes.py"),
                           "--seed", str(seed)], cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"tools/output_hashes.py in {root} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return done.stdout.splitlines()


def hash_diff(base_lines, head_lines) -> list[str]:
    """Sorted paths whose md5 differs between two ``md5  path`` listings,
    including paths only one of them lists."""
    base, head = ({path: md5 for md5, path in (line.split(None, 1) for line in lines)}
                  for lines in (base_lines, head_lines))
    return sorted(path for path in base.keys() | head.keys() if base.get(path) != head.get(path))


def count_diff(base: dict, head: dict, per_layer) -> list[str]:
    """Names, in ``per_layer`` order, of the metrics of unit ``count`` whose
    values differ between two traced runs' metrics (one side lacking a
    metric counts as a difference)."""
    return [spec["name"] for spec in per_layer
            if spec["unit"] == "count" and base.get(spec["name"]) != head.get(spec["name"])]


def rejected_runs(pairs) -> list[str]:
    """``side seed N`` for each run whose output the benchmark's own checks
    rejected (``correct`` false), in pair order."""
    return [f"{side} seed {pair['seed']}" for pair in pairs for side in ("base", "head")
            if not pair[side]["correct"]]


def bootstrap_interval(ratios, draws: int = 2000) -> tuple[float, float]:
    """2.5% and 97.5% quantiles of the median ratio over ``draws`` resamples
    of the pairs, drawn with ``np.random.default_rng(0)``."""
    ratios = np.asarray(ratios, dtype=float)
    picks = np.random.default_rng(0).integers(0, len(ratios), size=(draws, len(ratios)))
    low, high = np.quantile(np.median(ratios[picks], axis=1), [0.025, 0.975])
    return float(low), float(high)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def claim_met(base, head, lower: bool) -> bool:
    """The choosing-metrics rule for claiming a gain from paired runs: the
    head wins at least nine tenths of all pairs (a tie counts for neither
    side), and its median beats the base median by more than the base's
    interquartile range."""
    won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    (b_q1, b_median, b_q3), h_median = quartiles(base), quartiles(head)[1]
    gap = b_median - h_median if lower else h_median - b_median
    return 10 * won >= 9 * len(base) and gap > b_q3 - b_q1


def summarize(pairs, end_to_end) -> dict:
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        b_q, h_q = quartiles(base), quartiles(head)
        ratios = [h / b for b, h in zip(base, head)]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base_q1_median_q3": list(b_q), "head_q1_median_q3": list(h_q),
            "median_paired_ratio": statistics.median(ratios),
            "median_ratio_ci95": list(bootstrap_interval(ratios)),
            "head_won": won, "pairs": len(pairs),
            "median_gap_exceeds_base_iqr": abs(h_q[1] - b_q[1]) > b_q[2] - b_q[0],
            "claim_met": claim_met(base, head, lower),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--first-seed", type=int, default=0,
                        help="benchmark seed of the first pair; pair i runs at this plus i")
    parser.add_argument("--hash-seeds", default="", metavar="S,S",
                        help="seeds to run tools/output_hashes.py at on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.first_seed < 0:
        parser.error("--first-seed must be at least 0")
    try:
        hash_seeds = [int(s) for s in args.hash_seeds.split(",")] if args.hash_seeds else []
    except ValueError:
        parser.error("--hash-seeds must be comma-separated integers")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        parser.error("--workload must be one of BENCHMARK.json's workloads")
    seconds = manifest["run_seconds"]

    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_md5": src_digest(ROOT)}
    pairs, hashes = [], {}
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        base_root = Path(tmp) / "base"
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_root, filter="data")
        base = {"rev": args.base, "sha": base_sha, "src_md5": src_digest(base_root)}
        sides = {"base": base_root, "head": ROOT}
        try:
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                seed = args.first_seed + i
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(sides[side], args.workload, seed, seconds)
                pairs.append(pair)
                print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                      + ", ".join(f"{s} wall_s {pair[s]['metrics']['wall_s']:.3f}"
                                  for s in ("base", "head")), flush=True)
            rejected = rejected_runs(pairs)
            if rejected:
                raise RuntimeError(f"the benchmark's checks rejected {', '.join(rejected)}")
            for seed in hash_seeds:
                lines = {side: output_hashes(root, seed) for side, root in sides.items()}
                hashes[str(seed)] = {"files": len(lines["head"]),
                                     "differ": hash_diff(lines["base"], lines["head"])}
                print(f"hash seed {seed}: {len(hashes[str(seed)]['differ'])} of "
                      f"{len(lines['head'])} files differ", flush=True)
            traced = {side: run_side(root, args.workload, 0, seconds, trace=1)
                      for side, root in sides.items()}
            rejected = [side for side, run in traced.items() if not run["correct"]]
            if rejected:
                raise RuntimeError(f"the benchmark's checks rejected the traced "
                                   f"{' and '.join(rejected)} run")
        except RuntimeError as err:
            print(f"compare: {err}", file=sys.stderr)
            return 1

    summary = summarize(pairs, manifest["end_to_end"])
    for name, s in summary.items():
        print(f"{name} ({s['unit']}, {s['better']} is better): "
              "base median {1:.4g} [{0:.4g}, {2:.4g}], ".format(*s["base_q1_median_q3"])
              + "head median {1:.4g} [{0:.4g}, {2:.4g}], ".format(*s["head_q1_median_q3"])
              + f"median ratio {s['median_paired_ratio']:.4f} "
              + "[95% CI {:.4f}, {:.4f}], ".format(*s["median_ratio_ci95"])
              + f"head won {s['head_won']}/{s['pairs']}, "
              f"median gap exceeds base IQR: {s['median_gap_exceeds_base_iqr']}, "
              f"claim met: {s['claim_met']}")
    for side in ("base", "head"):
        failed = sum(p[side]["failed"] for p in pairs)
        print(f"{side}: {failed} failed of {sum(p[side]['attempted'] for p in pairs)} stages")
    base_traced, head_traced = traced["base"]["metrics"], traced["head"]["metrics"]
    counts_differ = count_diff(base_traced, head_traced, manifest["per_layer"])
    print("traced run, seed 0, count metrics that differ (base, head): "
          + (", ".join(f"{name} ({base_traced.get(name)}, {head_traced.get(name)})"
                       for name in counts_differ) or "none"))
    record = {"workload": args.workload, "seconds": seconds, "base": base, "head": head,
              "nproc": os.cpu_count(), "numpy": np.__version__,
              "blas_threads": pairs[0]["head"]["info"].get("blas_threads"),
              "pairs": pairs, "summary": summary, "output_hashes_differ": hashes,
              "traced": {"seed": 0, "base": base_traced, "head": head_traced,
                         "counts_differ": counts_differ}}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
