"""Paired A/B timing of one benchmark workload: a base revision against this checkout.

    python3 tools/compare.py --base HEAD~1 --workload certify --pairs 10 --out BENCH.json \
        --hash-seeds 0,1,2

The base revision's committed files are unpacked with ``git archive`` into
a temporary directory (under ``$TMPDIR``), removed at exit.  Each pair runs
``bench/run.py`` once in the base copy and once in this checkout, each side
with its own ``bench/`` and ``src/``, for the run length ``BENCHMARK.json``
sets and at the same seed, the pair's index; even pairs run the base first,
odd pairs this checkout first.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the median of the paired ratios head/base with a
bootstrap 95% interval (the pairs resampled 2,000 times), the share of pairs
the head won (strictly better in the metric's direction) and whether the
medians differ by more than the base's interquartile range.  With
``--hash-seeds``, it then runs ``tools/output_hashes.py --seed s`` in both
checkouts for each listed seed and records the paths whose md5 differ.
The JSON written to ``--out`` holds both shas, a digest of each side's
``src/``, nproc, the numpy version, the BLAS thread setting, every pair,
the summary and the hash diffs.  Exits 1, writing nothing, if a run fails
to produce a result or its checks reject its output (``correct`` false).
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


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``root``; returns its info and result lines."""
    done = subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
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
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--hash-seeds", default="", metavar="S,S",
                        help="seeds to run tools/output_hashes.py at on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        hash_seeds = [int(s) for s in args.hash_seeds.split(",") if s]
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
                pair = {"seed": i, "first": order[0]}
                for side in order:
                    pair[side] = run_side(sides[side], args.workload, i, seconds)
                pairs.append(pair)
                print(f"pair {i + 1}/{args.pairs} seed {i} ({order[0]} first): "
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
              f"median gap exceeds base IQR: {s['median_gap_exceeds_base_iqr']}")
    for side in ("base", "head"):
        failed = sum(p[side]["failed"] for p in pairs)
        print(f"{side}: {failed} failed of {sum(p[side]['attempted'] for p in pairs)} stages")
    record = {"workload": args.workload, "seconds": seconds, "base": base, "head": head,
              "nproc": os.cpu_count(), "numpy": np.__version__,
              "blas_threads": pairs[0]["head"]["info"].get("blas_threads"),
              "pairs": pairs, "summary": summary, "output_hashes_differ": hashes}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
