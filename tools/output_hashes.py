"""md5 of every primary output of a fixed set of CLI runs at one seed.

    python3 tools/output_hashes.py --seed 0 > hashes-0.txt

Run it in two checkouts and diff the lists: equal lists mean the two
produce byte-identical datasets, models, checkpoints and CSVs on this set.
The runs, all in this process, from this checkout's ``src/``, with the BLAS
thread count pinned to 1 and every stage but the last seeded with ``--seed N``:

* ``gen-data`` of every environment and dataset tier at 5,000 rows, and of
  pointmass2d ``medium`` at 20,000 rows;
* ``train-dynamics`` (5 members, 32x32, 10 epochs) on both pointmass2d
  ``medium`` sets;
* 600-step desk-size ``train`` of csve, csve_noise, awac and cql_awr on the
  20,000-row set (b128, 32x32, k4, an evaluation every 300 steps), each
  followed by ``eval`` of its checkpoint;
* 50-step paper-size ``train`` of csve and cql_awr on the 5,000-row set
  (b256, 256x256, k10, no evaluation);
* a ``sweep`` of csve over ``tau_budget`` 5 and 10 with the desk model, one
  seed, 200 desk-size steps on the 20,000-row set, so that the model-error
  report reaches a file (``sweep.csv``'s ``model_mean_l2``);
* ``verify-theory --suite all``;
* ``verify-theory`` of three ``argmax_consistency`` trials at seed N + 1,
  all three settings from the entries of ``theory-config.ini`` (hashed
  too) and none by flag, so that a change to how the CLI resolves values
  shows as an md5 change.

Prints one ``md5  path`` line per output file, paths relative to the work
directory, sorted; ``run.log`` holds wall-clock stamps and is left out.
Exits 1 naming the command if one of the runs fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from csve import cli, data, envs  # noqa: E402

DESK_SIZE = ["--batch-size", 128, "--hidden-sizes", "32,32", "--n-action-samples", 4]
DESK = [*DESK_SIZE, "--total-steps", 600, "--log-interval", 100, "--eval-interval", 300,
        "--n-eval", 5]
# the last run's settings; seed N + 1 is never the default 0
THEORY_CONFIG = "[verify-theory]\nsuite = argmax_consistency\ntrials = 3\nseed = {seed}\n"
PAPER = ["--batch-size", 256, "--hidden-sizes", "256,256", "--n-action-samples", 10,
         "--total-steps", 50, "--log-interval", 10, "--no-eval", "true"]


def commands(seed: int, work: Path):
    """The fixed run list, in order: each entry is one ``csve`` argv."""
    runs = []
    for env in envs.ENV_NAMES:
        for tier in data.DATASET_TIERS:
            runs.append(["gen-data", "--env", env, "--tier", tier, "--size", 5000,
                         "--out", work / "data" / f"{env}-{tier}"])
    desk_data = work / "data" / "pointmass2d-medium-20000"
    paper_data = work / "data" / "pointmass2d-medium"
    runs.append(["gen-data", "--env", "pointmass2d", "--tier", "medium", "--size", 20000,
                 "--out", desk_data])
    for name, source in (("desk", desk_data), ("paper", paper_data)):
        runs.append(["train-dynamics", "--data", source, "--members", 5,
                     "--hidden-sizes", "32,32", "--max-epochs", 10,
                     "--out", work / "model" / name])
    for algorithm in ("csve", "csve_noise", "awac", "cql_awr"):
        out = work / "desk" / algorithm
        runs.append(["train", "--data", desk_data, "--model", work / "model" / "desk",
                     "--algorithm", algorithm, *DESK, "--out", out])
        runs.append(["eval", "--data", desk_data, "--checkpoint", out / "checkpoint",
                     "--episodes", 10, "--out", work / "eval" / algorithm])
    for algorithm in ("csve", "cql_awr"):
        runs.append(["train", "--data", paper_data, "--model", work / "model" / "paper",
                     "--algorithm", algorithm, *PAPER, "--out", work / "paper" / algorithm])
    runs.append(["sweep", "--data", desk_data, "--model", work / "model" / "desk",
                 "--param", "tau_budget", "--values", "5,10", "--seeds", 1,
                 *DESK_SIZE, "--total-steps", 200, "--log-interval", 100,
                 "--eval-interval", 100, "--n-eval", 5, "--out", work / "sweep"])
    runs.append(["verify-theory", "--suite", "all", "--out", work / "theory"])
    runs = [[str(a) for a in argv] + ["--seed", str(seed)] for argv in runs]
    return runs + [["verify-theory", "--config", str(work / "theory-config.ini"),
                    "--out", str(work / "theory-config")]]


def hash_lines(work: Path) -> list[str]:
    lines = []
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "run.log":
            digest = hashlib.md5(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(work)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="csve-hashes-") as tmp:
        work = Path(tmp)
        (work / "theory-config.ini").write_text(THEORY_CONFIG.format(seed=args.seed + 1))
        for command in commands(args.seed, work):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli.main(command)
            if code != 0:
                print(f"csve {' '.join(command)} exited {code}", file=sys.stderr)
                return 1
        print("\n".join(hash_lines(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
