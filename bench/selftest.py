"""Self-test of the benchmark at toy size (about half a minute):

    python3 bench/selftest.py

First every workload runs end to end through ``run.py --profile toy`` and
must report ``correct`` with no failed operation, untraced and traced.
Then each correctness check runs on the toy outputs, which it must accept,
and on a deliberately corrupted copy, which it must reject.  Exits 0 when
every case behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workload  # noqa: E402
from csve import conservative, nn  # noqa: E402


def end_to_end_cases():
    for name in workload.ROUNDS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--profile", "toy", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
            ok = (result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1)
            yield f"{name} trace={trace} runs and passes its checks", ok, proc.stderr[-300:]


def _edit_bytes(path, fn):
    raw = np.frombuffer(Path(path).read_bytes(), dtype="<f8").copy()
    fn(raw)
    Path(path).write_bytes(raw.tobytes())


def _edit_text(path, old, new):
    Path(path).write_text(Path(path).read_text().replace(old, new))


def _edit_csv(path, row, column, fn):
    """Apply ``fn`` to one field (data row ``row``) of a schema-versioned CSV."""
    lines = Path(path).read_text().splitlines()
    col = lines[1].split(",").index(column)
    fields = lines[2 + row].split(",")
    fields[col] = fn(fields[col])
    lines[2 + row] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


def _edit_json(path, fn):
    doc = json.loads(Path(path).read_text())
    fn(doc)
    Path(path).write_text(json.dumps(doc))


def _scaled_backward(original):
    def backward(self, cache, cotangent):
        grads, input_grad = original(self, cache, cotangent)
        return [g * 1.001 for g in grads], input_grad * 1.001
    return backward


def _shifted_fixed_point(original):
    def fixed_point(*args, **kwargs):
        v, iters = original(*args, **kwargs)
        return type(v)(v.values + 1e-6), iters
    return fixed_point


def corruption_cases(tmp: Path):
    run = workload.Run("desk_csve", 5, "toy", tmp)
    cfg = run.cfg
    ds, model, ev, th = tmp / "data", tmp / "model", tmp / "eval", tmp / "r0"
    out, rerun = tmp / "csve", tmp / "rerun"
    workload.data_and_model(run, tmp, 5)
    run.stage("train", workload.train_argv(cfg, ds, out, "csve", 5, cfg["csve_steps"],
                                            model))
    run.stage("rerun", workload.train_argv(cfg, ds, rerun, "csve", 5, cfg["rerun_steps"],
                                            model))
    run.stage("eval", ["eval", "--data", ds, "--checkpoint", out / "checkpoint",
                       "--episodes", 2, "--seed", 6, "--out", ev])
    certify = workload.Run("certify", 5, "toy", tmp)
    workload.certify_round(certify, 0, first=False)   # one theory.csv per suite in th
    trials = workload.chunk_trials(certify)
    safe, interp = th / "safe_improvement" / "theory.csv", th / "interpolation" / "theory.csv"

    # (case, check, its arguments, corruption: an edit of the outputs or a
    # (name, owner, wrapper) patch of the program)
    cases = [
        ("gen-data: a flipped transition", checks.check_gen_data, (ds, cfg["size"]),
         # record 100's first next-state coordinate (records are 12 floats wide)
         lambda: _edit_bytes(ds / "transitions.bin", lambda r: r.__setitem__(
             100 * 12 + 7, 0.5 - r[100 * 12 + 7]))),
        ("gen-data: a missing row", checks.check_gen_data, (ds, cfg["size"]),
         lambda: Path(ds / "transitions.bin").write_bytes(
             Path(ds / "transitions.bin").read_bytes()[:-12 * 8])),
        ("train-dynamics: a mis-scaled model", checks.check_dynamics, (model, 505),
         lambda: _edit_json(model / "model.json", lambda d: d.__setitem__(
             "out_std", [s * 50 for s in d["out_std"]]))),
        ("train: a NaN loss row", checks.check_metrics, (out / "metrics.csv", "csve"),
         lambda: _edit_csv(out / "metrics.csv", 1, "loss_q", lambda v: "nan")),
        ("train: a negative alpha", checks.check_metrics, (out / "metrics.csv", "csve"),
         lambda: _edit_csv(out / "metrics.csv", 0, "alpha", lambda v: "-0.5")),
        ("train: a same-seed rerun that differs", checks.check_rerun_prefix,
         (out / "metrics.csv", rerun / "metrics.csv"),
         lambda: _edit_csv(rerun / "metrics.csv", 1, "loss_v",
                           lambda v: repr(float(np.nextafter(float(v), np.inf))))),
        ("train: a wrong backward pass", checks.check_gradients, (out / "checkpoint", 5),
         ("backward", nn.Mlp, _scaled_backward)),
        ("eval: a tampered score", checks.check_eval, (ev, ds),
         lambda: _edit_csv(ev / "eval.csv", 0, "score_normalized",
                           lambda v: repr(float(v) + 0.01))),
        ("verify-theory: a tampered theory.csv", checks.check_theory, (th, trials),
         lambda: _edit_text(safe, "true", "false")),
        ("verify-theory: a missing theory.csv row", checks.check_theory, (th, trials),
         lambda: interp.write_text("\n".join(interp.read_text().splitlines()[:-1]) + "\n")),
        ("verify-theory: a fixed point off the solve", checks.check_fixed_point,
         (range(5, 8),), ("csve_fixed_point", conservative, _shifted_fixed_point)),
    ]
    for case, check, args, corrupt in cases:
        try:
            check(*args)
        except checks.CheckFailed as err:
            yield f"{case}: clean output accepted", False, str(err)
            continue
        backup = tmp.parent / f"{tmp.name}-backup"
        shutil.copytree(tmp, backup)
        try:
            if callable(corrupt):
                corrupt()
            else:
                name, owner, wrap = corrupt
                original = getattr(owner, name)
                setattr(owner, name, wrap(original))
            try:
                check(*args)
                rejected, detail = False, "corruption not detected"
            except checks.CheckFailed as err:
                rejected, detail = True, str(err)
        finally:
            if not callable(corrupt):
                setattr(owner, name, original)
            shutil.rmtree(tmp)
            backup.rename(tmp)
        yield f"{case}: clean accepted, corrupted rejected", rejected, detail


def main() -> int:
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        work = Path(tmp) / "toy"
        work.mkdir()
        for case, ok, detail in [*end_to_end_cases(), *corruption_cases(work)]:
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {case}" + (f"  [{detail}]" if detail else ""))
    print(f"{failures} unexpected outcome(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
