"""One benchmark workload, run in its own process.

Started by ``run.py``.  Set-up (imports and, for ``paper_csve``, the inputs
that are not measured) ends with a line ``ready`` on stdout; the parent
times process start to that line.  With ``--probe`` the process stops
there.  Otherwise it runs whole rounds of the workload's CLI stages through
``csve.cli.main``, times each stage from outside, checks each stage's
outputs with ``checks.py`` (untimed), and prints one JSON line.

Each round r of a run with seed S seeds its stages from 1000 * S and r.
With ``--trace 1`` each round runs untraced and then again, with the same
seed, under the tracer; the traced halves give the per-layer metrics and
the paired wall-time ratio gives the tracer's overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from csve import cli, theory  # noqa: E402

MODULES = {name: importlib.import_module(f"csve.{name}") for name in spans.LAYERS}

# Sizes per profile; "toy" is the self-test's.
PROFILES = {
    "full": {
        "desk_csve": dict(size=20_000, members=5, member_hidden="32,32", max_epochs=10,
                          csve_steps=1200, cql_steps=1000, rerun_steps=200,
                          log_interval=100, episodes=20,
                          batch=128, hidden="32,32", k=4),
        "paper_csve": dict(size=5_000, members=5, member_hidden="32,32", max_epochs=5,
                           csve_steps=50, rerun_steps=20, log_interval=10,
                           batch=256, hidden="256,256", k=10),
        "certify": dict(trials=None, chunks=10),
    },
    "toy": {
        "desk_csve": dict(size=2_000, members=2, member_hidden="16,16", max_epochs=3,
                          csve_steps=40, cql_steps=30, rerun_steps=20,
                          log_interval=10, episodes=2,
                          batch=32, hidden="16,16", k=2),
        "paper_csve": dict(size=1_000, members=2, member_hidden="16,16", max_epochs=3,
                           csve_steps=10, rerun_steps=4, log_interval=2,
                           batch=32, hidden="32,32", k=3),
        "certify": dict(trials=3, chunks=1),
    },
}
FIT_BATCH = 256          # dynamics.EnsembleConfig.batch_size default
HOLDOUT_FRACTION = 0.1   # dynamics.EnsembleConfig.holdout_fraction default


class StageFailed(Exception):
    pass


class Run:
    """State of one workload run: where it writes, what it has counted."""

    def __init__(self, workload, seed, profile, work: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.cfg = PROFILES[profile][workload]
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.theory_flags: dict[str, list[bool]] = {}
        self.first_round_rss_mb = 0.0
        self.log = work / "cli.log"

    def stage(self, label, argv, counted=True) -> float:
        """Run one CLI command in-process; returns its wall time.  Only
        ``counted`` stages are measured operations."""
        if self.tracer:
            self.tracer.stage = label
        self.attempted += counted
        with open(self.log, "a") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            start = time.perf_counter()
            code = cli.main([str(a) for a in argv])
            elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.stage = "check"
        if code != 0:
            self.failed += counted
            raise StageFailed(f"{label} exited {code}")
        return elapsed

    def check(self, label, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as err:
            self.failures.append(f"{label}: {err}")


def train_argv(cfg, data_dir, out, algorithm, seed, steps, model=None):
    argv = ["train", "--data", data_dir, "--algorithm", algorithm,
            "--batch-size", cfg["batch"], "--hidden-sizes", cfg["hidden"],
            "--n-action-samples", cfg["k"], "--log-interval", cfg["log_interval"],
            "--total-steps", steps, "--no-eval", "true", "--seed", seed, "--out", out]
    return argv + (["--model", model] if model else [])


def _fit_facts(model_dir, size):
    """Epochs run, kept (best-holdout) epochs and bootstrap rows consumed,
    summed over members, from nll_history.csv."""
    rows = checks.read_csv_rows(Path(model_dir) / "nll_history.csv")
    holdout: dict[str, list[float]] = {}
    for row in rows:
        holdout.setdefault(row["member"], []).append(float(row["holdout_nll"]))
    epochs = kept = 0
    for hist in holdout.values():
        best, best_epoch = math.inf, -1
        for epoch, value in enumerate(hist):
            if value < best - 1e-6:
                best, best_epoch = value, epoch
        epochs += len(hist)
        kept += best_epoch + 1
    n_train = size - max(1, int(round(HOLDOUT_FRACTION * size)))
    return {"epochs": epochs, "kept": kept, "rows": n_train * epochs,
            "minibatches": epochs * math.ceil(n_train / FIT_BATCH)}


def _check_training(run, label, data_dir, out, algorithm, seed, model=None):
    """Round-0 checks of a train stage: gradients at its layer sizes and a
    same-seed short rerun."""
    cfg = run.cfg
    run.check(label, checks.check_gradients, Path(out) / "checkpoint", seed)
    rerun = run.work / f"rerun-{algorithm}"
    try:
        run.stage(f"rerun:{algorithm}", train_argv(cfg, data_dir, rerun, algorithm, seed,
                                                    cfg["rerun_steps"], model), counted=False)
    except StageFailed as err:
        run.failures.append(f"{label} rerun: {err}")
        return
    run.check(label, checks.check_rerun_prefix, Path(out) / "metrics.csv",
              rerun / "metrics.csv")


# ---------------------------------------------------------------------------
# Workloads: set-up, then one round
# ---------------------------------------------------------------------------

def data_and_model(run, d, seed, counted=True):
    """gen-data into d/data, then train-dynamics into d/model; returns the
    two stage times."""
    cfg = run.cfg
    return (run.stage("gen-data", [
                "gen-data", "--env", "pointmass2d", "--tier", "medium", "--size", cfg["size"],
                "--seed", seed, "--out", d / "data"], counted),
            run.stage("train-dynamics", [
                "train-dynamics", "--data", d / "data", "--members", cfg["members"],
                "--hidden-sizes", cfg["member_hidden"], "--max-epochs", cfg["max_epochs"],
                "--seed", seed, "--out", d / "model"], counted))


def check_data_and_model(run, d, seed):
    run.check("gen-data", checks.check_gen_data, d / "data", run.cfg["size"])
    run.check("train-dynamics", checks.check_dynamics, d / "model", seed + 500)


def setup(run):
    """Inputs that are not measured: paper_csve's dataset and ensemble."""
    if run.workload == "paper_csve":
        data_and_model(run, run.work / "inputs", run.seed, counted=False)


def check_setup(run):
    if run.workload == "paper_csve":
        check_data_and_model(run, run.work / "inputs", run.seed)


def desk_round(run, r, first):
    cfg, base = run.cfg, 1000 * run.seed + r
    d = run.work / f"r{r}"
    ds, model, ev = d / "data", d / "model", d / "eval"
    out = {alg: d / alg for alg in ("csve", "cql_awr")}
    t = {}
    t["gen-data"], t["train-dynamics"] = data_and_model(run, d, base)
    t["train:csve"] = run.stage("train:csve", train_argv(
        cfg, ds, out["csve"], "csve", base, cfg["csve_steps"], model))
    t["train:cql_awr"] = run.stage("train:cql_awr", train_argv(
        cfg, ds, out["cql_awr"], "cql_awr", base, cfg["cql_steps"]))
    t["eval"] = run.stage("eval", [
        "eval", "--data", ds, "--checkpoint", out["csve"] / "checkpoint",
        "--episodes", cfg["episodes"], "--seed", base + 1, "--out", ev])

    facts = {"stages": t, "fit": _fit_facts(model, cfg["size"]),
             "dataset_mb": sum((ds / f).stat().st_size
                               for f in ("meta.json", "transitions.bin")) / 2 ** 20}
    check_data_and_model(run, d, base)
    for alg in ("csve", "cql_awr"):
        run.check(f"train {alg}", checks.check_metrics, out[alg] / "metrics.csv", alg)
    run.check("eval", checks.check_eval, ev, ds)
    if first:
        _check_training(run, "train csve", ds, out["csve"], "csve", base, model)
        _check_training(run, "train cql_awr", ds, out["cql_awr"], "cql_awr", base)
    return facts


def paper_round(run, r, first):
    cfg, base = run.cfg, 1000 * run.seed + r
    inputs, out = run.work / "inputs", run.work / f"r{r}" / "csve"
    t = {"train:csve": run.stage("train:csve", train_argv(
        cfg, inputs / "data", out, "csve", base, cfg["csve_steps"], inputs / "model"))}
    run.check("train csve", checks.check_metrics, out / "metrics.csv", "csve")
    if first:
        _check_training(run, "train csve", inputs / "data", out, "csve", base,
                        inputs / "model")
    return {"stages": t}


def certify_round(run, r, first):
    """One chunk of the certification: each suite through its own
    ``verify-theory --suite <suite>`` at 1/chunks of its default trial count,
    its trial seeds continuing where round r - 1 stopped; rounds 0 to
    chunks - 1 together are ``verify-theory --suite all --seed 1000*S``."""
    base, d, t = 1000 * run.seed, run.work / f"r{r}", {}
    trials = chunk_trials(run)
    for suite, n in trials.items():
        t[f"verify-theory:{suite}"] = run.stage(f"verify-theory:{suite}", [
            "verify-theory", "--suite", suite, "--trials", n, "--seed", base + r * n,
            "--out", d / suite])
    try:
        for suite, flags in checks.theory_flags(d, trials).items():
            run.theory_flags.setdefault(suite, []).extend(flags)
    except checks.CheckFailed as err:
        run.failures.append(f"verify-theory: {err}")
    if first:
        run.check("verify-theory", checks.check_fixed_point, range(base, base + 3))
    return {"stages": t}


def chunk_trials(run):
    """Trials of each suite in one round: 1/chunks of a full certification."""
    return {name: (run.cfg["trials"] or theory.DEFAULT_TRIALS[name]) // run.cfg["chunks"]
            for name in theory.SUITES}


def finish_run(run):
    """Checks over the whole run: the certification's pooled pass rates."""
    if run.workload == "certify":
        run.check("verify-theory", checks.check_pass_rates, run.theory_flags)


ROUNDS = {"desk_csve": desk_round, "paper_csve": paper_round, "certify": certify_round}


def run_round(run, r):
    """One round; None when a stage failed (counted in ``run.failed``)."""
    try:
        return ROUNDS[run.workload](run, r, first=(r == 0))
    except StageFailed as err:
        print(f"round {r}: {err}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(run.work / f"r{r}", ignore_errors=True)
        if r == 0:
            run.first_round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(run, seconds, one_round=run_round):
    """Whole rounds until the next one would overrun ``seconds``; at least one."""
    results, durations, start = [], [], time.perf_counter()
    while True:
        began = time.perf_counter()
        result = one_round(run, len(durations))
        if result is not None:
            results.append(result)
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.mean(durations) > seconds:
            return results


def traced_pair(run, r):
    """Round r untraced, then again under the tracer: the two halves of a
    pair run close together, so drift in machine speed mostly cancels from
    the overhead."""
    plain = run_round(run, r)
    run.tracer.install(MODULES)
    try:
        traced = run_round(run, r)
    finally:
        run.tracer.uninstall()
    return (plain, traced) if plain and traced else None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(run, results):
    """wall_s is the median round's summed stage time; peak_rss_mb the
    workload process's peak resident set through set-up and round 0.  Later
    rounds are left out of the peak: they repeat in one process what a user
    runs as separate commands, and the allocator's heap grows by a few MB a
    round at desk size, so a peak over the whole run would follow the round
    count, that is the host's speed."""
    return {
        "wall_s": (statistics.median(sum(r["stages"].values()) for r in results), "s"),
        "peak_rss_mb": (run.first_round_rss_mb, "MB"),
    }


# name: (CLI stage, unit, the work one round's stage does)
STAGE_RATES = {
    "gen_data_rows_per_s": ("gen-data", "rows/s", lambda run, res: run.cfg["size"]),
    "dynamics_fit_rows_per_s": ("train-dynamics", "rows/s",
                                lambda run, res: res["fit"]["rows"]),
    "csve_steps_per_s": ("train:csve", "steps/s", lambda run, res: run.cfg["csve_steps"]),
    "cql_awr_steps_per_s": ("train:cql_awr", "steps/s", lambda run, res: run.cfg["cql_steps"]),
    "certify_trials_per_s": ("verify-theory", "trials/s",
                             lambda run, res: sum(chunk_trials(run).values())),
}


def stage_rates(run, results):
    """Work per second of each CLI stage, over its time summed across the
    rounds of the run; 0 for a stage the workload does not run."""
    rates = {}
    for name, (stage, unit, work) in STAGE_RATES.items():
        seconds = sum(t for res in results for label, t in res["stages"].items()
                      if label == stage or label.startswith(stage + ":"))
        done = sum(work(run, res) for res in results) if seconds else 0.0
        rates[name] = (_div(done, seconds), unit)
    return rates


def _div(num, den):
    return num / den if den else 0.0


def per_layer(run, results):
    """Per-layer figures from the traced rounds.  Every workload prints the
    same metrics, so a layer it does not run reads 0.  Times are shares (%)
    of the traced rounds' summed stage time; counts are per training step
    or per round."""
    tr, cfg, rounds = run.tracer, run.cfg, len(results)
    wall = sum(sum(res["stages"].values()) for res in results)

    def pct(seconds):
        return (100.0 * seconds / wall, "%")

    timed = sorted({stage for res in results for stage in res["stages"]})
    csve_st, cql_st, gd = ["train:csve"], ["train:cql_awr"], ["gen-data"]
    vt = [stage for stage in timed if stage.startswith("verify-theory")]
    train = csve_st + cql_st
    steps_csve = cfg.get("csve_steps", 0) * rounds
    steps_cql = cfg.get("cql_steps", 0) * rounds
    steps = steps_csve + steps_cql
    m = {}

    fwd = ("nn.Mlp.forward_cache", "nn.Mlp.forward")
    fwd_s = sum(tr.self_time(train, n) for n in fwd)
    bwd_s = tr.self_time(train, "nn.Mlp.backward")
    flop = tr.count(train, "nn.flop")
    m["nn.forward_calls_per_step"] = (_div(tr.calls(train, fwd[0]), steps), "count")
    m["nn.backward_calls_per_step"] = (_div(tr.calls(train, "nn.Mlp.backward"), steps), "count")
    m["nn.adam_calls_per_step"] = (_div(tr.calls(train, "nn.adam_step"), steps), "count")
    m["nn.forward_pct"] = pct(fwd_s)
    m["nn.backward_pct"] = pct(bwd_s)
    m["nn.adam_pct"] = pct(tr.self_time(train, "nn.adam_step"))
    m["nn.polyak_pct"] = pct(tr.self_time(train, "nn.polyak_update"))
    m["nn.gflop_per_step"] = (_div(flop, steps) / 1e9, "GFLOP")
    m["nn.achieved_gflops"] = (_div(flop, fwd_s + bwd_s) / 1e9, "GFLOP/s")

    ens = "dynamics.EnsembleDynamicsModel."
    m["dynamics.member_passes_per_step"] = (
        _div(tr.count(csve_st, "dynamics.member_passes"), steps_csve), "count")
    m["dynamics.sample_pct"] = pct(tr.incl(csve_st, ens + "sample_next_batch"))
    m["dynamics.action_grad_pct"] = pct(
        tr.incl(csve_st, ens + "mean_prediction_with_action_grad")
        + tr.incl(csve_st, "dynamics.action_grad_pullback"))
    fit = [res["fit"] for res in results if "fit" in res]
    m["dynamics.fit_pct"] = pct(tr.incl(["train-dynamics"], "dynamics.train_ensemble"))
    m["dynamics.fit_epochs"] = (_div(sum(f["epochs"] for f in fit), len(fit)), "count")
    m["dynamics.fit_kept_epoch_ratio"] = (
        _div(sum(f["kept"] for f in fit), sum(f["epochs"] for f in fit)), "ratio")

    m["agent.v_loss_pct"] = pct(tr.incl(csve_st, "agent._v_loss_impl"))
    m["agent.q_loss_pct"] = pct(tr.incl(csve_st, "agent.q_loss"))
    m["agent.policy_loss_pct"] = pct(tr.incl(csve_st, "agent.explore_policy_loss")
                                     + tr.incl(csve_st, "agent.awr_policy_loss"))
    m["agent.cql_critic_pct"] = pct(tr.incl(cql_st, "agent.cql_critic_loss"))
    m["agent.cql_actor_pct"] = pct(tr.incl(cql_st, "agent.cql_actor_loss"))
    m["agent.loop_self_pct"] = pct(tr.self_time(train, "agent.train_agent"))
    m["agent.checkpoint_write_pct"] = pct(tr.incl(train, "agent.save_agent"))
    m["agent.penalty_active_step_ratio"] = (
        _div(tr.count(csve_st, "agent.penalty_active_steps"), steps_csve), "ratio")

    env_steps = tr.count(gd, "envs.steps")
    m["envs.env_steps_per_s"] = (_div(env_steps, tr.incl(gd, "envs.rollout")), "1/s")
    m["envs.eval_episodes_per_s"] = (
        _div(tr.calls(["eval"], "envs.rollout"), tr.incl(["eval"], "envs.evaluate_policy")),
        "1/s")
    m["data.anchor_step_share"] = (_div(tr.count(gd, "envs.anchor_steps"), env_steps), "ratio")
    m["data.dataset_write_pct"] = pct(tr.incl(gd, "data.save_dataset"))
    m["data.dataset_read_pct"] = pct(tr.incl(timed, "data.load_dataset"))
    sizes = [res["dataset_mb"] for res in results if "dataset_mb" in res]
    m["data.dataset_mb"] = (_div(sum(sizes), len(sizes)), "MB")

    for suite, name in spans.SUITE_RUNNERS.items():
        m[f"theory.{suite}_pct"] = pct(tr.incl(vt, name))
    for suite in ("value_lower_bound_d_exact", "value_lower_bound_d"):
        m[f"theory.{suite}_pct"] = pct(tr.count(vt, f"theory.{suite}_s"))
    m["theory.rollout_dataset_pct"] = pct(tr.incl(vt, "theory._rollout_tabular_dataset"))
    m["tabular.sample_dataset_pct"] = pct(tr.incl(vt, "tabular.sample_dataset"))
    m["tabular.sampled_transitions"] = (
        tr.count(vt, "tabular.sampled_transitions") / rounds, "count")
    m["conservative.fixed_point_pct"] = pct(tr.incl(vt, "conservative.csve_fixed_point"))
    m["conservative.fixed_point_sweeps"] = (tr.count(vt, "conservative.sweeps") / rounds,
                                            "count")
    distinct = len({args for stage, v in tr.instances.items() if stage in vt for args in v})
    m["theory.unique_instance_ratio"] = (
        _div(distinct, tr.calls(vt, "theory.make_instance")), "ratio")
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, args.profile, args.work, tracer)
    setup(run)
    print("ready", flush=True)
    if args.probe:
        return 0
    check_setup(run)

    info = {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if tracer is None:
        results = run_rounds(run, args.seconds)
    else:
        pairs = run_rounds(run, args.seconds, traced_pair)
        results = [traced for _, traced in pairs]
        untraced = [plain for plain, _ in pairs]
    if not results:
        print("benchmark: no round completed", file=sys.stderr)
        return 1
    finish_run(run)
    info["rounds"] = len(results)
    rates = stage_rates(run, results if tracer is None else untraced)
    info["stage_rates"] = {name: value for name, (value, _) in rates.items() if value}
    if tracer is None:
        metrics = end_to_end(run, results)
    else:
        missing = tracer.missing
        if missing:
            print(f"trace: not wrapped, gone from the package (their metrics read 0): "
                  f"{', '.join(missing)}", file=sys.stderr)
        metrics = per_layer(run, results)
        metrics.update((f"cli.{name}", rate) for name, rate in rates.items())
        walls = [[sum(res["stages"].values()) for res in pair] for pair in pairs]
        metrics["trace.untraced_wall_s"] = (statistics.median(u for u, _ in walls), "s")
        metrics["trace.traced_wall_s"] = (statistics.median(t for _, t in walls), "s")
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(t / u for u, t in walls) - 1.0), "%")
        info["missing_wrapped"] = missing
        if args.trace_out:
            args.trace_out.write_text(json.dumps(tracer.dump(), indent=1) + "\n")
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
