"""Command-line harness: dataset generation, model and agent training,
evaluation, theory certification and hyper-parameter sweeps.

Subcommands: gen-data, train-dynamics, train, eval, verify-theory, sweep.
Common flags: --config PATH (INI file with one section per command; explicit
flags win), --seed N, --out DIR.  Exit codes: 0 success, 2 configuration
error, 3 training divergence, 4 I/O failure.

Primary outputs (CSVs, binary checkpoints, meta JSON) are byte-identical
across reruns with the same inputs and seed; wall-clock timestamps go only
to ``run.log``.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import agent, data, dynamics, envs, theory
from .errors import ConfigError, CorruptFileError, CsveError, DivergenceError

CSV_SCHEMA_VERSION = 1
METRIC_COLUMNS = ("step", "loss_v", "loss_q", "loss_pi", "alpha", "v_gap",
                  "eval_return_mean", "eval_return_std")
THEORY_COLUMNS = ("theorem", "seed", "alpha", "threshold", "lhs", "rhs", "holds")


# ---------------------------------------------------------------------------
# CSV / logging plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows) -> None:
    lines = [f"schema_version,{CSV_SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def _log(out_dir: Path, message: str) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(out_dir / "run.log", "a") as fh:
        fh.write(f"{stamp} {message}\n")


def _metric_rows_for_csv(rows):
    return [{col: row.get(col) for col in METRIC_COLUMNS} for row in rows]


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def _load_config_section(path: str | None, section: str) -> dict:
    if not path:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _coerce(raw: str, kind):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if kind is tuple:
        return tuple(int(x) for x in raw.split(",") if x)
    try:
        return kind(raw)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def resolve(args: argparse.Namespace, section: str, name: str, kind, default):
    """Flag > config-file entry > default."""
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        return flag
    conf = _load_config_section(args.config, section)
    if name in conf:
        return _coerce(conf[name], kind)
    return default


_HP_KINDS = {
    "alpha_init": float, "adaptive_alpha": bool, "tau_budget": float,
    "beta_awr": float, "lambda_explore": float, "omega": float, "gamma": float,
    "n_action_samples": int, "batch_size": int, "total_steps": int,
    "lr_actor": float, "lr_critic": float, "lr_alpha": float,
    "weight_clip": float, "hidden_sizes": tuple, "ood_variant": str,
    "noise_var": float, "log_interval": int, "eval_interval": int, "n_eval": int,
}


def _hyper_params(args, section: str, overrides: dict | None = None) -> agent.CsveHyperParams:
    values = {}
    for name, kind in _HP_KINDS.items():
        values[name] = resolve(args, section, name, kind, getattr(_HP_DEFAULTS, name))
    if overrides:
        values.update(overrides)
    return agent.CsveHyperParams(**values)


_HP_DEFAULTS = agent.CsveHyperParams()


def _add_hp_flags(parser: argparse.ArgumentParser) -> None:
    for name, kind in _HP_KINDS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, type=lambda s: _coerce(s, bool), default=None,
                                metavar="BOOL")
        elif kind is tuple:
            parser.add_argument(flag, type=lambda s: _coerce(s, tuple), default=None,
                                metavar="N,N")
        else:
            parser.add_argument(flag, type=kind, default=None)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    env_name = resolve(args, "gen-data", "env", str, None)
    tier = resolve(args, "gen-data", "tier", str, None)
    size = resolve(args, "gen-data", "size", int, 10_000)
    if env_name is None or tier is None:
        raise ConfigError("gen-data needs --env and --tier")
    env = envs.make_env(env_name)
    dataset = data.generate_dataset(env, tier, size, args.seed)
    out = Path(args.out)
    data.save_dataset(dataset, out)
    _log(out, f"gen-data env={env_name} tier={tier} size={size} seed={args.seed}")
    print(json.dumps({k: dataset.meta[k] for k in
                      ("env", "tier", "size", "seed", "behavior_return_mean",
                       "random_return_mean", "expert_return_mean")}, indent=2))
    return 0


def cmd_train_dynamics(args) -> int:
    data_dir = resolve(args, "train-dynamics", "data", str, None)
    if data_dir is None:
        raise ConfigError("train-dynamics needs --data")
    members = resolve(args, "train-dynamics", "members", int, 5)
    hidden = resolve(args, "train-dynamics", "hidden_sizes", tuple, (64, 64))
    max_epochs = resolve(args, "train-dynamics", "max_epochs", int, 200)
    dataset = data.load_dataset(data_dir)
    config = dynamics.EnsembleConfig(num_members=members, hidden_sizes=hidden,
                                     max_epochs=max_epochs)
    rng = np.random.default_rng(args.seed)
    model = dynamics.train_ensemble(dataset, config, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dynamics.save_model(model, out)
    rows = []
    for member, (train_hist, hold_hist) in enumerate(
            zip(model.history["train_nll"], model.history["holdout_nll"])):
        for epoch, (tr, ho) in enumerate(zip(train_hist, hold_hist)):
            rows.append({"member": member, "epoch": epoch, "train_nll": tr,
                         "holdout_nll": ho})
    write_csv(out / "nll_history.csv", ("member", "epoch", "train_nll", "holdout_nll"),
              rows)
    report = dynamics.model_error_report(model, dataset)
    _log(out, f"train-dynamics data={data_dir} members={members} seed={args.seed}")
    print(f"trained {members} members; in-sample mean L2 {report.mean_l2:.6f}, "
          f"disagreement {report.disagreement:.6f}")
    return 0


def _run_training(dataset_dir, model_dir, algorithm, hp, seed, out_dir,
                  evaluate: bool = True):
    dataset = data.load_dataset(dataset_dir)
    model = dynamics.load_model(model_dir) if model_dir else None
    env = envs.make_env(dataset.meta["env"]) if evaluate and "env" in dataset.meta else None
    rng = np.random.default_rng(seed)
    if algorithm == "awac":
        bundle, rows = agent.awac_baseline(dataset, hp, rng, env=env)
    elif algorithm == "cql_awr":
        bundle, rows = agent.cql_awr_baseline(dataset, hp, rng, env=env)
    else:
        bundle, rows = agent.train_agent(dataset, model, hp, rng, env=env,
                                         algorithm=algorithm)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "metrics.csv", METRIC_COLUMNS, _metric_rows_for_csv(rows))
    agent.save_agent(bundle, hp, hp.total_steps, out_dir / "checkpoint",
                     algorithm=algorithm)
    return dataset, bundle, rows


def _final_score(dataset, rows):
    evals = [r for r in rows if r.get("eval_return_mean") is not None]
    if not evals:
        return None
    return envs.normalized_score(evals[-1]["eval_return_mean"],
                                 dataset.meta["random_return_mean"],
                                 dataset.meta["expert_return_mean"])


def cmd_train(args) -> int:
    data_dir = resolve(args, "train", "data", str, None)
    if data_dir is None:
        raise ConfigError("train needs --data")
    model_dir = resolve(args, "train", "model", str, None)
    algorithm = resolve(args, "train", "algorithm", str, "csve")
    if algorithm not in agent.ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    hp = _hyper_params(args, "train")
    no_eval = resolve(args, "train", "no_eval", bool, False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset, _, rows = _run_training(data_dir, model_dir, algorithm, hp, args.seed,
                                     out, evaluate=not no_eval)
    _log(out, f"train algorithm={algorithm} data={data_dir} seed={args.seed} "
              f"steps={hp.total_steps}")
    score = _final_score(dataset, rows)
    if score is not None:
        print(f"final normalized score: {score:.2f}")
    print(f"wrote {out / 'metrics.csv'} ({len(rows)} rows)")
    return 0


def cmd_eval(args) -> int:
    data_dir = resolve(args, "eval", "data", str, None)
    if data_dir is None:
        raise ConfigError("eval needs --data for the environment and anchors")
    checkpoint = resolve(args, "eval", "checkpoint", str, None)
    scripted = resolve(args, "eval", "scripted", str, None)
    episodes = resolve(args, "eval", "episodes", int, 10)
    if (checkpoint is None) == (scripted is None):
        raise ConfigError("eval needs exactly one of --checkpoint or --scripted")
    dataset = data.load_dataset(data_dir)
    env = envs.make_env(dataset.meta["env"])
    if checkpoint:
        bundle, _, _ = agent.load_agent(checkpoint)

        def policy(state, _rng):
            return agent.deterministic_action(bundle, state)
    else:
        policy = envs.scripted_policy(env, scripted)
    rng = np.random.default_rng(args.seed)
    returns = envs.evaluate_policy(env, policy, episodes, rng)
    rows = []
    for episode, raw in enumerate(returns):
        rows.append({
            "episode": episode,
            "return_raw": float(raw),
            "score_normalized": envs.normalized_score(
                float(raw), dataset.meta["random_return_mean"],
                dataset.meta["expert_return_mean"]),
        })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "eval.csv", ("episode", "return_raw", "score_normalized"), rows)
    _log(out, f"eval episodes={episodes} seed={args.seed}")
    scores = np.array([r["score_normalized"] for r in rows])
    print(f"return {returns.mean():.3f} +/- {returns.std():.3f}; "
          f"normalized {scores.mean():.2f} +/- {scores.std():.2f}")
    return 0


def cmd_verify_theory(args) -> int:
    suite = resolve(args, "verify-theory", "suite", str, "all")
    trials = resolve(args, "verify-theory", "trials", int, 0)
    names = list(theory.SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in theory.SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from "
                              f"{', '.join(theory.SUITES)} or all")
    rows_by_suite = {}
    for name in names:
        count = trials if trials > 0 else theory.DEFAULT_TRIALS[name]
        rows_by_suite[name] = theory.SUITES[name](count, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "theory.csv", THEORY_COLUMNS,
              [row for rows in rows_by_suite.values() for row in rows])
    _log(out, f"verify-theory suite={suite} seed={args.seed}")
    for name, rate in theory.summarize(rows_by_suite).items():
        print(f"{name}: pass rate {rate:.3f}")
    return 0


def _sweep_point(payload):
    """One sweep run; executed in a worker process."""
    data_dir, model_dir, algorithm, hp_doc, param, value, seed, run_dir = payload
    try:
        hp_doc = dict(hp_doc)
        if param != "model_frac":
            hp_doc[param] = value
        hp_doc["hidden_sizes"] = tuple(hp_doc["hidden_sizes"])
        hp = agent.CsveHyperParams(**hp_doc)
        actual_model_dir = model_dir
        model_error = None
        if param == "model_frac":
            # degrade the model by training it on a prefix of the data
            dataset = data.load_dataset(data_dir)
            keep = max(16, int(value * dataset.size))
            sub = data.ContinuousTransitionDataset(
                dataset.states[:keep], dataset.actions[:keep],
                dataset.rewards[:keep], dataset.next_states[:keep],
                dataset.dones[:keep], dict(dataset.meta))
            model = dynamics.train_ensemble(
                sub, dynamics.EnsembleConfig(num_members=3, hidden_sizes=(32, 32),
                                             max_epochs=30),
                np.random.default_rng(seed + 977))
            run_dir = Path(run_dir)
            run_dir.mkdir(parents=True, exist_ok=True)
            dynamics.save_model(model, run_dir / "model")
            actual_model_dir = run_dir / "model"
            model_error = dynamics.model_error_report(model, dataset).mean_l2
        dataset, _, rows = _run_training(data_dir, actual_model_dir, algorithm, hp,
                                         seed, run_dir)
        if model_error is None and actual_model_dir:
            model = dynamics.load_model(actual_model_dir)
            model_error = dynamics.model_error_report(
                model, data.load_dataset(data_dir)).mean_l2
        score = _final_score(dataset, rows)
        pi_losses = [r["loss_pi"] for r in rows if r.get("loss_pi") is not None]
        return {
            "param": param, "value": value, "seed": seed,
            "final_score": score,
            "final_loss_pi": pi_losses[-1] if pi_losses else None,
            "model_mean_l2": model_error,
            "status": "ok",
        }
    except DivergenceError as err:
        return {"param": param, "value": value, "seed": seed, "final_score": None,
                "final_loss_pi": None, "model_mean_l2": None,
                "status": f"diverged@{err.step}"}


def cmd_sweep(args) -> int:
    data_dir = resolve(args, "sweep", "data", str, None)
    param = resolve(args, "sweep", "param", str, None)
    values_raw = resolve(args, "sweep", "values", str, None)
    if data_dir is None or param is None or values_raw is None:
        raise ConfigError("sweep needs --data, --param and --values")
    if param != "model_frac" and param not in _HP_KINDS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    model_dir = resolve(args, "sweep", "model", str, None)
    algorithm = resolve(args, "sweep", "algorithm", str, "csve")
    n_seeds = resolve(args, "sweep", "seeds", int, 3)
    workers = resolve(args, "sweep", "workers", int, 1)
    hp = _hyper_params(args, "sweep")
    values = [float(v) for v in values_raw.split(",") if v]
    if not values:
        raise ConfigError("sweep grid is empty")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hp_doc = dataclasses.asdict(hp)
    hp_doc["hidden_sizes"] = list(hp.hidden_sizes)
    payloads = []
    for value in values:
        for k in range(n_seeds):
            seed = args.seed + k
            run_dir = out / "runs" / f"{param}={value:g}_seed{seed}"
            payloads.append((data_dir, model_dir, algorithm, hp_doc, param, value,
                             seed, str(run_dir)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]

    write_csv(out / "sweep.csv",
              ("param", "value", "seed", "final_score", "final_loss_pi",
               "model_mean_l2", "status"), results)

    summary_rows = []
    for value in values:
        scores = [r["final_score"] for r in results
                  if r["value"] == value and r["final_score"] is not None]
        pis = [r["final_loss_pi"] for r in results
               if r["value"] == value and r["final_loss_pi"] is not None]
        summary_rows.append({
            "param": param, "value": value,
            "mean_score": float(np.mean(scores)) if scores else None,
            "mean_loss_pi": float(np.mean(pis)) if pis else None,
            "runs": len(scores),
        })
    pairs = [(r["model_mean_l2"], r["final_score"]) for r in results
             if r["model_mean_l2"] is not None and r["final_score"] is not None]
    correlation = None
    if len(pairs) >= 3:
        errs, scores = map(np.array, zip(*pairs))
        if errs.std() > 0 and scores.std() > 0:
            correlation = float(np.corrcoef(errs, scores)[0, 1])
    summary_rows.append({"param": "score_vs_model_error_corr", "value": correlation,
                         "mean_score": None, "mean_loss_pi": None, "runs": len(pairs)})
    write_csv(out / "sweep_summary.csv",
              ("param", "value", "mean_score", "mean_loss_pi", "runs"), summary_rows)
    _log(out, f"sweep param={param} values={values_raw} seeds={n_seeds}")
    for row in summary_rows:
        print(row)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate a tiered offline dataset")
    common(p)
    p.add_argument("--env", choices=envs.ENV_NAMES, default=None)
    p.add_argument("--tier", choices=data.DATASET_TIERS, default=None)
    p.add_argument("--size", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-dynamics", help="fit the ensemble dynamics model")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--members", type=int, default=None)
    p.add_argument("--hidden-sizes", type=lambda s: _coerce(s, tuple), default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.set_defaults(func=cmd_train_dynamics)

    p = sub.add_parser("train", help="train an offline agent")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--algorithm", choices=agent.ALGORITHMS, default=None)
    p.add_argument("--no-eval", type=lambda s: _coerce(s, bool), default=None,
                   metavar="BOOL")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or scripted policy")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--scripted", choices=envs.TIERS, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-theory", help="run the certification suites")
    common(p)
    p.add_argument("--suite", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("sweep", help="grid sweep over one parameter")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--algorithm", choices=agent.ALGORITHMS, default=None)
    p.add_argument("--param", default=None)
    p.add_argument("--values", default=None)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    _add_hp_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err} (step {err.step})", file=sys.stderr)
        return 3
    except (OSError, CorruptFileError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except CsveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
