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
from pathlib import Path

import numpy as np

from . import agent, data, dynamics, envs, theory
from .errors import ConfigError, CorruptFileError, CsveError, DivergenceError, InputError

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


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def _load_config_section(path: str | None, section: str) -> dict:
    """The entries of ``section`` in the INI file ``path``; a file that
    cannot be read or parsed raises ConfigError on one line."""
    if not path:
        return {}
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file {path!r} not found or unreadable")
        return dict(parser.items(section)) if parser.has_section(section) else {}
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path!r} does not parse: "
                          f"{' '.join(str(err).split())}") from None


def _coerce(raw: str, kind):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    try:
        if kind is tuple:
            return tuple(int(x) for x in raw.split(",") if x)
        return kind(raw)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _at_least_one(value: int, name: str) -> int:
    if value < 1:
        raise ConfigError(f"--{name} must be at least 1, got {value}")
    return value


def resolve(args: argparse.Namespace, name: str, kind, default):
    """Flag > entry of the command's config section (``args.conf``) >
    default.  A flag or entry is coerced to ``kind``; a bad one raises
    ConfigError naming it."""
    raw, source = getattr(args, name, None), "--" + name.replace("_", "-")
    if raw is None:
        if name not in args.conf:
            return default
        raw, source = args.conf[name], f"config entry {name}"
    try:
        return _coerce(raw, kind)
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}") from None


# Every hyper-parameter is a flag and a config key of its default's type.
_HP_KINDS = {f.name: type(f.default) for f in dataclasses.fields(agent.CsveHyperParams)}


def _hyper_params(args) -> agent.CsveHyperParams:
    values = {}
    for name, kind in _HP_KINDS.items():
        values[name] = resolve(args, name, kind, getattr(_HP_DEFAULTS, name))
    return agent.CsveHyperParams(**values)


_HP_DEFAULTS = agent.CsveHyperParams()


def _add_hp_flags(parser: argparse.ArgumentParser) -> None:
    for name, kind in _HP_KINDS.items():
        parser.add_argument("--" + name.replace("_", "-"), default=None,
                            metavar={bool: "BOOL", tuple: "N,N"}.get(kind))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    env_name = resolve(args, "env", str, None)
    tier = resolve(args, "tier", str, None)
    size = resolve(args, "size", int, 10_000)
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
    data_dir = resolve(args, "data", str, None)
    if data_dir is None:
        raise ConfigError("train-dynamics needs --data")
    members = resolve(args, "members", int, 5)
    hidden = resolve(args, "hidden_sizes", tuple, (64, 64))
    max_epochs = resolve(args, "max_epochs", int, 200)
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
    if evaluate and "env" in dataset.meta:  # the final score needs the anchors
        data.require_keys(dataset.meta, data.ANCHOR_KEYS, Path(dataset_dir) / "meta.json")
    model = dynamics.load_model(model_dir) if model_dir else None
    env = envs.make_env(dataset.meta["env"]) if evaluate and "env" in dataset.meta else None
    rng = np.random.default_rng(seed)
    bundle, rows = agent.train_agent(dataset, model, hp, rng, env=env, algorithm=algorithm)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "metrics.csv", METRIC_COLUMNS, rows)
    agent.save_agent(bundle, hp, hp.total_steps, out_dir / "checkpoint",
                     algorithm=algorithm)
    return dataset, rows


def _final_score(dataset, rows):
    evals = [r for r in rows if r.get("eval_return_mean") is not None]
    if not evals:
        return None
    return envs.normalized_score(evals[-1]["eval_return_mean"],
                                 dataset.meta["random_return_mean"],
                                 dataset.meta["expert_return_mean"])


def cmd_train(args) -> int:
    data_dir = resolve(args, "data", str, None)
    if data_dir is None:
        raise ConfigError("train needs --data")
    model_dir = resolve(args, "model", str, None)
    algorithm = resolve(args, "algorithm", str, "csve")
    if algorithm not in agent.ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    hp = _hyper_params(args)
    no_eval = resolve(args, "no_eval", bool, False)
    out = Path(args.out)
    dataset, rows = _run_training(data_dir, model_dir, algorithm, hp, args.seed,
                                  out, evaluate=not no_eval)
    _log(out, f"train algorithm={algorithm} data={data_dir} seed={args.seed} "
              f"steps={hp.total_steps}")
    score = _final_score(dataset, rows)
    if score is not None:
        print(f"final normalized score: {score:.2f}")
    print(f"wrote {out / 'metrics.csv'} ({len(rows)} rows)")
    return 0


def cmd_eval(args) -> int:
    data_dir = resolve(args, "data", str, None)
    if data_dir is None:
        raise ConfigError("eval needs --data for the environment and anchors")
    checkpoint = resolve(args, "checkpoint", str, None)
    scripted = resolve(args, "scripted", str, None)
    episodes = _at_least_one(resolve(args, "episodes", int, 10), "episodes")
    if (checkpoint is None) == (scripted is None):
        raise ConfigError("eval needs exactly one of --checkpoint or --scripted")
    dataset = data.load_dataset(data_dir, ("env", *data.ANCHOR_KEYS))
    env = envs.make_env(dataset.meta["env"])
    if checkpoint:
        bundle, _, _ = agent.load_agent(checkpoint)
        sizes = bundle.policy_net.layer_sizes
        dims = (sizes[0], sizes[-1] // 2)
        if dims != (dataset.state_dim, dataset.action_dim):
            raise InputError(f"the checkpoint {checkpoint} has state_dim {dims[0]} and "
                             f"action_dim {dims[1]} but the dataset {data_dir} has "
                             f"{dataset.state_dim} and {dataset.action_dim}")

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
    suite = resolve(args, "suite", str, "all")
    trials = resolve(args, "trials", int, 0)
    if trials < 0:
        raise ConfigError(f"--trials must be at least 0 (0 runs each suite's default), "
                          f"got {trials}")
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
    """One sweep run; executed in a worker process.  ``model_error`` is the
    mean L2 of the sweep's model; a model_frac point trains its own model
    and reports on that one."""
    data_dir, model_dir, algorithm, hp, param, value, seed, run_dir, model_error = payload
    row = {"param": param, "value": value, "seed": seed, "final_score": None,
           "final_loss_pi": None, "model_mean_l2": None}
    try:
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
            model_dir = Path(run_dir) / "model"
            dynamics.save_model(model, model_dir)
            model_error = dynamics.model_error_report(model, dataset).mean_l2
        dataset, rows = _run_training(data_dir, model_dir, algorithm, hp, seed, run_dir)
        pi_losses = [r["loss_pi"] for r in rows if r.get("loss_pi") is not None]
        return {**row, "final_score": _final_score(dataset, rows),
                "final_loss_pi": pi_losses[-1] if pi_losses else None,
                "model_mean_l2": model_error, "status": "ok"}
    except DivergenceError as err:
        return {**row, "status": f"diverged@{err.step}"}


def cmd_sweep(args) -> int:
    data_dir = resolve(args, "data", str, None)
    param = resolve(args, "param", str, None)
    values_raw = resolve(args, "values", str, None)
    if data_dir is None or param is None or values_raw is None:
        raise ConfigError("sweep needs --data, --param and --values")
    kind = float if param == "model_frac" else _HP_KINDS.get(param)
    if kind not in (int, float):
        raise ConfigError(f"sweep parameter {param!r} is not a numeric hyper-parameter "
                          f"or model_frac")
    model_dir = resolve(args, "model", str, None)
    algorithm = resolve(args, "algorithm", str, "csve")
    n_seeds = _at_least_one(resolve(args, "seeds", int, 3), "seeds")
    workers = _at_least_one(resolve(args, "workers", int, 1), "workers")
    hp = _hyper_params(args)
    values = [_coerce(v, kind) for v in values_raw.split(",") if v]
    if not values:
        raise ConfigError("sweep grid is empty")
    names = [f"{param}={value:g}" for value in values]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"sweep values {values_raw} give two points the run name {name}")
    # every point's settings are checked before any point runs
    point_hps = [hp if param == "model_frac" else dataclasses.replace(hp, **{param: value})
                 for value in values]
    model_error = None
    if model_dir and param != "model_frac":
        model_error = dynamics.model_error_report(dynamics.load_model(model_dir),
                                                  data.load_dataset(data_dir)).mean_l2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payloads = []
    for value, point_hp, name in zip(values, point_hps, names):
        for k in range(n_seeds):
            seed = args.seed + k
            run_dir = out / "runs" / f"{name}_seed{seed}"
            payloads.append((data_dir, model_dir, algorithm, point_hp, param, value,
                             seed, str(run_dir), model_error))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweep loads multiprocessing
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
    p.add_argument("--size", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-dynamics", help="fit the ensemble dynamics model")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--members", default=None)
    p.add_argument("--hidden-sizes", default=None, metavar="N,N")
    p.add_argument("--max-epochs", default=None)
    p.set_defaults(func=cmd_train_dynamics)

    p = sub.add_parser("train", help="train an offline agent")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--algorithm", choices=agent.ALGORITHMS, default=None)
    p.add_argument("--no-eval", default=None, metavar="BOOL")
    _add_hp_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or scripted policy")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--scripted", choices=envs.TIERS, default=None)
    p.add_argument("--episodes", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-theory", help="run the certification suites")
    common(p)
    p.add_argument("--suite", default=None)
    p.add_argument("--trials", default=None)
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("sweep", help="grid sweep over one parameter")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--algorithm", choices=agent.ALGORITHMS, default=None)
    p.add_argument("--param", default=None)
    p.add_argument("--values", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--workers", default=None)
    _add_hp_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        args.conf = _load_config_section(args.config, args.command)
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
