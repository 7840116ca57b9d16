"""Command-line harness: dataset generation, model and agent training,
evaluation, theory certification and hyper-parameter sweeps.

Subcommands: gen-data, train-dynamics, train, eval, verify-theory, sweep.
Every value a command takes, --seed N included, is declared once in
``build_parser``'s table and resolves by one rule: its flag, else its entry
in the command's section of the --config INI file, else its default.  Flags
and entries pass the same checks, and an entry the command does not declare
is an error.  --config PATH and --out DIR are flag-only.  Exit codes: 0
success, 2 configuration error, 3 training divergence, 4 I/O failure.

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
from typing import NamedTuple

import numpy as np

from . import agent, data, dynamics, envs, theory
from .errors import ConfigError, CorruptFileError, CsveError, DivergenceError, InputError

CSV_SCHEMA_VERSION = 1
METRIC_COLUMNS = ("step", "loss_v", "loss_q", "loss_pi", "alpha", "v_gap",
                  "eval_return_mean", "eval_return_std")


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
    cannot be read or parsed, or that has entries under [DEFAULT] (which
    configparser would merge into every section, or into none), raises
    ConfigError on one line."""
    if not path:
        return {}
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file {path!r} not found or unreadable")
        if parser.defaults():
            raise ConfigError(f"config file {path!r} has entries under [DEFAULT]; "
                              "put each in its command's section")
        return dict(parser.items(section)) if parser.has_section(section) else {}
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path!r} does not parse: "
                          f"{' '.join(str(err).split())}") from None


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(source: str, raw: str, kind, item=int):
    """``raw`` as a ``kind``; a tuple holds comma-separated ``item``s, none
    empty.  A ConfigError names ``source``, a flag or a config entry."""
    try:
        if kind is tuple:
            items = raw.split(",")
            if not all(x.strip() for x in items):
                raise ValueError(f"expected comma-separated values, none empty, got {raw!r}")
            return tuple(item(x) for x in items)
        if kind is bool and raw.strip().lower() not in _BOOLS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from None


REQUIRED = object()  # the default of a value a command cannot run without


class Value(NamedTuple):
    """One value a command takes: the flag ``--<name>`` (underscores as
    dashes) or the entry ``<name>`` of the command's config section."""

    kind: type = str            # bool, int, float, str, or tuple of ints
    default: object = None      # or REQUIRED
    choices: tuple = ()
    at_least: int | None = None
    metavar: str | None = None  # --help's; None derives it from kind and choices


def resolve(args: argparse.Namespace, conf: dict, name: str, value: Value):
    """Flag > entry of the command's config section ``conf`` > default.  A
    flag or entry is coerced to ``value.kind`` and checked against
    ``value.choices`` and ``value.at_least``; each failure is a ConfigError."""
    raw, source = getattr(args, name), "--" + name.replace("_", "-")
    if raw is None:
        if name not in conf:
            if value.default is REQUIRED:
                raise ConfigError(f"{args.command} needs {source} or a config entry {name}")
            return value.default
        raw, source = conf[name], f"config entry {name}"
    args.sources[name] = source
    result = _coerce(source, raw, value.kind)
    if value.choices and result not in value.choices:
        raise ConfigError(f"{name} must be one of {', '.join(value.choices)}, got {result!r}")
    if value.at_least is not None and result < value.at_least:
        raise ConfigError(f"{name} must be at least {value.at_least}, got {result}")
    return result


# Every hyper-parameter is a value of train and sweep, of its default's type.
_HP_DEFAULTS = agent.CsveHyperParams()
_HP_KINDS = {name: type(default) for name, default in vars(_HP_DEFAULTS).items()}


def _hyper_params(args) -> agent.CsveHyperParams:
    return agent.CsveHyperParams(**{name: getattr(args, name) for name in _HP_KINDS})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    dataset = data.generate_dataset(envs.make_env(args.env), args.tier, args.size, args.seed)
    out = Path(args.out)
    data.save_dataset(dataset, out)
    _log(out, f"gen-data env={args.env} tier={args.tier} size={args.size} seed={args.seed}")
    print(json.dumps({k: dataset.meta[k] for k in
                      ("env", "tier", "size", "seed", "behavior_return_mean",
                       "random_return_mean", "expert_return_mean")}, indent=2))
    return 0


def cmd_train_dynamics(args) -> int:
    dataset = data.load_dataset(args.data)
    config = dynamics.EnsembleConfig(num_members=args.members, hidden_sizes=args.hidden_sizes,
                                     max_epochs=args.max_epochs)
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
    _log(out, f"train-dynamics data={args.data} members={args.members} seed={args.seed}")
    print(f"trained {args.members} members; in-sample mean L2 {report.mean_l2:.6f}, "
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
    hp = _hyper_params(args)
    out = Path(args.out)
    dataset, rows = _run_training(args.data, args.model, args.algorithm, hp, args.seed,
                                  out, evaluate=not args.no_eval)
    _log(out, f"train algorithm={args.algorithm} data={args.data} seed={args.seed} "
              f"steps={hp.total_steps}")
    score = _final_score(dataset, rows)
    if score is not None:
        print(f"final normalized score: {score:.2f}")
    print(f"wrote {out / 'metrics.csv'} ({len(rows)} rows)")
    return 0


def cmd_eval(args) -> int:
    data_dir, checkpoint = args.data, args.checkpoint
    if (checkpoint is None) == (args.scripted is None):
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
        policy = envs.scripted_policy(env, args.scripted)
    rng = np.random.default_rng(args.seed)
    returns = envs.evaluate_policy(env, policy, args.episodes, rng)
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
    _log(out, f"eval episodes={args.episodes} seed={args.seed}")
    scores = np.array([r["score_normalized"] for r in rows])
    print(f"return {returns.mean():.3f} +/- {returns.std():.3f}; "
          f"normalized {scores.mean():.2f} +/- {scores.std():.2f}")
    return 0


def cmd_verify_theory(args) -> int:
    names = list(theory.SUITES) if args.suite == "all" else [args.suite]
    rows_by_suite = {name: theory.SUITES[name](args.trials or theory.DEFAULT_TRIALS[name],
                                               args.seed)
                     for name in names}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "theory.csv", theory.COLUMNS,
              [row for rows in rows_by_suite.values() for row in rows])
    _log(out, f"verify-theory suite={args.suite} seed={args.seed}")
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
    data_dir, model_dir, param = args.data, args.model, args.param
    kind = float if param == "model_frac" else _HP_KINDS.get(param)
    if kind not in (int, float):
        raise ConfigError(f"sweep parameter {param!r} is not a numeric hyper-parameter "
                          f"or model_frac")
    hp = _hyper_params(args)
    values = _coerce(args.sources["values"], args.values, tuple, kind)
    names = [f"{param}={value:g}" for value in values]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"sweep values {args.values} give two points the run name {name}")
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
        for k in range(args.seeds):
            seed = args.seed + k
            run_dir = out / "runs" / f"{name}_seed{seed}"
            payloads.append((data_dir, model_dir, args.algorithm, point_hp, param, value,
                             seed, str(run_dir), model_error))
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweep loads multiprocessing
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
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
    _log(out, f"sweep param={param} values={args.values} seeds={args.seeds}")
    for row in summary_rows:
        print(row)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_flags(parser: argparse.ArgumentParser, values: dict) -> None:
    for name, value in values.items():
        choices = "{" + ",".join(value.choices) + "}" if value.choices else None
        parser.add_argument("--" + name.replace("_", "-"), default=None, metavar=(
            value.metavar or {bool: "BOOL", tuple: "N,N"}.get(value.kind, choices)))


def build_parser() -> argparse.ArgumentParser:
    """The parser, and the one declaration of every value each command takes
    besides the flag-only --config and --out; ``main`` resolves them."""
    parser = argparse.ArgumentParser(prog="csve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    path, needed, algorithm = Value(), Value(str, REQUIRED), Value(str, "csve", agent.ALGORITHMS)
    hps = {name: Value(type(default), default) for name, default in vars(_HP_DEFAULTS).items()}
    commands = {  # name: help, handler, values after --seed in --help order
        "gen-data": ("generate a tiered offline dataset", cmd_gen_data,
                     {"env": Value(str, REQUIRED, envs.ENV_NAMES),
                      "tier": Value(str, REQUIRED, data.DATASET_TIERS), "size": Value(int, 10_000)}),
        "train-dynamics": ("fit the ensemble dynamics model", cmd_train_dynamics,
                           {"data": needed, "members": Value(int, 5),
                            "hidden_sizes": Value(tuple, (64, 64)),
                            "max_epochs": Value(int, 200)}),
        "train": ("train an offline agent", cmd_train,
                  {"data": needed, "model": path, "algorithm": algorithm,
                   "no_eval": Value(bool, False), **hps}),
        "eval": ("evaluate a checkpoint or scripted policy", cmd_eval,
                 {"data": needed, "checkpoint": path, "scripted": Value(str, None, envs.TIERS),
                  "episodes": Value(int, 10, at_least=1)}),
        "verify-theory": ("run the certification suites", cmd_verify_theory,
                          {"suite": Value(str, "all", (*theory.SUITES, "all"), metavar="SUITE"),
                           "trials": Value(int, 0, at_least=0)}),  # 0: each suite's default
        "sweep": ("grid sweep over one parameter", cmd_sweep,
                  {"data": needed, "model": path, "algorithm": algorithm,
                   "param": needed, "values": needed,
                   "seeds": Value(int, 3, at_least=1), "workers": Value(int, 1, at_least=1),
                   **hps}),
    }
    seed = {"seed": Value(int, 0, at_least=0)}
    for name, (text, func, values) in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="INI config file")
        _add_flags(p, seed)
        p.add_argument("--out", required=True, help="output directory")
        _add_flags(p, values)
        p.set_defaults(func=func, declared={**seed, **values})
    return parser


_PARSER = None  # built by the first ``main`` call, not at import; reused after


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        conf = _load_config_section(args.config, args.command)
        for key in conf:
            if key not in args.declared:
                raise ConfigError(f"unknown config entry {key!r} in section [{args.command}]")
        args.sources = {}
        for name, value in args.declared.items():
            setattr(args, name, resolve(args, conf, name, value))
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
