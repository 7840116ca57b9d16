import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csve import cli, theory


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared tiny dataset + dynamics model for CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert run(["gen-data", "--env", "pointmass2d", "--tier", "medium",
                "--size", 1500, "--seed", 3, "--out", data_dir]) == 0
    model_dir = root / "model"
    assert run(["train-dynamics", "--data", data_dir, "--members", 2,
                "--hidden-sizes", "24,24", "--max-epochs", 10,
                "--seed", 0, "--out", model_dir]) == 0
    return root, data_dir, model_dir


def read_lines(path):
    return Path(path).read_text().splitlines()


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["gen-data", "--env", "gridworld", "--tier", "random",
                    "--size", 64, "--seed", 11, "--out", out]) == 0
    assert (out1 / "transitions.bin").read_bytes() == (out2 / "transitions.bin").read_bytes()
    assert (out1 / "meta.json").read_text() == (out2 / "meta.json").read_text()
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["size"] == 64
    assert meta["action_high"] == [1.0, 1.0]


def test_gen_data_requires_env(tmp_path):
    assert run(["gen-data", "--tier", "random", "--size", 4,
                "--out", tmp_path / "x"]) == 2


# ---------------------------------------------------------------------------
# train-dynamics
# ---------------------------------------------------------------------------

def test_dynamics_outputs(workspace):
    _, data_dir, model_dir = workspace
    sidecar = json.loads((model_dir / "model.json").read_text())
    assert sidecar["num_members"] == 2

    lines = read_lines(model_dir / "nll_history.csv")
    assert lines[0] == "schema_version,1"
    assert lines[1] == "member,epoch,train_nll,holdout_nll"
    rows = [line.split(",") for line in lines[2:]]
    per_member = {}
    for member, _, _, holdout in rows:
        per_member.setdefault(member, []).append(float(holdout))
    for hist in per_member.values():
        assert min(hist) <= hist[0]  # final best never worse than the start

    # checkpoint reload reproduces the holdout landscape exactly
    from csve import data as data_mod
    from csve import dynamics

    model = dynamics.load_model(model_dir)
    ds = data_mod.load_dataset(data_dir)
    r1 = dynamics.model_error_report(model, ds)
    r2 = dynamics.model_error_report(dynamics.load_model(model_dir), ds)
    assert r1.mean_l2 == r2.mean_l2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_steps_header_only(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    out = tmp_path / "t0"
    assert run(["train", "--data", data_dir, "--model", model_dir,
                "--algorithm", "csve", "--total-steps", 0,
                "--hidden-sizes", "16,16", "--seed", 1, "--out", out]) == 0
    lines = read_lines(out / "metrics.csv")
    assert lines == ["schema_version,1",
                     "step,loss_v,loss_q,loss_pi,alpha,v_gap,eval_return_mean,eval_return_std"]


def test_train_rerun_byte_identical_and_awac_equivalence(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    common = ["--data", data_dir, "--total-steps", 120, "--batch-size", 16,
              "--hidden-sizes", "16,16", "--n-action-samples", 2,
              "--log-interval", 30, "--eval-interval", 120, "--seed", 5]
    outs = [tmp_path / name for name in ("csve0a", "csve0b", "awac")]
    for out in outs[:2]:
        assert run(["train", *common, "--model", model_dir, "--algorithm", "csve",
                    "--alpha-init", 0, "--adaptive-alpha", "false",
                    "--lambda-explore", 0, "--out", out]) == 0
    assert run(["train", *common, "--algorithm", "awac", "--out", outs[2]]) == 0

    m0 = (outs[0] / "metrics.csv").read_bytes()
    assert m0 == (outs[1] / "metrics.csv").read_bytes()
    assert m0 == (outs[2] / "metrics.csv").read_bytes()
    for net in ("policy_net.bin", "q_net.bin", "v_net.bin"):
        assert (outs[0] / "checkpoint" / net).read_bytes() == \
            (outs[2] / "checkpoint" / net).read_bytes()


def test_train_rejects_out_of_range_hp_before_compute(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    out = tmp_path / "bad"
    code = run(["train", "--data", data_dir, "--model", model_dir,
                "--omega", 2.0, "--total-steps", 10, "--out", out])
    assert code == 2
    assert not (out / "metrics.csv").exists()


def test_train_missing_dataset_is_io_error(tmp_path):
    code = run(["train", "--data", tmp_path / "nope", "--algorithm", "awac",
                "--total-steps", 1, "--out", tmp_path / "o"])
    assert code == 4


def test_short_or_over_long_model_blob_is_io_error(workspace, tmp_path, capsys):
    _, data_dir, model_dir = workspace
    blob = (model_dir / "model.bin").read_bytes()
    bad = tmp_path / "model"
    bad.mkdir()
    (bad / "model.json").write_bytes((model_dir / "model.json").read_bytes())
    for name, payload in (("header", blob[:20]), ("short", blob[:-8]),
                          ("long", blob + bytes(8))):
        (bad / "model.bin").write_bytes(payload)
        code = run(["train", "--data", data_dir, "--model", bad, "--algorithm", "csve",
                    "--total-steps", 1, "--hidden-sizes", "8,8", "--out", tmp_path / name])
        err = capsys.readouterr().err
        assert code == 4, name
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert "model.bin" in err
        assert not (tmp_path / name / "metrics.csv").exists()


def test_short_agent_checkpoint_is_io_error(workspace, tmp_path, capsys):
    _, data_dir, _ = workspace
    train_out = tmp_path / "t"
    assert run(["train", "--data", data_dir, "--algorithm", "awac", "--total-steps", 1,
                "--hidden-sizes", "8,8", "--no-eval", "true", "--out", train_out]) == 0
    net = train_out / "checkpoint" / "policy_net.bin"
    net.write_bytes(net.read_bytes()[:-1])
    capsys.readouterr()
    assert run(["eval", "--data", data_dir, "--checkpoint", train_out / "checkpoint",
                "--episodes", 1, "--out", tmp_path / "e"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "policy_net.bin" in err


@pytest.mark.parametrize("sidecar, key", [("meta.json", "action_dim"),
                                          ("model.json", "num_members"),
                                          ("manifest.json", "hyper_params"),
                                          ("manifest.json", "hidden_sizes")])
def test_truncated_or_incomplete_json_sidecar_is_io_error(workspace, tmp_path, capsys,
                                                          sidecar, key):
    _, data_dir, model_dir = workspace
    checkpoint = tmp_path / "t" / "checkpoint"
    assert run(["train", "--data", data_dir, "--algorithm", "awac", "--total-steps", 1,
                "--hidden-sizes", "8,8", "--no-eval", "true", "--out", tmp_path / "t"]) == 0
    source = {"meta.json": data_dir, "model.json": model_dir,
              "manifest.json": checkpoint}[sidecar]
    text = (source / sidecar).read_text()
    doc = json.loads(text)
    del (doc["hyper_params"] if key == "hidden_sizes" else doc)[key]
    for case, payload in (("truncated", text[:len(text) // 2]),
                          ("missing_key", json.dumps(doc))):
        bad = tmp_path / case
        shutil.copytree(source, bad)
        (bad / sidecar).write_text(payload)
        out = tmp_path / f"{case}_out"
        argv = {"meta.json": ["train", "--data", bad, "--algorithm", "awac"],
                "model.json": ["train", "--data", data_dir, "--model", bad],
                "manifest.json": ["eval", "--data", data_dir, "--checkpoint", bad,
                                  "--episodes", 1]}[sidecar]
        if argv[0] == "train":
            argv += ["--total-steps", 1, "--hidden-sizes", "8,8"]
        capsys.readouterr()
        assert run([*argv, "--out", out]) == 4, case
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1, err
        assert sidecar in err
        if case == "missing_key":
            assert key in err
        assert not out.exists()


@pytest.mark.parametrize("case", ["size_mismatch", "nan_state", "inf_next_state",
                                  "partial_record"])
def test_inconsistent_or_non_finite_dataset_is_io_error(workspace, tmp_path, capsys, case):
    _, data_dir, _ = workspace
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    meta = json.loads((bad / "meta.json").read_text())
    width = 2 * meta["state_dim"] + meta["action_dim"] + 2
    records = np.frombuffer((bad / "transitions.bin").read_bytes(), dtype="<f8").copy()
    records = records.reshape(-1, width)
    if case == "size_mismatch":
        meta["size"] = 999_999
        (bad / "meta.json").write_text(json.dumps(meta))
    elif case == "nan_state":
        records[17, 1] = np.nan
    elif case == "inf_next_state":
        records[-1, width - 2] = -np.inf
    payload = records.astype("<f8").tobytes()
    (bad / "transitions.bin").write_bytes(payload[:-8] if case == "partial_record"
                                          else payload)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--data", bad, "--algorithm", "awac", "--total-steps", 1,
                "--hidden-sizes", "8,8", "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err
    assert "transitions.bin" in err
    assert not (out / "metrics.csv").exists()


def test_model_of_other_dims_is_config_error(workspace, tmp_path, capsys):
    _, _, model_dir = workspace
    pendulum = tmp_path / "pendulum"
    assert run(["gen-data", "--env", "pendulum", "--tier", "random", "--size", 200,
                "--out", pendulum]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--data", pendulum, "--model", model_dir, "--algorithm", "csve",
                "--total-steps", 1, "--hidden-sizes", "8,8", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "state_dim 4" in err and "action_dim 2" in err and "3 and 1" in err
    assert not (out / "metrics.csv").exists()


def test_baseline_manifests_record_the_settings_they_trained_with(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    fixed = {"awac": dict(adaptive_alpha=False, alpha_init=0.0, lambda_explore=0.0),
             "cql_awr": dict(adaptive_alpha=False)}
    for algorithm, settings in fixed.items():
        out = tmp_path / algorithm
        assert run(["train", "--data", data_dir, "--model", model_dir,
                    "--algorithm", algorithm, "--total-steps", 2, "--hidden-sizes", "8,8",
                    "--alpha-init", 3.0, "--adaptive-alpha", "true",
                    "--lambda-explore", 0.2, "--no-eval", "true", "--out", out]) == 0
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        hp = manifest["hyper_params"]
        assert {name: hp[name] for name in settings} == settings
        assert manifest["alpha"] == hp["alpha_init"]  # alpha never moved
        assert hp["lambda_explore"] == settings.get("lambda_explore", 0.2)
        assert "\n2," in (out / "metrics.csv").read_text()


def test_config_file_defaults_and_flag_override(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    config = tmp_path / "run.ini"
    config.write_text(
        "[train]\n"
        f"data = {data_dir}\n"
        f"model = {model_dir}\n"
        "algorithm = csve\n"
        "total_steps = 40\n"
        "batch_size = 8\n"
        "hidden_sizes = 8,8\n"
        "n_action_samples = 2\n"
        "log_interval = 20\n"
        "no_eval = true\n"
    )
    out1 = tmp_path / "from_config"
    assert run(["train", "--config", config, "--seed", 2, "--out", out1]) == 0
    lines = read_lines(out1 / "metrics.csv")
    assert lines[-1].startswith("40,")

    out2 = tmp_path / "flag_wins"
    assert run(["train", "--config", config, "--seed", 2, "--total-steps", 20,
                "--out", out2]) == 0
    assert read_lines(out2 / "metrics.csv")[-1].startswith("20,")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_scripted_anchor_scores(workspace, tmp_path):
    _, data_dir, _ = workspace
    for tier, target in (("expert", 100.0), ("random", 0.0)):
        out = tmp_path / f"eval_{tier}"
        assert run(["eval", "--data", data_dir, "--scripted", tier,
                    "--episodes", 30, "--seed", 9, "--out", out]) == 0
        lines = read_lines(out / "eval.csv")
        assert lines[0] == "schema_version,1"
        scores = [float(line.split(",")[2]) for line in lines[2:]]
        assert abs(float(np.mean(scores)) - target) < 12.0


def test_eval_checkpoint_scores_recorded(workspace, tmp_path):
    root, data_dir, model_dir = workspace
    train_out = root / "eval_train"
    if not train_out.exists():
        assert run(["train", "--data", data_dir, "--model", model_dir,
                    "--algorithm", "awac", "--total-steps", 150,
                    "--batch-size", 32, "--hidden-sizes", "16,16",
                    "--no-eval", "true", "--seed", 4, "--out", train_out]) == 0
    out = tmp_path / "eval_ck"
    assert run(["eval", "--data", data_dir, "--checkpoint", train_out / "checkpoint",
                "--episodes", 5, "--seed", 2, "--out", out]) == 0
    lines = read_lines(out / "eval.csv")
    assert len(lines) == 2 + 5


def test_eval_checkpoint_of_other_dims_is_config_error(workspace, tmp_path, capsys):
    _, data_dir, _ = workspace
    train_out = tmp_path / "pointmass"
    assert run(["train", "--data", data_dir, "--algorithm", "awac", "--total-steps", 1,
                "--batch-size", 8, "--hidden-sizes", "8,8", "--no-eval", "true",
                "--out", train_out]) == 0
    pendulum = tmp_path / "pendulum"
    assert run(["gen-data", "--env", "pendulum", "--tier", "random", "--size", 200,
                "--out", pendulum]) == 0
    out = tmp_path / "eval"
    checkpoint = train_out / "checkpoint"
    capsys.readouterr()
    assert run(["eval", "--data", pendulum, "--checkpoint", checkpoint,
                "--episodes", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(checkpoint) in err and str(pendulum) in err
    assert "state_dim 4" in err and "action_dim 2" in err and "3 and 1" in err
    assert not (out / "eval.csv").exists()


def test_eval_needs_exactly_one_policy_source(workspace, tmp_path):
    _, data_dir, _ = workspace
    assert run(["eval", "--data", data_dir, "--episodes", 2,
                "--out", tmp_path / "e"]) == 2


# ---------------------------------------------------------------------------
# verify-theory
# ---------------------------------------------------------------------------

def test_verify_theory_outputs_and_idempotency(tmp_path):
    outs = [tmp_path / "v1", tmp_path / "v2"]
    for out in outs:
        assert run(["verify-theory", "--suite", "contraction", "--trials", 40,
                    "--seed", 0, "--out", out]) == 0
    a, b = (read_lines(out / "theory.csv") for out in outs)
    assert a == b
    assert a[0] == "schema_version,1"
    assert a[1] == "theorem,seed,alpha,threshold,lhs,rhs,holds"
    assert len(a) == 2 + 40
    assert all(line.endswith("true") for line in a[2:])


def test_verify_theory_unknown_suite(tmp_path):
    assert run(["verify-theory", "--suite", "noneuclidean",
                "--out", tmp_path / "x"]) == 2


def test_verify_theory_multi_suite(tmp_path):
    out = tmp_path / "multi"
    assert run(["verify-theory", "--suite", "interpolation", "--trials", 50,
                "--seed", 7, "--out", out]) == 0
    lines = read_lines(out / "theory.csv")
    assert len(lines) == 2 + 50 * 5  # five interpolation factors per pair


def test_verify_theory_prints_one_rate_per_suite(tmp_path, capsys):
    assert run(["verify-theory", "--suite", "all", "--trials", 2,
                "--seed", 0, "--out", tmp_path / "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(": pass rate ")[0] for line in lines]
    assert sorted(names) == sorted(theory.SUITES)
    assert len(lines) == len(theory.SUITES)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_point_matches_train(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    out = tmp_path / "sweep1"
    common_hp = ["--total-steps", 60, "--batch-size", 16, "--hidden-sizes",
                 "16,16", "--n-action-samples", 2, "--log-interval", 30]
    assert run(["sweep", "--data", data_dir, "--model", model_dir,
                "--param", "lambda_explore", "--values", "0.0",
                "--seeds", 1, "--seed", 8, *common_hp, "--out", out]) == 0
    lines = read_lines(out / "sweep.csv")
    assert len(lines) == 3  # header rows + one grid point x one seed

    train_out = tmp_path / "sweep_ref"
    assert run(["train", "--data", data_dir, "--model", model_dir,
                "--algorithm", "csve", "--lambda-explore", 0, "--seed", 8,
                *common_hp, "--out", train_out]) == 0
    run_metrics = (out / "runs" / "lambda_explore=0_seed8" / "metrics.csv").read_bytes()
    assert run_metrics == (train_out / "metrics.csv").read_bytes()


def test_sweep_grid_cardinality(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    out = tmp_path / "sweep2"
    assert run(["sweep", "--data", data_dir, "--model", model_dir,
                "--param", "beta_awr", "--values", "0.3,3.0", "--seeds", 2,
                "--total-steps", 30, "--batch-size", 8, "--hidden-sizes", "8,8",
                "--n-action-samples", 2, "--log-interval", 30,
                "--out", out]) == 0
    lines = read_lines(out / "sweep.csv")
    assert len(lines) == 2 + 4  # 2 values x 2 seeds
    summary = read_lines(out / "sweep_summary.csv")
    assert summary[0] == "schema_version,1"
    assert any(line.startswith("score_vs_model_error_corr") for line in summary)


def test_sweep_rejects_unknown_param(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    assert run(["sweep", "--data", data_dir, "--model", model_dir,
                "--param", "warp_factor", "--values", "1", "--out",
                tmp_path / "s"]) == 2


def test_sweep_loads_once_per_point_and_reports_once(workspace, tmp_path, monkeypatch):
    _, data_dir, model_dir = workspace
    calls = {"load_dataset": 0, "load_model": 0, "model_error_report": 0}
    reports = []
    for module, name in ((cli.data, "load_dataset"), (cli.dynamics, "load_model"),
                         (cli.dynamics, "model_error_report")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            result = _fn(*args)
            if _name == "model_error_report":
                reports.append(result.mean_l2)
            return result
        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "sweep"
    assert run(["sweep", "--data", data_dir, "--model", model_dir,
                "--param", "tau_budget", "--values", "5,10", "--seeds", 1,
                "--total-steps", 4, "--batch-size", 8, "--hidden-sizes", "8,8",
                "--n-action-samples", 2, "--log-interval", 2, "--out", out]) == 0
    # one load of each for the report, then one per point for its training
    assert calls == {"load_dataset": 3, "load_model": 3, "model_error_report": 1}
    rows = [line.split(",") for line in read_lines(out / "sweep.csv")[2:]]
    assert [row[5] for row in rows] == [repr(reports[0])] * 2


@pytest.mark.parametrize("param, values, message", [
    ("beta_awr", "abc", "could not convert string to float: 'abc'"),
    ("batch_size", "16.5", "invalid literal for int()"),
    ("hidden_sizes", "16", "sweep parameter 'hidden_sizes' is not a numeric"),
    ("adaptive_alpha", "1", "sweep parameter 'adaptive_alpha' is not a numeric"),
    ("batch_size", "8,0", "batch_size must be at least 1"),
    ("tau_budget", "0.1,0.1000001", "give two points the run name tau_budget=0.1"),
    ("batch_size", "8,16,8", "give two points the run name batch_size=8"),
])
def test_sweep_rejects_bad_values_with_one_line(workspace, tmp_path, capsys, param, values,
                                                message):
    _, data_dir, model_dir = workspace
    out = tmp_path / "s"
    capsys.readouterr()
    assert run(["sweep", "--data", data_dir, "--model", model_dir, "--param", param,
                "--values", values, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert message in err
    assert not out.exists()


def test_sweep_of_an_int_parameter_runs_with_ints(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    out = tmp_path / "s"
    assert run(["sweep", "--data", data_dir, "--model", model_dir, "--param", "batch_size",
                "--values", "4,8", "--seeds", 1, "--total-steps", 2, "--hidden-sizes", "8,8",
                "--n-action-samples", 2, "--log-interval", 2, "--out", out]) == 0
    assert [line.split(",")[:2] for line in read_lines(out / "sweep.csv")[2:]] == [
        ["batch_size", "4"], ["batch_size", "8"]]
    assert (out / "runs" / "batch_size=8_seed0" / "metrics.csv").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--episodes", 0), ("eval", "--episodes", -3),
    ("sweep", "--seeds", 0), ("sweep", "--workers", 0),
])
def test_counts_below_one_are_config_errors(workspace, tmp_path, capsys, command, flag, value):
    _, data_dir, model_dir = workspace
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--data", data_dir, "--scripted", "medium"]
    else:
        argv = ["sweep", "--data", data_dir, "--model", model_dir, "--param", "tau_budget",
                "--values", "5"]
    capsys.readouterr()
    assert run([*argv, flag, value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {flag} must be at least 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text, fragment", [
    ("train", "data = x\n", "no section headers"),
    ("train-dynamics", "[train-dynamics]\nhidden_sizes = 32,abc\n", "hidden_sizes"),
])
def test_malformed_config_file_is_one_line_config_error(workspace, tmp_path, capsys,
                                                        command, text, fragment):
    _, data_dir, _ = workspace
    config = tmp_path / "bad.ini"
    config.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--config", config, "--data", data_dir, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--no-eval", "maybe", "expected a boolean, got 'maybe'"),
    ("--hidden-sizes", "32,abc", "invalid literal for int() with base 10: 'abc'"),
    ("--total-steps", "1.5", "invalid literal for int() with base 10: '1.5'"),
])
def test_bad_flag_value_is_one_line_config_error(workspace, tmp_path, capsys, flag, value,
                                                 message):
    _, data_dir, _ = workspace
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--data", data_dir, flag, value, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {flag}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("eval", "env"), ("eval", "random_return_mean"),
                                          ("eval", "expert_return_mean"),
                                          ("train", "expert_return_mean")])
def test_dataset_without_env_or_anchors_is_io_error_before_work(workspace, tmp_path, capsys,
                                                               command, key):
    _, data_dir, _ = workspace
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    meta = json.loads((bad / "meta.json").read_text())
    del meta[key]
    (bad / "meta.json").write_text(json.dumps(meta))
    argv = {"eval": ["eval", "--data", bad, "--scripted", "medium", "--episodes", 1],
            "train": ["train", "--data", bad, "--algorithm", "awac", "--total-steps", 1,
                      "--hidden-sizes", "8,8"]}[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 4
    err = capsys.readouterr().err
    assert err == f"i/o error: {bad / 'meta.json'} lacks {key}\n"
    assert not out.exists()
    if command == "train":  # a run that never evaluates needs no anchors
        assert run([*argv, "--no-eval", "true", "--out", tmp_path / "no_eval"]) == 0


@pytest.mark.parametrize("command", ["gen-data", "train-dynamics", "train", "eval",
                                     "verify-theory", "sweep"])
def test_negative_seed_is_one_line_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--seed", -1, "--out", out]) == 2
    assert capsys.readouterr().err == "config error: --seed must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "-4"])
@pytest.mark.parametrize("command, source", [
    ("train-dynamics", "flag"), ("train", "flag"), ("sweep", "flag"),
    ("train-dynamics", "config"), ("train", "config"),
])
def test_hidden_width_below_one_is_one_line_error(workspace, tmp_path, capsys, command,
                                                  source, width):
    _, data_dir, model_dir = workspace
    argv = [command, "--data", data_dir]
    if command == "sweep":
        argv += ["--model", model_dir, "--param", "tau_budget", "--values", "5"]
    if source == "flag":
        argv += ["--hidden-sizes", width]
    else:
        config = tmp_path / "widths.ini"
        config.write_text(f"[{command}]\nhidden_sizes = {width}\n")
        argv += ["--config", config]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(
        f"hidden_sizes must be positive, got ({width},)\n"), err
    assert not out.exists()


def test_importing_the_cli_does_not_load_multiprocessing():
    code = "import sys, csve.cli; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False\n"


def test_verify_theory_negative_trials_is_config_error(tmp_path, capsys):
    out = tmp_path / "v"
    capsys.readouterr()
    assert run(["verify-theory", "--suite", "contraction", "--trials", -1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --trials must be at least 0") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# logs and timestamps
# ---------------------------------------------------------------------------

def test_timestamps_only_in_run_log(workspace):
    root, data_dir, model_dir = workspace
    assert (data_dir / "run.log").exists()
    primary = (data_dir / "meta.json").read_text() + \
        (model_dir / "nll_history.csv").read_text()
    import re

    assert not re.search(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", primary)
    assert re.search(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}",
                     (data_dir / "run.log").read_text())
