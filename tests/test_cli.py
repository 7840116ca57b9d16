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


def test_gen_data_of_one_medium_expert_row_is_the_expert_half(tmp_path):
    assert run(["gen-data", "--env", "gridworld", "--tier", "medium_expert",
                "--size", 1, "--seed", 0, "--out", tmp_path / "d"]) == 0
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    assert meta["size"] == 1
    assert meta["composition"] == {"expert": 1}


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
    fixed = {"csve_noise": dict(ood_variant="gaussian_noise"),
             "awac": dict(adaptive_alpha=False, alpha_init=0.0, lambda_explore=0.0),
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
        if not hp["adaptive_alpha"]:
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
    assert err == f"config error: {flag[2:]} must be at least 1, got {value}\n"
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
    assert capsys.readouterr().err == "config error: seed must be at least 0, got -1\n"
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


@pytest.mark.parametrize("value", [",", "", "32,,32", "32,"])
@pytest.mark.parametrize("command, source", [
    ("train-dynamics", "flag"), ("train", "flag"), ("sweep", "flag"),
    ("train-dynamics", "config"), ("train", "config"), ("sweep", "config"),
])
def test_empty_hidden_size_item_is_one_line_config_error(workspace, tmp_path, capsys,
                                                         command, source, value):
    """An empty item is not dropped: ``32,,32`` is not (32, 32), and ``,``
    is not an ensemble or agent without hidden layers."""
    _, data_dir, model_dir = workspace
    argv = [command, "--data", data_dir]
    if command == "sweep":
        argv += ["--model", model_dir, "--param", "tau_budget", "--values", "5"]
    if source == "flag":
        argv += ["--hidden-sizes", value]
        where = "--hidden-sizes"
    else:
        config = tmp_path / "widths.ini"
        config.write_text(f"[{command}]\nhidden_sizes = {value}\n")
        argv += ["--config", config]
        where = "config entry hidden_sizes"
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == (f"config error: {where}: expected comma-separated "
                                       f"values, none empty, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("values", ["5,,10", "5,10,", ",", ""])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_sweep_value_is_one_line_config_error(workspace, tmp_path, capsys, source,
                                                    values):
    _, data_dir, model_dir = workspace
    argv = ["sweep", "--data", data_dir, "--model", model_dir, "--param", "tau_budget"]
    if source == "flag":
        argv += ["--values", values]
        where = "--values"
    else:
        config = tmp_path / "grid.ini"
        config.write_text(f"[sweep]\nvalues = {values}\n")
        argv += ["--config", config]
        where = "config entry values"
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == (f"config error: {where}: expected comma-separated "
                                       f"values, none empty, got {values!r}\n")
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
    assert err == "config error: trials must be at least 0, got -1\n"
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


# ---------------------------------------------------------------------------
# non-finite hyper-parameters
# ---------------------------------------------------------------------------

FLOAT_HPS = [name for name, kind in cli._HP_KINDS.items() if kind is float]


@pytest.mark.parametrize("name", FLOAT_HPS)
@pytest.mark.parametrize("source", ["flag", "config", "sweep"])
def test_non_finite_hyper_parameter_is_one_line_config_error(workspace, tmp_path, capsys,
                                                             name, source):
    """``inf`` used to train to a divergence at step 1 (alpha_init, lr_critic,
    lambda_explore) or to exit 0 (tau_budget, beta_awr, weight_clip)."""
    _, data_dir, model_dir = workspace
    if source == "flag":
        argv = ["train", "--data", data_dir, "--" + name.replace("_", "-"), "inf"]
    elif source == "config":
        config = tmp_path / "hp.ini"
        config.write_text(f"[train]\n{name} = inf\n")
        argv = ["train", "--data", data_dir, "--config", config]
    else:
        argv = ["sweep", "--data", data_dir, "--model", model_dir, "--param", name,
                "--values", "0.5,inf"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {name} must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["-inf", "nan", "1e999"])
def test_other_non_finite_floats_are_config_errors(workspace, tmp_path, capsys, value):
    _, data_dir, _ = workspace
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", "--data", data_dir, f"--weight-clip={value}", "--out", out]) == 2
    assert capsys.readouterr().err == (f"config error: weight_clip must be finite, "
                                       f"got {float(value)}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def theory_seeds(out):
    return [line.split(",")[1] for line in read_lines(out / "theory.csv")[2:]]


def test_main_builds_the_parser_once_and_reuses_it(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build())
    for k in range(3):
        assert run(["verify-theory", "--suite", "interpolation", "--trials", 1,
                    "--out", tmp_path / str(k)]) == 0
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    code = "import csve.cli; print(csve.cli._PARSER)"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "None\n"


def test_a_reused_parser_keeps_no_flag_from_the_previous_call(tmp_path):
    suite = "argmax_consistency"
    assert run(["verify-theory", "--suite", suite, "--trials", 3, "--seed", 5,
                "--out", tmp_path / "a"]) == 0
    assert run(["verify-theory", "--suite", suite, "--out", tmp_path / "b"]) == 0
    assert theory_seeds(tmp_path / "a") == ["5", "6", "7"]
    assert theory_seeds(tmp_path / "b") == [str(s) for s in
                                            range(theory.DEFAULT_TRIALS[suite])]


def test_a_config_section_does_not_reach_the_next_call(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[verify-theory]\nsuite = argmax_consistency\ntrials = 2\n")
    assert run(["verify-theory", "--config", config, "--out", tmp_path / "a"]) == 0
    assert theory_seeds(tmp_path / "a") == ["0", "1"]
    assert run(["verify-theory", "--suite", "argmax_consistency", "--out",
                tmp_path / "b"]) == 0
    assert len(theory_seeds(tmp_path / "b")) == theory.DEFAULT_TRIALS["argmax_consistency"]


def test_an_argparse_error_leaves_the_parser_usable(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["verify-theory", "--suite", "interpolation", "--bogus", 1,
             "--out", tmp_path / "bad"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit):
        run(["verify-theory", "--trials", 2])  # --out is required
    capsys.readouterr()
    assert run(["verify-theory", "--suite", "interpolation", "--trials", 2,
                "--out", tmp_path / "ok"]) == 0
    assert theory_seeds(tmp_path / "ok") == ["0"] * 5 + ["1"] * 5
    assert not (tmp_path / "bad").exists()


# ---------------------------------------------------------------------------
# one rule for flags and config entries
# ---------------------------------------------------------------------------

COMMANDS = ("gen-data", "train-dynamics", "train", "eval", "verify-theory", "sweep")
# command -> {name: Value}, as ``build_parser`` declares them
DECLARED = {command: cli.build_parser().parse_args([command, "--out", "x"]).declared
            for command in COMMANDS}


def samples(value):
    """Two (raw, parsed) settings of ``value``: the first differs from its
    default, the second from the first."""
    if value.choices:
        picks = [c for c in value.choices if c != value.default]
        return (picks[0], picks[0]), (picks[1], picks[1])
    if value.kind is bool:
        return (str(not value.default), not value.default), (str(value.default), value.default)
    if value.kind in (int, float):
        first, second = value.default + value.kind(1), value.default + value.kind(2)
        return (repr(first), first), (repr(second), second)
    if value.kind is tuple:
        return ("3,4", (3, 4)), ("5", (5,))
    return ("from-entry", "from-entry"), ("from-flag", "from-flag")


def flag(name):
    return "--" + name.replace("_", "-")


def required_flags(command, but):
    """Flags for every value ``command`` cannot run without, except ``but``."""
    return [arg for name, value in DECLARED[command].items()
            if value.default is cli.REQUIRED and name != but
            for arg in (flag(name), samples(value)[0][0])]


def resolved(monkeypatch, command, argv):
    """The namespace ``main`` hands ``command``'s handler, which does not run."""
    seen = []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(args) or 0)
    assert run([command, *argv]) == 0
    return seen[0]


@pytest.mark.parametrize("command, name", [(command, name) for command, values in
                                           DECLARED.items() for name in values])
def test_every_value_resolves_flag_over_entry_over_default(tmp_path, monkeypatch, capsys,
                                                          command, name):
    value = DECLARED[command][name]
    (entry_raw, entry), (flag_raw, flag_value) = samples(value)
    others = required_flags(command, name)
    config = tmp_path / "run.ini"
    config.write_text(f"[{command}]\n{name} = {entry_raw}\n")
    out = ["--out", tmp_path / "out"]
    assert getattr(resolved(monkeypatch, command, [*others, "--config", config, *out]),
                   name) == entry
    assert getattr(resolved(monkeypatch, command, [*others, "--config", config,
                                                   flag(name), flag_raw, *out]), name) == flag_value
    if value.default is cli.REQUIRED:
        capsys.readouterr()
        assert run([command, *others, *out]) == 2
        assert capsys.readouterr().err == (f"config error: {command} needs {flag(name)} "
                                           f"or a config entry {name}\n")
    else:
        assert getattr(resolved(monkeypatch, command, [*others, *out]), name) == value.default


def test_a_seed_entry_seeds_the_run(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[verify-theory]\nsuite = argmax_consistency\ntrials = 3\nseed = 9\n")
    assert run(["verify-theory", "--config", config, "--out", tmp_path / "a"]) == 0
    assert theory_seeds(tmp_path / "a") == ["9", "10", "11"]
    assert run(["verify-theory", "--config", config, "--seed", 4, "--out", tmp_path / "b"]) == 0
    assert theory_seeds(tmp_path / "b") == ["4", "5", "6"]


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 9\n",
                                  "[DEFAULT]\ndata = x\n[verify-theory]\ntrials = 2\n"])
def test_a_default_entry_is_one_line_config_error(tmp_path, capsys, text):
    config = tmp_path / "c.ini"
    config.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["verify-theory", "--suite", "argmax_consistency", "--trials", 1,
                "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == (f"config error: config file {str(config)!r} has "
                                       "entries under [DEFAULT]; put each in its "
                                       "command's section\n")
    assert not out.exists()


@pytest.mark.parametrize("command, entry", [("verify-theory", "trails = 2"),
                                            ("train", "total-steps = 40"),
                                            ("train", "out = elsewhere"),
                                            ("eval", "config = other.ini")])
def test_an_undeclared_entry_is_one_line_config_error(tmp_path, capsys, command, entry):
    config = tmp_path / "c.ini"
    config.write_text(f"[{command}]\n{entry}\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--config", config, "--out", out]) == 2
    key = entry.split(" = ")[0]
    assert capsys.readouterr().err == (f"config error: unknown config entry {key!r} "
                                       f"in section [{command}]\n")
    assert not out.exists()


@pytest.mark.parametrize("command, name, bad", [("train", "algorithm", "bogus"),
                                                ("sweep", "algorithm", "bogus"),
                                                ("gen-data", "env", "mars"),
                                                ("gen-data", "tier", "legendary"),
                                                ("eval", "scripted", "oracle"),
                                                ("verify-theory", "suite", "noneuclidean")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_value_outside_its_choices_is_the_same_line_from_flag_or_entry(
        tmp_path, capsys, command, name, bad, source):
    argv = [command, *required_flags(command, name)]
    if source == "flag":
        argv += [flag(name), bad]
    else:
        config = tmp_path / "c.ini"
        config.write_text(f"[{command}]\n{name} = {bad}\n")
        argv += ["--config", config]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 2
    choices = ", ".join(DECLARED[command][name].choices)
    assert capsys.readouterr().err == (f"config error: {name} must be one of {choices}, "
                                       f"got {bad!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bounds_hold_for_entries_as_for_flags(tmp_path, capsys, source):
    argv = ["verify-theory", "--suite", "contraction"]
    if source == "flag":
        argv += ["--seed", -2]
    else:
        config = tmp_path / "c.ini"
        config.write_text("[verify-theory]\nseed = -2\n")
        argv += ["--config", config]
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "config error: seed must be at least 0, got -2\n"


def test_verify_theory_from_entries_matches_the_run_from_flags(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[verify-theory]\nsuite = gap_expansion\ntrials = 4\nseed = 6\n")
    assert run(["verify-theory", "--config", config, "--out", tmp_path / "entries"]) == 0
    assert run(["verify-theory", "--suite", "gap_expansion", "--trials", 4, "--seed", 6,
                "--out", tmp_path / "flags"]) == 0
    assert (tmp_path / "entries" / "theory.csv").read_bytes() == \
        (tmp_path / "flags" / "theory.csv").read_bytes()


def test_desk_train_from_entries_matches_the_run_from_flags(workspace, tmp_path):
    _, data_dir, model_dir = workspace
    settings = {"data": data_dir, "model": model_dir, "algorithm": "csve", "seed": 3,
                "total_steps": 40, "batch_size": 128, "hidden_sizes": "32,32",
                "n_action_samples": 4, "log_interval": 20, "eval_interval": 40, "n_eval": 2}
    config = tmp_path / "c.ini"
    config.write_text("[train]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert run(["train", "--config", config, "--out", tmp_path / "entries"]) == 0
    argv = [arg for k, v in settings.items() for arg in (flag(k), v)]
    assert run(["train", *argv, "--out", tmp_path / "flags"]) == 0
    files = sorted(p.relative_to(tmp_path / "flags") for p in (tmp_path / "flags").rglob("*")
                   if p.is_file() and p.name != "run.log")
    assert "metrics.csv" in map(str, files) and len(files) > 3
    for path in files:
        assert (tmp_path / "entries" / path).read_bytes() == \
            (tmp_path / "flags" / path).read_bytes(), path
