import json
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
