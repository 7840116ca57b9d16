"""The names and call shapes the benchmark's tracer (``bench/spans.py``)
wraps and reads.  A name it cannot find makes the per-layer metrics that
read it report 0, so a rename must fail here instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from csve import agent, cli, data, dynamics, envs, nn

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_reads_what_it_expects():
    spans = load_spans()
    modules = {name: importlib.import_module(f"csve.{name}") for name in spans.LAYERS}
    originals = (nn.Mlp.forward_cache, nn.adam_step, agent._v_loss_impl)
    env = envs.make_env("pointmass2d")
    dataset = data.generate_dataset(env, "medium", 300, seed=0, anchor_episodes=2)
    model = dynamics.train_ensemble(
        dataset, dynamics.EnsembleConfig(num_members=2, hidden_sizes=(8, 8), max_epochs=2),
        np.random.default_rng(0))
    hp = agent.CsveHyperParams(total_steps=2, batch_size=8, hidden_sizes=(8, 8),
                               n_action_samples=2, log_interval=1, alpha_init=1.0)
    tracer = spans.Tracer()
    try:
        assert tracer.install(modules) == []
        tracer.stage = "train"
        agent.train_agent(dataset, model, hp, np.random.default_rng(1))
    finally:
        tracer.uninstall()
    assert (nn.Mlp.forward_cache, nn.adam_step, agent._v_loss_impl) == originals
    train = ["train"]
    assert tracer.calls(train, "nn.adam_step") == 2 * 3
    assert tracer.calls(train, "nn.polyak_update") == 2
    assert tracer.calls(train, "nn.Mlp.backward") > 0 and tracer.count(train, "nn.flop") > 0
    assert tracer.count(train, "agent.penalty_active_steps") == 2

    # what the hooks read off the arguments
    assert list(inspect.signature(agent._v_loss_impl).parameters)[5] == "penalty_active"
    x = np.random.default_rng(2).normal(size=(5, 3))
    _, cache = nn.Mlp.init([3, 4, 1], np.random.default_rng(3)).forward_cache(x)
    assert cache[0][0] is x


def test_the_tracer_sees_every_suite_of_a_cli_run(tmp_path):
    """``theory.SUITES`` looks each runner up when it runs, so the wrappers
    the tracer patches onto ``theory`` are the ones ``verify-theory`` calls."""
    spans = load_spans()
    modules = {name: importlib.import_module(f"csve.{name}") for name in spans.LAYERS}
    tracer = spans.Tracer()
    try:
        assert tracer.install(modules) == []
        tracer.stage = "certify"
        assert cli.main(["verify-theory", "--trials", "1", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    stage = ["certify"]
    for name in (*spans.SUITE_RUNNERS.values(), "theory.run_lower_bound_d_trials"):
        assert tracer.calls(stage, name) >= 1, name
    for suite in ("value_lower_bound_d_exact", "value_lower_bound_d"):
        assert tracer.count(stage, f"theory.{suite}_s") > 0, suite
