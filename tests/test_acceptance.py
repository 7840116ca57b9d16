"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The tabular certifications run at full scale (they are cheap); the
desk-scale training criteria use small networks and a 2-process worker
pool, which keeps the offline-RL criterion inside its runtime budget on a
2-core box.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from csve import agent, conservative as cons, data, dynamics, envs, nn, tabular as tab, theory

# Desk-scale knobs shared by the training criteria.  Table-3 values
# (alpha, tau, omega, gamma, beta, ensemble size B) always stay at their
# defaults; these sizing knobs are not part of that set.
DESK = dict(batch_size=128, hidden_sizes=(32, 32), n_action_samples=4)
WORKERS = 2


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def pass_rate(rows) -> float:
    return sum(r["holds"] for r in rows) / len(rows)


# ---------------------------------------------------------------------------
# Shared desk-scale fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def pointmass_medium():
    """50k-transition medium dataset plus the default 5-member ensemble."""
    env = envs.make_env("pointmass2d")
    dataset = data.generate_dataset(env, "medium", 50_000, seed=100)
    model = dynamics.train_ensemble(
        dataset,
        dynamics.EnsembleConfig(num_members=5, hidden_sizes=(32, 32),
                                max_epochs=20, patience=3),
        np.random.default_rng(0))
    return env, dataset, model


def _score(dataset, eval_return):
    return envs.normalized_score(eval_return, dataset.meta["random_return_mean"],
                                 dataset.meta["expert_return_mean"])


def _train_job(payload):
    """Worker entry: one deterministic training run, returns the final score."""
    dataset, model, hp_kwargs, seed, algorithm = payload
    hp = agent.CsveHyperParams(**hp_kwargs)
    env = envs.make_env(dataset.meta["env"])
    rng = np.random.default_rng(seed)
    if algorithm == "awac":
        _, rows = agent.awac_baseline(dataset, hp, rng, env=env)
    else:
        _, rows = agent.train_agent(dataset, model, hp, rng, env=env,
                                    algorithm=algorithm)
    evals = [r for r in rows if r["eval_return_mean"] is not None]
    pis = [r["loss_pi"] for r in rows if r["loss_pi"] is not None]
    return _score(dataset, evals[-1]["eval_return_mean"]), pis[-1]


def _run_jobs(payloads):
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(_train_job, payloads))


# ---------------------------------------------------------------------------
# 1-7: tabular certifications
# ---------------------------------------------------------------------------

def test_criterion_1_contraction():
    start = time.time()
    rows = theory.run_contraction_trials(500, seed0=0)
    rate = pass_rate(rows)
    elapsed = time.time() - start
    ok = rate == 1.0 and elapsed < 30.0
    assert report(1, ok, f"penalized operator is a gamma-contraction on "
                         f"500/500 tuples ({elapsed:.1f}s)")


def test_criterion_2_objective_operator_equivalence():
    start = time.time()
    rows = theory.run_operator_equivalence_trials(100, seed0=0)
    worst = max(r["lhs"] for r in rows)
    elapsed = time.time() - start
    ok = pass_rate(rows) == 1.0 and elapsed < 30.0
    assert report(2, ok, f"objective argmin matches the closed-form iterate, "
                         f"max gap {worst:.2e} on 100 instances ({elapsed:.1f}s)")


def test_criterion_3_lower_bound_under_d():
    start = time.time()
    exact_rows = theory.run_lower_bound_d_trials(200, seed0=0, zero_error=True)
    finite_rows = theory.run_lower_bound_d_trials(200, seed0=0, alpha_scale=1.1)
    elapsed = time.time() - start
    exact_rate = pass_rate(exact_rows)
    finite_rate = pass_rate(finite_rows)
    ok = exact_rate == 1.0 and finite_rate >= 0.95 and elapsed < 300.0
    assert report(3, ok, f"expected lower bound under d: {exact_rate:.3f} with "
                         f"zero sampling error, {finite_rate:.3f} at alpha = "
                         f"1.1 x threshold on 500-sample datasets ({elapsed:.1f}s)")


def test_criterion_4_lower_bound_under_data_and_gap_expansion():
    data_rows = theory.run_lower_bound_data_trials(100, seed0=0)
    gap_rows = theory.run_gap_expansion_trials(100, seed0=0)
    data_rate = pass_rate(data_rows)
    gap_rate = pass_rate(gap_rows)
    ok = data_rate >= 0.95 and gap_rate == 1.0
    assert report(4, ok, f"data-marginal bound rate {data_rate:.3f} (>= 0.95); "
                         f"gap expansion rate {gap_rate:.3f} (= 1.0) over 100 each")


def test_criterion_5_interpolation():
    rows = theory.run_interpolation_trials(1000, seed0=0)
    rate = pass_rate(rows)
    ok = rate == 1.0 and len(rows) == 5000
    assert report(5, ok, f"interpolation functional nonnegative on 1000 pairs "
                         f"x 5 factors ({rate:.3f})")


def test_criterion_6_argmax_consistency():
    rows = theory.run_argmax_consistency_trials(20, seed0=0)
    rate = pass_rate(rows)
    assert report(6, rate == 1.0,
                  f"penalized-objective argmax equals conservative-greedy policy "
                  f"on 20/20 enumerated 4-state MDPs ({rate:.3f})")


def test_criterion_7_safe_improvement():
    rows = theory.run_safe_improvement_trials(50, seed0=0)
    rate = pass_rate(rows)
    # decomposition identity is exact by construction; re-check one instance
    inst = theory.make_instance(0)
    penalty = cons.CsvePenaltyConfig(1.0, inst.d, inst.d_u)
    behavior = tab.random_policy(inst.mdp.num_states, inst.mdp.num_actions,
                                 np.random.default_rng(0))
    b = cons.safe_improvement_breakdown(inst.mdp, inst.empirical, inst.dataset,
                                        behavior, behavior, inst.sem, penalty)
    identity = b.zeta == b.sampling_term - b.improvement_term
    ok = rate >= 0.95 and identity
    assert report(7, ok, f"safe-improvement inequality on {rate:.3f} of 50 "
                         f"gridworld instances; zeta identity exact")


# ---------------------------------------------------------------------------
# 8-10: neural substrate and penalty dynamics
# ---------------------------------------------------------------------------

def test_criterion_8_gradient_fidelity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        activation = "relu" if rng.random() < 0.5 else "tanh"
        mlp = nn.Mlp.init(sizes, rng, activation=activation)
        x = rng.normal(size=(3, sizes[0]))
        cot = rng.normal(size=(3, sizes[-1]))
        _, cache = mlp.forward_cache(x)
        grads, _ = mlp.backward(cache, cot)
        h = 1e-5
        for k, p in enumerate(mlp.params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = p[idx]
                p[idx] = saved + h
                up = float(np.sum(mlp.forward(x) * cot))
                p[idx] = saved - h
                down = float(np.sum(mlp.forward(x) * cot))
                p[idx] = saved
                fd = (up - down) / (2 * h)
                scale = max(abs(fd), abs(grads[k][idx]))
                if scale > 1e-8:
                    worst = max(worst, abs(grads[k][idx] - fd) / scale)
    assert report(8, worst <= 1e-4,
                  f"backward pass vs central finite differences, max relative "
                  f"error {worst:.2e} over 10 random shapes")


def test_criterion_9_awac_degeneration_bit_identical(tmp_path, pointmass_medium):
    from csve.cli import METRIC_COLUMNS, write_csv

    _, dataset, model = pointmass_medium
    steps = 2000
    hp = agent.CsveHyperParams(total_steps=steps, log_interval=100,
                               alpha_init=0.0, adaptive_alpha=False,
                               lambda_explore=0.0, **DESK)
    _, rows_csve = agent.train_agent(dataset, model, hp, np.random.default_rng(77),
                                     algorithm="csve")
    _, rows_awac = agent.awac_baseline(dataset, agent.CsveHyperParams(
        total_steps=steps, log_interval=100, **DESK), np.random.default_rng(77))
    write_csv(tmp_path / "csve.csv", METRIC_COLUMNS, rows_csve)
    write_csv(tmp_path / "awac.csv", METRIC_COLUMNS, rows_awac)
    identical = (tmp_path / "csve.csv").read_bytes() == (tmp_path / "awac.csv").read_bytes()
    assert report(9, identical,
                  f"alpha=0, lambda=0 metric log is bit-identical to the AWAC "
                  f"baseline over {steps} steps ({len(rows_csve)} rows)")


def test_criterion_10_adaptive_alpha_strict_response():
    hp = agent.CsveHyperParams(adaptive_alpha=True, tau_budget=10.0,
                               lr_alpha=1e-3, **DESK)
    bundle = agent.init_bundle(2, 1, [1.0], hp, np.random.default_rng(0))
    frozen_batch = agent.Batch(np.zeros((4, 2)), np.zeros((4, 1)), np.zeros(4),
                               np.zeros((4, 2)), np.zeros(4, dtype=bool))
    bundle.alpha = 1.0
    increasing = []
    for _ in range(100):
        agent.alpha_update(bundle, frozen_batch, None, hp, None,
                           gap=hp.tau_budget + 3.0)
        increasing.append(bundle.alpha)
    strictly_up = all(b > a for a, b in zip([1.0] + increasing, increasing))

    decreasing = []
    for _ in range(100):
        agent.alpha_update(bundle, frozen_batch, None, hp, None,
                           gap=hp.tau_budget - 3.0)
        decreasing.append(bundle.alpha)
    start = increasing[-1]
    strictly_down = all(
        b < a or (b == 0.0 and a == 0.0)
        for a, b in zip([start] + decreasing, decreasing))
    ok = strictly_up and strictly_down
    assert report(10, ok, "alpha strictly increases when gap > tau and strictly "
                          "decreases toward 0 when gap < tau (100 steps each way)")


# ---------------------------------------------------------------------------
# 11-13: desk-scale offline RL
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_offline_rl_beats_behavior(pointmass_medium):
    start = time.time()
    env, dataset, model = pointmass_medium
    behavior_score = _score(dataset, dataset.meta["behavior_return_mean"])
    hp_kwargs = dict(total_steps=50_000, log_interval=5000,
                     eval_interval=50_000, n_eval=10, **DESK)
    jobs = [(dataset, model, hp_kwargs, seed, "csve") for seed in (1, 2, 3)]
    jobs += [(dataset, model, hp_kwargs, seed, "awac") for seed in (1, 2, 3)]
    results = _run_jobs(jobs)
    csve_scores = [score for score, _ in results[:3]]
    awac_scores = [score for score, _ in results[3:]]
    csve_mean = float(np.mean(csve_scores))
    awac_mean = float(np.mean(awac_scores))
    elapsed = time.time() - start
    ok = csve_mean >= behavior_score and csve_mean >= awac_mean - 5.0 \
        and elapsed < 900.0
    assert report(11, ok,
                  f"pointmass2d medium 50k steps x 3 seeds: csve {csve_mean:.1f} "
                  f"vs behavior {behavior_score:.1f} and awac {awac_mean:.1f} "
                  f"({elapsed / 60:.1f} min)")


@pytest.mark.slow
def test_criterion_12_exploration_weight_direction(pointmass_medium):
    env, dataset, model = pointmass_medium
    hp_base = dict(total_steps=20_000, log_interval=2000, eval_interval=20_000,
                   n_eval=10, beta_awr=0.1, **DESK)
    jobs = [(dataset, model, dict(hp_base, lambda_explore=lam), seed, "csve")
            for lam in (0.0, 0.5) for seed in (1, 2, 3)]
    results = _run_jobs(jobs)
    score_0 = float(np.mean([s for s, _ in results[:3]]))
    score_h = float(np.mean([s for s, _ in results[3:]]))
    pi_0 = float(np.mean([p for _, p in results[:3]]))
    pi_h = float(np.mean([p for _, p in results[3:]]))
    ok = score_h >= score_0
    assert report(12, ok,
                  f"mean score at lambda=0.5 is {score_h:.1f} vs {score_0:.1f} at "
                  f"lambda=0 (beta=0.1, 3 seeds); final policy losses "
                  f"{pi_h:.3f} vs {pi_0:.3f}")


@pytest.mark.slow
def test_criterion_13_model_error_correlation(pointmass_medium):
    env, dataset, model = pointmass_medium
    fractions = (0.0006, 0.002, 0.008, 0.05, 0.4)
    run_specs = []
    errors = []
    for frac in fractions:
        keep = max(24, int(frac * dataset.size))
        sub = data.ContinuousTransitionDataset(
            dataset.states[:keep], dataset.actions[:keep], dataset.rewards[:keep],
            dataset.next_states[:keep], dataset.dones[:keep], dict(dataset.meta))
        weak = dynamics.train_ensemble(
            sub, dynamics.EnsembleConfig(num_members=3, hidden_sizes=(32, 32),
                                         max_epochs=15, patience=3),
            np.random.default_rng(17))
        err = dynamics.model_error_report(weak, dataset).mean_l2
        for seed in (1, 2):
            run_specs.append((dataset, weak,
                              dict(total_steps=8_000, log_interval=1000,
                                   eval_interval=8_000, n_eval=10, beta_awr=0.1,
                                   lambda_explore=0.5, **DESK), seed, "csve"))
            errors.append(err)
    results = _run_jobs(run_specs)
    scores = [s for s, _ in results]
    corr = float(np.corrcoef(np.array(errors), np.array(scores))[0, 1])
    assert report(13, corr <= 0.0,
                  f"score vs one-step model L2 correlation {corr:.2f} over "
                  f"{len(scores)} runs with model quality spanning "
                  f"{min(errors):.4f}..{max(errors):.4f}")


# ---------------------------------------------------------------------------
# 14: noise-variant conservatism
# ---------------------------------------------------------------------------

def test_criterion_14_noise_variant():
    sigma_grid = (0.05, 0.1, 0.15)
    failures = []
    for env_name in envs.ENV_NAMES:
        env = envs.make_env(env_name)
        for tier in data.DATASET_TIERS:
            dataset = data.generate_dataset(env, tier, 800, seed=14,
                                            anchor_episodes=2)
            for sigma2 in sigma_grid:
                hp = agent.CsveHyperParams(total_steps=300, batch_size=32,
                                           hidden_sizes=(16, 16),
                                           n_action_samples=2, noise_var=sigma2,
                                           lambda_explore=0.0, log_interval=100)
                try:
                    _, rows = agent.train_agent(dataset, None, hp,
                                                np.random.default_rng(3),
                                                algorithm="csve_noise")
                except Exception as err:  # noqa: BLE001 - recorded, not raised
                    failures.append((env_name, tier, sigma2, repr(err)))
                    continue
                if not all(np.isfinite(r["loss_v"]) and np.isfinite(r["loss_q"])
                           and np.isfinite(r["loss_pi"]) for r in rows):
                    failures.append((env_name, tier, sigma2, "non-finite loss"))

    # fixed-batch hand evaluation of the noise-variant V loss
    worst = 0.0
    for sigma2 in sigma_grid:
        hp = agent.CsveHyperParams(alpha_init=2.0, adaptive_alpha=False,
                                   n_action_samples=2, batch_size=1,
                                   ood_variant="gaussian_noise", noise_var=sigma2)
        v_net = nn.Mlp([1, 1], [np.array([[2.0]]), np.array([0.1])])
        q_net = nn.Mlp([2, 1], [np.array([[1.0], [0.5]]), np.array([-0.2])])
        policy = nn.Mlp([1, 2], [np.array([[0.3, 0.0]]), np.array([0.1, -1.0])])
        bundle = agent.AgentBundle(
            v_net=v_net, q_net=q_net, q_target=q_net.copy(), policy_net=policy,
            alpha=2.0, action_scale=np.array([1.0]),
            opt_v=nn.adam_init(v_net.params, 1e-4),
            opt_q=nn.adam_init(q_net.params, 1e-4),
            opt_policy=nn.adam_init(policy.params, 3e-4))
        batch = agent.Batch(np.array([[0.4]]), np.array([[0.3]]), np.array([0.5]),
                            np.array([[0.6]]), np.array([False]))
        got = agent.v_loss_noise_variant(bundle, batch, hp, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        noise_q = rng.standard_normal((1, 2, 1))
        state_noise = rng.standard_normal((1, 1))
        s = 0.4
        mean, sigma = 0.3 * s + 0.1, math.exp(-1.0)
        y = np.mean([s + 0.5 * math.tanh(mean + sigma * e) - 0.2
                     for e in noise_q[0, :, 0]])
        v_s = 2.0 * s + 0.1
        s_ood = s + math.sqrt(sigma2) * state_noise[0, 0]
        expected = (y - v_s) ** 2 + 2.0 * ((2.0 * s_ood + 0.1) - v_s)
        worst = max(worst, abs(got.loss - expected))
    ok = not failures and worst <= 1e-10
    assert report(14, ok,
                  f"noise variant trained on 15 datasets x 3 sigma levels "
                  f"({len(failures)} failures); hand-evaluation gap {worst:.1e}")
