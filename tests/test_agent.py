import dataclasses
import math

import numpy as np
import pytest

from csve import agent, data, dynamics, envs, nn
from csve.errors import ConfigError, InputError


def tiny_hp(**kwargs):
    defaults = dict(alpha_init=1.5, adaptive_alpha=False, tau_budget=1.0,
                    beta_awr=1.0, lambda_explore=0.0, omega=0.01, gamma=0.9,
                    n_action_samples=2, batch_size=4, total_steps=10,
                    hidden_sizes=(8, 8), log_interval=5, eval_interval=10,
                    n_eval=1, weight_clip=100.0)
    defaults.update(kwargs)
    return agent.CsveHyperParams(**defaults)


def hand_bundle(hp):
    """1-d state/action bundle with hand-set linear networks."""
    v_net = nn.Mlp([1, 1], [np.array([[2.0]]), np.array([0.1])])
    q_net = nn.Mlp([2, 1], [np.array([[1.0], [0.5]]), np.array([-0.2])])
    policy = nn.Mlp([1, 2], [np.array([[0.3, 0.0]]), np.array([0.1, -1.0])])
    return agent.AgentBundle(
        v_net=v_net, q_net=q_net, q_target=q_net.copy(), policy_net=policy,
        alpha=hp.alpha_init, action_scale=np.array([1.0]),
        opt_v=nn.adam_init(v_net.params, hp.lr_critic),
        opt_q=nn.adam_init(q_net.params, hp.lr_critic),
        opt_policy=nn.adam_init(policy.params, hp.lr_actor))


def hand_model():
    """Single-member linear Gaussian model with identity normalization:
    delta mean = 0.2 s + 0.5 a + 0.05, reward mean = -0.1 s + 0.3 a,
    log stds pinned at the clamp floor."""
    w = np.array([[0.2, -0.1, 0.0, 0.0],
                  [0.5, 0.3, 0.0, 0.0]])
    b = np.array([0.05, 0.0, nn.LOG_STD_MIN, nn.LOG_STD_MAX * 0 + nn.LOG_STD_MIN])
    member = nn.Mlp([2, 4], [w, b])
    return dynamics.EnsembleDynamicsModel(
        [member], np.zeros(2), np.ones(2), np.zeros(2), np.ones(2),
        state_dim=1, action_dim=1)


def one_transition_batch():
    return agent.Batch(np.array([[0.4]]), np.array([[0.3]]), np.array([0.5]),
                       np.array([[0.6]]), np.array([False]))


def medium_setup(size=2000, seed=0):
    env = envs.make_env("pointmass2d")
    ds = data.generate_dataset(env, "medium", size, seed=seed, anchor_episodes=2)
    return env, ds


@pytest.fixture(scope="module")
def pointmass_setup():
    env, ds = medium_setup()
    model = dynamics.train_ensemble(
        ds, dynamics.EnsembleConfig(num_members=2, hidden_sizes=(32, 32),
                                    max_epochs=12),
        np.random.default_rng(0))
    return env, ds, model


# ---------------------------------------------------------------------------
# Hyper-parameter validation
# ---------------------------------------------------------------------------

def test_hp_range_validation():
    for bad in (dict(omega=0.0), dict(omega=1.0), dict(tau_budget=0.0),
                dict(beta_awr=0.0), dict(lambda_explore=-0.1),
                dict(n_action_samples=0), dict(ood_variant="cosmic")):
        with pytest.raises(ConfigError):
            tiny_hp(**bad)


# ---------------------------------------------------------------------------
# v loss
# ---------------------------------------------------------------------------

def test_v_loss_alpha_zero_is_pure_regression():
    hp = tiny_hp(alpha_init=0.0)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    rng = np.random.default_rng(5)
    got = agent._v_loss_impl(bundle, batch, None, hp, rng, penalty_active=False,
                             noise_variant=False)
    assert got.gap is None

    # recompute: y = mean_j Q_target(s, a_j), loss = (y - V(s))^2
    rng2 = np.random.default_rng(5)
    noise = rng2.standard_normal((1, hp.n_action_samples, 1))
    mean, sigma = 0.3 * 0.4 + 0.1, math.exp(-1.0)
    acts = np.tanh(mean + sigma * noise[0, :, 0])
    y = np.mean([0.4 + 0.5 * a - 0.2 for a in acts])
    v = 2.0 * 0.4 + 0.1
    assert got.loss == pytest.approx((y - v) ** 2, abs=1e-12)


def test_v_loss_constant_v_has_zero_penalty_term():
    hp = tiny_hp(alpha_init=7.0)
    bundle = hand_bundle(hp)
    bundle.v_net.params[0][:] = 0.0  # V identically 0.1
    batch = one_transition_batch()
    got = agent.v_loss(bundle, batch, hand_model(), hp, np.random.default_rng(5))
    assert got.gap == pytest.approx(0.0, abs=1e-12)


def test_v_loss_hand_evaluation_model_variant():
    hp = tiny_hp(alpha_init=1.5)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    model = hand_model()
    got = agent.v_loss(bundle, batch, model, hp, np.random.default_rng(5))

    # replicate the documented draw order with scalar arithmetic
    rng = np.random.default_rng(5)
    noise_q = rng.standard_normal((1, 2, 1))
    pen_noise = rng.standard_normal((1, 1))
    _pick = rng.integers(1, size=1)
    model_noise = rng.standard_normal((1, 2))

    s = 0.4
    mean, sigma = 0.3 * s + 0.1, math.exp(-1.0)
    y = np.mean([s + 0.5 * math.tanh(mean + sigma * e) - 0.2
                 for e in noise_q[0, :, 0]])
    v_s = 2.0 * s + 0.1
    loss1 = (y - v_s) ** 2

    a_pen = math.tanh(mean + sigma * pen_noise[0, 0])
    delta = 0.2 * s + 0.5 * a_pen + 0.05 + math.exp(nn.LOG_STD_MIN) * model_noise[0, 0]
    s_ood = s + delta
    gap = (2.0 * s_ood + 0.1) - v_s
    assert got.gap == pytest.approx(gap, abs=1e-12)
    assert got.loss == pytest.approx(loss1 + 1.5 * gap, abs=1e-10)


def test_v_loss_noise_variant_hand_evaluation():
    hp = tiny_hp(alpha_init=2.0, ood_variant="gaussian_noise", noise_var=0.1)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    got = agent.v_loss_noise_variant(bundle, batch, hp, np.random.default_rng(8))

    rng = np.random.default_rng(8)
    noise_q = rng.standard_normal((1, 2, 1))
    state_noise = rng.standard_normal((1, 1))
    s = 0.4
    mean, sigma = 0.3 * s + 0.1, math.exp(-1.0)
    y = np.mean([s + 0.5 * math.tanh(mean + sigma * e) - 0.2
                 for e in noise_q[0, :, 0]])
    v_s = 2.0 * s + 0.1
    s_ood = s + math.sqrt(0.1) * state_noise[0, 0]
    gap = (2.0 * s_ood + 0.1) - v_s
    assert got.loss == pytest.approx((y - v_s) ** 2 + 2.0 * gap, abs=1e-10)


def test_v_loss_noise_variant_vanishes_as_sigma_shrinks():
    hp_small = tiny_hp(alpha_init=5.0, ood_variant="gaussian_noise", noise_var=1e-12)
    bundle = hand_bundle(hp_small)
    batch = one_transition_batch()
    got = agent.v_loss_noise_variant(bundle, batch, hp_small, np.random.default_rng(3))
    assert abs(got.gap) < 1e-5  # s' -> s for a continuous V


def test_v_loss_gradients_only_touch_v_net(pointmass_setup):
    env, ds, model = pointmass_setup
    hp = tiny_hp(alpha_init=2.0)
    rng = np.random.default_rng(1)
    bundle = agent.init_bundle(ds.state_dim, ds.action_dim, [1.0, 1.0], hp, rng)
    batch = agent._sample_batch(ds, 8, rng)
    got = agent.v_loss(bundle, batch, model, hp, rng)
    assert [g.shape for g in got.grads] == [p.shape for p in bundle.v_net.params]
    before = [p.copy() for p in bundle.policy_net.params + bundle.q_net.params
              + bundle.q_target.params]
    bundle.v_net.params, bundle.opt_v = nn.adam_step(bundle.opt_v,
                                                     bundle.v_net.params, got.grads)
    after = bundle.policy_net.params + bundle.q_net.params + bundle.q_target.params
    for p, q in zip(before, after):
        assert np.array_equal(p, q)


# ---------------------------------------------------------------------------
# q loss / target update
# ---------------------------------------------------------------------------

def test_q_loss_gamma_zero_is_reward_regression():
    hp = tiny_hp(gamma=1e-12)
    hp = dataclasses.replace(hp, gamma=0.5)  # placeholder; direct check below
    bundle = hand_bundle(tiny_hp())
    batch = agent.Batch(np.array([[0.4], [0.1]]), np.array([[0.3], [-0.2]]),
                        np.array([0.5, -1.0]), np.array([[0.6], [0.2]]),
                        np.array([False, False]))
    loss, _ = agent.q_loss(bundle, batch, tiny_hp(gamma=1e-9))
    q1 = 0.4 + 0.5 * 0.3 - 0.2
    q2 = 0.1 + 0.5 * -0.2 - 0.2
    v1 = 2.0 * 0.6 + 0.1
    v2 = 2.0 * 0.2 + 0.1
    expected = np.mean([(0.5 + 1e-9 * v1 - q1) ** 2, (-1.0 + 1e-9 * v2 - q2) ** 2])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_q_loss_zero_at_perfect_fit():
    hp = tiny_hp(gamma=0.9)
    bundle = hand_bundle(hp)
    s, a = 0.4, 0.3
    v_next = 2.0 * 0.6 + 0.1
    q_sa = s + 0.5 * a - 0.2
    reward = q_sa - hp.gamma * v_next
    batch = agent.Batch(np.array([[s]]), np.array([[a]]), np.array([reward]),
                        np.array([[0.6]]), np.array([False]))
    loss, _ = agent.q_loss(bundle, batch, hp)
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_q_loss_two_transition_hand_arithmetic():
    hp = tiny_hp(gamma=0.9)
    bundle = hand_bundle(hp)
    batch = agent.Batch(np.array([[0.4], [0.1]]), np.array([[0.3], [-0.2]]),
                        np.array([0.5, -1.0]), np.array([[0.6], [0.2]]),
                        np.array([False, True]))
    loss, _ = agent.q_loss(bundle, batch, hp)
    t1 = 0.5 + 0.9 * (2.0 * 0.6 + 0.1)
    t2 = -1.0  # terminal: no bootstrap
    q1 = 0.4 + 0.5 * 0.3 - 0.2
    q2 = 0.1 + 0.5 * -0.2 - 0.2
    expected = np.mean([(t1 - q1) ** 2, (t2 - q2) ** 2])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_target_update_endpoints():
    hp = tiny_hp()
    bundle = hand_bundle(hp)
    bundle.q_net.params[0][0, 0] = 3.0
    agent.target_update(bundle, dataclasses.replace(hp, omega=0.999999999999))
    assert bundle.q_target.params[0][0, 0] == pytest.approx(3.0, abs=1e-9)

    bundle2 = hand_bundle(hp)
    frozen = [p.copy() for p in bundle2.q_target.params]
    bundle2.q_net.params[0][0, 0] = 3.0
    agent.target_update(bundle2, dataclasses.replace(hp, omega=1e-300))
    for p, q in zip(bundle2.q_target.params, frozen):
        assert np.allclose(p, q)


# ---------------------------------------------------------------------------
# adaptive alpha
# ---------------------------------------------------------------------------

def test_alpha_fixed_points_and_monotonicity():
    hp = tiny_hp(adaptive_alpha=True, tau_budget=1.0, lr_alpha=0.1)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()

    bundle.alpha = 2.0
    agent.alpha_update(bundle, batch, None, hp, None, gap=hp.tau_budget)
    assert bundle.alpha == 2.0  # gap == tau: stationary

    agent.alpha_update(bundle, batch, None, hp, None, gap=hp.tau_budget + 2.0)
    assert bundle.alpha == pytest.approx(2.2)  # increases by lr * 2

    bundle.alpha = 0.0
    agent.alpha_update(bundle, batch, None, hp, None, gap=hp.tau_budget - 5.0)
    assert bundle.alpha == 0.0  # projected at zero

    bundle.alpha = 1.0
    agent.alpha_update(bundle, batch, None, hp, None, gap=hp.tau_budget - 2.0)
    assert bundle.alpha == pytest.approx(0.8)  # strictly decreases


# ---------------------------------------------------------------------------
# actor losses
# ---------------------------------------------------------------------------

def test_awr_zero_advantage_is_behavior_cloning():
    hp = tiny_hp(beta_awr=1.0)
    bundle = hand_bundle(hp)
    bundle.q_net.params = [np.zeros((2, 1)), np.zeros(1)]
    bundle.v_net.params = [np.zeros((1, 1)), np.zeros(1)]
    batch = agent.Batch(np.array([[0.4], [0.1]]), np.array([[0.3], [-0.5]]),
                        np.zeros(2), np.zeros((2, 1)), np.zeros(2, dtype=bool))
    got = agent.awr_policy_loss(bundle, batch, hp)
    mean = 0.3 * batch.states[:, 0] + 0.1
    log_prob = nn.squashed_gaussian_log_prob(
        mean[:, None], np.full((2, 1), -1.0), batch.actions, np.array([1.0]))
    assert got.loss == pytest.approx(float(-np.mean(log_prob)), abs=1e-12)

    tiny_beta = agent.awr_policy_loss(bundle, batch, dataclasses.replace(hp, beta_awr=1e-12))
    assert tiny_beta.loss == pytest.approx(got.loss, abs=1e-9)


def test_awr_two_sample_hand_weights():
    hp = tiny_hp(beta_awr=1.0)
    bundle = hand_bundle(hp)
    # Q picks the action coordinate, V is zero: advantage = action value
    bundle.q_net.params = [np.array([[0.0], [1.0]]), np.zeros(1)]
    bundle.v_net.params = [np.zeros((1, 1)), np.zeros(1)]
    bundle.action_scale = np.array([2.0])
    batch = agent.Batch(np.array([[0.0], [0.0]]), np.array([[1.0], [-1.0]]),
                        np.zeros(2), np.zeros((2, 1)), np.zeros(2, dtype=bool))
    got = agent.awr_policy_loss(bundle, batch, hp)

    weights = np.exp([1.0, -1.0])
    u = np.arctanh(np.array([0.5, -0.5]))
    log_prob = [
        -0.5 * ((u[i] - 0.1) / math.exp(-1.0)) ** 2 - (-1.0) - 0.5 * math.log(2 * math.pi)
        - math.log(2.0 * (1.0 - (batch.actions[i, 0] / 2.0) ** 2))
        for i in range(2)
    ]
    expected = -np.mean(weights * np.array(log_prob))
    assert got.loss == pytest.approx(float(expected), abs=1e-10)


def test_awr_weights_are_clipped():
    hp = tiny_hp(beta_awr=50.0, weight_clip=100.0)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    got = agent.awr_policy_loss(bundle, batch, hp)
    assert np.isfinite(got.loss)
    # weight would be exp(50 * advantage) without the cap
    q = 0.4 + 0.5 * 0.3 - 0.2
    v = 2.0 * 0.4 + 0.1
    assert 50.0 * (q - v) < np.log(100.0) or got.loss <= 100.0 * 50.0


def test_explore_loss_lambda_zero_identical_to_awr():
    hp = tiny_hp(lambda_explore=0.0)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    explore = agent.explore_policy_loss(bundle, batch, hand_model(), hp, rng)
    assert rng.bit_generator.state == before  # no randomness consumed
    awr = agent.awr_policy_loss(bundle, batch, hp)
    assert explore.loss == awr.loss
    for g1, g2 in zip(explore.grads, awr.grads):
        assert np.array_equal(g1, g2)


def test_explore_loss_hand_evaluation():
    hp = tiny_hp(lambda_explore=0.5, gamma=0.9)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    model = hand_model()
    got = agent.explore_policy_loss(bundle, batch, model, hp, np.random.default_rng(4))

    awr = agent.awr_policy_loss(bundle, batch, hp)
    rng = np.random.default_rng(4)
    eps = rng.standard_normal((1, 1))
    s = 0.4
    mean, sigma = 0.3 * s + 0.1, math.exp(-1.0)
    a = math.tanh(mean + sigma * eps[0, 0])
    delta = 0.2 * s + 0.5 * a + 0.05
    reward = -0.1 * s + 0.3 * a
    bonus = reward + 0.9 * (2.0 * (s + delta) + 0.1)
    assert got.awr_loss == pytest.approx(awr.loss, abs=1e-12)
    assert got.loss == pytest.approx(awr.loss - 0.5 * bonus, abs=1e-10)


def test_explore_loss_zero_bonus_when_v_and_reward_vanish():
    hp = tiny_hp(lambda_explore=0.9)
    bundle = hand_bundle(hp)
    bundle.v_net.params = [np.zeros((1, 1)), np.zeros(1)]
    model = hand_model()
    model.members[0].params[0][:, 1] = 0.0  # reward head weights
    model.members[0].params[1][1] = 0.0
    batch = one_transition_batch()
    got = agent.explore_policy_loss(bundle, batch, model, hp, np.random.default_rng(2))
    awr = agent.awr_policy_loss(bundle, batch, hp)
    assert got.loss == pytest.approx(awr.loss, abs=1e-12)


def test_explore_loss_gradient_matches_finite_differences():
    hp = tiny_hp(lambda_explore=0.7, gamma=0.9, beta_awr=1.0)
    rng0 = np.random.default_rng(12)
    bundle = agent.init_bundle(1, 1, [1.0], tiny_hp(hidden_sizes=(5, 4)), rng0)
    bundle.alpha = 0.0
    model = hand_model()
    batch = agent.Batch(np.array([[0.4], [-0.3]]), np.array([[0.3], [0.1]]),
                        np.array([0.5, -0.2]), np.array([[0.6], [0.0]]),
                        np.array([False, False]))

    got = agent.explore_policy_loss(bundle, batch, model, hp,
                                    np.random.default_rng(7))

    def loss_at(params):
        trial = agent.AgentBundle(
            v_net=bundle.v_net, q_net=bundle.q_net, q_target=bundle.q_target,
            policy_net=nn.Mlp(bundle.policy_net.layer_sizes, params),
            alpha=0.0, action_scale=bundle.action_scale,
            opt_v=bundle.opt_v, opt_q=bundle.opt_q, opt_policy=bundle.opt_policy)
        return agent.explore_policy_loss(trial, batch, model, hp,
                                         np.random.default_rng(7)).loss

    h = 1e-6
    for k, p in enumerate(bundle.policy_net.params):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = [q.copy() for q in bundle.policy_net.params]
            up[k][idx] += h
            down = [q.copy() for q in bundle.policy_net.params]
            down[k][idx] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            rel = abs(got.grads[k][idx] - fd) / max(abs(fd), 1e-6)
            assert rel <= 1e-4, (k, idx)


# ---------------------------------------------------------------------------
# CQL-AWR losses
# ---------------------------------------------------------------------------

def test_cql_critic_alpha_zero_matches_td_half():
    hp = tiny_hp(alpha_init=0.0, gamma=0.9, n_action_samples=2)
    bundle = hand_bundle(hp)
    bundle.alpha = 0.0
    batch = one_transition_batch()
    loss, _ = agent.cql_critic_loss(bundle, batch, hp, np.random.default_rng(6))

    rng = np.random.default_rng(6)
    _noise_pi = rng.standard_normal((1, 2, 1))
    noise_next = rng.standard_normal((1, 2, 1))
    s, a, r, sn = 0.4, 0.3, 0.5, 0.6
    mean_n, sigma = 0.3 * sn + 0.1, math.exp(-1.0)
    q_next = np.mean([sn + 0.5 * math.tanh(mean_n + sigma * e) - 0.2
                      for e in noise_next[0, :, 0]])
    target = r + 0.9 * q_next
    q_data = s + 0.5 * a - 0.2
    assert loss == pytest.approx(0.5 * (q_data - target) ** 2, abs=1e-10)


def test_cql_critic_hand_evaluation_with_penalty():
    hp = tiny_hp(alpha_init=0.8, gamma=0.9, n_action_samples=2)
    bundle = hand_bundle(hp)
    bundle.alpha = 0.8
    batch = one_transition_batch()
    loss, grads = agent.cql_critic_loss(bundle, batch, hp, np.random.default_rng(6))

    rng = np.random.default_rng(6)
    noise_pi = rng.standard_normal((1, 2, 1))
    noise_next = rng.standard_normal((1, 2, 1))
    s, a, r, sn = 0.4, 0.3, 0.5, 0.6
    sigma = math.exp(-1.0)
    mean_s = 0.3 * s + 0.1
    mean_n = 0.3 * sn + 0.1
    q_pi = np.mean([s + 0.5 * math.tanh(mean_s + sigma * e) - 0.2
                    for e in noise_pi[0, :, 0]])
    q_next = np.mean([sn + 0.5 * math.tanh(mean_n + sigma * e) - 0.2
                      for e in noise_next[0, :, 0]])
    q_data = s + 0.5 * a - 0.2
    expected = 0.8 * (q_pi - q_data) + 0.5 * (q_data - (r + 0.9 * q_next)) ** 2
    assert loss == pytest.approx(expected, abs=1e-10)
    assert [g.shape for g in grads] == [p.shape for p in bundle.q_net.params]


def test_cql_actor_reduces_to_q_baseline_awr_when_lambda_zero():
    hp = tiny_hp(alpha_init=0.0, lambda_explore=0.0, beta_awr=1.0,
                 n_action_samples=3)
    bundle = hand_bundle(hp)
    batch = one_transition_batch()
    got = agent.cql_actor_loss(bundle, batch, hp, np.random.default_rng(3))

    rng = np.random.default_rng(3)
    noise = rng.standard_normal((1, 3, 1))
    s, a = 0.4, 0.3
    sigma = math.exp(-1.0)
    mean_s = 0.3 * s + 0.1
    q_base = np.mean([s + 0.5 * math.tanh(mean_s + sigma * e) - 0.2
                      for e in noise[0, :, 0]])
    q_data = s + 0.5 * a - 0.2
    weight = math.exp(min(q_data - q_base, math.log(hp.weight_clip)))
    u = math.atanh(a)
    log_prob = (-0.5 * ((u - mean_s) / sigma) ** 2 + 1.0
                - 0.5 * math.log(2 * math.pi) - math.log(1.0 - a * a))
    assert got.loss == pytest.approx(-weight * log_prob, abs=1e-10)


# ---------------------------------------------------------------------------
# Training loop behavior
# ---------------------------------------------------------------------------

def test_h_zero_returns_initialized_bundle(pointmass_setup):
    _, ds, model = pointmass_setup
    hp = tiny_hp(total_steps=0)
    seed = 42
    bundle, rows = agent.train_agent(ds, model, hp, np.random.default_rng(seed))
    assert rows == []
    rng = np.random.default_rng(seed)
    rng.integers(2 ** 63)  # evaluation stream split happens first
    expected = agent.init_bundle(ds.state_dim, ds.action_dim,
                                 agent._action_scale_from(ds), hp, rng)
    for p, q in zip(bundle.policy_net.params, expected.policy_net.params):
        assert np.array_equal(p, q)


def test_awac_equivalence_is_bit_exact(pointmass_setup):
    env, ds, model = pointmass_setup
    hp = tiny_hp(alpha_init=0.0, adaptive_alpha=False, lambda_explore=0.0,
                 total_steps=60, batch_size=16, log_interval=10)
    b1, rows1 = agent.train_agent(ds, model, hp, np.random.default_rng(7),
                                  env=env, algorithm="csve")
    b2, rows2 = agent.awac_baseline(ds, tiny_hp(total_steps=60, batch_size=16,
                                                log_interval=10),
                                    np.random.default_rng(7), env=env)
    assert rows1 == rows2
    for p, q in zip(b1.policy_net.params, b2.policy_net.params):
        assert np.array_equal(p, q)
    for p, q in zip(b1.q_net.params, b2.q_net.params):
        assert np.array_equal(p, q)


def test_training_rerun_is_bit_exact(pointmass_setup):
    env, ds, model = pointmass_setup
    hp = tiny_hp(total_steps=40, batch_size=16, lambda_explore=0.1,
                 adaptive_alpha=True, log_interval=10)
    b1, rows1 = agent.train_agent(ds, model, hp, np.random.default_rng(11),
                                  env=env)
    b2, rows2 = agent.train_agent(ds, model, hp, np.random.default_rng(11),
                                  env=env)
    assert rows1 == rows2
    for p, q in zip(b1.v_net.params, b2.v_net.params):
        assert np.array_equal(p, q)


def test_metric_log_schema(pointmass_setup):
    env, ds, model = pointmass_setup
    hp = tiny_hp(total_steps=20, batch_size=8, log_interval=10, eval_interval=20)
    for maker, kwargs in ((agent.train_agent, dict(model=model)),
                          (lambda d, hp, r, env: agent.awac_baseline(d, hp, r, env=env), {}),
                          (lambda d, hp, r, env: agent.cql_awr_baseline(d, hp, r, env=env), {})):
        if kwargs:
            _, rows = maker(ds, kwargs["model"], hp, np.random.default_rng(0), env=env)
        else:
            _, rows = maker(ds, hp, np.random.default_rng(0), env)
        assert {tuple(sorted(r.keys())) for r in rows} == {
            tuple(sorted(["step", "loss_v", "loss_q", "loss_pi", "alpha", "v_gap",
                          "eval_return_mean", "eval_return_std"]))}


def test_penalty_weakly_closes_value_gap():
    """Frozen synthetic regression task with a linear V: the optimum of the
    penalized objective has E[V(ood)] - E[V(data)] strictly decreasing in
    alpha, so the converged gap must too.  The draws are re-seeded every
    step, freezing the sampled states across iterations and alpha levels."""
    hp_base = tiny_hp(ood_variant="gaussian_noise", noise_var=1.0,
                      n_action_samples=2)
    batch = agent.Batch(np.array([[0.0], [0.5], [1.0], [1.5]]),
                        np.zeros((4, 1)), np.zeros(4), np.zeros((4, 1)),
                        np.zeros(4, dtype=bool))
    gaps = []
    for alpha in (0.0, 2.0, 10.0):
        hp = dataclasses.replace(hp_base, alpha_init=alpha)
        bundle = hand_bundle(hp)
        bundle.v_net = nn.Mlp([1, 1], [np.zeros((1, 1)), np.zeros(1)])
        bundle.opt_v = nn.adam_init(bundle.v_net.params, 1e-2)
        bundle.alpha = alpha
        for _ in range(3000):
            got = agent._v_loss_impl(bundle, batch, None, hp,
                                     np.random.default_rng(5),
                                     penalty_active=True, noise_variant=True)
            bundle.v_net.params, bundle.opt_v = nn.adam_step(
                bundle.opt_v, bundle.v_net.params, got.grads)
        final = agent._v_loss_impl(bundle, batch, None, hp,
                                   np.random.default_rng(5),
                                   penalty_active=True, noise_variant=True)
        gaps.append(final.gap)
    assert gaps[0] >= gaps[1] - 1e-6
    assert gaps[1] >= gaps[2] - 1e-6
    assert gaps[2] < gaps[0]  # the penalty visibly separates the sets


def test_divergence_reports_step(pointmass_setup):
    _, ds, model = pointmass_setup
    hp = tiny_hp(total_steps=50, batch_size=8, lr_critic=1e150, alpha_init=1e8)
    from csve.errors import DivergenceError

    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            agent.train_agent(ds, model, hp, np.random.default_rng(0))
    assert err.value.step is not None and err.value.step <= 50


def test_checkpoint_round_trip(tmp_path, pointmass_setup):
    _, ds, model = pointmass_setup
    hp = tiny_hp(total_steps=15, batch_size=8)
    bundle, _ = agent.train_agent(ds, model, hp, np.random.default_rng(5))
    agent.save_agent(bundle, hp, 15, tmp_path / "ck", algorithm="csve")
    back, hp2, manifest = agent.load_agent(tmp_path / "ck")
    assert manifest["step"] == 15 and manifest["algorithm"] == "csve"
    assert hp2 == hp
    for name in ("v_net", "q_net", "q_target", "policy_net"):
        for p, q in zip(getattr(back, name).params, getattr(bundle, name).params):
            assert np.array_equal(p, q)
    state = np.array([0.1, 0.2, 0.0, 0.0])
    assert np.array_equal(agent.deterministic_action(back, state),
                          agent.deterministic_action(bundle, state))


def test_empty_dataset_rejected():
    ds = data.ContinuousTransitionDataset(np.zeros((0, 2)), np.zeros((0, 1)),
                                          np.zeros(0), np.zeros((0, 2)),
                                          np.zeros(0, dtype=bool))
    with pytest.raises(InputError):
        agent.train_agent(ds, None, tiny_hp(lambda_explore=0.0, alpha_init=0.0,
                                            adaptive_alpha=False),
                          np.random.default_rng(0), algorithm="awac")


def test_smoke_first_1000_steps_finite_on_all_datasets():
    """Spot the smoke invariant: every built-in env x tier trains 1,000 steps
    with finite losses (desk-scale net sizes, default penalty settings)."""
    for env_name in envs.ENV_NAMES:
        env = envs.make_env(env_name)
        model = None
        for tier in data.DATASET_TIERS:
            ds = data.generate_dataset(env, tier, 1200, seed=13, anchor_episodes=2)
            if model is None:
                model = dynamics.train_ensemble(
                    ds, dynamics.EnsembleConfig(num_members=2, hidden_sizes=(32, 32),
                                                max_epochs=8),
                    np.random.default_rng(1))
            hp = agent.CsveHyperParams(total_steps=1000, batch_size=64,
                                       hidden_sizes=(32, 32), n_action_samples=4,
                                       log_interval=100)
            _, rows = agent.train_agent(ds, model, hp, np.random.default_rng(2))
            for row in rows:
                for key in ("loss_v", "loss_q", "loss_pi", "alpha"):
                    assert np.isfinite(row[key]), (env_name, tier, key)


# ---------------------------------------------------------------------------
# The training step against its first form
# ---------------------------------------------------------------------------

def reference_adam_step(state, params, grads):
    """The Adam update as first written: one temporary per operation."""
    g = np.concatenate(grads, axis=None)
    step = state.step + 1
    b1, b2 = state.beta1, state.beta2
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** step)
    v_hat = v / (1.0 - b2 ** step)
    new = np.concatenate(params, axis=None) - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    out, start = [], 0
    for p in params:
        out.append(new[start:start + p.size].reshape(p.shape))
        start += p.size
    return out, nn.AdamState(m, v, step, state.lr, b1, b2, state.eps)


def reference_polyak(target, source, omega):
    return [(1.0 - omega) * t + omega * s for t, s in zip(target, source)]


def reference_training(ds, model, hp, seed, algorithm):
    """train_agent's loop as first written: every loss runs its own policy
    pass, every forward pass is one whole-batch pass, and Adam and Polyak
    are the expressions above."""
    rng = np.random.default_rng(seed)
    rng.integers(2 ** 63)
    bundle = agent.init_bundle(ds.state_dim, ds.action_dim,
                               agent._action_scale_from(ds), hp, rng)
    if algorithm == "awac":
        bundle.alpha = 0.0
    penalty = algorithm in ("csve", "csve_noise")
    rows = []
    for step in range(1, hp.total_steps + 1):
        batch = agent._sample_batch(ds, hp.batch_size, rng)
        if algorithm == "cql_awr":
            loss_v = gap = None
            loss_q, grads = agent.cql_critic_loss(bundle, batch, hp, rng)
            bundle.q_net.params, bundle.opt_q = reference_adam_step(
                bundle.opt_q, bundle.q_net.params, grads)
            pi = agent.cql_actor_loss(bundle, batch, hp, rng)
        else:
            res = agent._v_loss_impl(bundle, batch, model, hp, rng, penalty_active=penalty,
                                     noise_variant=algorithm == "csve_noise")
            loss_v, gap = res.loss, res.gap
            bundle.v_net.params, bundle.opt_v = reference_adam_step(
                bundle.opt_v, bundle.v_net.params, res.grads)
            if penalty:
                bundle.alpha = max(0.0, bundle.alpha + hp.lr_alpha * (gap - hp.tau_budget))
            loss_q, grads = agent.q_loss(bundle, batch, hp)
            bundle.q_net.params, bundle.opt_q = reference_adam_step(
                bundle.opt_q, bundle.q_net.params, grads)
            pi = agent.explore_policy_loss(bundle, batch, model, hp, rng)
        bundle.policy_net.params, bundle.opt_policy = reference_adam_step(
            bundle.opt_policy, bundle.policy_net.params, pi.grads)
        bundle.q_target.params = reference_polyak(bundle.q_target.params,
                                                  bundle.q_net.params, hp.omega)
        if step % hp.log_interval == 0 or step == hp.total_steps:
            rows.append({"step": step, "loss_v": loss_v, "loss_q": loss_q,
                         "loss_pi": pi.awr_loss, "alpha": bundle.alpha, "v_gap": gap,
                         "eval_return_mean": None, "eval_return_std": None})
    return bundle, rows


@pytest.mark.parametrize("algorithm", ["csve", "csve_noise", "awac", "cql_awr"])
def test_training_step_matches_its_first_form_exactly(pointmass_setup, algorithm,
                                                      monkeypatch):
    """32 x 10 = 320 target rows through 256-wide critics: the target passes
    run in two blocks, of 128 and 192 rows."""
    _, ds, model = pointmass_setup
    hp = agent.CsveHyperParams(batch_size=32, n_action_samples=10, total_steps=12,
                               log_interval=4, alpha_init=0.5, tau_budget=0.01)
    if algorithm == "awac":
        hp = dataclasses.replace(hp, adaptive_alpha=False, alpha_init=0.0,
                                 lambda_explore=0.0)
    blocks = []
    whole = nn.Mlp.forward_cache

    def spy(mlp, x):
        blocks.append(len(x))
        return whole(mlp, x)

    monkeypatch.setattr(nn.Mlp, "forward_cache", spy)
    bundle, rows = agent.train_agent(ds, model, hp, np.random.default_rng(3),
                                     algorithm=algorithm)
    assert 192 in blocks
    monkeypatch.setattr(nn.Mlp, "forward", lambda mlp, x: whole(mlp, x)[0])
    want, want_rows = reference_training(ds, model, hp, 3, algorithm)
    assert rows == want_rows
    assert bundle.alpha == want.alpha
    for name in ("v_net", "q_net", "q_target", "policy_net"):
        for p, q in zip(getattr(bundle, name).params, getattr(want, name).params):
            assert np.array_equal(p, q)
    for opt in ("opt_v", "opt_q", "opt_policy"):
        assert np.array_equal(getattr(bundle, opt).m, getattr(want, opt).m)
        assert np.array_equal(getattr(bundle, opt).v, getattr(want, opt).v)
