import numpy as np
import pytest

from csve import data, envs, tabular as tab
from csve.errors import InputError


# ---------------------------------------------------------------------------
# Environment steps
# ---------------------------------------------------------------------------

def test_pointmass_at_goal_zero_action_zero_reward():
    env = envs.PointMass2d()
    state = np.concatenate([env.GOAL, np.zeros(2)])
    nxt, reward, done = env.step(state, np.zeros(2), None)
    assert reward == pytest.approx(0.0, abs=1e-12)
    assert done


def test_pointmass_zero_action_from_rest_stays_put():
    env = envs.PointMass2d()
    state = np.array([-1.0, 0.5, 0.0, 0.0])
    for _ in range(50):
        nxt, _, _ = env.step(state, np.zeros(2), None)
        # closed-form double integrator: zero accel and zero velocity
        assert np.array_equal(nxt[:2], state[:2])
        assert np.array_equal(nxt[2:], state[2:])
        state = nxt


def test_pointmass_semi_implicit_euler_kinematics():
    env = envs.PointMass2d()
    state = np.array([0.0, 0.0, 0.0, 0.0])
    action = np.array([1.0, -0.5])
    nxt, _, _ = env.step(state, action, None)
    vel = action * env.DT
    assert np.allclose(nxt[2:], vel)
    assert np.allclose(nxt[:2], vel * env.DT)


def test_gridworld_moves_right_without_slip():
    env = envs.GridWorld(slip=0.0)
    state = env.reset(None)
    nxt, reward, done = env.step(state, envs.GridWorld.encode_action(0),
                                 np.random.default_rng(0))
    assert nxt.tolist() == [0.0, 1.0]  # one cell to the right
    assert reward == 0.0 and not done


def test_gridworld_goal_entry_pays_one_and_terminates():
    env = envs.GridWorld(slip=0.0)
    state = np.array([7.0, 6.0])
    nxt, reward, done = env.step(state, envs.GridWorld.encode_action(0),
                                 np.random.default_rng(0))
    assert reward == 1.0 and done
    assert env.state_index(nxt) == env.goal_index


def test_gridworld_walls_clamp():
    env = envs.GridWorld(slip=0.0)
    nxt, _, _ = env.step(np.array([0.0, 0.0]), envs.GridWorld.encode_action(3),
                         np.random.default_rng(0))  # up against the wall
    assert nxt.tolist() == [0.0, 0.0]


def test_pendulum_reward_and_wrap():
    env = envs.Pendulum()
    upright = np.array([1.0, 0.0, 0.0])
    _, reward, done = env.step(upright, np.zeros(1), None)
    assert reward == pytest.approx(0.0, abs=1e-12)
    assert not done
    hanging = np.array([-1.0, 0.0, 0.0])
    _, reward, _ = env.step(hanging, np.zeros(1), None)
    assert reward == pytest.approx(-np.pi ** 2, abs=1e-9)


def test_pendulum_state_stays_on_circle():
    env = envs.Pendulum()
    rng = np.random.default_rng(0)
    state = env.reset(rng)
    for _ in range(100):
        state, _, _ = env.step(state, rng.uniform(-2, 2, size=1), rng)
        assert state[0] ** 2 + state[1] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(state[2]) <= env.MAX_SPEED


def test_make_env_rejects_unknown():
    with pytest.raises(InputError):
        envs.make_env("mountaincar")


# ---------------------------------------------------------------------------
# Scripted tiers
# ---------------------------------------------------------------------------

def test_random_tier_is_uniform_ks():
    env = envs.PointMass2d()
    policy = envs.scripted_policy(env, "random")
    rng = np.random.default_rng(0)
    state = env.reset(rng)
    samples = np.array([policy(state, rng) for _ in range(10_000)])
    for dim in range(2):
        xs = np.sort((samples[:, dim] + 1.0) / 2.0)
        ecdf = np.arange(1, len(xs) + 1) / len(xs)
        ks = np.max(np.abs(ecdf - xs))
        assert ks <= 1.36 / np.sqrt(len(xs))  # 5% critical value


def test_gridworld_expert_close_to_optimal_value():
    env = envs.GridWorld()
    mdp = env.tabular_mdp(discount=0.99)
    expert = env.epsilon_greedy_table(mdp, envs.GRIDWORLD_TIER_EPSILON["expert"])
    v_expert = tab.exact_policy_evaluation(mdp, expert).values
    v_optimal, _ = tab.optimal_value_iteration(mdp)
    got = float(mdp.initial_dist @ v_expert)
    best = float(mdp.initial_dist @ v_optimal)
    assert got >= 0.95 * best


def test_tier_return_ordering_with_separated_intervals():
    for name in envs.ENV_NAMES:
        env = envs.make_env(name)
        stats = {}
        for i, tier in enumerate(envs.TIERS):
            policy = envs.scripted_policy(env, tier)
            rets = envs.evaluate_policy(env, policy, 100, np.random.default_rng(50 + i))
            half = 1.96 * rets.std(ddof=1) / np.sqrt(len(rets))
            stats[tier] = (rets.mean(), half)
        r, m, e = stats["random"], stats["medium"], stats["expert"]
        assert r[0] + r[1] < m[0] - m[1], f"{name}: random/medium overlap"
        assert m[0] + m[1] < e[0] - e[1], f"{name}: medium/expert overlap"


def test_medium_tier_in_normalized_window():
    for name in ("pointmass2d", "pendulum"):
        env = envs.make_env(name)
        r = envs.evaluate_policy(env, envs.scripted_policy(env, "random"), 100,
                                 np.random.default_rng(1)).mean()
        m = envs.evaluate_policy(env, envs.scripted_policy(env, "medium"), 100,
                                 np.random.default_rng(2)).mean()
        e = envs.evaluate_policy(env, envs.scripted_policy(env, "expert"), 100,
                                 np.random.default_rng(3)).mean()
        score = envs.normalized_score(m, r, e)
        assert 40.0 <= score <= 70.0, f"{name} medium at {score:.1f}"


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def test_generate_size_one():
    env = envs.make_env("pointmass2d")
    ds = data.generate_dataset(env, "random", 1, seed=3, anchor_episodes=2)
    assert ds.size == 1
    assert ds.meta["size"] == 1


def test_medium_expert_is_two_halves():
    env = envs.GridWorld(slip=0.0)
    size = 60
    ds = data.generate_dataset(env, "medium_expert", size, seed=4, anchor_episodes=2)
    assert ds.meta["composition"] == {"medium": 30, "expert": 30}

    half_m = data.generate_dataset(env, "medium", 30, seed=4, anchor_episodes=2)
    assert np.array_equal(ds.states[:30], half_m.states)
    assert np.array_equal(ds.actions[:30], half_m.actions)


def test_generation_is_seed_deterministic(tmp_path):
    env = envs.make_env("pendulum")
    a = data.generate_dataset(env, "medium_replay", 300, seed=9, anchor_episodes=2)
    b = data.generate_dataset(env, "medium_replay", 300, seed=9, anchor_episodes=2)
    data.save_dataset(a, tmp_path / "a")
    data.save_dataset(b, tmp_path / "b")
    assert (tmp_path / "a" / "transitions.bin").read_bytes() == \
        (tmp_path / "b" / "transitions.bin").read_bytes()
    assert (tmp_path / "a" / "meta.json").read_text() == \
        (tmp_path / "b" / "meta.json").read_text()


def test_anchor_metadata_present_and_ordered():
    env = envs.make_env("pointmass2d")
    ds = data.generate_dataset(env, "medium", 400, seed=5, anchor_episodes=5)
    meta = ds.meta
    assert meta["random_return_mean"] < meta["expert_return_mean"]
    assert meta["random_return_mean"] < meta["behavior_return_mean"]


def test_deterministic_envs_resimulate_exactly():
    for name in ("pointmass2d", "pendulum"):
        env = envs.make_env(name)
        ds = data.generate_dataset(env, "medium", 300, seed=6, anchor_episodes=2)
        for i in range(ds.size):
            nxt, reward, _ = env.step(ds.states[i], ds.actions[i], None)
            assert np.array_equal(nxt, ds.next_states[i])
            assert reward == ds.rewards[i]


def test_unknown_tier_rejected():
    with pytest.raises(InputError):
        data.generate_dataset(envs.make_env("pointmass2d"), "legendary", 10, 0)


# ---------------------------------------------------------------------------
# Disk format and import
# ---------------------------------------------------------------------------

def test_round_trip_is_bit_exact(tmp_path):
    env = envs.make_env("pointmass2d")
    ds = data.generate_dataset(env, "random", 200, seed=7, anchor_episodes=2)
    data.save_dataset(ds, tmp_path / "d")
    back = data.load_dataset(tmp_path / "d")
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.actions, ds.actions)
    assert np.array_equal(back.rewards, ds.rewards)
    assert np.array_equal(back.next_states, ds.next_states)
    assert np.array_equal(back.dones, ds.dones)
    assert back.meta["tier"] == "random"


def test_csv_import_matches_layout(tmp_path):
    header = "s0,s1,a0,r,ns0,ns1,done"
    rows = ["0.5,-0.25,1.0,0.125,0.625,-0.1875,0",
            "0.1,0.2,-1.0,-0.5,0.0,0.25,1"]
    path = tmp_path / "ext.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    ds = data.import_csv(path)
    assert ds.size == 2 and ds.state_dim == 2 and ds.action_dim == 1
    assert ds.rewards.tolist() == [0.125, -0.5]
    assert ds.dones.tolist() == [False, True]

    bad = tmp_path / "bad.csv"
    bad.write_text("x0,a0,r,ns0,done\n0,0,0,0,0\n")
    with pytest.raises(InputError):
        data.import_csv(bad)


# ---------------------------------------------------------------------------
# Tabular bridge
# ---------------------------------------------------------------------------

def test_tabularize_counts_match_recount():
    env = envs.GridWorld()
    ds = data.generate_dataset(env, "medium", 500, seed=5, anchor_episodes=2)
    tds = data.tabularize(ds, env)
    assert tds.num_transitions == 500
    # independent recount from the raw records
    counts = np.zeros((64, 4), dtype=int)
    for s, a in zip(ds.states, ds.actions):
        counts[env.state_index(s), env.decode_action(a)] += 1
    assert np.array_equal(counts, tds.count_sa)
    # empty-pair coverage map matches a direct scan
    assert np.array_equal(tds.count_sa == 0, counts == 0)


def test_tabularize_rejects_non_gridworld():
    env = envs.make_env("pointmass2d")
    ds = data.generate_dataset(env, "random", 10, seed=0, anchor_episodes=2)
    with pytest.raises(InputError):
        data.tabularize(ds, env)


def test_tabularize_single_transition():
    env = envs.GridWorld(slip=0.0)
    state = env.reset(None)
    action = envs.GridWorld.encode_action(2)
    nxt, reward, done = env.step(state, action, np.random.default_rng(0))
    ds = data.ContinuousTransitionDataset(
        np.array([state]), np.array([action]), np.array([reward]),
        np.array([nxt]), np.array([done]))
    tds = data.tabularize(ds, env)
    assert tds.count_sa[env.state_index(state), 2] == 1
    assert tds.next_states[0] == env.state_index(nxt)
