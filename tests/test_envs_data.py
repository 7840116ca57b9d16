import numpy as np
import pytest

from csve import data, envs, tabular as tab
from csve.errors import InputError


# ---------------------------------------------------------------------------
# The scripted rollout as first written, on numpy arrays: the oracle the
# float-based environments, tiers, rollout and collection must match bit for bit
# ---------------------------------------------------------------------------

def numpy_pointmass_step(state, action):
    env = envs.PointMass2d
    goal = np.array(env.GOAL)
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (4,) or not np.all(np.isfinite(state)):
        raise InputError("point-mass state must be a finite 4-vector")
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    vel = np.clip(state[2:] + a * env.DT, -env.V_MAX, env.V_MAX)
    pos = np.clip(state[:2] + vel * env.DT, -env.POS_MAX, env.POS_MAX)
    dist = float(np.linalg.norm(pos - goal))
    reward = -dist - 0.01 * float(a @ a)
    return np.concatenate([pos, vel]), reward, dist < env.GOAL_RADIUS


class NumpyPointMass2d(envs.PointMass2d):
    def step(self, state, action, rng):
        return numpy_pointmass_step(state, action)

    def expert_action(self, state, rng):
        pos, vel = state[:2], state[2:]
        return np.clip(2.0 * (np.array(self.GOAL) - pos) - 2.4 * vel, -1.0, 1.0)

    def medium_action(self, state, rng):
        kp, kd = self.MEDIUM_GAINS
        pos, vel = state[:2], state[2:]
        drive = kp * (np.array(self.GOAL) - pos) - kd * vel
        return np.clip(drive + rng.uniform(-self.MEDIUM_NOISE, self.MEDIUM_NOISE, size=2),
                       -1.0, 1.0)


class NumpyGridWorld(envs.GridWorld):
    def step(self, state, action, rng):
        index = self.state_index(state)
        a = np.clip(action, -1.0, 1.0)
        direction = (0 if a[1] > 0 else 1) if abs(a[1]) >= abs(a[0]) else \
            (2 if a[0] > 0 else 3)
        if rng.random() < self.slip:
            direction = int(rng.integers(4))
        row, col = self._move(index // self.SIZE, index % self.SIZE, direction)
        reached = (row, col) == self.goal
        return np.array([float(row), float(col)]), 1.0 if reached else 0.0, reached


NUMPY_ENVS = {"pointmass2d": NumpyPointMass2d, "gridworld": NumpyGridWorld,
              "pendulum": envs.Pendulum}


def numpy_scripted_policy(env, tier, mix=None):
    spec = env.spec
    if isinstance(env, envs.GridWorld):
        epsilon = envs.GRIDWORLD_TIER_EPSILON[tier] if mix is None else mix
        table = env.epsilon_greedy_table(env.tabular_mdp(), epsilon)
        return lambda state, rng: envs.GridWorld.encode_action(
            int(rng.choice(4, p=table.probs[env.state_index(state)])))
    if tier == "random":
        return lambda state, rng: rng.uniform(spec.action_low, spec.action_high)
    if tier == "expert":
        return env.expert_action
    base = env.medium_action if hasattr(env, "medium_action") else env.expert_action
    rate = envs.MEDIUM_UNIFORM_RATE[spec.name] if mix is None else mix

    def medium_policy(state, rng):
        if rate > 0.0 and rng.random() < rate:
            return rng.uniform(spec.action_low, spec.action_high)
        return base(state, rng)

    return medium_policy


def numpy_rollout(env, policy, rng):
    states, actions, rewards, next_states, dones = [], [], [], [], []
    state = env.reset(rng)
    total = 0.0
    for _ in range(env.spec.horizon):
        action = np.clip(policy(state, rng), env.spec.action_low, env.spec.action_high)
        nxt, reward, done = env.step(state, action, rng)
        states.append(state)
        actions.append(np.atleast_1d(action))
        rewards.append(reward)
        next_states.append(nxt)
        dones.append(done)
        total += reward
        state = nxt
        if done:
            break
    return states, actions, rewards, next_states, dones, total


def numpy_collect(env, policy, size, rng):
    rows = []
    episode_returns = []
    while len(rows) < size:
        states, actions, rewards, next_states, dones, total = numpy_rollout(env, policy, rng)
        for tr in zip(states, actions, rewards, next_states, dones):
            rows.append(tr)
            if len(rows) == size:
                break
        else:
            episode_returns.append(total)
            continue
        break
    if not episode_returns:
        episode_returns.append(total)
    return rows, episode_returns


def numpy_generate(env_name, tier, size, seed, anchor_episodes):
    """Rows, behavior returns and anchors of data.generate_dataset as first
    written."""
    env = NUMPY_ENVS[env_name]()
    seq = np.random.SeedSequence(seed)
    gen_rng, random_rng, expert_rng = (np.random.default_rng(s) for s in seq.spawn(3))
    if tier in envs.TIERS:
        rows, rets = numpy_collect(env, numpy_scripted_policy(env, tier), size, gen_rng)
    elif tier == "medium_expert":
        rows_m, rets_m = numpy_collect(env, numpy_scripted_policy(env, "medium"), size // 2,
                                       gen_rng)
        rows_e, rets_e = numpy_collect(env, numpy_scripted_policy(env, "expert"),
                                       size - size // 2, gen_rng)
        rows, rets = rows_m + rows_e, rets_m + rets_e
    else:
        rows, rets = [], []
        for j in range(5):
            share = size // 5 if j < 4 else size - 4 * (size // 5)
            if share == 0:
                continue
            if env_name == "gridworld":
                mix = 1.0 + j / 4 * (envs.GRIDWORLD_TIER_EPSILON["medium"] - 1.0)
            else:
                mix = 1.0 + j / 4 * (envs.MEDIUM_UNIFORM_RATE[env_name] - 1.0)
            part, part_rets = numpy_collect(env, numpy_scripted_policy(env, "medium", mix),
                                            share, gen_rng)
            rows.extend(part)
            rets.extend(part_rets)
    anchors = []
    for tier_name, rng in (("random", random_rng), ("expert", expert_rng)):
        policy = numpy_scripted_policy(env, tier_name)
        anchors.append(float(np.mean([numpy_rollout(env, policy, rng)[-1]
                                      for _ in range(anchor_episodes)])))
    columns = tuple(np.array(col) for col in zip(*rows))
    return columns, float(np.mean(rets)), anchors


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


def test_pointmass_step_matches_numpy_step_exactly():
    """The float step against the numpy one on random states and actions,
    with clipping on every bound and states on the goal-radius circle."""
    env = envs.PointMass2d()
    rng = np.random.default_rng(21)
    n = 12_000
    states = np.hstack([rng.uniform(-2.2, 2.2, size=(n, 2)), rng.uniform(-1.1, 1.1, size=(n, 2))])
    actions = rng.uniform(-3.0, 3.0, size=(n, 2))
    # exact bounds: positions at +-2, speeds at +-1, actions at +-1 and 0
    states[:500, :2] = rng.choice([-2.0, 2.0], size=(500, 2))
    states[500:1000, 2:] = rng.choice([-1.0, 1.0], size=(500, 2))
    actions[1000:1500] = rng.choice([-1.0, 0.0, 1.0], size=(500, 2))
    # at rest on and about the goal-radius circle, so the next position is the
    # state's and the distance sits at GOAL_RADIUS to a few ulps
    theta = rng.uniform(0.0, 2.0 * np.pi, size=2000)
    radius = env.GOAL_RADIUS * (1.0 + rng.integers(-3, 4, size=2000) * 2.0 ** -52)
    states[2000:4000, :2] = np.array(env.GOAL) + radius[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)])
    states[2000:4000, 2:] = 0.0
    actions[2000:4000] = 0.0
    dones = 0
    for state, action in zip(states, actions):
        want = numpy_pointmass_step(state, action)
        got = env.step(state, action, None)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]
        dones += got[2]
    assert 0 < dones < 2000
    for bad in (np.nan, np.inf, -np.inf):
        state = np.zeros(4)
        state[2] = bad
        with pytest.raises(InputError):
            env.step(state, np.zeros(2), None)
        with pytest.raises(InputError):
            numpy_pointmass_step(state, np.zeros(2))
    with pytest.raises(InputError):
        env.step(np.zeros(3), np.zeros(2), None)


def test_uniform_action_matches_generator_uniform():
    for name in ("pointmass2d", "pendulum"):
        spec = envs.make_env(name).spec
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            got = envs._uniform_action(spec, got_rng)
            assert np.array_equal(got, want_rng.uniform(spec.action_low, spec.action_high))
        assert got_rng.random() == want_rng.random()


def test_scripted_rollouts_match_numpy_rollouts_exactly():
    """Every environment and tier: collected rows and the stream after them
    equal the numpy rollout's, and so do whole datasets with their anchors."""
    for name in envs.ENV_NAMES:
        env = envs.make_env(name)
        numpy_env = NUMPY_ENVS[name]()
        for tier in envs.TIERS:
            got_rng, want_rng = np.random.default_rng(31), np.random.default_rng(31)
            columns = ([], [], [], [], [])
            got_rets = data._collect(env, envs.scripted_policy(env, tier), 450, got_rng,
                                     columns)
            rows, want_rets = numpy_collect(numpy_env, numpy_scripted_policy(numpy_env, tier),
                                            450, want_rng)
            for got, want in zip(columns, zip(*rows)):
                assert np.array_equal(np.concatenate(got), np.array(want)), (name, tier)
            assert got_rets == want_rets
            assert got_rng.random() == want_rng.random()
        for tier in data.DATASET_TIERS:
            ds = data.generate_dataset(env, tier, 600, seed=13, anchor_episodes=3)
            columns, behavior_mean, (random_anchor, expert_anchor) = numpy_generate(
                name, tier, 600, 13, 3)
            for got, want in zip((ds.states, ds.actions, ds.rewards, ds.next_states,
                                  ds.dones), columns):
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, tier)
            assert ds.meta["behavior_return_mean"] == behavior_mean
            assert ds.meta["random_return_mean"] == random_anchor
            assert ds.meta["expert_return_mean"] == expert_anchor


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
    v_optimal, _ = tab.policy_iteration(mdp)
    got = float(mdp.initial_dist @ v_expert)
    best = float(mdp.initial_dist @ v_optimal.values)
    assert got >= 0.95 * best


@pytest.mark.parametrize("slip, discount", [(0.1, 0.99), (0.05, 0.95)])
def test_gridworld_diagonal_ties_go_to_right(slip, discount):
    """On the diagonal, right and down are mirror-image exact ties; the
    greedy action is the lower-index one, right (0), in every such cell."""
    env = envs.GridWorld(slip=slip)
    mdp = env.tabular_mdp(discount=discount)
    greedy = env.epsilon_greedy_table(mdp, 0.3).probs.argmax(axis=1)
    diagonal = [i * env.SIZE + i for i in range(env.SIZE) if i * env.SIZE + i != env.goal_index]
    assert greedy[diagonal].tolist() == [0] * len(diagonal)


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
