
import numpy as np
import pytest

from csve import tabular as tab
from csve import theory
from csve.envs import GridWorld
from csve.errors import InputError, NumericError


def chain_mdp(gamma=0.5):
    """Two-state deterministic chain s0 -> s1 -> s1 with reward 1 at s1."""
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 1] = 1.0
    r = np.array([[0.0], [1.0]])
    return tab.TabularMdp(p, r, np.array([1.0, 0.0]), gamma, r_max=1.0)


def single_policy(num_states):
    return tab.PolicyTable(np.ones((num_states, 1)))


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------

def test_mdp_rejects_bad_rows():
    p = np.zeros((2, 1, 2))
    p[0, 0, 0] = 0.9  # row does not sum to 1
    p[1, 0, 1] = 1.0
    with pytest.raises(InputError):
        tab.TabularMdp(p, np.zeros((2, 1)), np.array([1.0, 0.0]), 0.9, 1.0)


def test_mdp_rejects_reward_above_rmax():
    p = np.ones((1, 1, 1))
    with pytest.raises(InputError):
        tab.TabularMdp(p, np.array([[2.0]]), np.array([1.0]), 0.9, r_max=1.0)


def test_mdp_rejects_bad_discount():
    p = np.ones((1, 1, 1))
    for gamma in (0.0, 1.0, 1.5):
        with pytest.raises(InputError):
            tab.TabularMdp(p, np.zeros((1, 1)), np.array([1.0]), gamma, 1.0)


@pytest.mark.parametrize("column, index", [("states", 8), ("states", -1), ("actions", 2),
                                           ("actions", -1), ("next_states", 20),
                                           ("next_states", -1)])
def test_dataset_rejects_indices_out_of_range_at_construction(column, index):
    """8 states, 2 actions: each way in raises InputError, not an IndexError
    from ``np.add.at`` or a negative index that wraps."""
    good = {"states": np.array([1, 2]), "actions": np.array([0, 1]),
            "next_states": np.array([1, 2])}
    bad = {**good, column: np.array([1, index])}
    counts = np.zeros((8, 2), dtype=np.int64)
    np.add.at(counts, (good["states"], good["actions"]), 1)
    name = column[:-1].replace("_", " ")
    with pytest.raises(InputError, match=f"^{name} indices run from"):
        tab.TabularDataset(bad["states"], bad["actions"], np.zeros(2), bad["next_states"],
                           counts, counts.sum(axis=1))
    with pytest.raises(InputError, match=f"^{name} indices run from"):
        tab.TabularDataset.from_arrays(bad["states"], bad["actions"], np.zeros(2),
                                       bad["next_states"], 8, 2)
    with pytest.raises(InputError, match=f"^{name} indices run from"):
        tab.TabularDataset.from_transitions(
            zip(bad["states"], bad["actions"], np.zeros(2), bad["next_states"]), 8, 2)


def test_policy_rows_must_normalize():
    with pytest.raises(InputError):
        tab.PolicyTable(np.array([[0.5, 0.4]]))


def test_dataset_counts_are_validated():
    ds = tab.TabularDataset.from_transitions([(0, 0, 1.0, 1), (0, 0, 0.5, 0)], 2, 1)
    assert ds.count_sa[0, 0] == 2
    assert ds.count_s.tolist() == [2, 0]
    with pytest.raises(InputError):
        tab.TabularDataset(ds.states, ds.actions, ds.rewards, ds.next_states,
                           np.array([[1], [1]]), np.array([1, 1]))


def test_sampling_error_model_requires_dominating_combined_constant():
    with pytest.raises(InputError):
        tab.SamplingErrorModel(c_r=2.0, c_p=1.0, c_rt=1.0)


def test_arrays_are_frozen():
    mdp = chain_mdp()
    with pytest.raises(ValueError):
        mdp.transition[0, 0, 0] = 0.5


# ---------------------------------------------------------------------------
# exact_policy_evaluation
# ---------------------------------------------------------------------------

def test_single_state_geometric_series():
    mdp = tab.TabularMdp(np.ones((1, 1, 1)), np.array([[1.0]]), np.array([1.0]),
                         0.9, 1.0)
    v = tab.exact_policy_evaluation(mdp, single_policy(1))
    assert v.values[0] == pytest.approx(10.0, abs=1e-12)


def test_two_state_chain_closed_form():
    v = tab.exact_policy_evaluation(chain_mdp(0.5), single_policy(2))
    assert v.values[1] == pytest.approx(2.0, abs=1e-12)
    assert v.values[0] == pytest.approx(1.0, abs=1e-12)


def test_policy_evaluation_matches_iterative_oracle():
    rng = np.random.default_rng(7)
    mdp = tab.random_mdp(6, 3, 0.9, rng)
    policy = tab.random_policy(6, 3, rng)
    v = tab.exact_policy_evaluation(mdp, policy)

    # independent oracle: 10,000 sweeps of the Bellman recursion
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
    r_pi = np.sum(policy.probs * mdp.reward, axis=1)
    v_iter = np.zeros(6)
    for _ in range(10_000):
        v_iter = r_pi + mdp.discount * (p_pi @ v_iter)
    assert np.max(np.abs(v.values - v_iter)) < 1e-6


def test_bellman_consistency_on_random_mdps():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = int(rng.integers(2, 10))
        a = int(rng.integers(1, 5))
        mdp = tab.random_mdp(s, a, float(rng.uniform(0.2, 0.98)), rng)
        policy = tab.random_policy(s, a, rng)
        v = tab.exact_policy_evaluation(mdp, policy).values
        backup = np.sum(
            policy.probs * (mdp.reward + mdp.discount * (mdp.transition @ v)), axis=1)
        assert np.max(np.abs(v - backup)) <= 1e-9


@pytest.mark.parametrize("r_max", [1e5, 1e6])
def test_evaluation_of_large_rewards_passes_the_relative_residual_check(r_max):
    """At gamma 0.99 values reach ~1e8; the residual bound scales with |r_pi|."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        mdp = tab.random_mdp(20, 3, 0.99, rng, r_max=r_max)
        policy = tab.random_policy(20, 3, rng)
        v = tab.exact_policy_evaluation(mdp, policy).values
        backup = np.sum(
            policy.probs * (mdp.reward + mdp.discount * (mdp.transition @ v)), axis=1)
        assert np.max(np.abs(v - backup)) <= 1e-12 * np.max(np.abs(v))


def test_a_solve_off_its_system_raises_numeric_error(monkeypatch):
    mdp = tab.random_mdp(5, 2, 0.9, np.random.default_rng(4))
    policy = tab.random_policy(5, 2, np.random.default_rng(5))
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(NumericError, match="linear solve residual"):
        tab.exact_policy_evaluation(mdp, policy)


@pytest.mark.parametrize("num_states", [1, 3, 8, 20])
def test_a_stacked_solve_equals_per_system_solves_bit_for_bit(num_states):
    rng = np.random.default_rng(num_states)
    p_pi = rng.dirichlet(np.ones(num_states), size=(3, 4, num_states))
    r_pi = rng.uniform(-5.0, 5.0, size=(3, 4, num_states))
    stacked = tab.solve_policy_values(p_pi, r_pi, 0.9)
    assert stacked.shape == (3, 4, num_states)
    for i, j in np.ndindex(3, 4):
        single = tab.solve_policy_values(p_pi[i, j], r_pi[i, j], 0.9)
        assert stacked[i, j].tobytes() == single.tobytes()
        assert single.tobytes() == np.linalg.solve(np.eye(num_states) - 0.9 * p_pi[i, j],
                                                   r_pi[i, j]).tobytes()


def test_stacked_occupancies_equal_each_policys_occupancy_bit_for_bit():
    rng = np.random.default_rng(6)
    mdp = tab.random_mdp(6, 3, 0.85, rng)
    policies = [tab.random_policy(6, 3, rng) for _ in range(5)]
    stacked = tab.discounted_occupancies(
        np.stack([tab.policy_transition_matrix(mdp, pi) for pi in policies]),
        mdp.initial_dist, mdp.discount)
    for row, policy in zip(stacked, policies):
        assert row.tobytes() == tab.discounted_state_occupancy(mdp, policy).probs.tobytes()


@pytest.mark.parametrize("ill_posed", ["singular", "nan"])
def test_a_stack_holding_one_ill_posed_system_raises_numeric_error(ill_posed):
    rng = np.random.default_rng(7)
    p_pi = rng.dirichlet(np.ones(4), size=(5, 4))
    p_pi[3] = 2.0 * np.eye(4) if ill_posed == "singular" else np.nan  # I - 0.5 * 2I = 0
    with pytest.raises(NumericError, match="linear solve"):
        tab.solve_policy_values(p_pi, rng.uniform(size=(5, 4)), 0.5)
    tab.solve_policy_values(np.delete(p_pi, 3, axis=0), rng.uniform(size=(4, 4)), 0.5)


# ---------------------------------------------------------------------------
# policy_iteration against the value-iteration oracle, and the gridworld chain
# ---------------------------------------------------------------------------

def reference_value_iteration(mdp, correction=0.0):
    """Value iteration sweeping the (S, A, S) tensor, one expression a sweep."""
    v = np.zeros(mdp.num_states)
    while True:
        nxt = (mdp.reward + mdp.discount * (mdp.transition @ v)).max(axis=1) - correction
        if np.max(np.abs(nxt - v)) <= 1e-12:
            return nxt, mdp.reward + mdp.discount * (mdp.transition @ nxt)
        v = nxt


def reference_gridworld_mdp(env, discount):
    """The gridworld chain built cell by cell through ``GridWorld._move``."""
    n = env.SIZE * env.SIZE
    p = np.zeros((n, 4, n))
    r = np.zeros((n, 4))
    for s in range(n):
        if s == env.goal_index:
            p[s, :, s] = 1.0
            continue
        for a in range(4):
            for d in range(4):
                prob = (1.0 - env.slip if d == a else 0.0) + env.slip / 4.0
                nr, nc = env._move(s // env.SIZE, s % env.SIZE, d)
                nxt = nr * env.SIZE + nc
                p[s, a, nxt] += prob
                if nxt == env.goal_index:
                    r[s, a] += prob
    rho = np.zeros(n)
    rho[env.start[0] * env.SIZE + env.start[1]] = 1.0
    return tab.TabularMdp(p, r, rho, discount, r_max=1.0)


GRID_CASES = [(slip, goal) for slip in (0.0, 0.05, 0.2, 0.99) for goal in ((7, 7), (3, 4))]


@pytest.mark.parametrize("slip, goal", GRID_CASES)
def test_gridworld_mdp_matches_cell_loop(slip, goal):
    env = GridWorld(slip=slip, goal=goal)
    got, want = env.tabular_mdp(discount=0.95), reference_gridworld_mdp(env, 0.95)
    for name in ("transition", "reward", "initial_dist"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.discount == want.discount and got.r_max == want.r_max


def assert_policy_iteration_matches(mdp, correction, v_ref, q_ref):
    """policy_iteration's values within 1e-9 of the oracle's, and its greedy
    action the oracle's wherever the oracle's top two Q differ by more than 1e-9."""
    v, greedy = tab.policy_iteration(mdp, correction)
    assert np.max(np.abs(v.values - v_ref)) <= 1e-9
    ordered = np.sort(q_ref, axis=1)
    clear = ordered[:, -1] - (ordered[:, -2] if mdp.num_actions > 1 else -np.inf) > 1e-9
    actions = greedy.probs.argmax(axis=1)
    assert np.array_equal(actions[clear], q_ref.argmax(axis=1)[clear])


@pytest.mark.parametrize("slip, goal", GRID_CASES)
def test_value_iteration_matches_tensor_sweep_on_gridworld(slip, goal, value_iteration):
    """The oracle's 2-D view products equal the tensor's bit for bit when A
    is 4, and policy iteration reaches the oracle's values and actions."""
    mdp = GridWorld(slip=slip, goal=goal).tabular_mdp(discount=0.95)
    correction = np.random.default_rng(3).uniform(-0.01, 0.05, size=mdp.num_states)
    for corr in (0.0, correction):
        v, q = value_iteration(mdp, corr)
        v_ref, q_ref = reference_value_iteration(mdp, corr)
        assert np.array_equal(v, v_ref) and np.array_equal(q, q_ref)
        assert q.shape == (mdp.num_states, mdp.num_actions)
        assert_policy_iteration_matches(mdp, corr, v, q)


@pytest.mark.parametrize("num_actions", [1, 3, 5])
def test_value_iteration_matches_tensor_sweep_on_random_mdps(num_actions, value_iteration):
    """Off a multiple of 4 actions the 2-D product may round differently:
    values agree within 1e-12 and the greedy action wherever it is clear.
    Policy iteration reaches the oracle's values and actions."""
    rng = np.random.default_rng(num_actions)
    for _ in range(30):
        s_dim = int(rng.integers(1, 20))
        mdp = tab.random_mdp(s_dim, num_actions, float(rng.uniform(0.5, 0.95)), rng)
        correction = rng.uniform(-0.05, 0.05, size=s_dim)
        for corr in (0.0, correction):
            v, q = value_iteration(mdp, corr)
            v_ref, q_ref = reference_value_iteration(mdp, corr)
            assert np.max(np.abs(v - v_ref)) <= 1e-12
            ordered = np.sort(q_ref, axis=1)
            clear = np.all(np.diff(ordered, axis=1) > 1e-9, axis=1)
            assert np.array_equal(q.argmax(axis=1)[clear], q_ref.argmax(axis=1)[clear])
            assert_policy_iteration_matches(mdp, corr, v, q)


# ---------------------------------------------------------------------------
# discounted_state_occupancy
# ---------------------------------------------------------------------------

def test_occupancy_single_state():
    mdp = tab.TabularMdp(np.ones((1, 1, 1)), np.array([[0.0]]), np.array([1.0]),
                         0.7, 1.0)
    d = tab.discounted_state_occupancy(mdp, single_policy(1))
    assert d.probs.tolist() == [1.0]


def test_occupancy_two_state_chain():
    d = tab.discounted_state_occupancy(chain_mdp(0.5), single_policy(2))
    assert np.allclose(d.probs, [0.5, 0.5], atol=1e-12)


def test_occupancy_matches_monte_carlo():
    rng = np.random.default_rng(7)
    gamma = 0.5
    mdp = tab.random_mdp(6, 3, gamma, rng)
    policy = tab.random_policy(6, 3, rng)
    d = tab.discounted_state_occupancy(mdp, policy)

    # oracle: geometric-stopping sampling of the discounted visitation
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
    cum_p = np.cumsum(p_pi, axis=1)
    mc = np.random.default_rng(123)
    n = 200_000
    lengths = mc.geometric(1.0 - gamma, size=n) - 1  # P(T = t) = (1-gamma) gamma^t
    states = mc.choice(6, size=n, p=mdp.initial_dist)
    for t in range(1, lengths.max() + 1):
        active = lengths >= t
        u = mc.random(active.sum())
        states[active] = (u[:, None] < cum_p[states[active]]).argmax(axis=1)
    counts = np.bincount(states, minlength=6) / n
    assert 0.5 * np.abs(counts - d.probs).sum() < 0.01


def test_occupancy_flow_equation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = int(rng.integers(2, 12))
        mdp = tab.random_mdp(s, 2, float(rng.uniform(0.3, 0.97)), rng)
        policy = tab.random_policy(s, 2, rng)
        d = tab.discounted_state_occupancy(mdp, policy).probs
        p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
        flow = (1.0 - mdp.discount) * mdp.initial_dist + mdp.discount * (p_pi.T @ d)
        assert np.max(np.abs(d - flow)) <= 1e-9
        assert abs(d.sum() - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# empirical_mdp
# ---------------------------------------------------------------------------

def test_empirical_mdp_recovers_deterministic_mdp_from_enumeration():
    mdp = chain_mdp(0.5)
    rows = []
    for s in range(2):
        rows.append((s, 0, float(mdp.reward[s, 0]), int(mdp.transition[s, 0].argmax())))
    ds = tab.TabularDataset.from_transitions(rows, 2, 1)
    hat = tab.empirical_mdp(ds, mdp)
    assert np.array_equal(hat.transition, mdp.transition)
    assert np.array_equal(hat.reward, mdp.reward)


def test_empirical_mdp_single_transition():
    mdp = chain_mdp(0.5)
    ds = tab.TabularDataset.from_transitions([(0, 0, 0.3, 1)], 2, 1)
    hat = tab.empirical_mdp(ds, mdp)
    assert hat.reward[0, 0] == pytest.approx(0.3)
    assert hat.transition[0, 0, 1] == 1.0
    # unvisited pair falls back to uniform transitions and zero reward
    assert np.allclose(hat.transition[1, 0], [0.5, 0.5])
    assert hat.reward[1, 0] == 0.0


def test_empirical_transition_concentration():
    rng = np.random.default_rng(3)
    mdp = tab.random_mdp(6, 3, 0.9, rng)
    behavior = tab.random_policy(6, 3, rng)
    ds = tab.sample_dataset(mdp, behavior, 10_000, rng)
    hat = tab.empirical_mdp(ds, mdp)
    from csve.conservative import calibrate_sampling_error_model

    sem = calibrate_sampling_error_model(6, 0.9)
    visited = ds.count_sa > 0
    l1 = np.abs(hat.transition - mdp.transition).sum(axis=2)
    bound = sem.c_p / np.sqrt(np.maximum(ds.count_sa, 1))
    coverage = np.mean(l1[visited] <= bound[visited])
    assert coverage >= 0.95


# ---------------------------------------------------------------------------
# Samplers against the per-draw rng.choice loops they replace
# ---------------------------------------------------------------------------

def reference_sample_dataset(mdp, behavior, size, rng):
    """Two rng.choice calls per transition, in a Python loop."""
    s_dim, a_dim = mdp.num_states, mdp.num_actions
    states = rng.choice(s_dim, size=size, p=np.full(s_dim, 1.0 / s_dim))
    actions = np.empty(size, dtype=np.int64)
    next_states = np.empty(size, dtype=np.int64)
    for i, s in enumerate(states):
        actions[i] = rng.choice(a_dim, p=behavior.probs[s])
        next_states[i] = rng.choice(s_dim, p=mdp.transition[s, actions[i]])
    rewards = mdp.reward[states, actions]
    rows = zip(states.tolist(), actions.tolist(), rewards.tolist(), next_states.tolist())
    return tab.TabularDataset.from_transitions(rows, s_dim, a_dim)


def reference_rollout(env, mdp, behavior, size, rng):
    """Trajectory rollout with one rng.choice call per categorical draw."""
    transitions = []
    state = int(rng.choice(mdp.num_states, p=mdp.initial_dist))
    for _ in range(size):
        action = int(rng.choice(mdp.num_actions, p=behavior.probs[state]))
        nxt = int(rng.choice(mdp.num_states, p=mdp.transition[state, action]))
        transitions.append((state, action, float(mdp.reward[state, action]), nxt))
        state = nxt
        if env.is_terminal_index(state) or rng.random() < 0.02:
            state = int(rng.choice(mdp.num_states, p=mdp.initial_dist))
    return tab.TabularDataset.from_transitions(transitions, mdp.num_states, mdp.num_actions)


def assert_same_dataset(got, want):
    for name in ("states", "actions", "rewards", "next_states", "count_sa", "count_s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def sparse_rows(rng, shape):
    """Dirichlet rows with about a third of the entries zeroed, entry 0
    always among them when the row is long enough."""
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    if shape[-1] > 1:
        zero = rng.random(probs.shape) < 0.35
        zero[..., 0] = True
        zero[..., -1] = False  # keep each row's mass nonzero
        probs[zero] = 0.0
        probs /= probs.sum(axis=-1, keepdims=True)
    return probs


@pytest.mark.parametrize("num_actions", [1, 3])
@pytest.mark.parametrize("size", [0, 1, 400])
def test_sample_dataset_matches_choice_loop(num_actions, size):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        s_dim = 7
        mdp = tab.TabularMdp(sparse_rows(rng, (s_dim, num_actions, s_dim)),
                             rng.uniform(-1.0, 1.0, size=(s_dim, num_actions)),
                             rng.dirichlet(np.ones(s_dim)), 0.9, 1.0)
        behavior = tab.PolicyTable(sparse_rows(rng, (s_dim, num_actions)))
        assert behavior.probs[:, 0].max() == (1.0 if num_actions == 1 else 0.0)
        assert mdp.transition[..., 0].max() == 0.0

        fast_rng, slow_rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        got = tab.sample_dataset(mdp, behavior, size, fast_rng)
        want = reference_sample_dataset(mdp, behavior, size, slow_rng)
        assert got.num_transitions == size
        assert_same_dataset(got, want)
        assert fast_rng.random() == slow_rng.random()


def doubles_drawn(seed, rng):
    """How many doubles ``rng``, seeded with ``seed``, has drawn."""
    probe, count = np.random.default_rng(seed), 0
    while probe.bit_generator.state != rng.bit_generator.state:
        probe.random()
        count += 1
    return count


# The rollout takes its first 3 * size + 1 doubles in one block; a 0.02 reset
# draws one more.  At slip 0.2, seed 0's single step resets: it reads past the block.
@pytest.mark.parametrize("slip, size, seeds", [
    pytest.param(0.05, 1500, range(3), id="0.05"),
    pytest.param(0.2, 1500, range(3), id="0.2"),
    pytest.param(0.05, 1, range(3), id="0.05-size1"),
    pytest.param(0.2, 1, (0,), id="0.2-size1-past-block"),
])
def test_rollout_dataset_matches_choice_loop(slip, size, seeds):
    env = GridWorld(slip=slip)
    mdp = env.tabular_mdp(discount=0.95)
    behavior = env.epsilon_greedy_table(mdp, epsilon=0.4)
    for seed in seeds:
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = theory._rollout_tabular_dataset(env, mdp, behavior, size, fast_rng)
        want = reference_rollout(env, mdp, behavior, size, slow_rng)
        assert got.num_transitions == size
        if size > 1:
            assert np.any(want.next_states == env.goal_index)  # the goal reset ran
        if size > 1 or len(seeds) == 1:
            assert doubles_drawn(seed, slow_rng) > 3 * size + 1
        assert_same_dataset(got, want)
        assert fast_rng.random() == slow_rng.random()


# ---------------------------------------------------------------------------
# dataset_state_marginal / sampling_error_vector
# ---------------------------------------------------------------------------

def test_marginal_trivial_cases():
    ds = tab.TabularDataset.from_transitions([(0, 0, 0.0, 1)] * 3, 3, 1)
    d = tab.dataset_state_marginal(ds, 3)
    assert d.probs.tolist() == [1.0, 0.0, 0.0]

    rows = [(0, 0, 0.0, 1)] * 3 + [(1, 0, 0.0, 0)]
    d = tab.dataset_state_marginal(tab.TabularDataset.from_transitions(rows, 2, 1), 2)
    assert np.allclose(d.probs, [0.75, 0.25])


def test_marginal_rejects_empty_dataset():
    ds = tab.TabularDataset.from_transitions([], 2, 1)
    with pytest.raises(InputError):
        tab.dataset_state_marginal(ds, 2)


def test_marginal_support_equals_visited_states():
    rng = np.random.default_rng(5)
    mdp = tab.random_mdp(10, 2, 0.9, rng)
    ds = tab.sample_dataset(mdp, tab.random_policy(10, 2, rng), 30, rng)
    d = tab.dataset_state_marginal(ds, 10)
    assert set(d.support.tolist()) == set(np.flatnonzero(ds.count_s > 0).tolist())
    # independent recount straight from the transition list
    recount = np.bincount(ds.states, minlength=10)
    assert np.allclose(d.probs, recount / recount.sum())


def test_sampling_error_bound_zero_constant():
    mdp = chain_mdp(0.5)
    ds = tab.TabularDataset.from_transitions([(0, 0, 0.0, 1)], 2, 1)
    sem = tab.SamplingErrorModel(c_r=0.0, c_p=0.0, c_rt=0.0)
    assert tab.sampling_error_vector(ds, sem, mdp, single_policy(2))[0] == 0.0


def test_sampling_error_bound_deterministic_policy():
    mdp = chain_mdp(0.5)
    ds = tab.TabularDataset.from_transitions([(0, 0, 0.0, 1)] * 4, 2, 1)
    sem = tab.SamplingErrorModel(c_r=0.0, c_p=0.0, c_rt=1.0)
    # c * r_max / ((1 - gamma) * sqrt(4)) = 1 / (0.5 * 2)
    assert tab.sampling_error_vector(ds, sem, mdp, single_policy(2))[0] == pytest.approx(1.0)


def test_sampling_error_bound_mixed_policy_brute_force():
    p = np.zeros((1, 2, 1))
    p[:, :, 0] = 1.0
    mdp = tab.TabularMdp(p, np.zeros((1, 2)), np.array([1.0]), 0.9, 1.0)
    rows = [(0, 0, 0.0, 0)] + [(0, 1, 0.0, 0)] * 4
    ds = tab.TabularDataset.from_transitions(rows, 1, 2)
    sem = tab.SamplingErrorModel(c_r=0.0, c_p=0.0, c_rt=1.0)
    policy = tab.PolicyTable(np.array([[0.5, 0.5]]))
    got = tab.sampling_error_vector(ds, sem, mdp, policy)[0]
    brute = sum(policy.probs[0, a] * sem.c_rt * mdp.r_max
                / ((1 - mdp.discount) * np.sqrt(ds.count_sa[0, a]))
                for a in range(2))
    assert got == pytest.approx(brute, abs=1e-12)
    assert got == pytest.approx(7.5, abs=1e-12)


def test_unvisited_count_floor_is_used():
    mdp = chain_mdp(0.5)
    ds = tab.TabularDataset.from_transitions([(1, 0, 1.0, 1)], 2, 1)
    sem = tab.SamplingErrorModel(c_r=0.0, c_p=0.0, c_rt=1.0, unvisited_count_floor=0.01)
    got = tab.sampling_error_vector(ds, sem, mdp, single_policy(2))[0]
    assert got == pytest.approx(1.0 / (0.5 * np.sqrt(0.01)))
