import numpy as np
import pytest


def optimal_value_iteration(mdp, correction=0.0):
    """Value iteration V <- max_a [r + gamma P V] - correction from V = 0,
    until two iterates differ by at most 1e-12.  Returns the last iterate V
    and its Q = r + gamma P V.  Each sweep is one (S*A, S) product on a 2-D
    view of P."""
    transition = mdp.transition.reshape(-1, mdp.num_states)
    reward = mdp.reward.reshape(-1)

    def backup(values):
        q = transition @ values
        q *= mdp.discount
        q += reward
        return q.reshape(mdp.reward.shape)

    v = np.zeros(mdp.num_states)
    for _ in range(1_000_000):
        nxt = backup(v).max(axis=1)
        nxt -= correction
        if abs(nxt - v).max() <= 1e-12:
            return nxt, backup(nxt)
        v = nxt
    raise AssertionError("value iteration did not converge")


@pytest.fixture
def value_iteration():
    """The value-iteration oracle that policy iteration is checked against."""
    return optimal_value_iteration


def minibatch_gather_fit(dataset, config, rng):
    """The ensemble fit with one fancy-index gather of inputs and targets per
    minibatch, and np.mean, np.sum, np.hstack and np.clip where the fit now
    calls ufuncs directly.  Returns each member's kept ``flat`` and the NLL
    history, for ``dynamics.train_ensemble`` to match bit for bit."""
    from csve import nn

    def clamp(raw):
        return np.clip(raw, nn.LOG_STD_MIN, nn.LOG_STD_MAX)

    def nll(mean, log_std, targets):
        z = (targets - mean) / np.exp(log_std)
        return float(np.mean(np.sum(0.5 * z * z + log_std + 0.5 * nn.LOG_TWO_PI, axis=1)))

    x_all = np.hstack([dataset.states, dataset.actions])
    y_all = np.hstack([dataset.next_states - dataset.states, dataset.rewards[:, None]])
    n = dataset.size
    n_holdout = max(1, int(round(config.holdout_fraction * n)))
    perm = rng.permutation(n)
    train_idx, holdout_idx = perm[n_holdout:], perm[:n_holdout]
    in_mean = x_all[train_idx].mean(axis=0)
    in_std = np.maximum(x_all[train_idx].std(axis=0), 1e-6)
    out_mean = y_all[train_idx].mean(axis=0)
    out_std = np.maximum(y_all[train_idx].std(axis=0), 1e-6)
    x_all = (x_all - in_mean) / in_std
    y_all = (y_all - out_mean) / out_std
    dim = dataset.state_dim + 1
    sizes = [x_all.shape[1], *config.hidden_sizes, 2 * dim]
    x_hold, y_hold = x_all[holdout_idx], y_all[holdout_idx]
    flats, history = [], {"train_nll": [], "holdout_nll": []}
    for _ in range(config.num_members):
        boot = rng.choice(train_idx, size=train_idx.size, replace=True)
        member = nn.Mlp.init(sizes, rng)
        opt = nn.adam_init(member.flat, config.learning_rate)
        best_flat, best_nll, stale = member.flat.copy(), np.inf, 0
        member_train, member_hold = [], []
        for _ in range(config.max_epochs):
            order = boot[rng.permutation(boot.size)]
            losses = []
            for start in range(0, boot.size, config.batch_size):
                sel = order[start:start + config.batch_size]
                xb, yb = x_all[sel], y_all[sel]
                out, cache = member.forward_cache(xb)
                mean, raw = out[:, :dim], out[:, dim:]
                log_std = clamp(raw)
                inv_var = np.exp(-2.0 * log_std)
                diff = mean - yb
                losses.append(nll(mean, log_std, yb))
                scale = 1.0 / xb.shape[0]
                d_mean = diff * inv_var * scale
                d_log = (1.0 - diff * diff * inv_var) * scale
                d_log = np.where((raw > nn.LOG_STD_MIN) & (raw < nn.LOG_STD_MAX), d_log, 0.0)
                grads, _ = member.backward(cache, np.hstack([d_mean, d_log]))
                nn.adam_step(opt, member.flat, grads.flat)
            out_h = member.forward(x_hold)
            hold_nll = nll(out_h[:, :dim], clamp(out_h[:, dim:]), y_hold)
            member_train.append(float(np.mean(losses)))
            member_hold.append(hold_nll)
            if hold_nll < best_nll - 1e-6:
                best_nll, best_flat, stale = hold_nll, member.flat.copy(), 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
        flats.append(best_flat)
        history["train_nll"].append(member_train)
        history["holdout_nll"].append(member_hold)
    return flats, history


@pytest.fixture
def gather_fit():
    """The per-minibatch-gather ensemble fit that ``train_ensemble`` is checked against."""
    return minibatch_gather_fit


def per_policy_penalized_objective(policy, empirical, penalty):
    """The penalized objective of one policy as it was computed before the
    stacked core: an einsum P_pi, one-system ``np.linalg.solve`` calls for
    the values and the occupancy, and the two ddot scalar products."""
    from csve import tabular as tab

    g, rho = empirical.discount, empirical.initial_dist
    p_pi = np.einsum("sa,sat->st", policy.probs, empirical.transition)
    r_pi = np.sum(policy.probs * empirical.reward, axis=1)
    v = np.linalg.solve(np.eye(len(rho)) - g * p_pi, r_pi)
    occ = (1.0 - g) * np.linalg.solve(np.eye(len(rho)) - g * p_pi.T, rho)
    occ = np.clip(occ, 0.0, None)
    occupancy = tab.StateDistribution(occ / occ.sum())
    j = float(rho @ v)
    penalty_term = float(occupancy.probs @ penalty.bracket())
    return j - penalty.alpha / (1.0 - g) * penalty_term


def enumerated_objectives(mdp, penalty):
    """The per-policy enumeration loop: every deterministic policy as its own
    validated ``PolicyTable``, policy c taking action (c // A**s) % A in
    state s, scored one at a time by ``per_policy_penalized_objective``."""
    from csve import tabular as tab

    num_states, num_actions = mdp.num_states, mdp.num_actions
    values = []
    for code in range(num_actions ** num_states):
        probs = np.zeros((num_states, num_actions))
        c = code
        for s in range(num_states):
            probs[s, c % num_actions] = 1.0
            c //= num_actions
        values.append(per_policy_penalized_objective(tab.PolicyTable(probs), mdp, penalty))
    return np.array(values)


def enumerated_argmax_rows(trials, seed0=0, num_states=4, num_actions=3, alpha=1.0):
    """``theory.run_argmax_consistency_trials`` with the per-policy loop:
    the best enumerated objective against the conservative-greedy policy's."""
    from csve import conservative as cons
    from csve import tabular as tab

    rows = []
    for seed in range(seed0, seed0 + trials):
        rng = np.random.default_rng(seed)
        mdp = tab.random_mdp(num_states, num_actions, float(rng.uniform(0.5, 0.95)), rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(num_states)))
        d = tab.random_distribution(num_states, rng, support=d_u.support)
        penalty = cons.CsvePenaltyConfig(alpha, d, d_u)
        best_value = -np.inf
        for value in enumerated_objectives(mdp, penalty):
            best_value = max(best_value, float(value))
        _, greedy = cons.conservative_value_iteration(mdp, penalty)
        greedy_value = per_policy_penalized_objective(greedy, mdp, penalty)
        rows.append({"theorem": "argmax_consistency", "seed": seed, "alpha": alpha,
                     "threshold": 0.0, "lhs": best_value, "rhs": greedy_value,
                     "holds": best_value <= greedy_value + 1e-9})
    return rows


@pytest.fixture
def enumeration():
    """The per-policy objective, enumeration loop and argmax rows that the
    stacked ``penalized_objectives`` path is checked against bit for bit."""
    return per_policy_penalized_objective, enumerated_objectives, enumerated_argmax_rows
