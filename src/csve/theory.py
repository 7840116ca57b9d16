"""Seeded certification sweeps over random MDP instances.

Each runner draws instances from a fixed seed range, applies one of the
conservative-value certifications and yields flat result rows
(theorem id, seed, alpha, threshold, lhs, rhs, holds) that the CLI writes
to CSV.  Instance generation enforces a margin condition on the sampling
distribution d: the expected penalty bracket under d must exceed
gamma/(1-gamma) times the bracket's largest negative excursion.  That is a
sufficient condition for the discounted accumulation of the penalty to
stay positive, which the expected-lower-bound guarantee silently assumes
and which an adversarial d can violate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import conservative as cons
from . import tabular as tab
from .errors import DegenerateDistributionError

MARGIN_EPS = 1e-9


@dataclass(frozen=True)
class CertificationInstance:
    mdp: tab.TabularMdp
    policy: tab.PolicyTable
    dataset: tab.TabularDataset
    empirical: tab.TabularMdp
    sem: tab.SamplingErrorModel
    d: tab.StateDistribution
    d_u: tab.StateDistribution


def _bracket_margin(d: np.ndarray, d_u: np.ndarray, discount: float) -> float:
    support = d_u > 0
    bracket = np.zeros_like(d_u)
    bracket[support] = d[support] / d_u[support] - 1.0
    worst = max(0.0, -float(bracket.min()))
    return float(d @ bracket) - discount / (1.0 - discount) * worst


def margin_guarded_distribution(d_u: tab.StateDistribution, discount: float,
                                rng: np.random.Generator) -> tab.StateDistribution:
    """Random d with supp(d) in supp(d_u) satisfying the positivity margin.

    Starts from a Dirichlet draw and sharpens it by power tilting; falls
    back to a point mass on the least-visited supported state, which has
    margin 1/min(d_u) - 1 - gamma/(1-gamma).
    """
    support = np.flatnonzero(d_u.probs > 0)
    base = rng.dirichlet(np.ones(support.size)) if support.size > 1 else np.ones(1)
    for power in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        tilted = base ** power
        tilted = tilted / tilted.sum()
        probs = np.zeros_like(d_u.probs)
        probs[support] = tilted
        if _bracket_margin(probs, d_u.probs, discount) > MARGIN_EPS:
            return tab.StateDistribution(probs)
    probs = np.zeros_like(d_u.probs)
    probs[support[d_u.probs[support].argmin()]] = 1.0
    if _bracket_margin(probs, d_u.probs, discount) <= MARGIN_EPS:
        raise DegenerateDistributionError(
            "no sampling distribution with a positive penalty margin exists; "
            "lower the discount or spread d_u"
        )
    return tab.StateDistribution(probs)


def make_instance(seed: int, num_states: int = 8, num_actions: int = 3,
                  discount: float = 0.8, dataset_size: int = 500,
                  delta: float = 0.05, zero_error: bool = False) -> CertificationInstance:
    """One seeded certification instance: random MDP, random target policy,
    i.i.d. dataset under a random behavior policy, calibrated constants and a
    margin-guarded sampling distribution."""
    rng = np.random.default_rng(seed)
    mdp = tab.random_mdp(num_states, num_actions, discount, rng)
    policy = tab.random_policy(num_states, num_actions, rng)
    behavior = tab.random_policy(num_states, num_actions, rng)
    dataset = tab.sample_dataset(mdp, behavior, dataset_size, rng)
    sem = cons.calibrate_sampling_error_model(num_states, discount, mdp.r_max, delta=delta)
    if zero_error:
        empirical = mdp
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(num_states)))
    else:
        empirical = tab.empirical_mdp(dataset, mdp)
        d_u = tab.dataset_state_marginal(dataset, num_states)
    d = margin_guarded_distribution(d_u, discount, rng)
    return CertificationInstance(mdp, policy, dataset, empirical, sem, d, d_u)


def _row(theorem: str, seed: int, alpha: float, threshold: float,
         lhs: float, rhs: float, holds: bool) -> dict:
    return {
        "theorem": theorem,
        "seed": seed,
        "alpha": alpha,
        "threshold": threshold,
        "lhs": lhs,
        "rhs": rhs,
        "holds": holds,
    }


def run_contraction_trials(trials: int, seed0: int = 0, max_states: int = 20,
                           max_actions: int = 5) -> list[dict]:
    """sup-norm contraction of the penalized operator on random tuples."""
    rows = []
    for seed in range(seed0, seed0 + trials):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, max_states + 1))
        a = int(rng.integers(1, max_actions + 1))
        discount = float(rng.uniform(0.1, 0.99))
        mdp = tab.random_mdp(s, a, discount, rng)
        policy = tab.random_policy(s, a, rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(s)))
        d = tab.random_distribution(s, rng, support=d_u.support)
        alpha = float(rng.uniform(0.0, 50.0))
        penalty = cons.CsvePenaltyConfig(alpha, d, d_u)
        v1 = tab.ValueTable(rng.normal(0.0, 10.0, size=s))
        v2 = tab.ValueTable(rng.normal(0.0, 10.0, size=s))
        tv1 = cons.csve_operator(v1, policy, mdp, penalty)
        tv2 = cons.csve_operator(v2, policy, mdp, penalty)
        lhs = float(abs(tv1.values - tv2.values).max())
        rhs = discount * float(abs(v1.values - v2.values).max())
        rows.append(_row("contraction", seed, alpha, 0.0, lhs, rhs, lhs <= rhs + 1e-12))
    return rows


def run_operator_equivalence_trials(trials: int, seed0: int = 0) -> list[dict]:
    """Penalized-objective argmin (grid bracket plus parabolic vertex fit)
    against the closed-form iterate."""
    rows = []
    for seed in range(seed0, seed0 + trials):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 12))
        a = int(rng.integers(1, 4))
        mdp = tab.random_mdp(s, a, float(rng.uniform(0.3, 0.95)), rng)
        policy = tab.random_policy(s, a, rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(s)))
        d = tab.random_distribution(s, rng, support=d_u.support)
        penalty = cons.CsvePenaltyConfig(float(rng.uniform(0.0, 10.0)), d, d_u)
        v = tab.ValueTable(rng.normal(0.0, 5.0, size=s))
        via_operator = cons.csve_operator(v, policy, mdp, penalty)
        via_argmin = cons.csve_objective_argmin(v, policy, mdp, penalty, method="grid")
        gap = float(abs(via_operator.values - via_argmin.values).max())
        rows.append(_row("operator_equivalence", seed, penalty.alpha, 0.0, gap, 1e-9,
                         gap <= 1e-9))
    return rows


def run_lower_bound_d_trials(trials: int, seed0: int = 0, zero_error: bool = False,
                             alpha_scale: float = 1.1, dataset_size: int = 500,
                             num_states: int = 8, num_actions: int = 3,
                             discount: float = 0.8) -> list[dict]:
    """Expected lower bound under the sampling distribution d."""
    rows = []
    for seed in range(seed0, seed0 + trials):
        inst = make_instance(seed, num_states, num_actions, discount,
                             dataset_size, zero_error=zero_error)
        probe = cons.CsvePenaltyConfig(0.0, inst.d, inst.d_u)
        if zero_error:
            alpha = 1.0
            threshold = 0.0
        else:
            threshold = cons.alpha_threshold(inst.mdp, inst.empirical, inst.policy,
                                             probe, inst.dataset, inst.sem)
            alpha = alpha_scale * threshold
        penalty = cons.CsvePenaltyConfig(alpha, inst.d, inst.d_u)
        report = cons.certify_lower_bound_under_d(inst.mdp, inst.empirical, inst.policy,
                                                  penalty, inst.dataset, inst.sem)
        rows.append(_row("value_lower_bound_d", seed, alpha, threshold,
                         report.lhs, report.rhs, report.holds))
    return rows


def run_lower_bound_data_trials(trials: int, seed0: int = 0, alpha: float = 1.0,
                                dataset_size: int = 500) -> list[dict]:
    """Lower bound under the data marginal plus the irreducible error term."""
    rows = []
    for seed in range(seed0, seed0 + trials):
        inst = make_instance(seed, dataset_size=dataset_size)
        penalty = cons.CsvePenaltyConfig(alpha, inst.d, inst.d_u)
        report = cons.certify_lower_bound_under_data(inst.mdp, inst.empirical,
                                                     inst.policy, penalty,
                                                     inst.dataset, inst.sem)
        rows.append(_row("value_lower_bound_data", seed, alpha, 0.0,
                         report.lhs, report.rhs, report.holds))
    return rows


def run_gap_expansion_trials(trials: int, seed0: int = 0, k: int = 5,
                             alpha: float = 1.0) -> list[dict]:
    """Gap expansion at iteration k.  The penalized iterates are linear in
    alpha, so the internally derived threshold scales with alpha too; the
    certification then holds for every positive alpha or for none, and the
    margin-guarded instances keep it on the positive side."""
    rows = []
    for seed in range(seed0, seed0 + trials):
        inst = make_instance(seed)
        penalty = cons.CsvePenaltyConfig(alpha, inst.d, inst.d_u)
        report = cons.certify_gap_expansion(inst.mdp, inst.empirical, inst.policy,
                                            penalty, k)
        rows.append(_row("gap_expansion", seed, alpha, report.alpha_threshold,
                         report.lhs, report.rhs, report.holds))
    return rows


def run_argmax_consistency_trials(trials: int, seed0: int = 0, num_states: int = 4,
                                  num_actions: int = 3, alpha: float = 1.0) -> list[dict]:
    """Exhaustive deterministic-policy argmax of the penalized objective against
    the greedy policy of conservative value iteration.  All A^S policies go
    through one ``penalized_objectives`` call; a deterministic policy's P_pi
    is ``P[states, actions]``, the one-hot einsum's bits."""
    # every deterministic policy: policy c takes action (c // A**s) % A in state s
    states = np.arange(num_states)
    actions = np.arange(num_actions ** num_states)[:, None] // num_actions ** states % num_actions
    rows = []
    for seed in range(seed0, seed0 + trials):
        rng = np.random.default_rng(seed)
        mdp = tab.random_mdp(num_states, num_actions, float(rng.uniform(0.5, 0.95)), rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(num_states)))
        d = tab.random_distribution(num_states, rng, support=d_u.support)
        penalty = cons.CsvePenaltyConfig(alpha, d, d_u)
        best_value = float(cons.penalized_objectives(
            mdp.transition[states, actions], mdp.reward[states, actions], mdp, penalty).max())
        _, greedy = cons.conservative_value_iteration(mdp, penalty)
        greedy_value = cons.penalized_objective(greedy, mdp, penalty)
        rows.append(_row("argmax_consistency", seed, alpha, 0.0, best_value,
                         greedy_value, best_value <= greedy_value + 1e-9))
    return rows


def run_safe_improvement_trials(trials: int, seed0: int = 0,
                                dataset_size: int = 2000) -> list[dict]:
    """Safe-improvement inequality on gridworld instances: behavior is a
    mid-quality epsilon-greedy policy, the candidate is the conservative-greedy
    policy of the empirical MDP."""
    from .envs import GridWorld

    rows = []
    for seed in range(seed0, seed0 + trials):
        rng = np.random.default_rng(seed)
        env = GridWorld(slip=float(rng.uniform(0.05, 0.2)))
        mdp = env.tabular_mdp(discount=0.95)
        behavior = env.epsilon_greedy_table(mdp, epsilon=float(rng.uniform(0.3, 0.6)))
        dataset = _rollout_tabular_dataset(env, mdp, behavior, dataset_size, rng)
        empirical = tab.empirical_mdp(dataset, mdp)
        sem = cons.calibrate_sampling_error_model(mdp.num_states, mdp.discount, mdp.r_max)
        d_u = tab.dataset_state_marginal(dataset, mdp.num_states)
        tilt = d_u.probs ** 2
        d = tab.StateDistribution(tilt / tilt.sum())
        penalty = cons.CsvePenaltyConfig(1.0, d, d_u)
        _, pi_star = cons.conservative_value_iteration(empirical, penalty)
        breakdown = cons.safe_improvement_breakdown(mdp, empirical, dataset, pi_star,
                                                    behavior, sem, penalty)
        rows.append(_row("safe_improvement", seed, penalty.alpha, 0.0,
                         breakdown.j_pi_beta - breakdown.zeta, breakdown.j_pi_star,
                         breakdown.improvement_holds))
    return rows


def _rollout_tabular_dataset(env, mdp: tab.TabularMdp, behavior: tab.PolicyTable,
                             size: int, rng: np.random.Generator) -> tab.TabularDataset:
    """Trajectory dataset on the exact tabular chain under the behavior table.

    Each categorical draw is one ``rng.random()`` looked up in a
    ``tab.choice_cdf`` table, the draw ``rng.choice(p=row)`` would make.
    Reaching the goal resets without the 0.02 reset draw.  Every step takes
    3 or 4 doubles, so the first ``3 * size + 1`` come in one block and any
    further ones one at a time: the same doubles in the same order, and the
    generator left where a per-draw loop leaves it.
    """
    initial_cdf = tab.choice_cdf(mdp.initial_dist).tolist()
    action_cdf = tab.choice_cdf(behavior.probs).tolist()
    next_cdf = tab.choice_cdf(mdp.transition).tolist()
    terminal = [env.is_terminal_index(s) for s in range(mdp.num_states)]
    draw = chain(rng.random(3 * size + 1).tolist(), iter(rng.random, None)).__next__
    states, actions, next_states = [], [], []
    state = bisect_right(initial_cdf, draw())
    for _ in range(size):
        action = bisect_right(action_cdf[state], draw())
        nxt = bisect_right(next_cdf[state][action], draw())
        states.append(state)
        actions.append(action)
        next_states.append(nxt)
        state = nxt
        if terminal[state] or draw() < 0.02:
            state = bisect_right(initial_cdf, draw())
    s = np.array(states, dtype=np.int64)
    a = np.array(actions, dtype=np.int64)
    return tab.TabularDataset.from_arrays(s, a, mdp.reward[s, a],
                                          np.array(next_states, dtype=np.int64),
                                          mdp.num_states, mdp.num_actions)


def run_interpolation_trials(trials: int, seed0: int = 0,
                             f_grid=(0.0, 0.25, 0.5, 0.75, 1.0)) -> list[dict]:
    """Nonnegativity of the interpolation functional over random pairs."""
    rows = []
    for seed in range(seed0, seed0 + trials):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        rho = tab.StateDistribution(rng.dirichlet(np.ones(n)))
        d = tab.StateDistribution(rng.dirichlet(np.ones(n)))
        for f in f_grid:
            report = cons.certify_interpolation(rho, d, float(f))
            rows.append(_row("interpolation", seed, float(f), 0.0, report.lhs,
                             report.rhs, report.holds))
    return rows


SUITES = {
    "contraction": lambda trials, seed0: run_contraction_trials(trials, seed0),
    "operator_equivalence": lambda trials, seed0: run_operator_equivalence_trials(trials, seed0),
    "value_lower_bound_d_exact": lambda trials, seed0: run_lower_bound_d_trials(
        trials, seed0, zero_error=True),
    "value_lower_bound_d": lambda trials, seed0: run_lower_bound_d_trials(trials, seed0),
    "value_lower_bound_data": lambda trials, seed0: run_lower_bound_data_trials(trials, seed0),
    "gap_expansion": lambda trials, seed0: run_gap_expansion_trials(trials, seed0),
    "argmax_consistency": lambda trials, seed0: run_argmax_consistency_trials(trials, seed0),
    "safe_improvement": lambda trials, seed0: run_safe_improvement_trials(trials, seed0),
    "interpolation": lambda trials, seed0: run_interpolation_trials(trials, seed0),
}

DEFAULT_TRIALS = {
    "contraction": 500,
    "operator_equivalence": 100,
    "value_lower_bound_d_exact": 200,
    "value_lower_bound_d": 200,
    "value_lower_bound_data": 100,
    "gap_expansion": 100,
    "argmax_consistency": 20,
    "safe_improvement": 50,
    "interpolation": 1000,
}


def summarize(rows_by_suite: dict[str, list[dict]]) -> dict[str, float]:
    """Pass rate per suite over that suite's own rows.  Keyed by suite, not by
    theorem id, because two suites write the same id."""
    return {name: sum(bool(row["holds"]) for row in rows) / len(rows)
            for name, rows in sorted(rows_by_suite.items())}
