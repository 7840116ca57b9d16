"""Exact finite-MDP primitives.

Transition tensors, reward tables, policies and datasets live here, together
with the exact oracles the certification harness compares against: one
linear solve for policy evaluation and discounted occupancy, and policy
iteration for control.  Everything is float64 and immutable after
construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InputError, NumericError

PROB_ATOL = 1e-12
SOLVE_RTOL = 1e-10
TIE_RTOL = 1e-12
POLICY_ITERATION_ROUNDS = 1_000

DIST_KINDS = ("empirical_marginal", "discounted_occupancy", "model_next_state", "custom")


def _frozen_array(values, dtype=np.float64):
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with transition tensor P(s'|s,a), reward table r(s,a),
    initial distribution rho and discount in (0,1)."""

    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray      # (S, A)
    initial_dist: np.ndarray  # (S,)
    discount: float
    r_max: float

    def __post_init__(self):
        object.__setattr__(self, "transition", _frozen_array(self.transition))
        object.__setattr__(self, "reward", _frozen_array(self.reward))
        object.__setattr__(self, "initial_dist", _frozen_array(self.initial_dist))
        p, r, rho = self.transition, self.reward, self.initial_dist
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise InputError(f"transition must be (S, A, S), got {p.shape}")
        s, a = p.shape[0], p.shape[1]
        if s < 1 or a < 1:
            raise InputError("need at least one state and one action")
        if r.shape != (s, a):
            raise InputError(f"reward must be {(s, a)}, got {r.shape}")
        if rho.shape != (s,):
            raise InputError(f"initial_dist must be ({s},), got {rho.shape}")
        if (p < -PROB_ATOL).any() or (p > 1 + PROB_ATOL).any():
            raise InputError("transition entries must lie in [0, 1]")
        if abs(p.sum(axis=2) - 1.0).max() > PROB_ATOL:
            raise InputError("each transition row P(.|s,a) must sum to 1")
        if (rho < -PROB_ATOL).any() or abs(rho.sum() - 1.0) > PROB_ATOL:
            raise InputError("initial_dist must be a probability vector")
        if not (0.0 < self.discount < 1.0):
            raise InputError(f"discount must be in (0, 1), got {self.discount}")
        if self.r_max < 0:
            raise InputError("r_max must be nonnegative")
        if abs(r).max() > self.r_max + PROB_ATOL:
            raise InputError("|reward| must not exceed r_max")

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class PolicyTable:
    """Stochastic policy pi(a|s) as a row-stochastic (S, A) table."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs))
        p = self.probs
        if p.ndim != 2:
            raise InputError("policy table must be two-dimensional")
        if (p < -PROB_ATOL).any() or (p > 1 + PROB_ATOL).any():
            raise InputError("policy probabilities must lie in [0, 1]")
        if abs(p.sum(axis=1) - 1.0).max() > PROB_ATOL:
            raise InputError("each policy row must sum to 1")

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class ValueTable:
    """State-value vector V(s)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 1:
            raise InputError("value table must be one-dimensional")
        if not np.isfinite(self.values).all():
            raise InputError("value table entries must be finite")


@dataclass(frozen=True)
class QTable:
    """State-action value table Q(s,a)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 2:
            raise InputError("Q table must be two-dimensional")
        if not np.isfinite(self.values).all():
            raise InputError("Q table entries must be finite")


@dataclass(frozen=True)
class StateDistribution:
    """Probability vector over states, tagged with its provenance."""

    probs: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs))
        if self.kind not in DIST_KINDS:
            raise InputError(f"unknown distribution kind {self.kind!r}")
        p = self.probs
        if p.ndim != 1:
            raise InputError("state distribution must be one-dimensional")
        if (p < -PROB_ATOL).any() or (p > 1 + PROB_ATOL).any():
            raise InputError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > PROB_ATOL:
            raise InputError("state distribution must sum to 1")

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True)
class SamplingErrorModel:
    """Concentration constants for the empirical Bellman operator.

    c_r bounds per-pair reward deviation, c_p bounds the L1 transition
    deviation, and c_rt is the combined constant entering the value-error
    bound c_rt * r_max / ((1-gamma) * sqrt(count)).  Pairs with zero count
    substitute ``unvisited_count_floor`` so the bound stays finite.
    """

    c_r: float
    c_p: float
    c_rt: float
    delta: float = 0.05
    unvisited_count_floor: float = 0.01

    def __post_init__(self):
        if min(self.c_r, self.c_p, self.c_rt) < 0:
            raise InputError("concentration constants must be nonnegative")
        if self.c_rt < self.c_r:
            raise InputError("combined constant c_rt must dominate c_r")
        if not (0.0 < self.delta < 1.0):
            raise InputError("delta must lie in (0, 1)")
        if self.unvisited_count_floor <= 0:
            raise InputError("unvisited_count_floor must be positive")


def _pair_counts(states, actions, next_states, num_states: int, num_actions: int):
    """(S, A) visit counts of the pairs, once every state and next state is
    in [0, S) and every action in [0, A): ``np.add.at`` would fail on an
    index past the end and wrap a negative one."""
    for name, index, bound in (("state", states, num_states), ("action", actions, num_actions),
                               ("next state", next_states, num_states)):
        if index.size and (index.min() < 0 or index.max() >= bound):
            raise InputError(f"{name} indices run from {index.min()} to {index.max()}, "
                             f"outside [0, {bound})")
    count_sa = np.zeros((num_states, num_actions), dtype=np.int64)
    np.add.at(count_sa, (states, actions), 1)
    return count_sa


@dataclass(frozen=True)
class TabularDataset:
    """Offline transitions with per-pair visit counts."""

    states: np.ndarray       # (N,) int
    actions: np.ndarray      # (N,) int
    rewards: np.ndarray      # (N,) float
    next_states: np.ndarray  # (N,) int
    count_sa: np.ndarray     # (S, A) int
    count_s: np.ndarray      # (S,) int

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen_array(self.states, np.int64))
        object.__setattr__(self, "actions", _frozen_array(self.actions, np.int64))
        object.__setattr__(self, "rewards", _frozen_array(self.rewards))
        object.__setattr__(self, "next_states", _frozen_array(self.next_states, np.int64))
        object.__setattr__(self, "count_sa", _frozen_array(self.count_sa, np.int64))
        object.__setattr__(self, "count_s", _frozen_array(self.count_s, np.int64))
        n = self.states.shape[0]
        for name in ("actions", "rewards", "next_states"):
            if getattr(self, name).shape != (n,):
                raise InputError("transition arrays must share one length")
        if (self.count_sa < 0).any():
            raise InputError("counts must be nonnegative")
        recount = _pair_counts(self.states, self.actions, self.next_states, *self.count_sa.shape)
        if not np.array_equal(recount, self.count_sa):
            raise InputError("count_sa disagrees with the stored transitions")
        if not np.array_equal(self.count_sa.sum(axis=1), self.count_s):
            raise InputError("count_s must be the action-sum of count_sa")

    @classmethod
    def from_transitions(cls, transitions, num_states: int, num_actions: int) -> "TabularDataset":
        """Build a dataset from an iterable of (s, a, r, s_next) tuples."""
        rows = list(transitions)
        if rows:
            s, a, r, sn = (np.asarray(col) for col in zip(*rows))
        else:
            s = a = sn = np.zeros(0, dtype=np.int64)
            r = np.zeros(0)
        s = s.astype(np.int64)
        a = a.astype(np.int64)
        sn = sn.astype(np.int64)
        return cls.from_arrays(s, a, np.asarray(r, dtype=np.float64), sn, num_states, num_actions)

    @classmethod
    def from_arrays(cls, states, actions, rewards, next_states, num_states: int,
                    num_actions: int) -> "TabularDataset":
        """Build a dataset from transition arrays, counting each pair."""
        count_sa = _pair_counts(np.asarray(states), np.asarray(actions),
                                np.asarray(next_states), num_states, num_actions)
        return cls(states, actions, rewards, next_states, count_sa, count_sa.sum(axis=1))

    @property
    def num_transitions(self) -> int:
        return self.states.shape[0]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def policy_transition_matrix(mdp: TabularMdp, policy: PolicyTable) -> np.ndarray:
    """P_pi(s, s') = sum_a pi(a|s) P(s'|s,a)."""
    return np.einsum("sa,sat->st", policy.probs, mdp.transition)


def policy_reward_vector(mdp: TabularMdp, policy: PolicyTable) -> np.ndarray:
    """r_pi(s) = sum_a pi(a|s) r(s,a)."""
    return (policy.probs * mdp.reward).sum(axis=1)


def solve_policy_values(p_pi: np.ndarray, r_pi: np.ndarray, discount: float) -> np.ndarray:
    """Solve (I - discount P_pi) V = r_pi by dense factorization, for one
    system (S, S) / (S,) or a stack (..., S, S) / (..., S).  Each system is
    solved on its own, with the bits of its one-system call; a singular one,
    or one whose residual exceeds SOLVE_RTOL * (1 + max |r_pi|) of its own
    r_pi, raises NumericError.  Any discount < 1 makes every system regular."""
    a = np.eye(p_pi.shape[-1]) - discount * p_pi
    try:
        # a 2-D right-hand side would be one matrix, not a stack of vectors
        v = np.linalg.solve(a, r_pi[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise NumericError(f"linear solve failed: {err}") from None
    residual = abs((a @ v[..., None])[..., 0] - r_pi).max(axis=-1)
    bound = SOLVE_RTOL * (1.0 + abs(r_pi).max(axis=-1))
    bad = ~(residual <= bound)
    if bad.any():
        raise NumericError(f"linear solve residual {residual[bad].flat[0]:.3e} exceeds "
                           f"{bound[bad].flat[0]:.3e}")
    return v


def exact_policy_evaluation(mdp: TabularMdp, policy: PolicyTable) -> ValueTable:
    """V_pi from one ``solve_policy_values`` on P_pi and r_pi."""
    return ValueTable(solve_policy_values(policy_transition_matrix(mdp, policy),
                                          policy_reward_vector(mdp, policy), mdp.discount))


def policy_iteration(mdp: TabularMdp, correction=0.0) -> tuple[ValueTable, PolicyTable]:
    """Solve V(s) = max_a [r(s,a) + gamma sum P V] - correction(s) by policy
    iteration from each state's reward argmax: one linear solve per round,
    and a state switches action only where another beats its Q by more than
    TIE_RTOL * (1 + |Q|).  Returns the exact value and the greedy
    deterministic policy that takes the lowest-index action within that
    tolerance of the state's max Q.  A zero correction gives the optimal
    values."""
    p, r, g = mdp.transition, mdp.reward, mdp.discount
    states, actions = np.arange(mdp.num_states), r.argmax(axis=1)
    for _ in range(POLICY_ITERATION_ROUNDS):
        v = solve_policy_values(p[states, actions], r[states, actions] - correction, g)
        q = (p.reshape(-1, len(v)) @ v).reshape(r.shape)
        q *= g
        q += r
        best, current = q.max(axis=1), q[states, actions]
        switch = best - current > TIE_RTOL * (1.0 + abs(current))
        if not switch.any():
            near = q >= (best - TIE_RTOL * (1.0 + abs(best)))[:, None]
            return ValueTable(v), PolicyTable(np.eye(r.shape[1])[near.argmax(axis=1)])
        actions = np.where(switch, q.argmax(axis=1), actions)
    raise ConvergenceError("policy iteration did not converge")


def discounted_occupancies(p_pi: np.ndarray, initial_dist: np.ndarray,
                           discount: float) -> np.ndarray:
    """Normalized discounted visitation d_pi = (1-gamma) rho^T (I - gamma P_pi)^-1
    of each system of a stack ``p_pi`` (..., S, S), one ``solve_policy_values``
    on the transposes; each mass must lie within 1e-10 of 1 before it is
    normalized, and each row must be a probability vector after."""
    occ = (1.0 - discount) * solve_policy_values(
        p_pi.swapaxes(-1, -2), np.broadcast_to(initial_dist, p_pi.shape[:-1]), discount)
    occ = occ.clip(0.0, None)
    total = occ.sum(axis=-1, keepdims=True)
    bad = abs(total - 1.0) > 1e-10
    if bad.any():
        raise NumericError(f"occupancy mass {total[bad][0]} deviates from 1 beyond 1e-10")
    occ /= total
    if (occ > 1 + PROB_ATOL).any() or (abs(occ.sum(axis=-1) - 1.0) > PROB_ATOL).any():
        raise NumericError("occupancy rows must be probability vectors")
    return occ


def discounted_state_occupancy(mdp: TabularMdp, policy: PolicyTable) -> StateDistribution:
    """``discounted_occupancies`` of one policy's P_pi as a state distribution."""
    return StateDistribution(discounted_occupancies(policy_transition_matrix(mdp, policy),
                                                    mdp.initial_dist, mdp.discount),
                             kind="discounted_occupancy")


def empirical_mdp(dataset: TabularDataset, template: TabularMdp) -> TabularMdp:
    """Estimate rewards and transitions from dataset frequencies.

    Pairs never visited get a uniform next-state distribution and zero
    reward, which keeps the estimate a valid MDP; the conservative penalty
    machinery (not estimate accuracy) is what handles those pairs.
    """
    s_dim, a_dim = template.num_states, template.num_actions
    if dataset.count_sa.shape != (s_dim, a_dim):
        raise InputError("dataset dimensions disagree with the template MDP")
    reward_sum = np.zeros((s_dim, a_dim))
    np.add.at(reward_sum, (dataset.states, dataset.actions), dataset.rewards)
    trans_count = np.zeros((s_dim, a_dim, s_dim))
    np.add.at(trans_count, (dataset.states, dataset.actions, dataset.next_states), 1.0)

    counts = dataset.count_sa.astype(np.float64)
    visited = counts > 0
    reward_hat = np.zeros((s_dim, a_dim))
    reward_hat[visited] = reward_sum[visited] / counts[visited]
    trans_hat = np.full((s_dim, a_dim, s_dim), 1.0 / s_dim)
    trans_hat[visited] = trans_count[visited] / counts[visited][:, None]
    return TabularMdp(
        transition=trans_hat,
        reward=reward_hat,
        initial_dist=template.initial_dist,
        discount=template.discount,
        r_max=template.r_max,
    )


def dataset_state_marginal(dataset: TabularDataset, num_states: int) -> StateDistribution:
    """Empirical state marginal d_u(s) proportional to visit counts."""
    if dataset.num_transitions == 0:
        raise InputError("cannot take the state marginal of an empty dataset")
    counts = dataset.count_s.astype(np.float64)
    if counts.shape != (num_states,):
        raise InputError("dataset count vector disagrees with num_states")
    return StateDistribution(counts / counts.sum(), kind="empirical_marginal")


def effective_counts(dataset: TabularDataset, sem: SamplingErrorModel) -> np.ndarray:
    """Visit counts with the unvisited floor substituted for zeros."""
    counts = dataset.count_sa.astype(np.float64)
    return np.where(counts > 0, counts, sem.unvisited_count_floor)


def sampling_error_vector(dataset: TabularDataset, sem: SamplingErrorModel,
                          mdp: TabularMdp, policy: PolicyTable) -> np.ndarray:
    """Per-state expected value-error bound
    E_{a~pi}[c_rt * r_max / ((1-gamma) * sqrt(count(s,a)))]."""
    counts = effective_counts(dataset, sem)
    per_pair = sem.c_rt * mdp.r_max / ((1.0 - mdp.discount) * np.sqrt(counts))
    return (policy.probs * per_pair).sum(axis=1)


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

def random_mdp(num_states: int, num_actions: int, discount: float,
               rng: np.random.Generator, r_max: float = 1.0) -> TabularMdp:
    """Random MDP: Dirichlet(1) transition rows, rewards uniform in [-r_max, r_max],
    Dirichlet(1) initial distribution."""
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    reward = rng.uniform(-r_max, r_max, size=(num_states, num_actions))
    rho = rng.dirichlet(np.ones(num_states))
    return TabularMdp(transition, reward, rho, discount, r_max)


def random_policy(num_states: int, num_actions: int, rng: np.random.Generator) -> PolicyTable:
    return PolicyTable(rng.dirichlet(np.ones(num_actions), size=num_states))


def random_distribution(num_states: int, rng: np.random.Generator,
                        support: np.ndarray | None = None) -> StateDistribution:
    """Dirichlet(1) distribution, optionally restricted to a support set."""
    if support is None:
        return StateDistribution(rng.dirichlet(np.ones(num_states)))
    support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        raise InputError("support must be nonempty")
    probs = np.zeros(num_states)
    probs[support] = rng.dirichlet(np.ones(support.size))
    return StateDistribution(probs)


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution of each row of ``probs`` (last axis), with the
    arithmetic of ``Generator.choice(p=row)``: ``cumsum``, then division by
    the last entry.

    ``choice`` draws one ``random()`` double u and returns the number of
    entries with cdf <= u (``searchsorted(side="right")``).  Counting the same
    way over these rows, with u taken from the same stream, reproduces its
    draws exactly.
    """
    cdf = probs.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def sample_dataset(mdp: TabularMdp, behavior: PolicyTable, size: int,
                   rng: np.random.Generator,
                   state_dist: np.ndarray | None = None) -> TabularDataset:
    """Draw (s, a, r, s') i.i.d.: s from state_dist (uniform by default),
    a ~ behavior, s' ~ P, r = r(s,a).

    After the states, each transition takes two doubles from ``rng``, the
    action's and then the next state's, as one ``rng.choice`` call each would.
    """
    s_dim, a_dim = mdp.num_states, mdp.num_actions
    if state_dist is None:
        state_dist = np.full(s_dim, 1.0 / s_dim)
    states = rng.choice(s_dim, size=size, p=state_dist)
    u = rng.random((size, 2))
    actions = np.count_nonzero(choice_cdf(behavior.probs)[states] <= u[:, :1], axis=1)
    next_cdf = choice_cdf(mdp.transition)[states, actions]
    next_states = np.count_nonzero(next_cdf <= u[:, 1:], axis=1)
    return TabularDataset.from_arrays(states, actions, mdp.reward[states, actions],
                                      next_states, s_dim, a_dim)
