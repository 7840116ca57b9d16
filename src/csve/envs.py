"""Desk-scale environments, scripted behavior tiers and rollout helpers.

Three tasks stand in for the usual continuous-control benchmarks: a 2-d
double-integrator point mass, an 8x8 slippery gridworld (with an exact
tabular bridge) and torque-limited pendulum swing-up.  Environments are
value types: ``step(state, action, rng)`` is a pure function of its
arguments and the caller owns the RNG.

A scripted rollout is a few float operations per step, so the point mass,
the gridworld and the scripted tiers compute on Python floats: numpy calls
on 2-element arrays would cost more than the physics.  Two kinds of numpy
call stay, because their results are part of every dataset's bytes:

* the point mass's two dot products (the goal distance, ``sqrt(d . d)``,
  and the action cost ``a . a``) stay ``ndarray.dot`` calls, that is BLAS
  ``ddot``, as in ``np.linalg.norm``.  OpenBLAS's ddot computes a
  2-vector's ``x*x + y*y`` with a fused multiply-add, ``fma(y, y, x*x)``,
  which Python's float arithmetic cannot spell: over 300,000 random
  vectors, ``math.sqrt(x*x + y*y)`` rounded differently on 8% of them and
  ``math.hypot`` on 14%;
* the pendulum keeps numpy's sin, cos and arctan2, which may round
  differently from the C library's ``math`` functions.

Random draws are the ones numpy's samplers take: ``rng.random(n)`` doubles
mapped by ``low + (high - low) * u``, the arithmetic of
``Generator.uniform``, and a gridworld tier's direction counted from one
double through the ``tabular.choice_cdf`` table, as
``Generator.choice(p=...)`` counts it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .tabular import PolicyTable, TabularMdp, choice_cdf, policy_iteration

ENV_NAMES = ("gridworld", "pointmass2d", "pendulum")
TIERS = ("random", "medium", "expert")
DATASET_TIERS = ("random", "medium", "medium_replay", "medium_expert", "expert")


def _clip(x: float, bound: float) -> float:
    """``x`` clipped to [-bound, bound], as ``np.clip`` does (NaN stays NaN)."""
    return -bound if x < -bound else (bound if x > bound else x)


@dataclass(frozen=True)
class EnvSpec:
    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int
    physics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.state_dim <= 0 or self.action_dim <= 0:
            raise InputError("dimensions must be positive")
        if self.horizon < 1:
            raise InputError("horizon must be at least 1")
        lo = np.asarray(self.action_low, dtype=np.float64)
        hi = np.asarray(self.action_high, dtype=np.float64)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("action bounds must be finite")
        object.__setattr__(self, "action_low", lo)
        object.__setattr__(self, "action_high", hi)


class PointMass2d:
    """Double integrator: state (px, py, vx, vy), acceleration actions in
    [-1, 1]^2, dt = 0.05.  Reward is -||pos - goal|| - 0.01 ||a||^2 and the
    episode ends inside goal radius 0.05."""

    DT = 0.05
    GOAL = (1.0, 1.0)
    GOAL_RADIUS = 0.05
    V_MAX = 1.0
    POS_MAX = 2.0
    # medium-tier controller gains: same target, structurally weaker drive
    MEDIUM_GAINS = (0.08, 0.28)
    MEDIUM_NOISE = 0.2

    def __init__(self):
        self.spec = EnvSpec(
            name="pointmass2d",
            state_dim=4,
            action_dim=2,
            action_low=-np.ones(2),
            action_high=np.ones(2),
            horizon=200,
            physics={"dt": self.DT, "goal": list(self.GOAL),
                     "goal_radius": self.GOAL_RADIUS},
        )

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        pos = np.array([-1.0, -1.0]) + rng.normal(0.0, 0.05, size=2)
        return np.concatenate([pos, np.zeros(2)])

    def step(self, state, action, rng):
        del rng  # dynamics are deterministic
        state = np.asarray(state, dtype=np.float64)
        values = state.tolist()
        if state.shape != (4,) or not all(map(math.isfinite, values)):
            raise InputError("point-mass state must be a finite 4-vector")
        px, py, vx, vy = values
        ax, ay = np.asarray(action, dtype=np.float64).tolist()
        ax, ay = _clip(ax, 1.0), _clip(ay, 1.0)
        vx = _clip(vx + ax * self.DT, self.V_MAX)
        vy = _clip(vy + ay * self.DT, self.V_MAX)
        px = _clip(px + vx * self.DT, self.POS_MAX)
        py = _clip(py + vy * self.DT, self.POS_MAX)
        to_goal = np.array((px - self.GOAL[0], py - self.GOAL[1]))
        a = np.array((ax, ay))
        dist = math.sqrt(to_goal.dot(to_goal))
        reward = -dist - 0.01 * float(a.dot(a))
        return np.array((px, py, vx, vy)), reward, dist < self.GOAL_RADIUS

    def expert_action(self, state, rng):
        del rng
        px, py, vx, vy = state.tolist()
        gx, gy = self.GOAL
        return np.array((_clip(2.0 * (gx - px) - 2.4 * vx, 1.0),
                         _clip(2.0 * (gy - py) - 2.4 * vy, 1.0)))

    def medium_action(self, state, rng):
        """Weak-gain tracker toward the goal plus exploration noise.  The
        suboptimality is structural (slow drive), so a clone of this policy
        stays medium quality instead of averaging the noise away and
        recovering the expert; the faster in-data actions still reach the
        goal, leaving room for offline improvement."""
        kp, kd = self.MEDIUM_GAINS
        px, py, vx, vy = state.tolist()
        gx, gy = self.GOAL
        low = -self.MEDIUM_NOISE
        span = self.MEDIUM_NOISE - low
        ux, uy = rng.random(2).tolist()
        return np.array((_clip(kp * (gx - px) - kd * vx + (low + span * ux), 1.0),
                         _clip(kp * (gy - py) - kd * vy + (low + span * uy), 1.0)))


class GridWorld:
    """8x8 gridworld with slip.  The continuous interface uses (row, col)
    float states and 2-d box actions decoded to the dominant cardinal
    direction; the exact chain is exposed through :meth:`tabular_mdp`.

    Entering the goal cell pays reward 1 and ends the episode; all other
    steps pay 0.
    """

    SIZE = 8
    # direction -> (d_row, d_col): right, left, down, up
    MOVES = ((0, 1), (0, -1), (1, 0), (-1, 0))
    # tight horizon so tier quality shows up in episode returns
    HORIZON = 24

    def __init__(self, slip: float = 0.1, goal=(7, 7), start=(0, 0)):
        if not (0.0 <= slip < 1.0):
            raise InputError("slip must lie in [0, 1)")
        self.slip = slip
        self.goal = tuple(goal)
        self.start = tuple(start)
        self.spec = EnvSpec(
            name="gridworld",
            state_dim=2,
            action_dim=2,
            action_low=-np.ones(2),
            action_high=np.ones(2),
            horizon=self.HORIZON,
            physics={"size": self.SIZE, "slip": slip, "goal": list(self.goal),
                     "start": list(self.start)},
        )

    # -- index helpers -----------------------------------------------------
    def state_index(self, state) -> int:
        row = int(round(float(state[0])))
        col = int(round(float(state[1])))
        if not (0 <= row < self.SIZE and 0 <= col < self.SIZE):
            raise InputError(f"cell ({row}, {col}) outside the grid")
        return row * self.SIZE + col

    @property
    def goal_index(self) -> int:
        return self.goal[0] * self.SIZE + self.goal[1]

    def is_terminal_index(self, index: int) -> bool:
        return index == self.goal_index

    @staticmethod
    def decode_action(action) -> int:
        """Dominant-component decoding of a 2-d box action: component 0 picks
        down/up (rows), component 1 picks right/left (columns)."""
        a_row, a_col = (float(a) for a in action)
        if abs(a_col) >= abs(a_row):
            return 0 if a_col > 0 else 1
        return 2 if a_row > 0 else 3

    @staticmethod
    def encode_action(direction: int) -> np.ndarray:
        d_row, d_col = GridWorld.MOVES[direction]
        return np.array([float(d_row), float(d_col)])

    def _move(self, row, col, direction):
        d_row, d_col = self.MOVES[direction]
        return (min(max(row + d_row, 0), self.SIZE - 1),
                min(max(col + d_col, 0), self.SIZE - 1))

    # -- continuous interface ----------------------------------------------
    def reset(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        return np.array([float(self.start[0]), float(self.start[1])])

    def step(self, state, action, rng: np.random.Generator):
        index = self.state_index(state)
        if self.is_terminal_index(index):
            raise InputError("stepping a terminal gridworld state")
        direction = self.decode_action(
            [_clip(a, 1.0) for a in np.asarray(action, dtype=np.float64).tolist()])
        if rng.random() < self.slip:
            direction = int(rng.integers(4))
        row, col = self._move(index // self.SIZE, index % self.SIZE, direction)
        reached = (row, col) == self.goal
        return (np.array([float(row), float(col)]),
                1.0 if reached else 0.0,
                reached)

    # -- exact chain ---------------------------------------------------------
    def tabular_mdp(self, discount: float = 0.99) -> TabularMdp:
        """Exact MDP with the goal absorbing at zero reward; r(s,a) is the
        probability of landing on the goal.  Each (s, a) entry sums its
        direction terms in direction order, as a per-cell loop would."""
        n = self.SIZE * self.SIZE
        p = np.zeros((n, 4, n))
        r = np.zeros((n, 4))
        p[self.goal_index, :, self.goal_index] = 1.0
        cells = np.delete(np.arange(n), self.goal_index)
        for d, (d_row, d_col) in enumerate(self.MOVES):
            nxt = (np.clip(cells // self.SIZE + d_row, 0, self.SIZE - 1) * self.SIZE
                   + np.clip(cells % self.SIZE + d_col, 0, self.SIZE - 1))
            goal = cells[nxt == self.goal_index]
            for a in range(4):
                prob = (1.0 - self.slip if d == a else 0.0) + self.slip / 4.0
                p[cells, a, nxt] += prob
                r[goal, a] += prob
        rho = np.zeros(n)
        rho[self.start[0] * self.SIZE + self.start[1]] = 1.0
        return TabularMdp(p, r, rho, discount, r_max=1.0)

    def epsilon_greedy_table(self, mdp: TabularMdp, epsilon: float) -> PolicyTable:
        """epsilon-greedy policy around the optimal greedy policy of ``mdp``,
        whose exact ties go to the lowest-index action."""
        _, greedy = policy_iteration(mdp)
        probs = np.full((mdp.num_states, mdp.num_actions), epsilon / mdp.num_actions)
        probs[np.arange(mdp.num_states), greedy.probs.argmax(axis=1)] += 1.0 - epsilon
        return PolicyTable(probs)


class Pendulum:
    """Torque-limited swing-up: state (cos th, sin th, th_dot), torque in
    [-2, 2], dt = 0.05, th = 0 upright.  Reward -(dth^2 + 0.1 th_dot^2 +
    0.001 u^2); fixed horizon, no early termination."""

    DT = 0.05
    G = 10.0
    M = 1.0
    L = 1.0
    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0

    def __init__(self):
        self.spec = EnvSpec(
            name="pendulum",
            state_dim=3,
            action_dim=1,
            action_low=np.array([-self.MAX_TORQUE]),
            action_high=np.array([self.MAX_TORQUE]),
            horizon=200,
            physics={"dt": self.DT, "g": self.G, "m": self.M, "l": self.L},
        )

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(-np.pi, np.pi)
        theta_dot = rng.uniform(-1.0, 1.0)
        return np.array([np.cos(theta), np.sin(theta), theta_dot])

    @staticmethod
    def _wrap(angle):
        return (angle + np.pi) % (2.0 * np.pi) - np.pi

    def step(self, state, action, rng):
        del rng  # deterministic dynamics
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (3,) or not np.all(np.isfinite(state)):
            raise InputError("pendulum state must be a finite 3-vector")
        theta = np.arctan2(state[1], state[0])
        theta_dot = state[2]
        u = float(np.clip(np.asarray(action, dtype=np.float64), -self.MAX_TORQUE,
                          self.MAX_TORQUE).reshape(-1)[0])
        reward = -(self._wrap(theta) ** 2 + 0.1 * theta_dot ** 2 + 0.001 * u ** 2)
        acc = (3.0 * self.G / (2.0 * self.L) * np.sin(theta)
               + 3.0 / (self.M * self.L ** 2) * u)
        theta_dot = np.clip(theta_dot + acc * self.DT, -self.MAX_SPEED, self.MAX_SPEED)
        theta = theta + theta_dot * self.DT
        return np.array([np.cos(theta), np.sin(theta), theta_dot]), float(reward), False

    def expert_action(self, state, rng):
        """Energy-shaping swing-up with a linear stabilizer near the top."""
        del rng
        theta = np.arctan2(state[1], state[0])
        theta_dot = state[2]
        dth = self._wrap(theta)
        if abs(dth) < 0.5 and abs(theta_dot) < 2.5:
            u = -12.0 * dth - 2.2 * theta_dot
        else:
            inertia = self.M * self.L ** 2 / 3.0
            energy = 0.5 * inertia * theta_dot ** 2 + 0.5 * self.M * self.G * self.L * np.cos(theta)
            target = 0.5 * self.M * self.G * self.L
            pump = 1.6 * (target - energy)
            u = pump * (theta_dot if abs(theta_dot) > 1e-3 else 1.0)
        return np.array([np.clip(u, -self.MAX_TORQUE, self.MAX_TORQUE)])


def make_env(name: str):
    if name == "pointmass2d":
        return PointMass2d()
    if name == "gridworld":
        return GridWorld()
    if name == "pendulum":
        return Pendulum()
    raise InputError(f"unknown environment {name!r}; choose from {ENV_NAMES}")


# ---------------------------------------------------------------------------
# Scripted tiers
# ---------------------------------------------------------------------------

GRIDWORLD_TIER_EPSILON = {"random": 1.0, "medium": 0.4, "expert": 0.05}
# probability that the medium tier substitutes a uniform action; the point
# mass has its own structurally detuned medium controller instead
MEDIUM_UNIFORM_RATE = {"pointmass2d": 0.0, "pendulum": 0.5}


def _uniform_action(spec: EnvSpec, rng):
    """``rng.uniform(spec.action_low, spec.action_high)``: the same doubles
    through the same arithmetic, without its argument handling."""
    low = spec.action_low
    return low + (spec.action_high - low) * rng.random(spec.action_dim)


def scripted_policy(env, tier: str, mix: float | None = None):
    """Behavior policy for a tier.

    random is uniform over the action box; expert is the tuned controller;
    medium is the env's mid-quality controller (a detuned off-goal tracker
    for the point mass, the expert diluted with uniform actions for the
    pendulum).  Gridworld tiers are epsilon-greedy on the exact optimal Q
    with epsilon 1.0 / 0.4 / 0.05.  ``mix`` overrides the uniform-action
    rate (or gridworld epsilon) and is how the medium_replay interpolation
    sweeps from fully random to medium.

    Returns ``policy(state, rng) -> action``.
    """
    if tier not in TIERS:
        raise InputError(f"unknown tier {tier!r}; choose from {TIERS}")
    spec = env.spec
    if isinstance(env, GridWorld):
        epsilon = GRIDWORLD_TIER_EPSILON[tier] if mix is None else mix
        cdf = choice_cdf(env.epsilon_greedy_table(env.tabular_mdp(), epsilon).probs).tolist()

        def grid_policy(state, rng):
            # rng.choice(4, p=probs[state]): one double u, then the count of cdf <= u
            row = cdf[env.state_index(state)]
            return GridWorld.encode_action(bisect.bisect_right(row, rng.random()))

        return grid_policy

    if tier == "random":
        return lambda state, rng: _uniform_action(spec, rng)
    if tier == "expert":
        return env.expert_action
    base = env.medium_action if hasattr(env, "medium_action") else env.expert_action
    rate = MEDIUM_UNIFORM_RATE[spec.name] if mix is None else mix

    def medium_policy(state, rng):
        if rate > 0.0 and rng.random() < rate:
            return _uniform_action(spec, rng)
        return base(state, rng)

    return medium_policy


# ---------------------------------------------------------------------------
# Rollouts and evaluation
# ---------------------------------------------------------------------------

def rollout(env, policy, rng: np.random.Generator, horizon: int | None = None):
    """One episode; returns (states, actions, rewards, next_states, dones,
    episode_return)."""
    horizon = env.spec.horizon if horizon is None else horizon
    low, high = env.spec.action_low, env.spec.action_high
    states, actions, rewards, next_states, dones = [], [], [], [], []
    state = env.reset(rng)
    total = 0.0
    for _ in range(horizon):
        action = np.minimum(np.maximum(policy(state, rng), low), high)  # np.clip, faster
        nxt, reward, done = env.step(state, action, rng)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        next_states.append(nxt)
        dones.append(done)
        total += reward
        state = nxt
        if done:
            break
    return states, actions, rewards, next_states, dones, total


def evaluate_policy(env, policy, episodes: int, rng: np.random.Generator) -> np.ndarray:
    """Undiscounted episode returns over ``episodes`` rollouts."""
    return np.array([rollout(env, policy, rng)[-1] for _ in range(episodes)])


def normalized_score(raw_return: float, random_return: float, expert_return: float) -> float:
    """100 * (return - random) / (expert - random)."""
    span = expert_return - random_return
    if span <= 0:
        raise InputError("expert anchor must exceed the random anchor")
    return 100.0 * (raw_return - random_return) / span
