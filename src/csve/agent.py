"""Conservative actor-critic on offline data, with baselines.

The critic fits V to E_{a~pi}[Q_target] on dataset states and pushes V
down on model-predicted next states (or noise-perturbed states), with the
penalty weight adapted against a budget.  The actor does advantage
weighted regression on dataset actions, optionally plus a model-based
bonus that pulls sampled actions toward high-value predicted next states.
AWAC is the same loop with the penalty and bonus structurally removed;
CQL-AWR swaps the critic for the action-penalized Q objective.

Gradient routing is explicit: each loss returns gradients only for the
network it trains, so isolation is structural rather than by masking.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import nn
from .data import ContinuousTransitionDataset, read_json
from .dynamics import EnsembleDynamicsModel
from .errors import ConfigError, CorruptFileError, DivergenceError, InputError

ALGORITHMS = ("csve", "csve_noise", "awac", "cql_awr")
OOD_VARIANTS = ("model_next_state", "gaussian_noise")


@dataclass
class CsveHyperParams:
    """Training knobs; the penalty weight, budget, smoothing, discount and
    advantage temperature defaults follow the reference configuration."""

    alpha_init: float = 10.0
    adaptive_alpha: bool = True
    tau_budget: float = 10.0
    beta_awr: float = 3.0
    lambda_explore: float = 0.1
    omega: float = 0.005
    gamma: float = 0.99
    n_action_samples: int = 10
    batch_size: int = 256
    total_steps: int = 50_000
    lr_actor: float = 3e-4
    lr_critic: float = 1e-4
    lr_alpha: float = 1e-3
    weight_clip: float = 100.0
    hidden_sizes: tuple = (256, 256)
    ood_variant: str = "model_next_state"
    noise_var: float = 0.1
    log_interval: int = 100
    eval_interval: int = 1000
    n_eval: int = 10

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        checks = [
            (self.alpha_init >= 0, "alpha_init must be nonnegative"),
            (self.tau_budget > 0, "tau_budget must be positive"),
            (self.beta_awr > 0, "beta_awr must be positive"),
            (self.lambda_explore >= 0, "lambda_explore must be nonnegative"),
            (0.0 < self.omega < 1.0, "omega must lie in (0, 1)"),
            (0.0 < self.gamma < 1.0, "gamma must lie in (0, 1)"),
            (self.n_action_samples >= 1, "n_action_samples must be at least 1"),
            (self.batch_size >= 1, "batch_size must be at least 1"),
            (all(width >= 1 for width in self.hidden_sizes),
             f"hidden_sizes must be positive, got {self.hidden_sizes}"),
            (self.total_steps >= 0, "total_steps must be nonnegative"),
            (self.lr_actor > 0 and self.lr_critic > 0 and self.lr_alpha > 0,
             "learning rates must be positive"),
            (self.weight_clip > 0, "weight_clip must be positive"),
            (self.ood_variant in OOD_VARIANTS,
             f"ood_variant must be one of {OOD_VARIANTS}"),
            (self.noise_var > 0, "noise_var must be positive"),
            (self.log_interval >= 1 and self.eval_interval >= 1 and self.n_eval >= 1,
             "logging intervals must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


class Batch(NamedTuple):
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray


@dataclass
class AgentBundle:
    """All trainable state: critics, target critic, policy, penalty weight
    and per-network optimizer states."""

    v_net: nn.Mlp
    q_net: nn.Mlp
    q_target: nn.Mlp
    policy_net: nn.Mlp
    alpha: float
    action_scale: np.ndarray
    opt_v: nn.AdamState
    opt_q: nn.AdamState
    opt_policy: nn.AdamState

    def __post_init__(self):
        if self.q_target.layer_sizes != self.q_net.layer_sizes:
            raise InputError("target critic must mirror the critic's layer sizes")
        if self.alpha < 0:
            raise InputError("alpha must be nonnegative")


def init_bundle(state_dim: int, action_dim: int, action_scale, hp: CsveHyperParams,
                rng: np.random.Generator) -> AgentBundle:
    hidden = list(hp.hidden_sizes)
    v_net = nn.Mlp.init([state_dim, *hidden, 1], rng)
    q_net = nn.Mlp.init([state_dim + action_dim, *hidden, 1], rng)
    policy_net = nn.Mlp.init([state_dim, *hidden, 2 * action_dim], rng, final_scale=0.01)
    return _fresh_bundle(hp, hp.alpha_init, action_scale, v_net, q_net, q_net.copy(),
                         policy_net)


def _fresh_bundle(hp, alpha, action_scale, v_net, q_net, q_target, policy_net) -> AgentBundle:
    """The networks with zeroed optimizer states at ``hp``'s learning rates."""
    return AgentBundle(v_net, q_net, q_target, policy_net, alpha,
                       np.asarray(action_scale, dtype=np.float64),
                       nn.adam_init(v_net.flat, hp.lr_critic),
                       nn.adam_init(q_net.flat, hp.lr_critic),
                       nn.adam_init(policy_net.flat, hp.lr_actor))


def policy_distribution(bundle: AgentBundle, states: np.ndarray):
    """Mean, clamped log-std, raw pre-clamp output and the forward cache.

    The losses take this as ``dist`` so that one training step, which
    updates the policy only at its end, runs the policy on the batch once;
    a loss called without it runs its own pass."""
    out, cache = bundle.policy_net.forward_cache(states)
    adim = out.shape[-1] // 2
    mean, raw = out[..., :adim], out[..., adim:]
    return mean, nn.clamp_log_std(raw), raw, cache


def deterministic_action(bundle: AgentBundle, state: np.ndarray) -> np.ndarray:
    mean, _, _, _ = policy_distribution(bundle, np.atleast_2d(state))
    return bundle.action_scale * np.tanh(mean[0])


def _check_finite(value: float, name: str) -> float:
    if not np.isfinite(value):
        raise DivergenceError(f"{name} became non-finite")
    return float(value)


def _columns(*blocks):  # np.hstack's bits without its dispatch, as add.reduce / n is np.mean's
    return np.concatenate(blocks, axis=1)


def _policy_rows(bundle, states, dist, k, rng):
    """The n*k (state, action) rows, state-major, of k squashed actions
    drawn per state from the policy head ``dist``; no gradients are kept."""
    mean, log_std = dist[0], dist[1]
    n, adim = mean.shape
    u = mean[..., None, :] + np.exp(log_std)[..., None, :] * rng.standard_normal((n, k, adim))
    actions = bundle.action_scale * np.tanh(u)
    return _columns(np.repeat(states, k, axis=0), actions.reshape(n * k, adim))


def _reparam_actions(bundle, dist, rng):
    """One squashed action per state, reparameterised: u = mean + std * eps
    with eps drawn from ``rng``; returns (actions, tanh(u), eps)."""
    mean, log_std = dist[0], dist[1]
    eps = rng.standard_normal(mean.shape)
    tanh_u = np.tanh(mean + np.exp(log_std) * eps)
    return bundle.action_scale * tanh_u, tanh_u, eps


def _mean_q(net, rows, k):
    """Per-state mean of ``net`` over the k rows :func:`_policy_rows` gave each state."""
    return np.add.reduce(net.forward(rows)[:, 0].reshape(-1, k), axis=1) / k


# ---------------------------------------------------------------------------
# Critic losses
# ---------------------------------------------------------------------------

def _penalized_regression(net, x, targets, x_ood, alpha, weight):
    """Loss, gradients and gap of a one-output critic for

        weight * mean((net(x) - targets)^2) + alpha * (mean net(x_ood) - mean net(x)),

    with gap = mean net(x_ood) - mean net(x); without ``x_ood`` the penalty
    is off and the gap is None.  The targets are constants.

    The alpha convention: on one-hot inputs with a linear net, where the
    rows of x fall on state s with frequency d_u(s) and those of x_ood with
    frequency d(s), the gradient vanishes at

        net(s) = target(s) - alpha / (2 * weight) * (d(s) / d_u(s) - 1).

    The tabular objective 0.5 * E_du[(backup - V)^2] + alpha * (E_d V - E_du V)
    is this one at weight 1/2, with the same fixed point at the same alpha;
    at weight 1 an alpha acts like a tabular alpha / 2.
    """
    out, cache = net.forward_cache(x)
    pred = out[:, 0]
    n = len(pred)
    diff = pred - targets
    loss = weight * float(np.add.reduce(diff * diff) / n)
    d_pred = 2.0 * weight * diff / n
    if x_ood is None:
        grads, _ = net.backward(cache, d_pred[:, None])
        return loss, grads, None
    out_ood, ood_cache = net.forward_cache(x_ood)
    m = len(x_ood)
    gap = float(np.add.reduce(out_ood[:, 0]) / m - np.add.reduce(pred) / n)
    grads, _ = net.backward(cache, (d_pred - alpha / n)[:, None])
    if alpha != 0.0:  # at alpha 0 the OOD rows' gradients are all zero
        ood_grads, _ = net.backward(ood_cache, np.full((m, 1), alpha / m))
        grads.flat += ood_grads.flat
    return loss + alpha * gap, grads, gap


class VLossResult(NamedTuple):
    loss: float
    grads: nn.FlatViews
    gap: float | None   # E[V(ood)] - E[V(data)], None when the penalty is off


def _v_loss_impl(bundle: AgentBundle, batch: Batch, model, hp: CsveHyperParams,
                 rng: np.random.Generator, penalty_active: bool,
                 noise_variant: bool, dist=None) -> VLossResult:
    """Fitted-V regression onto E_{a~pi}[Q_target(s, a)] plus, when
    ``penalty_active``, alpha * (E[V(s')] - E[V(s)]) on penalized states s':
    the model's sampled next states under a ~ pi, or with ``noise_variant``
    the batch states plus Gaussian noise of variance ``hp.noise_var``.
    Gradients flow into the V network only.

    This is :func:`_penalized_regression` at weight 1, so its fixed point is
    the tabular one at alpha / 2: V(s) = target(s) - alpha/2 * (d/d_u - 1).
    """
    states = batch.states
    dist = dist or policy_distribution(bundle, states)
    k = hp.n_action_samples
    target = _mean_q(bundle.q_target, _policy_rows(bundle, states, dist, k, rng), k)
    ood_states = None
    if penalty_active and noise_variant:
        ood_states = states + np.sqrt(hp.noise_var) * rng.standard_normal(states.shape)
    elif penalty_active:
        pen_actions, _, _ = _reparam_actions(bundle, dist, rng)
        ood_states, _ = model.sample_next_batch(states, pen_actions, rng)
    loss, grads, gap = _penalized_regression(bundle.v_net, states, target, ood_states,
                                             bundle.alpha, 1.0)
    return VLossResult(_check_finite(loss, "v loss"), grads, gap)


def q_loss(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams):
    """TD regression Q(s,a) -> r + gamma * V(s'); V is a fixed target and
    gradients reach the Q network only.  Terminal transitions do not
    bootstrap."""
    v_next = bundle.v_net.forward(batch.next_states)[:, 0]
    target = batch.rewards + hp.gamma * (1.0 - batch.dones.astype(np.float64)) * v_next
    loss, grads, _ = _penalized_regression(
        bundle.q_net, _columns(batch.states, batch.actions), target, None, 0.0, 1.0)
    return _check_finite(loss, "q loss"), grads


def target_update(bundle: AgentBundle, hp: CsveHyperParams) -> None:
    """Soft interpolation Q_target <- (1 - omega) Q_target + omega Q."""
    nn.polyak_update(bundle.q_target.flat, bundle.q_net.flat, hp.omega)


def alpha_update(bundle: AgentBundle, hp: CsveHyperParams, gap: float) -> float:
    """Dual-ascent step on the penalty weight against the budget:
    alpha <- max(0, alpha + lr_alpha * (gap - tau)), gap being the V loss's
    E[V(s')] - E[V(s)]."""
    bundle.alpha = max(0.0, bundle.alpha + hp.lr_alpha * (gap - hp.tau_budget))
    return bundle.alpha


# ---------------------------------------------------------------------------
# Actor losses
# ---------------------------------------------------------------------------

class PolicyLossResult(NamedTuple):
    loss: float          # total actor loss (awr - lambda * bonus)
    awr_loss: float      # weighted log-likelihood component alone
    grads: nn.FlatViews


def _critic_advantage(bundle, batch):
    """Q(s, a) - V(s) on the batch, a constant for the actor."""
    q = bundle.q_net.forward(_columns(batch.states, batch.actions))[:, 0]
    return q - bundle.v_net.forward(batch.states)[:, 0]


def _awr_cotangent(bundle, batch, hp, dist, advantage):
    """AWR loss value and the cotangent on the policy head outputs for
    weights exp(beta * advantage), capped at ``hp.weight_clip``."""
    mean, log_std, raw, _ = dist
    n = len(batch.states)
    weights = np.exp(np.minimum(hp.beta_awr * advantage, np.log(hp.weight_clip)))
    log_prob, u = nn.squashed_gaussian_log_prob(mean, log_std, batch.actions,
                                                bundle.action_scale)
    loss = -float(np.add.reduce(weights * log_prob) / n)
    d_mean, d_log_std = nn.gaussian_log_prob_grads(mean, log_std, u)
    coeff = (-weights / n)[:, None]
    return loss, _columns(coeff * d_mean, coeff * d_log_std * nn.clamp_log_std_mask(raw))


def _reparam_cotangent(bundle, dist, tanh_u, eps, d_actions):
    """Cotangent on the policy head outputs from ``d_actions`` on the actions
    :func:`_reparam_actions` drew as scale * tanh(u), u = mean + std * eps."""
    _, log_std, raw, _ = dist
    d_u = d_actions * bundle.action_scale * (1.0 - tanh_u ** 2)
    return _columns(d_u, d_u * np.exp(log_std) * eps * nn.clamp_log_std_mask(raw))


def awr_policy_loss(bundle: AgentBundle, batch: Batch,
                    hp: CsveHyperParams, dist=None) -> PolicyLossResult:
    """Advantage weighted regression: -E[exp(beta * (Q - V)) * log pi(a|s)]
    with the advantage treated as a constant and weights capped at
    ``hp.weight_clip``.  Gradients reach the policy network only."""
    dist = dist or policy_distribution(bundle, batch.states)
    loss, cot = _awr_cotangent(bundle, batch, hp, dist, _critic_advantage(bundle, batch))
    grads, _ = bundle.policy_net.backward(dist[3], cot)
    return PolicyLossResult(_check_finite(loss, "policy loss"), loss, grads)


def explore_policy_loss(bundle: AgentBundle, batch: Batch,
                        model: EnsembleDynamicsModel, hp: CsveHyperParams,
                        rng: np.random.Generator, dist=None) -> PolicyLossResult:
    """AWR loss minus lambda * E[r(s,a) + gamma * V(s')] for reparameterized
    a ~ pi and the model's deterministic mean prediction of (s', r).  The
    bonus gradient reaches the policy through the sampled action only; the
    model and V network stay frozen.  lambda = 0 reduces exactly to
    :func:`awr_policy_loss` (no extra randomness is consumed)."""
    if hp.lambda_explore == 0.0:
        return awr_policy_loss(bundle, batch, hp, dist)
    if model is None:
        raise InputError("the exploration bonus needs a trained dynamics model")
    states = batch.states
    n = states.shape[0]
    dist = dist or policy_distribution(bundle, states)
    awr_loss, cot = _awr_cotangent(bundle, batch, hp, dist,
                                   _critic_advantage(bundle, batch))

    actions, tanh_u, eps = _reparam_actions(bundle, dist, rng)
    next_states, rewards, pullback = model.mean_prediction_with_action_grad(states, actions)
    v_out, v_cache = bundle.v_net.forward_cache(next_states)
    bonus = float(np.add.reduce(rewards + hp.gamma * v_out[:, 0]) / n)
    loss = awr_loss - hp.lambda_explore * bonus

    scale = hp.lambda_explore / n
    d_next = bundle.v_net.input_grad(v_cache, np.full((n, 1), -scale * hp.gamma))
    d_actions = pullback(d_next, np.full(n, -scale))
    cot = cot + _reparam_cotangent(bundle, dist, tanh_u, eps, d_actions)
    grads, _ = bundle.policy_net.backward(dist[3], cot)
    return PolicyLossResult(_check_finite(loss, "policy loss"), awr_loss, grads)


# ---------------------------------------------------------------------------
# CQL-AWR critic and actor
# ---------------------------------------------------------------------------

def cql_critic_loss(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams,
                    rng: np.random.Generator, dist=None):
    """Action-penalized Q objective: alpha * (E_{a~pi}[Q] - E_{a~data}[Q]) plus
    half the TD error against r + gamma * E_{a'~pi}[Q_target(s', a')].

    This is :func:`_penalized_regression` over (s, a_data) with penalized
    rows (s, a~pi) at weight 1/2, which matches the tabular convention: the
    fixed point is Q(s, a) = target - alpha * (d/d_u - 1) at the same alpha,
    d and d_u being the shares of (s, a) among the policy and the data rows.
    """
    k = hp.n_action_samples
    pi_rows = _policy_rows(bundle, batch.states,
                           dist or policy_distribution(bundle, batch.states), k, rng)
    next_rows = _policy_rows(bundle, batch.next_states,
                             policy_distribution(bundle, batch.next_states), k, rng)
    q_next = _mean_q(bundle.q_target, next_rows, k)
    target = batch.rewards + hp.gamma * (1.0 - batch.dones.astype(np.float64)) * q_next
    loss, grads, _ = _penalized_regression(
        bundle.q_net, _columns(batch.states, batch.actions), target, pi_rows,
        bundle.alpha, 0.5)
    return _check_finite(loss, "cql critic loss"), grads


def cql_actor_loss(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams,
                   rng: np.random.Generator, dist=None) -> PolicyLossResult:
    """AWR with the Q-mean baseline A = Q(s,a) - E_{a~pi}[Q(s,a)], minus
    lambda * E_{a~pi'}[Q(s,a)] driven through reparameterized actions."""
    states = batch.states
    n = states.shape[0]
    k = hp.n_action_samples
    dist = dist or policy_distribution(bundle, states)

    q_baseline = _mean_q(bundle.q_net, _policy_rows(bundle, states, dist, k, rng), k)
    q_data = bundle.q_net.forward(_columns(states, batch.actions))[:, 0]
    awr, cot = _awr_cotangent(bundle, batch, hp, dist, q_data - q_baseline)

    loss = awr
    if hp.lambda_explore > 0.0:
        actions, tanh_u, eps = _reparam_actions(bundle, dist, rng)
        q_out, q_cache = bundle.q_net.forward_cache(_columns(states, actions))
        bonus = float(np.add.reduce(q_out[:, 0]) / n)
        loss = awr - hp.lambda_explore * bonus
        d_sa = bundle.q_net.input_grad(q_cache, np.full((n, 1), -hp.lambda_explore / n))
        cot = cot + _reparam_cotangent(bundle, dist, tanh_u, eps, d_sa[:, states.shape[1]:])
    grads, _ = bundle.policy_net.backward(dist[3], cot)
    return PolicyLossResult(_check_finite(loss, "policy loss"), awr, grads)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _sample_batch(dataset: ContinuousTransitionDataset, batch_size: int,
                  rng: np.random.Generator) -> Batch:
    idx = rng.integers(0, dataset.size, size=batch_size)
    return Batch(dataset.states[idx], dataset.actions[idx], dataset.rewards[idx],
                 dataset.next_states[idx], dataset.dones[idx])


def _action_scale_from(dataset: ContinuousTransitionDataset):
    meta = dataset.meta
    if "action_high" in meta:
        high = np.asarray(meta["action_high"], dtype=np.float64)
        low = np.asarray(meta["action_low"], dtype=np.float64)
        if not np.allclose(low, -high):
            raise InputError("tanh policy assumes symmetric action bounds")
        return high
    peak = np.max(np.abs(dataset.actions), axis=0)
    return np.maximum(np.ceil(peak), 1.0)


def _evaluate_bundle(bundle, env, episodes: int, rng: np.random.Generator):
    from .envs import evaluate_policy

    def policy(state, _rng):
        return deterministic_action(bundle, state)

    returns = evaluate_policy(env, policy, episodes, rng)
    return float(returns.mean()), float(returns.std())


# Settings a baseline fixes over the caller's: awac has neither state penalty
# nor bonus, and cql_awr keeps its alpha at alpha_init.
_FIXED_HP = {
    "awac": dict(adaptive_alpha=False, alpha_init=0.0, lambda_explore=0.0),
    "cql_awr": dict(adaptive_alpha=False),
}


def algorithm_hp(hp: CsveHyperParams, algorithm: str) -> CsveHyperParams:
    """The settings ``algorithm`` trains with: ``hp`` with the baseline's
    fixed settings applied.  Training and the checkpoint manifest use it."""
    return dataclasses.replace(hp, **_FIXED_HP.get(algorithm, {}))


def train_agent(dataset: ContinuousTransitionDataset,
                model: EnsembleDynamicsModel | None,
                hp: CsveHyperParams,
                rng: np.random.Generator,
                env=None,
                algorithm: str = "csve"):
    """Run the full offline loop: per step V update, penalty-weight update,
    Q update, policy update, then the soft target update.  Deterministic
    for a fixed generator state; evaluation (when ``env`` is given) uses a
    stream split off up front so it never perturbs training draws.  A
    baseline trains with its fixed settings (:func:`algorithm_hp`).

    Returns (bundle, metric_rows); raises DivergenceError with the failing
    step on a non-finite loss.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if dataset.size == 0:
        raise InputError("cannot train on an empty dataset")
    if model is not None:
        model.check_dims(dataset)
    hp = algorithm_hp(hp, algorithm)
    noise_variant = algorithm == "csve_noise" or (
        algorithm == "csve" and hp.ood_variant == "gaussian_noise")
    uses_penalty = algorithm in ("csve", "csve_noise") and (
        hp.adaptive_alpha or hp.alpha_init > 0.0)
    needs_model = (uses_penalty and not noise_variant) or (
        algorithm in ("csve", "csve_noise") and hp.lambda_explore > 0.0)
    if needs_model and model is None:
        raise InputError(f"algorithm {algorithm!r} needs a dynamics model here")

    eval_rng = np.random.default_rng(rng.integers(2 ** 63))
    bundle = init_bundle(dataset.state_dim, dataset.action_dim,
                         _action_scale_from(dataset), hp, rng)

    rows: list[dict] = []
    for step in range(1, hp.total_steps + 1):
        batch = _sample_batch(dataset, hp.batch_size, rng)
        # the policy changes only at the end of the step: one pass serves all losses
        dist = policy_distribution(bundle, batch.states)
        try:
            if algorithm == "cql_awr":
                loss_v, gap = None, None
                loss_q, q_grads = cql_critic_loss(bundle, batch, hp, rng, dist)
                nn.adam_step(bundle.opt_q, bundle.q_net.flat, q_grads.flat)
                pi = cql_actor_loss(bundle, batch, hp, rng, dist)
            else:
                v_result = _v_loss_impl(bundle, batch, model, hp, rng,
                                        penalty_active=uses_penalty,
                                        noise_variant=noise_variant, dist=dist)
                loss_v, gap = v_result.loss, v_result.gap
                nn.adam_step(bundle.opt_v, bundle.v_net.flat, v_result.grads.flat)
                if uses_penalty and hp.adaptive_alpha:
                    alpha_update(bundle, hp, gap)
                loss_q, q_grads = q_loss(bundle, batch, hp)
                nn.adam_step(bundle.opt_q, bundle.q_net.flat, q_grads.flat)
                if hp.lambda_explore > 0.0:
                    pi = explore_policy_loss(bundle, batch, model, hp, rng, dist)
                else:
                    pi = awr_policy_loss(bundle, batch, hp, dist)
            nn.adam_step(bundle.opt_policy, bundle.policy_net.flat, pi.grads.flat)
            target_update(bundle, hp)
        except DivergenceError as err:
            raise DivergenceError(str(err), step=step) from None

        should_eval = env is not None and (step % hp.eval_interval == 0
                                           or step == hp.total_steps)
        if should_eval or step % hp.log_interval == 0 or step == hp.total_steps:
            row = {
                "step": step,
                "loss_v": loss_v,
                "loss_q": loss_q,
                "loss_pi": pi.awr_loss,
                "alpha": bundle.alpha,
                "v_gap": gap,
                "eval_return_mean": None,
                "eval_return_std": None,
            }
            if should_eval:
                row["eval_return_mean"], row["eval_return_std"] = _evaluate_bundle(
                    bundle, env, hp.n_eval, eval_rng)
            rows.append(row)
    return bundle, rows


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_NETS = ("v_net", "q_net", "q_target", "policy_net")


def save_agent(bundle: AgentBundle, hp: CsveHyperParams, step: int, directory,
               algorithm: str = "csve") -> None:
    hp = algorithm_hp(hp, algorithm)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _NETS:
        (directory / f"{name}.bin").write_bytes(nn.save_mlp_blob(getattr(bundle, name)))
    manifest = {
        "schema_version": 1,
        "algorithm": algorithm,
        "step": int(step),
        "alpha": float(bundle.alpha),
        "action_scale": bundle.action_scale.tolist(),
        "hyper_params": dataclasses.asdict(hp),
        "note": "optimizer state is not persisted; checkpoints are for evaluation",
    }
    manifest["hyper_params"]["hidden_sizes"] = list(hp.hidden_sizes)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_agent(directory):
    """Returns (bundle, hp, manifest); optimizer states are freshly zeroed."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json", ("alpha", "action_scale", "hyper_params"))
    nets = [nn.load_mlp_file(directory / f"{name}.bin")[0] for name in _NETS]
    hp_doc = manifest["hyper_params"]
    try:
        hp = CsveHyperParams(**{**hp_doc, "hidden_sizes": tuple(hp_doc["hidden_sizes"])})
    except (KeyError, TypeError) as err:
        raise CorruptFileError(f"{directory / 'manifest.json'} hyper_params: {err}") from None
    return _fresh_bundle(hp, manifest["alpha"], manifest["action_scale"], *nets), hp, manifest
