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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import nn
from .data import ContinuousTransitionDataset
from .dynamics import EnsembleDynamicsModel
from .errors import ConfigError, DivergenceError, InputError

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
        checks = [
            (self.alpha_init >= 0, "alpha_init must be nonnegative"),
            (self.tau_budget > 0, "tau_budget must be positive"),
            (self.beta_awr > 0, "beta_awr must be positive"),
            (self.lambda_explore >= 0, "lambda_explore must be nonnegative"),
            (0.0 < self.omega < 1.0, "omega must lie in (0, 1)"),
            (0.0 < self.gamma < 1.0, "gamma must lie in (0, 1)"),
            (self.n_action_samples >= 1, "n_action_samples must be at least 1"),
            (self.batch_size >= 1, "batch_size must be at least 1"),
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
    return AgentBundle(
        v_net=v_net,
        q_net=q_net,
        q_target=q_net.copy(),
        policy_net=policy_net,
        alpha=hp.alpha_init,
        action_scale=np.asarray(action_scale, dtype=np.float64),
        opt_v=nn.adam_init(v_net.params, hp.lr_critic),
        opt_q=nn.adam_init(q_net.params, hp.lr_critic),
        opt_policy=nn.adam_init(policy_net.params, hp.lr_actor),
    )


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


def _check_finite(value: float, name: str, step: int | None = None) -> float:
    if not np.isfinite(value):
        raise DivergenceError(f"{name} became non-finite", step=step)
    return float(value)


def _sample_policy_actions(bundle, mean, log_std, noise):
    """Squashed samples for target estimation; no gradients are kept."""
    u = mean[..., None, :] + np.exp(log_std)[..., None, :] * noise
    return bundle.action_scale * np.tanh(u)


# ---------------------------------------------------------------------------
# Critic losses
# ---------------------------------------------------------------------------

class VLossResult(NamedTuple):
    loss: float
    grads: list
    gap: float | None   # E[V(ood)] - E[V(data)], None when the penalty is off


def _v_loss_impl(bundle: AgentBundle, batch: Batch, model, hp: CsveHyperParams,
                 rng: np.random.Generator, penalty_active: bool,
                 noise_variant: bool, dist=None) -> VLossResult:
    states = batch.states
    n = states.shape[0]
    adim = bundle.action_scale.shape[0]
    mean, log_std, _, _ = dist or policy_distribution(bundle, states)
    noise = rng.standard_normal((n, hp.n_action_samples, adim))
    acts = _sample_policy_actions(bundle, mean, log_std, noise)
    sa = np.hstack([np.repeat(states, hp.n_action_samples, axis=0),
                    acts.reshape(n * hp.n_action_samples, adim)])
    q_bar = bundle.q_target.forward(sa).reshape(n, hp.n_action_samples)
    target = q_bar.mean(axis=1)

    v_out, cache = bundle.v_net.forward_cache(states)
    v = v_out[:, 0]
    diff = target - v
    loss = float(np.mean(diff * diff))
    d_v = -2.0 * diff / n

    gap = None
    if penalty_active:
        if noise_variant:
            ood_states = states + np.sqrt(hp.noise_var) * rng.standard_normal(states.shape)
        else:
            pen_noise = rng.standard_normal((n, adim))
            pen_actions = bundle.action_scale * np.tanh(mean + np.exp(log_std) * pen_noise)
            ood_states, _ = model.sample_next_batch(states, pen_actions, rng)
        v_ood_out, ood_cache = bundle.v_net.forward_cache(ood_states)
        v_ood = v_ood_out[:, 0]
        gap = float(np.mean(v_ood) - np.mean(v))
        loss = loss + bundle.alpha * gap
        d_v = d_v - bundle.alpha / n
        grads, _ = bundle.v_net.backward(cache, d_v[:, None])
        ood_grads, _ = bundle.v_net.backward(ood_cache, np.full((n, 1), bundle.alpha / n))
        grads = [g + og for g, og in zip(grads, ood_grads)]
    else:
        grads, _ = bundle.v_net.backward(cache, d_v[:, None])
    return VLossResult(_check_finite(loss, "v loss"), grads, gap)


def v_loss(bundle: AgentBundle, batch: Batch, model: EnsembleDynamicsModel,
           hp: CsveHyperParams, rng: np.random.Generator) -> VLossResult:
    """Fitted-V regression onto E_{a~pi}[Q_target] plus the out-of-distribution
    state penalty alpha * (E[V(s')] - E[V(s)]), s' drawn through the model.
    Gradients flow into the V network only."""
    if model is None:
        raise InputError("the model-based penalty needs a trained dynamics model")
    return _v_loss_impl(bundle, batch, model, hp, rng, penalty_active=True,
                        noise_variant=False)


def v_loss_noise_variant(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams,
                         rng: np.random.Generator) -> VLossResult:
    """Model-free variant: the penalized states are the batch states plus
    isotropic Gaussian noise of variance ``hp.noise_var``."""
    return _v_loss_impl(bundle, batch, None, hp, rng, penalty_active=True,
                        noise_variant=True)


def q_loss(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams):
    """TD regression Q(s,a) -> r + gamma * V(s'); V is a fixed target and
    gradients reach the Q network only.  Terminal transitions do not
    bootstrap."""
    v_next = bundle.v_net.forward(batch.next_states)[:, 0]
    target = batch.rewards + hp.gamma * (1.0 - batch.dones.astype(np.float64)) * v_next
    sa = np.hstack([batch.states, batch.actions])
    q_out, cache = bundle.q_net.forward_cache(sa)
    q = q_out[:, 0]
    diff = target - q
    loss = _check_finite(float(np.mean(diff * diff)), "q loss")
    grads, _ = bundle.q_net.backward(cache, (-2.0 * diff / len(q))[:, None])
    return loss, grads


def target_update(bundle: AgentBundle, hp: CsveHyperParams) -> None:
    """Soft interpolation Q_target <- (1 - omega) Q_target + omega Q."""
    bundle.q_target.params = nn.polyak_update(bundle.q_target.params,
                                              bundle.q_net.params, hp.omega)


def alpha_update(bundle: AgentBundle, batch: Batch, model, hp: CsveHyperParams,
                 rng: np.random.Generator, gap: float | None = None) -> float:
    """Dual-ascent step on the penalty weight against the budget:
    alpha <- max(0, alpha + lr_alpha * (gap - tau)).  The gap defaults to a
    fresh batch estimate of E[V(s')] - E[V(s)]."""
    if gap is None:
        noise_variant = hp.ood_variant == "gaussian_noise"
        result = _v_loss_impl(bundle, batch, model, hp, rng, penalty_active=True,
                              noise_variant=noise_variant)
        gap = result.gap
    bundle.alpha = max(0.0, bundle.alpha + hp.lr_alpha * (gap - hp.tau_budget))
    return bundle.alpha


# ---------------------------------------------------------------------------
# Actor losses
# ---------------------------------------------------------------------------

class PolicyLossResult(NamedTuple):
    loss: float          # total actor loss (awr - lambda * bonus)
    awr_loss: float      # weighted log-likelihood component alone
    grads: list


def _critic_advantage(bundle, batch):
    """Q(s, a) - V(s) on the batch, a constant for the actor."""
    q = bundle.q_net.forward(np.hstack([batch.states, batch.actions]))[:, 0]
    return q - bundle.v_net.forward(batch.states)[:, 0]


def _awr_cotangent(bundle, batch, hp, dist, advantage):
    """AWR loss value and the cotangent on the policy head outputs for
    weights exp(beta * advantage), capped at ``hp.weight_clip``."""
    mean, log_std, raw, _ = dist
    n = len(batch.states)
    weights = np.exp(np.minimum(hp.beta_awr * advantage, np.log(hp.weight_clip)))
    log_prob = nn.squashed_gaussian_log_prob(mean, log_std, batch.actions,
                                             bundle.action_scale)
    loss = float(-np.mean(weights * log_prob))
    u = nn.presquash_actions(batch.actions, bundle.action_scale)
    d_mean, d_log_std = nn.gaussian_log_prob_grads(mean, log_std, u)
    coeff = (-weights / n)[:, None]
    return loss, np.hstack([coeff * d_mean,
                            coeff * d_log_std * nn.clamp_log_std_mask(raw)])


def _reparam_cotangent(dist, eps, d_u):
    """Cotangent on the policy head outputs from d_u on u = mean + std * eps."""
    _, log_std, raw, _ = dist
    return np.hstack([d_u, d_u * np.exp(log_std) * eps * nn.clamp_log_std_mask(raw)])


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
    mean, log_std, _, cache = dist
    awr_loss, cot = _awr_cotangent(bundle, batch, hp, dist,
                                   _critic_advantage(bundle, batch))

    eps = rng.standard_normal(mean.shape)
    u = mean + np.exp(log_std) * eps
    tanh_u = np.tanh(u)
    actions = bundle.action_scale * tanh_u
    next_states, rewards, pullback = model.mean_prediction_with_action_grad(states, actions)
    v_out, v_cache = bundle.v_net.forward_cache(next_states)
    bonus = float(np.mean(rewards + hp.gamma * v_out[:, 0]))
    loss = awr_loss - hp.lambda_explore * bonus

    scale = hp.lambda_explore / n
    d_next = bundle.v_net.input_grad(v_cache, np.full((n, 1), -scale * hp.gamma))
    d_actions = pullback(d_next, np.full(n, -scale))
    d_u = d_actions * bundle.action_scale * (1.0 - tanh_u ** 2)
    grads, _ = bundle.policy_net.backward(cache, cot + _reparam_cotangent(dist, eps, d_u))
    return PolicyLossResult(_check_finite(loss, "policy loss"), awr_loss, grads)


# ---------------------------------------------------------------------------
# CQL-AWR critic and actor
# ---------------------------------------------------------------------------

def cql_critic_loss(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams,
                    rng: np.random.Generator, dist=None):
    """Action-penalized Q objective: alpha * (E_{a~pi}[Q] - E_{a~data}[Q]) plus
    half the TD error against r + gamma * E_{a'~pi}[Q_target(s', a')]."""
    states = batch.states
    n = states.shape[0]
    adim = bundle.action_scale.shape[0]
    k = hp.n_action_samples

    mean, log_std, _, _ = dist or policy_distribution(bundle, states)
    acts_pi = _sample_policy_actions(bundle, mean, log_std,
                                     rng.standard_normal((n, k, adim)))
    mean_n, log_std_n, _, _ = policy_distribution(bundle, batch.next_states)
    acts_next = _sample_policy_actions(bundle, mean_n, log_std_n,
                                       rng.standard_normal((n, k, adim)))

    sa_data = np.hstack([states, batch.actions])
    q_data_out, data_cache = bundle.q_net.forward_cache(sa_data)
    q_data = q_data_out[:, 0]

    sa_pi = np.hstack([np.repeat(states, k, axis=0), acts_pi.reshape(n * k, adim)])
    q_pi_out, pi_cache = bundle.q_net.forward_cache(sa_pi)
    q_pi = q_pi_out[:, 0].reshape(n, k)

    sa_next = np.hstack([np.repeat(batch.next_states, k, axis=0),
                         acts_next.reshape(n * k, adim)])
    q_next = bundle.q_target.forward(sa_next)[:, 0].reshape(n, k).mean(axis=1)
    target = batch.rewards + hp.gamma * (1.0 - batch.dones.astype(np.float64)) * q_next

    penalty = float(np.mean(q_pi) - np.mean(q_data))
    diff = q_data - target
    loss = _check_finite(bundle.alpha * penalty + 0.5 * float(np.mean(diff * diff)),
                         "cql critic loss")
    d_data = (diff / n - bundle.alpha / n)[:, None]
    d_pi = np.full((n * k, 1), bundle.alpha / (n * k))
    grads, _ = bundle.q_net.backward(data_cache, d_data)
    grads_pi, _ = bundle.q_net.backward(pi_cache, d_pi)
    grads = [g + gp for g, gp in zip(grads, grads_pi)]
    return loss, grads


def cql_actor_loss(bundle: AgentBundle, batch: Batch, hp: CsveHyperParams,
                   rng: np.random.Generator, dist=None) -> PolicyLossResult:
    """AWR with the Q-mean baseline A = Q(s,a) - E_{a~pi}[Q(s,a)], minus
    lambda * E_{a~pi'}[Q(s,a)] driven through reparameterized actions."""
    states = batch.states
    n = states.shape[0]
    adim = bundle.action_scale.shape[0]
    k = hp.n_action_samples
    dist = dist or policy_distribution(bundle, states)
    mean, log_std, _, cache = dist

    acts_pi = _sample_policy_actions(bundle, mean, log_std,
                                     rng.standard_normal((n, k, adim)))
    sa_pi = np.hstack([np.repeat(states, k, axis=0), acts_pi.reshape(n * k, adim)])
    q_baseline = bundle.q_net.forward(sa_pi)[:, 0].reshape(n, k).mean(axis=1)
    q_data = bundle.q_net.forward(np.hstack([states, batch.actions]))[:, 0]
    awr, cot = _awr_cotangent(bundle, batch, hp, dist, q_data - q_baseline)

    loss = awr
    if hp.lambda_explore > 0.0:
        eps = rng.standard_normal(mean.shape)
        tanh_u = np.tanh(mean + np.exp(log_std) * eps)
        actions = bundle.action_scale * tanh_u
        q_out, q_cache = bundle.q_net.forward_cache(np.hstack([states, actions]))
        bonus = float(np.mean(q_out[:, 0]))
        loss = awr - hp.lambda_explore * bonus
        d_sa = bundle.q_net.input_grad(q_cache, np.full((n, 1), -hp.lambda_explore / n))
        d_u = d_sa[:, states.shape[1]:] * bundle.action_scale * (1.0 - tanh_u ** 2)
        cot = cot + _reparam_cotangent(dist, eps, d_u)
    grads, _ = bundle.policy_net.backward(cache, cot)
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


def train_agent(dataset: ContinuousTransitionDataset,
                model: EnsembleDynamicsModel | None,
                hp: CsveHyperParams,
                rng: np.random.Generator,
                env=None,
                algorithm: str = "csve"):
    """Run the full offline loop: per step V update, penalty-weight update,
    Q update, policy update, then the soft target update.  Deterministic
    for a fixed generator state; evaluation (when ``env`` is given) uses a
    stream split off up front so it never perturbs training draws.

    Returns (bundle, metric_rows); raises DivergenceError with the failing
    step on a non-finite loss.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if dataset.size == 0:
        raise InputError("cannot train on an empty dataset")
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
    if algorithm == "awac":
        bundle.alpha = 0.0

    rows: list[dict] = []
    for step in range(1, hp.total_steps + 1):
        batch = _sample_batch(dataset, hp.batch_size, rng)
        # the policy changes only at the end of the step: one pass serves all losses
        dist = policy_distribution(bundle, batch.states)
        try:
            if algorithm == "cql_awr":
                loss_v, gap = None, None
                loss_q, q_grads = cql_critic_loss(bundle, batch, hp, rng, dist)
                bundle.q_net.params, bundle.opt_q = nn.adam_step(
                    bundle.opt_q, bundle.q_net.params, q_grads)
                pi = cql_actor_loss(bundle, batch, hp, rng, dist)
            else:
                v_result = _v_loss_impl(bundle, batch, model, hp, rng,
                                        penalty_active=uses_penalty,
                                        noise_variant=noise_variant, dist=dist)
                loss_v, gap = v_result.loss, v_result.gap
                bundle.v_net.params, bundle.opt_v = nn.adam_step(
                    bundle.opt_v, bundle.v_net.params, v_result.grads)
                if uses_penalty and hp.adaptive_alpha:
                    alpha_update(bundle, batch, model, hp, rng, gap=gap)
                loss_q, q_grads = q_loss(bundle, batch, hp)
                bundle.q_net.params, bundle.opt_q = nn.adam_step(
                    bundle.opt_q, bundle.q_net.params, q_grads)
                if hp.lambda_explore > 0.0:
                    pi = explore_policy_loss(bundle, batch, model, hp, rng, dist)
                else:
                    pi = awr_policy_loss(bundle, batch, hp, dist)
            bundle.policy_net.params, bundle.opt_policy = nn.adam_step(
                bundle.opt_policy, bundle.policy_net.params, pi.grads)
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


def awac_baseline(dataset, hp: CsveHyperParams, rng, env=None):
    """The same loop with the state penalty and exploration bonus structurally
    removed (and alpha pinned to zero)."""
    hp = dataclasses.replace(hp, adaptive_alpha=False, alpha_init=0.0,
                             lambda_explore=0.0)
    return train_agent(dataset, None, hp, rng, env=env, algorithm="awac")


def cql_awr_baseline(dataset, hp: CsveHyperParams, rng, env=None):
    """Model-free baseline: action-penalized Q critic with the AWR +
    action-exploration actor."""
    hp = dataclasses.replace(hp, adaptive_alpha=False)
    return train_agent(dataset, None, hp, rng, env=env, algorithm="cql_awr")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_NETS = ("v_net", "q_net", "q_target", "policy_net")


def save_agent(bundle: AgentBundle, hp: CsveHyperParams, step: int, directory,
               algorithm: str = "csve") -> None:
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
    manifest = json.loads((directory / "manifest.json").read_text())
    nets = {name: nn.load_mlp_file(directory / f"{name}.bin")[0] for name in _NETS}
    hp_doc = dict(manifest["hyper_params"])
    hp_doc["hidden_sizes"] = tuple(hp_doc["hidden_sizes"])
    hp = CsveHyperParams(**hp_doc)
    bundle = AgentBundle(
        v_net=nets["v_net"],
        q_net=nets["q_net"],
        q_target=nets["q_target"],
        policy_net=nets["policy_net"],
        alpha=manifest["alpha"],
        action_scale=np.asarray(manifest["action_scale"], dtype=np.float64),
        opt_v=nn.adam_init(nets["v_net"].params, hp.lr_critic),
        opt_q=nn.adam_init(nets["q_net"].params, hp.lr_critic),
        opt_policy=nn.adam_init(nets["policy_net"].params, hp.lr_actor),
    )
    return bundle, hp, manifest
