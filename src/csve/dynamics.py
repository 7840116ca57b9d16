"""Probabilistic ensemble dynamics model for one-step state sampling.

Each member maps (state, action) to a diagonal Gaussian over the
normalized (state delta, reward) target; members train on independent
bootstrap resamples with early stopping on a shared holdout.  The API is
deliberately one-step only: there is no rollout operation, so model error
cannot compound over a horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .data import ContinuousTransitionDataset
from .errors import DivergenceError, InputError

STD_FLOOR = 1e-6


@dataclass
class EnsembleConfig:
    num_members: int = 5
    hidden_sizes: tuple = (64, 64)
    learning_rate: float = 1e-3
    batch_size: int = 256
    holdout_fraction: float = 0.1
    patience: int = 5
    max_epochs: int = 200

    def __post_init__(self):
        if self.num_members < 1:
            raise InputError("need at least one ensemble member")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise InputError("holdout fraction must lie in (0, 1)")
        if self.patience < 1 or self.max_epochs < 1:
            raise InputError("patience and max_epochs must be positive")


@dataclass
class ModelErrorReport:
    """Ensemble prediction quality on held-out transitions."""

    mean_l2: float                 # L2 error of the ensemble-mean next state
    member_l2: list[float]         # per-member next-state L2 errors
    disagreement: float            # mean std of member mean-predictions
    reward_mae: float


class EnsembleDynamicsModel:
    """B Gaussian-head networks over normalized (delta state, reward)."""

    def __init__(self, members: list[nn.Mlp], in_mean, in_std, out_mean, out_std,
                 state_dim: int, action_dim: int, history: dict | None = None):
        if not members:
            raise InputError("ensemble needs at least one member")
        self.members = members
        self.in_mean = np.asarray(in_mean, dtype=np.float64)
        self.in_std = np.maximum(np.asarray(in_std, dtype=np.float64), STD_FLOOR)
        self.out_mean = np.asarray(out_mean, dtype=np.float64)
        self.out_std = np.maximum(np.asarray(out_std, dtype=np.float64), STD_FLOOR)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.history = history or {}
        target_dim = state_dim + 1
        for m in members:
            if m.layer_sizes[-1] != 2 * target_dim:
                raise InputError("member output width must be 2 * (state_dim + 1)")
            if (m.layer_sizes, m.activation) != (members[0].layer_sizes, members[0].activation):
                raise InputError("ensemble members must share layer sizes and activation")

    @property
    def num_members(self) -> int:
        return len(self.members)

    def _inputs(self, states, actions):
        x = np.hstack([np.atleast_2d(states), np.atleast_2d(actions)])
        return (x - self.in_mean) / self.in_std

    def member_gaussian(self, index: int, states, actions):
        """Normalized-space mean and clamped log-std of one member."""
        out = self.members[index].forward(self._inputs(states, actions))
        dim = self.state_dim + 1
        return out[..., :dim], nn.clamp_log_std(out[..., dim:])

    @property
    def _relu(self) -> bool:
        return self.members[0].activation == "relu"

    def _stacked_forward(self, x):
        """All members over the same rows at once, one batched matmul per
        layer; each member's slice comes from the same matrix product as its
        own ``forward``.  Returns (outputs (B, n, out), layer inputs, stacked
        weights), read fresh from the members on every call."""
        params = [m.params for m in self.members]
        weights, inputs, h = [], [], x
        last = len(params[0]) // 2 - 1
        for layer in range(last + 1):
            inputs.append(h)
            weights.append(np.stack([p[2 * layer] for p in params]))
            h = h @ weights[-1]
            h += np.stack([p[2 * layer + 1] for p in params])[:, None, :]
            if layer < last:
                if self._relu:
                    np.maximum(h, 0.0, out=h)
                else:
                    np.tanh(h, out=h)
        return h, inputs, weights

    def sample_next_batch(self, states, actions, rng: np.random.Generator):
        """One-step samples: each row picks a uniformly random member, samples
        its Gaussian and denormalizes.  Returns (next_states, rewards)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        n = states.shape[0]
        dim = self.state_dim + 1
        picks = rng.integers(self.num_members, size=n)
        noise = rng.standard_normal((n, dim))
        x = self._inputs(states, actions)
        out = np.empty((n, dim))
        for b, member in enumerate(self.members):
            sel = picks == b
            if not np.any(sel):
                continue
            head = member.forward(x[sel])
            out[sel] = head[:, :dim] + np.exp(nn.clamp_log_std(head[:, dim:])) * noise[sel]
        denorm = out * self.out_std + self.out_mean
        return states + denorm[:, :self.state_dim], denorm[:, self.state_dim]

    def sample_next(self, state, action, rng: np.random.Generator):
        nxt, reward = self.sample_next_batch(state, action, rng)
        return nxt[0], float(reward[0])

    def mean_prediction(self, states, actions):
        """Deterministic ensemble-average mean prediction (next states, rewards)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        acc = np.zeros((states.shape[0], self.state_dim + 1))
        for b in range(self.num_members):
            mean, _ = self.member_gaussian(b, states, actions)
            acc += mean
        denorm = acc / self.num_members * self.out_std + self.out_mean
        return states + denorm[:, :self.state_dim], denorm[:, self.state_dim]

    def mean_prediction_with_action_grad(self, states, actions):
        """Like :meth:`mean_prediction` but also returns a pullback mapping
        cotangents on (next_state, reward) to gradients on the actions; member
        parameters are never differentiated."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        x = self._inputs(states, actions)
        dim = self.state_dim + 1
        out, inputs, weights = self._stacked_forward(x)
        acc = np.zeros((states.shape[0], dim))
        for member_out in out:
            acc += member_out[:, :dim]
        denorm = acc / self.num_members * self.out_std + self.out_mean
        next_states = states + denorm[:, :self.state_dim]
        rewards = denorm[:, self.state_dim]

        def pullback(cot_next, cot_reward):
            # cotangent on the normalized mean outputs, shared by all members
            cot_out = np.hstack([cot_next, cot_reward[:, None]])
            cot_mean = cot_out * self.out_std / self.num_members
            dz = np.hstack([cot_mean, np.zeros_like(cot_mean)])
            for layer in range(len(weights) - 1, -1, -1):
                if layer < len(weights) - 1:
                    act = inputs[layer + 1]
                    dz = dz * (act > 0.0) if self._relu else dz * (1.0 - act ** 2)
                dz = dz @ weights[layer].transpose(0, 2, 1)
            grad_x = np.zeros_like(x)
            for member_grad in dz:
                grad_x += member_grad
            grad_action = grad_x[:, self.state_dim:] / self.in_std[self.state_dim:]
            return grad_action

        return next_states, rewards, pullback


def _nll(mean, log_std, targets):
    z = (targets - mean) / np.exp(log_std)
    return float(np.mean(np.sum(0.5 * z * z + log_std + 0.5 * nn.LOG_TWO_PI, axis=1)))


def train_ensemble(dataset: ContinuousTransitionDataset, config: EnsembleConfig,
                   rng: np.random.Generator) -> EnsembleDynamicsModel:
    """Fit the ensemble by Gaussian negative log-likelihood on (delta s, r).

    Each member trains on its own bootstrap resample of the shared training
    split and early-stops when its holdout NLL has not improved for
    ``config.patience`` evaluations; the best-holdout parameters are kept.
    """
    if dataset.size == 0:
        raise InputError("cannot train a dynamics model on an empty dataset")
    inputs = np.hstack([dataset.states, dataset.actions])
    targets = np.hstack([dataset.next_states - dataset.states,
                         dataset.rewards[:, None]])
    n = dataset.size
    n_holdout = max(1, int(round(config.holdout_fraction * n)))
    if n_holdout >= n:
        raise InputError("holdout fraction leaves no training data")
    perm = rng.permutation(n)
    train_idx, holdout_idx = perm[n_holdout:], perm[:n_holdout]

    in_mean = inputs[train_idx].mean(axis=0)
    in_std = np.maximum(inputs[train_idx].std(axis=0), STD_FLOOR)
    out_mean = targets[train_idx].mean(axis=0)
    out_std = np.maximum(targets[train_idx].std(axis=0), STD_FLOOR)
    x_all = (inputs - in_mean) / in_std
    y_all = (targets - out_mean) / out_std

    state_dim = dataset.state_dim
    target_dim = state_dim + 1
    sizes = [state_dim + dataset.action_dim, *config.hidden_sizes, 2 * target_dim]
    members = []
    history = {"train_nll": [], "holdout_nll": []}
    x_hold, y_hold = x_all[holdout_idx], y_all[holdout_idx]
    global_step = 0
    for b in range(config.num_members):
        boot = rng.choice(train_idx, size=train_idx.size, replace=True)
        x_tr, y_tr = x_all[boot], y_all[boot]
        member = nn.Mlp.init(sizes, rng)
        opt = nn.adam_init(member.params, config.learning_rate)
        best_params = [p.copy() for p in member.params]
        best_nll = np.inf
        stale = 0
        member_train, member_hold = [], []
        for epoch in range(config.max_epochs):
            order = rng.permutation(x_tr.shape[0])
            epoch_losses = []
            for start in range(0, x_tr.shape[0], config.batch_size):
                sel = order[start:start + config.batch_size]
                xb, yb = x_tr[sel], y_tr[sel]
                out, cache = member.forward_cache(xb)
                mean, raw = out[:, :target_dim], out[:, target_dim:]
                log_std = nn.clamp_log_std(raw)
                inv_var = np.exp(-2.0 * log_std)
                diff = mean - yb
                loss = _nll(mean, log_std, yb)
                if not np.isfinite(loss):
                    raise DivergenceError("dynamics NLL became non-finite",
                                          step=global_step)
                scale = 1.0 / xb.shape[0]
                d_mean = diff * inv_var * scale
                d_log = (1.0 - diff * diff * inv_var) * scale
                d_log = np.where(nn.clamp_log_std_mask(raw), d_log, 0.0)
                grads, _ = member.backward(cache, np.hstack([d_mean, d_log]))
                member.params, opt = nn.adam_step(opt, member.params, grads)
                epoch_losses.append(loss)
                global_step += 1
            out_h = member.forward(x_hold)
            hold_nll = _nll(out_h[:, :target_dim], nn.clamp_log_std(out_h[:, target_dim:]),
                            y_hold)
            member_train.append(float(np.mean(epoch_losses)))
            member_hold.append(hold_nll)
            if hold_nll < best_nll - 1e-6:
                best_nll = hold_nll
                best_params = [p.copy() for p in member.params]
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
        member.params = best_params
        members.append(member)
        history["train_nll"].append(member_train)
        history["holdout_nll"].append(member_hold)
    return EnsembleDynamicsModel(members, in_mean, in_std, out_mean, out_std,
                                 state_dim, dataset.action_dim, history)


def model_error_report(model: EnsembleDynamicsModel,
                       dataset: ContinuousTransitionDataset) -> ModelErrorReport:
    """One-step prediction quality on held-out transitions: L2 error of the
    ensemble mean, per-member errors and the spread between member means."""
    if dataset.size == 0:
        raise InputError("holdout dataset is empty")
    mean_next, mean_reward = model.mean_prediction(dataset.states, dataset.actions)
    member_l2 = []
    member_means = []
    for b in range(model.num_members):
        mean, _ = model.member_gaussian(b, dataset.states, dataset.actions)
        denorm = mean * model.out_std + model.out_mean
        nxt = dataset.states + denorm[:, :model.state_dim]
        member_means.append(nxt)
        member_l2.append(float(np.mean(np.linalg.norm(nxt - dataset.next_states, axis=1))))
    stack = np.stack(member_means)
    return ModelErrorReport(
        mean_l2=float(np.mean(np.linalg.norm(mean_next - dataset.next_states, axis=1))),
        member_l2=member_l2,
        disagreement=float(np.mean(stack.std(axis=0))),
        reward_mae=float(np.mean(np.abs(mean_reward - dataset.rewards))),
    )


# ---------------------------------------------------------------------------
# Checkpoints: one parameter blob per member plus a JSON sidecar
# ---------------------------------------------------------------------------

def save_model(model: EnsembleDynamicsModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = b"".join(nn.save_mlp_blob(m) for m in model.members)
    (directory / "model.bin").write_bytes(blob)
    sidecar = {
        "schema_version": 1,
        "num_members": model.num_members,
        "state_dim": model.state_dim,
        "action_dim": model.action_dim,
        "in_mean": model.in_mean.tolist(),
        "in_std": model.in_std.tolist(),
        "out_mean": model.out_mean.tolist(),
        "out_std": model.out_std.tolist(),
    }
    (directory / "model.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_model(directory) -> EnsembleDynamicsModel:
    directory = Path(directory)
    sidecar = json.loads((directory / "model.json").read_text())
    return EnsembleDynamicsModel(
        nn.load_mlp_file(directory / "model.bin", sidecar["num_members"]),
        np.array(sidecar["in_mean"]),
        np.array(sidecar["in_std"]),
        np.array(sidecar["out_mean"]),
        np.array(sidecar["out_std"]),
        sidecar["state_dim"],
        sidecar["action_dim"],
    )
