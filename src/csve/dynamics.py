"""Probabilistic ensemble dynamics model for one-step state sampling.

Each member maps (state, action) to a diagonal Gaussian over the
normalized (state delta, reward) target; members train on independent
bootstrap resamples with early stopping on a shared holdout.  The members
are one stacked :class:`nn.Mlp`: the ensemble-mean pass and its action
gradient run through it, and sampling, the error report and checkpoints
through its member views.  The API is deliberately one-step only: there is
no rollout operation, so model error cannot compound over a horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .data import ContinuousTransitionDataset, read_json
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
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise InputError("patience, max_epochs and batch_size must be positive")
        if not all(width >= 1 for width in self.hidden_sizes):
            raise InputError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if not 0 < self.learning_rate < np.inf:
            raise InputError(f"learning_rate must be positive and finite, got "
                             f"{self.learning_rate}")


@dataclass
class ModelErrorReport:
    """Ensemble prediction quality on held-out transitions."""

    mean_l2: float                 # L2 error of the ensemble-mean next state
    member_l2: list[float]         # per-member next-state L2 errors
    disagreement: float            # mean std of member mean-predictions
    reward_mae: float


class EnsembleDynamicsModel:
    """B Gaussian-head networks over normalized (delta state, reward), held
    as one stacked network, ``net``; ``members`` are its members as plain
    networks on the same memory (:meth:`nn.Mlp.member`)."""

    def __init__(self, members: list[nn.Mlp], in_mean, in_std, out_mean, out_std,
                 state_dim: int, action_dim: int, history: dict | None = None):
        self.net = nn.Mlp.stack(members)
        self.members = [self.net.member(b) for b in range(len(members))]
        self.in_mean = np.asarray(in_mean, dtype=np.float64)
        self.in_std = np.maximum(np.asarray(in_std, dtype=np.float64), STD_FLOOR)
        self.out_mean = np.asarray(out_mean, dtype=np.float64)
        self.out_std = np.maximum(np.asarray(out_std, dtype=np.float64), STD_FLOOR)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.history = history or {}
        if self.net.layer_sizes[-1] != 2 * (state_dim + 1):
            raise InputError("member output width must be 2 * (state_dim + 1)")

    def __reduce__(self):  # a pickle re-stacks, so the members stay views of ``net``
        return EnsembleDynamicsModel, (self.members, self.in_mean, self.in_std, self.out_mean,
                                       self.out_std, self.state_dim, self.action_dim,
                                       self.history)

    @property
    def num_members(self) -> int:
        return len(self.members)

    def check_dims(self, dataset: ContinuousTransitionDataset) -> None:
        if (self.state_dim, self.action_dim) != (dataset.state_dim, dataset.action_dim):
            raise InputError(f"the dynamics model has state_dim {self.state_dim} and "
                             f"action_dim {self.action_dim} but the dataset has "
                             f"{dataset.state_dim} and {dataset.action_dim}")

    def _inputs(self, states, actions):
        x = np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)], axis=1)
        return (x - self.in_mean) / self.in_std

    def sample_next_batch(self, states, actions, rng: np.random.Generator):
        """One-step samples: each row picks a uniformly random member, samples
        its Gaussian and denormalizes.  Returns (next_states, rewards).

        The rows are stably sorted by member, so each member runs once on a
        contiguous slice holding its rows in their original order (the bits
        of a pass over those rows alone); the Gaussian draw then runs once
        over all rows before they are put back in order."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        n = states.shape[0]
        dim = self.state_dim + 1
        picks = rng.integers(self.num_members, size=n)
        noise = rng.standard_normal((n, dim))
        order = np.argsort(picks, kind="stable")
        x = self._inputs(states, actions)[order]
        head = np.empty((n, 2 * dim))
        start = 0
        for member, count in zip(self.members, np.bincount(picks, minlength=self.num_members)):
            if count:
                head[start:start + count] = member.forward(x[start:start + count])
            start += count
        out = np.empty((n, dim))
        out[order] = head[:, :dim] + np.exp(nn.clamp_log_std(head[:, dim:])) * noise[order]
        denorm = out * self.out_std + self.out_mean
        return states + denorm[:, :self.state_dim], denorm[:, self.state_dim]

    def _mean_from_sum(self, states, acc):
        """(next states, rewards) from ``acc``, the sum of the members'
        normalized means."""
        denorm = acc / self.num_members * self.out_std + self.out_mean
        return states + denorm[:, :self.state_dim], denorm[:, self.state_dim]

    def mean_prediction_with_action_grad(self, states, actions):
        """Deterministic ensemble-average mean prediction (next states,
        rewards) and a pullback mapping cotangents on (next_state, reward) to
        gradients on the actions; member parameters are never differentiated."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        x = self._inputs(states, actions)
        dim = self.state_dim + 1
        out, cache = self.net.forward_cache(x)
        acc = np.zeros((states.shape[0], dim))
        for member_out in out:
            acc += member_out[:, :dim]
        next_states, rewards = self._mean_from_sum(states, acc)

        def pullback(cot_next, cot_reward):
            # cotangent on the normalized mean outputs, shared by all members
            cot_mean = (np.concatenate([cot_next, cot_reward[:, None]], axis=1)
                        * self.out_std / self.num_members)
            grad_x = np.zeros_like(x)
            for member_grad in self.net.input_grad(
                    cache, np.concatenate([cot_mean, np.zeros_like(cot_mean)], axis=1)):
                grad_x += member_grad
            return grad_x[:, self.state_dim:] / self.in_std[self.state_dim:]

        return next_states, rewards, pullback


def _nll(mean, log_std, targets):
    z = (targets - mean) / np.exp(log_std)
    return float(np.add.reduce(np.add.reduce(0.5 * z * z + log_std + 0.5 * nn.LOG_TWO_PI,
                                             axis=1)) / len(z))


def train_ensemble(dataset: ContinuousTransitionDataset, config: EnsembleConfig,
                   rng: np.random.Generator) -> EnsembleDynamicsModel:
    """Fit the ensemble by Gaussian negative log-likelihood on (delta s, r).

    Each member trains on its own bootstrap resample of the shared training
    split and early-stops when its holdout NLL has not improved for
    ``config.patience`` evaluations; the best-holdout parameters are kept.
    Each epoch gathers its shuffled rows once, and its minibatches are
    slices of that gather: the rows and bits of a gather per minibatch.
    """
    if dataset.size == 0:
        raise InputError("cannot train a dynamics model on an empty dataset")
    # raw inputs and targets, normalized in place below: contiguous copies, so
    # ``take`` gathers rows from them cheaply (on the dataset's strided column
    # views it would copy the whole record block per call)
    x_all = np.hstack([dataset.states, dataset.actions])
    y_all = np.hstack([dataset.next_states - dataset.states, dataset.rewards[:, None]])
    n = dataset.size
    n_holdout = max(1, int(round(config.holdout_fraction * n)))
    if n_holdout >= n:
        raise InputError("holdout fraction leaves no training data")
    perm = rng.permutation(n)
    train_idx, holdout_idx = perm[n_holdout:], perm[:n_holdout]

    in_mean = x_all[train_idx].mean(axis=0)
    in_std = np.maximum(x_all[train_idx].std(axis=0), STD_FLOOR)
    out_mean = y_all[train_idx].mean(axis=0)
    out_std = np.maximum(y_all[train_idx].std(axis=0), STD_FLOOR)
    x_all -= in_mean
    x_all /= in_std
    y_all -= out_mean
    y_all /= out_std

    state_dim = dataset.state_dim
    target_dim = state_dim + 1
    sizes = [state_dim + dataset.action_dim, *config.hidden_sizes, 2 * target_dim]
    members = []
    history = {"train_nll": [], "holdout_nll": []}
    x_hold, y_hold = x_all[holdout_idx], y_all[holdout_idx]
    global_step = 0
    for b in range(config.num_members):
        boot = rng.choice(train_idx, size=train_idx.size, replace=True)
        member = nn.Mlp.init(sizes, rng)
        opt = nn.adam_init(member.flat, config.learning_rate)
        best_flat = member.flat.copy()
        best_nll = np.inf
        stale = 0
        member_train, member_hold = [], []
        for epoch in range(config.max_epochs):
            order = boot[rng.permutation(boot.size)]
            x_epoch, y_epoch = x_all.take(order, axis=0), y_all.take(order, axis=0)
            epoch_losses = []
            for start in range(0, boot.size, config.batch_size):
                stop = start + config.batch_size
                xb, yb = x_epoch[start:stop], y_epoch[start:stop]
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
                grads, _ = member.backward(cache, np.concatenate([d_mean, d_log], axis=1))
                nn.adam_step(opt, member.flat, grads.flat)
                epoch_losses.append(loss)
                global_step += 1
            out_h = member.forward(x_hold)
            hold_nll = _nll(out_h[:, :target_dim], nn.clamp_log_std(out_h[:, target_dim:]),
                            y_hold)
            member_train.append(float(np.mean(epoch_losses)))
            member_hold.append(hold_nll)
            if hold_nll < best_nll - 1e-6:
                best_nll = hold_nll
                best_flat = member.flat.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
        member.flat[:] = best_flat
        members.append(member)
        history["train_nll"].append(member_train)
        history["holdout_nll"].append(member_hold)
    return EnsembleDynamicsModel(members, in_mean, in_std, out_mean, out_std,
                                 state_dim, dataset.action_dim, history)


def model_error_report(model: EnsembleDynamicsModel,
                       dataset: ContinuousTransitionDataset) -> ModelErrorReport:
    """One-step prediction quality on held-out transitions: L2 error of the
    ensemble mean, per-member errors and the spread between member means.

    The rows run in the blocks of :func:`nn.row_blocks`, every member over
    one block at a time, and only running sums outlive a block, so the
    report's memory does not grow with the dataset.  A dataset of one block
    gives the bits of one pass over all rows.  Over several blocks each mean
    is a sum of block sums divided by n and the output layer runs per block,
    so a value may move in its last bit.
    """
    if dataset.size == 0:
        raise InputError("holdout dataset is empty")
    model.check_dims(dataset)
    n, dim = dataset.size, model.state_dim
    member_sums = np.zeros(model.num_members)
    mean_sum = spread_sum = reward_sum = 0.0
    bounds = nn.row_blocks(n, max(model.members[0].layer_sizes[1:]))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        states, next_states = dataset.states[start:stop], dataset.next_states[start:stop]
        x = model._inputs(states, dataset.actions[start:stop])
        acc = np.zeros((stop - start, dim + 1))
        member_next = np.empty((model.num_members, stop - start, dim))
        for b, member in enumerate(model.members):
            mean = member.forward(x)[:, :dim + 1]
            acc += mean
            denorm = mean * model.out_std + model.out_mean
            member_next[b] = states + denorm[:, :dim]
            member_sums[b] += np.sum(np.linalg.norm(member_next[b] - next_states, axis=1))
        mean_next, mean_reward = model._mean_from_sum(states, acc)
        mean_sum += np.sum(np.linalg.norm(mean_next - next_states, axis=1))
        spread_sum += np.sum(member_next.std(axis=0))
        reward_sum += np.sum(np.abs(mean_reward - dataset.rewards[start:stop]))
    return ModelErrorReport(
        mean_l2=float(mean_sum / n),
        member_l2=[float(total / n) for total in member_sums],
        disagreement=float(spread_sum / (n * dim)),
        reward_mae=float(reward_sum / n),
    )


# ---------------------------------------------------------------------------
# Checkpoints: one parameter blob per member plus a JSON sidecar
# ---------------------------------------------------------------------------

# what model.json holds besides its schema version and member count
_SIDECAR_KEYS = ("in_mean", "in_std", "out_mean", "out_std", "state_dim", "action_dim")


def save_model(model: EnsembleDynamicsModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = b"".join(nn.save_mlp_blob(m) for m in model.members)
    (directory / "model.bin").write_bytes(blob)
    sidecar = {"schema_version": 1, "num_members": model.num_members,
               **{key: np.asarray(getattr(model, key)).tolist() for key in _SIDECAR_KEYS}}
    (directory / "model.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_model(directory) -> EnsembleDynamicsModel:
    directory = Path(directory)
    sidecar = read_json(directory / "model.json", ("num_members", *_SIDECAR_KEYS))
    return EnsembleDynamicsModel(nn.load_mlp_file(directory / "model.bin", sidecar["num_members"]),
                                 *(sidecar[key] for key in _SIDECAR_KEYS))
