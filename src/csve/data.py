"""Offline datasets: tiered generation, on-disk format, tabular bridge.

A dataset directory holds ``meta.json`` (schema version, provenance,
normalization anchors) and ``transitions.bin`` (little-endian float64
records s | a | r | s' | done), chosen so round trips are bit-exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import DATASET_TIERS, GridWorld, evaluate_policy, rollout, scripted_policy
from .errors import CorruptFileError, InputError
from .tabular import TabularDataset

SCHEMA_VERSION = 1
ANCHOR_EPISODES = 50
# meta.json's normalized-score anchors: the returns that score 0 and 100
ANCHOR_KEYS = ("random_return_mean", "expert_return_mean")


@dataclass
class ContinuousTransitionDataset:
    """Offline experience with float vector states and actions."""

    states: np.ndarray       # (N, state_dim)
    actions: np.ndarray      # (N, action_dim)
    rewards: np.ndarray      # (N,)
    next_states: np.ndarray  # (N, state_dim)
    dones: np.ndarray        # (N,) bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.next_states = np.asarray(self.next_states, dtype=np.float64)
        self.dones = np.asarray(self.dones, dtype=bool)
        n = len(self.states)
        if not (len(self.actions) == len(self.rewards) == len(self.next_states)
                == len(self.dones) == n):
            raise InputError("dataset arrays must share one length")
        if n and self.states.shape[1] != self.next_states.shape[1]:
            raise InputError("state and next-state widths disagree")
        if not np.all(np.isfinite(self.rewards)):
            raise InputError("rewards must be finite")

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]


def _policy_for_phase(env, tier: str, phase: float):
    """medium_replay interpolates random -> medium as phase goes 0 -> 1 by
    shrinking the uniform-action rate (gridworld: the epsilon) toward the
    medium tier's value."""
    if isinstance(env, GridWorld):
        from .envs import GRIDWORLD_TIER_EPSILON

        eps = 1.0 + phase * (GRIDWORLD_TIER_EPSILON["medium"] - 1.0)
        return scripted_policy(env, "medium", mix=eps)
    from .envs import MEDIUM_UNIFORM_RATE

    mix = 1.0 + phase * (MEDIUM_UNIFORM_RATE[env.spec.name] - 1.0)
    return scripted_policy(env, "medium", mix=mix)


def _collect(env, policy, size: int, rng, columns) -> list[float]:
    """Roll episodes until ``size`` more transitions are gathered, the last
    episode truncated, appending each episode's states, actions, rewards,
    next states and dones as one array to the matching list of ``columns``;
    returns the returns of the episodes that ended before the last one, or
    the last one's when none did."""
    episode_returns = []
    while True:
        *episode, total = rollout(env, policy, rng)
        for column, values in zip(columns, episode):
            column.append(np.array(values[:size]))
        size -= len(episode[0])
        if size <= 0:
            return episode_returns or [total]
        episode_returns.append(total)


def generate_dataset(env, tier: str, size: int, seed: int,
                     anchor_episodes: int = ANCHOR_EPISODES) -> ContinuousTransitionDataset:
    """Tiered dataset with D4RL-style composition.

    medium_expert concatenates equal halves from the medium and expert
    policies; medium_replay mixes five phases of policies interpolating
    random -> medium.  Normalization anchors (random/expert mean returns)
    and the behavior's own mean return are recorded in the metadata so
    evaluation never re-simulates them.
    """
    if tier not in DATASET_TIERS:
        raise InputError(f"unknown dataset tier {tier!r}; choose from {DATASET_TIERS}")
    if size < 1:
        raise InputError("size must be at least 1")
    seq = np.random.SeedSequence(seed)
    gen_rng, random_rng, expert_rng = (np.random.default_rng(s) for s in seq.spawn(3))

    columns: tuple[list, ...] = ([], [], [], [], [])
    if tier in ("random", "medium", "expert"):
        behavior_returns = _collect(env, scripted_policy(env, tier), size, gen_rng, columns)
        composition = {tier: size}
    elif tier == "medium_expert":
        first = size // 2
        behavior_returns = (
            _collect(env, scripted_policy(env, "medium"), first, gen_rng, columns)
            + _collect(env, scripted_policy(env, "expert"), size - first, gen_rng, columns))
        composition = {"medium": first, "expert": size - first}
    else:  # medium_replay
        phases = 5
        composition = {}
        behavior_returns = []
        for j in range(phases):
            share = size // phases if j < phases - 1 else size - (phases - 1) * (size // phases)
            if share == 0:
                continue
            policy = _policy_for_phase(env, tier, j / (phases - 1))
            behavior_returns.extend(_collect(env, policy, share, gen_rng, columns))
            composition[f"phase_{j}"] = share

    states, actions, rewards, next_states, dones = (np.concatenate(col) for col in columns)
    random_anchor = float(np.mean(evaluate_policy(env, scripted_policy(env, "random"),
                                                  anchor_episodes, random_rng)))
    expert_anchor = float(np.mean(evaluate_policy(env, scripted_policy(env, "expert"),
                                                  anchor_episodes, expert_rng)))
    meta = {
        "schema_version": SCHEMA_VERSION,
        "env": env.spec.name,
        "tier": tier,
        "seed": seed,
        "size": int(size),
        "state_dim": int(states.shape[1]),
        "action_dim": int(actions.shape[1]),
        "action_low": env.spec.action_low.tolist(),
        "action_high": env.spec.action_high.tolist(),
        "horizon": env.spec.horizon,
        "composition": composition,
        "behavior": f"{tier} tier scripted policy"
                    + (" (medium_replay approximated by a random->medium policy"
                       " interpolation mixture)" if tier == "medium_replay" else ""),
        "random_return_mean": random_anchor,
        "expert_return_mean": expert_anchor,
        "behavior_return_mean": float(np.mean(behavior_returns)),
        "anchor_episodes": anchor_episodes,
    }
    return ContinuousTransitionDataset(states, actions, rewards, next_states, dones, meta)


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------

def _from_records(rec, s_dim: int, a_dim: int, meta: dict) -> ContinuousTransitionDataset:
    """Split records laid out as s, a, r, s', done (done when above 0.5)."""
    return ContinuousTransitionDataset(
        states=rec[:, :s_dim],
        actions=rec[:, s_dim:s_dim + a_dim],
        rewards=rec[:, s_dim + a_dim],
        next_states=rec[:, s_dim + a_dim + 1:2 * s_dim + a_dim + 1],
        dones=rec[:, -1] > 0.5,
        meta=meta,
    )


def save_dataset(dataset: ContinuousTransitionDataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = dict(dataset.meta)
    meta.setdefault("schema_version", SCHEMA_VERSION)
    meta["size"] = dataset.size
    meta["state_dim"] = dataset.state_dim
    meta["action_dim"] = dataset.action_dim
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    record = np.hstack([
        dataset.states,
        dataset.actions,
        dataset.rewards[:, None],
        dataset.next_states,
        dataset.dones[:, None].astype(np.float64),
    ])
    (directory / "transitions.bin").write_bytes(
        np.ascontiguousarray(record, dtype="<f8").tobytes())


def read_json(path, keys=()) -> dict:
    """A JSON sidecar's object; one that does not parse, or is not an object
    holding every one of ``keys``, raises CorruptFileError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CorruptFileError(f"{path} is not valid JSON: {err}") from None
    require_keys(doc, keys, path)
    return doc


def require_keys(doc, keys, path) -> None:
    """Raise CorruptFileError naming ``path`` unless ``doc`` is an object with ``keys``."""
    missing = [key for key in keys if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise CorruptFileError(f"{path} lacks {', '.join(missing)}")


def load_dataset(directory, keys=()) -> ContinuousTransitionDataset:
    """The dataset saved in ``directory``.  A ``meta.json`` without its size,
    dims or the other ``keys``, or a ``transitions.bin`` that is not whole
    records of the declared dims, holds another number of records than
    ``meta.json``'s size, or holds a non-finite value raises
    CorruptFileError naming the file."""
    directory = Path(directory)
    meta = read_json(directory / "meta.json", ("size", "state_dim", "action_dim", *keys))
    s_dim, a_dim = meta["state_dim"], meta["action_dim"]
    width = 2 * s_dim + a_dim + 2
    path = directory / "transitions.bin"
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.size % width:
        raise CorruptFileError(f"{path} is not whole records of {width} values "
                               f"(state_dim {s_dim}, action_dim {a_dim})")
    rec = raw.reshape(-1, width)
    if len(rec) != meta["size"]:
        raise CorruptFileError(f"{path} holds {len(rec)} records but "
                               f"{directory / 'meta.json'} declares size {meta['size']}")
    bad = np.flatnonzero(~np.isfinite(rec).all(axis=1))
    if bad.size:
        raise CorruptFileError(f"{path} record {bad[0]} holds a non-finite value")
    return _from_records(rec, s_dim, a_dim, meta)


def import_csv(path) -> ContinuousTransitionDataset:
    """Read externally produced transitions from a CSV whose header matches
    the record layout: s0..s{k}, a0..a{m}, r, ns0..ns{k}, done."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    s_dim = sum(1 for name in header if name.startswith("s") and not name.startswith("ns"))
    a_dim = sum(1 for name in header if name.startswith("a"))
    expected = [f"s{i}" for i in range(s_dim)] + [f"a{i}" for i in range(a_dim)] + ["r"] \
        + [f"ns{i}" for i in range(s_dim)] + ["done"]
    if header != expected:
        raise InputError(f"CSV header {header} does not match the record layout {expected}")
    rec = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    return _from_records(rec, s_dim, a_dim,
                         {"schema_version": SCHEMA_VERSION, "source": str(path)})


def tabularize(dataset: ContinuousTransitionDataset, env: GridWorld) -> TabularDataset:
    """Index-encode a gridworld dataset for the exact tabular layer."""
    if not isinstance(env, GridWorld):
        raise InputError("tabularize requires a gridworld environment")
    transitions = []
    for s, a, r, sn in zip(dataset.states, dataset.actions, dataset.rewards,
                           dataset.next_states):
        transitions.append((env.state_index(s), env.decode_action(a), float(r),
                            env.state_index(sn)))
    n = env.SIZE * env.SIZE
    return TabularDataset.from_transitions(transitions, n, 4)
