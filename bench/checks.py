"""Correctness checks the benchmark runs on each stage's outputs.

Every check recomputes what it needs from the files a stage wrote, with
code written here rather than the package's own (the point-mass physics,
the dataset and checkpoint parsers, the MLP forward pass, the tabular
linear solve), or tests a property the method must have.  A failing check
raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Point mass: the double integrator the datasets must follow
# ---------------------------------------------------------------------------

DT = 0.05
GOAL = np.array([1.0, 1.0])
GOAL_RADIUS = 0.05
V_MAX = 1.0
POS_MAX = 2.0


def pointmass_step(states, actions):
    """Vectorised step: returns (next_states, rewards, dones)."""
    a = np.clip(actions, -1.0, 1.0)
    vel = np.clip(states[:, 2:] + a * DT, -V_MAX, V_MAX)
    pos = np.clip(states[:, :2] + vel * DT, -POS_MAX, POS_MAX)
    dist = np.sqrt(np.sum((pos - GOAL) ** 2, axis=1))
    rewards = -dist - 0.01 * np.sum(a * a, axis=1)
    return np.hstack([pos, vel]), rewards, dist < GOAL_RADIUS


def fresh_pointmass_transitions(seed: int, episodes: int = 64, horizon: int = 100):
    """On-distribution transitions from a slow goal tracker with uniform
    action noise, simulated here; rows after an episode ends are dropped."""
    rng = np.random.default_rng(seed)
    state = np.hstack([-1.0 + rng.normal(0.0, 0.05, size=(episodes, 2)),
                       np.zeros((episodes, 2))])
    alive = np.ones(episodes, dtype=bool)
    s_rows, a_rows, ns_rows = [], [], []
    for _ in range(horizon):
        drive = 0.08 * (GOAL - state[:, :2]) - 0.28 * state[:, 2:]
        action = np.clip(drive + rng.uniform(-0.2, 0.2, size=(episodes, 2)), -1.0, 1.0)
        nxt, _, done = pointmass_step(state, action)
        s_rows.append(state[alive])
        a_rows.append(action[alive])
        ns_rows.append(nxt[alive])
        alive &= ~done
        state = nxt
    return np.vstack(s_rows), np.vstack(a_rows), np.vstack(ns_rows)


# ---------------------------------------------------------------------------
# File parsers
# ---------------------------------------------------------------------------

def read_dataset(directory):
    """(meta, states, actions, rewards, next_states, dones) from the on-disk
    record layout s | a | r | s' | done, little-endian float64."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    s_dim, a_dim = meta["state_dim"], meta["action_dim"]
    raw = np.frombuffer((directory / "transitions.bin").read_bytes(), dtype="<f8")
    width = 2 * s_dim + a_dim + 2
    require(raw.size % width == 0, "transitions.bin is not a whole number of records")
    rec = raw.reshape(-1, width)
    return (meta, rec[:, :s_dim], rec[:, s_dim:s_dim + a_dim], rec[:, s_dim + a_dim],
            rec[:, s_dim + a_dim + 1:2 * s_dim + a_dim + 1], rec[:, -1])


def read_blobs(data: bytes, count: int):
    """Parse ``count`` concatenated MLP blobs: magic, u32 version, u8
    activation, u32 n, n u32 layer sizes, then W0, b0, W1, b1 ... as
    little-endian float64.  Returns [(sizes, activation_code, params)]."""
    nets, offset = [], 0
    for _ in range(count):
        require(data[offset:offset + 8] == b"MLPCKPT\x00", "bad checkpoint magic")
        _version, act, n = struct.unpack_from("<IBI", data, offset + 8)
        offset += 17
        sizes = list(struct.unpack_from(f"<{n}I", data, offset))
        offset += 4 * n
        params = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            for shape in ((n_in, n_out), (n_out,)):
                size = int(np.prod(shape))
                params.append(np.frombuffer(data, "<f8", size, offset).reshape(shape).copy())
                offset += 8 * size
        nets.append((sizes, act, params))
    return nets


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    require(len(lines) >= 2 and lines[0].startswith("schema_version,"),
            f"{path} lacks the schema-version header")
    columns = lines[1].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[2:] if line]


def mlp_forward(params, x, activation=0):
    """Forward pass (relu for code 0, tanh for 1); returns the output and the
    sign pattern of every hidden pre-activation."""
    h, pattern = x, []
    layers = len(params) // 2
    for i in range(layers):
        z = h @ params[2 * i] + params[2 * i + 1]
        if i < layers - 1:
            pattern.append(z > 0.0)
            h = np.maximum(z, 0.0) if activation == 0 else np.tanh(z)
        else:
            h = z
    return h, pattern


# ---------------------------------------------------------------------------
# Stage checks
# ---------------------------------------------------------------------------

def check_gen_data(directory, size: int) -> None:
    meta, s, a, r, ns, done = read_dataset(directory)
    require(len(s) == size and meta["size"] == size,
            f"gen-data wrote {len(s)} rows, expected {size}")
    require(meta["expert_return_mean"] > meta["random_return_mean"],
            "expert anchor does not exceed the random anchor")
    nxt, rew, fin = pointmass_step(s, a)
    worst_state = float(np.max(np.abs(nxt - ns)))
    worst_reward = float(np.max(np.abs(rew - r)))
    require(worst_state <= 1e-12, f"re-stepped next state differs by {worst_state:.3e}")
    require(worst_reward <= 1e-12, f"re-stepped reward differs by {worst_reward:.3e}")
    require(np.array_equal(fin, done > 0.5), "re-stepped done flags differ")


def ensemble_mean_l2(model_dir, states, actions, next_states):
    side = json.loads((Path(model_dir) / "model.json").read_text())
    nets = read_blobs((Path(model_dir) / "model.bin").read_bytes(), side["num_members"])
    x = (np.hstack([states, actions]) - np.array(side["in_mean"])) / np.array(side["in_std"])
    dim = side["state_dim"] + 1
    acc = sum(mlp_forward(params, x, act)[0][:, :dim] for _, act, params in nets)
    delta = acc / len(nets) * np.array(side["out_std"]) + np.array(side["out_mean"])
    pred = states + delta[:, :side["state_dim"]]
    return float(np.mean(np.linalg.norm(pred - next_states, axis=1)))


def check_dynamics(model_dir, seed: int) -> None:
    s, a, ns = fresh_pointmass_transitions(seed)
    model_l2 = ensemble_mean_l2(model_dir, s, a, ns)
    null_l2 = float(np.mean(np.linalg.norm(s - ns, axis=1)))
    require(model_l2 < null_l2,
            f"ensemble one-step L2 {model_l2:.3e} is not below the null predictor's "
            f"{null_l2:.3e}")


LOSS_COLUMNS = ("loss_v", "loss_q", "loss_pi")


def check_metrics(path, algorithm: str) -> None:
    rows = read_csv_rows(path)
    require(rows, f"{path} has no rows")
    for row in rows:
        for col in LOSS_COLUMNS:
            if col == "loss_v" and algorithm == "cql_awr":
                require(row[col] == "", "cql_awr logged a V loss")
                continue
            value = float(row[col])
            require(math.isfinite(value), f"step {row['step']}: {col} = {row[col]}")
        require(float(row["alpha"]) >= 0.0, f"step {row['step']}: alpha < 0")


def check_rerun_prefix(full_path, short_path) -> None:
    short = Path(short_path).read_text().splitlines()
    full = Path(full_path).read_text().splitlines()
    require(len(full) >= len(short) and full[:len(short)] == short,
            "a same-seed rerun does not reproduce the first metrics.csv rows")


def check_gradients(checkpoint_dir, seed: int, rows: int = 16, per_tensor: int = 3,
                    h: float = 1e-5) -> None:
    """Central differences of <net(x), c> against ``nn.Mlp.backward`` on
    sampled parameter and input coordinates of the trained Q and policy
    networks.  Coordinates whose perturbation changes a relu sign are
    skipped: the function is not differentiable across them."""
    from csve import nn

    rng = np.random.default_rng(seed)
    for name in ("q_net", "policy_net"):
        sizes, act, params = read_blobs((Path(checkpoint_dir) / f"{name}.bin").read_bytes(), 1)[0]
        x = rng.standard_normal((rows, sizes[0]))
        cot = rng.standard_normal((rows, sizes[-1]))
        mlp = nn.Mlp(sizes, [p.copy() for p in params], "relu" if act == 0 else "tanh")
        _, cache = mlp.forward_cache(x)
        grads, input_grad = mlp.backward(cache, cot)
        base_pattern = mlp_forward(params, x, act)[1]
        targets = [(i, grads[i]) for i in range(len(params))] + [(None, input_grad)]
        for index, analytic in targets:
            checked = 0
            for flat in rng.permutation(analytic.size)[:4 * per_tensor]:
                coord = np.unravel_index(flat, analytic.shape)
                values = []
                for sign in (1.0, -1.0):
                    p = [q.copy() for q in params]
                    xx = x.copy()
                    (xx if index is None else p[index])[coord] += sign * h
                    out, pattern = mlp_forward(p, xx, act)
                    if any((u != v).any() for u, v in zip(pattern, base_pattern)):
                        break
                    values.append(float(np.sum(out * cot)))
                if len(values) < 2:
                    continue
                numeric = (values[0] - values[1]) / (2.0 * h)
                exact = float(analytic[coord])
                where = "input" if index is None else f"param {index}"
                require(abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact)),
                        f"{name} {where} {tuple(map(int, coord))}: backward {exact:.9e}, "
                        f"central difference {numeric:.9e}")
                checked += 1
                if checked == per_tensor:
                    break
            require(checked > 0, f"{name}: no smooth coordinate to check in tensor {index}")


def check_eval(eval_dir, data_dir) -> None:
    meta = json.loads((Path(data_dir) / "meta.json").read_text())
    lo, hi = meta["random_return_mean"], meta["expert_return_mean"]
    rows = read_csv_rows(Path(eval_dir) / "eval.csv")
    require(rows, "eval.csv has no rows")
    for row in rows:
        expect = 100.0 * (float(row["return_raw"]) - lo) / (hi - lo)
        got = float(row["score_normalized"])
        require(abs(got - expect) <= 1e-9 * max(1.0, abs(expect)),
                f"episode {row['episode']}: score {got} != recomputed {expect}")


# (suite, theorem id in theory.csv, rows per trial, required pass rate).  Both
# lower-bound-under-d suites write theorem "value_lower_bound_d", so each
# suite is run and read on its own.
THEORY_SUITES = (
    ("contraction", "contraction", 1, 1.0),
    ("operator_equivalence", "operator_equivalence", 1, 1.0),
    ("value_lower_bound_d_exact", "value_lower_bound_d", 1, 1.0),
    ("value_lower_bound_d", "value_lower_bound_d", 1, 0.95),
    ("value_lower_bound_data", "value_lower_bound_data", 1, 0.95),
    ("gap_expansion", "gap_expansion", 1, 1.0),
    ("argmax_consistency", "argmax_consistency", 1, 1.0),
    ("safe_improvement", "safe_improvement", 1, 0.95),
    ("interpolation", "interpolation", 5, 1.0),
)


def theory_flags(directory, trials: dict) -> dict[str, list[bool]]:
    """The ``holds`` flags of each suite, read from ``<directory>/<suite>/
    theory.csv`` as written by ``verify-theory --suite <suite>``; each file
    must hold exactly its suite's rows."""
    flags = {}
    for suite, theorem, per_trial, _ in THEORY_SUITES:
        rows = read_csv_rows(Path(directory) / suite / "theory.csv")
        require(len(rows) == trials[suite] * per_trial,
                f"{suite}: theory.csv has {len(rows)} rows, expected "
                f"{trials[suite] * per_trial}")
        require(all(row["theorem"] == theorem for row in rows),
                f"{suite}: rows of another theorem in theory.csv")
        flags[suite] = [row["holds"] == "true" for row in rows]
    return flags


def check_pass_rates(flags: dict[str, list[bool]]) -> None:
    """Each suite's pass rate meets the acceptance suite's threshold."""
    for suite, _, _, needed in THEORY_SUITES:
        rate = sum(flags[suite]) / len(flags[suite])
        require(rate >= needed, f"{suite}: pass rate {rate:.3f} below {needed}")


def check_theory(directory, trials: dict) -> None:
    check_pass_rates(theory_flags(directory, trials))


def check_fixed_point(seeds) -> None:
    """csve_fixed_point against a direct solve of
    (I - gamma P_pi) V = r_pi - alpha * (d/d_u - 1) on certification instances."""
    from csve import conservative, theory

    alpha = 1.0
    for seed in seeds:
        inst = theory.make_instance(seed)
        penalty = conservative.CsvePenaltyConfig(alpha, inst.d, inst.d_u)
        v, _ = conservative.csve_fixed_point(inst.policy, inst.empirical, penalty)
        mdp, probs = inst.empirical, inst.policy.probs
        p_pi = np.einsum("sa,sat->st", probs, mdp.transition)
        r_pi = np.sum(probs * mdp.reward, axis=1)
        d, du = inst.d.probs, inst.d_u.probs
        bracket = np.where(du > 0, d / np.where(du > 0, du, 1.0) - 1.0, 0.0)
        direct = np.linalg.solve(np.eye(len(r_pi)) - mdp.discount * p_pi,
                                 r_pi - alpha * bracket)
        worst = float(np.max(np.abs(v.values - direct)))
        require(worst <= 1e-8, f"instance {seed}: fixed point off the direct solve "
                               f"by {worst:.3e}")
