import tracemalloc

import numpy as np
import pytest

from csve import dynamics, nn
from csve.data import ContinuousTransitionDataset
from csve.errors import InputError


def linear_system_dataset(n=5000, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    a = np.array([[0.9, 0.1], [-0.05, 0.95]])
    b = np.array([[0.1], [0.05]])
    states = rng.uniform(-1, 1, size=(n, 2))
    actions = rng.uniform(-1, 1, size=(n, 1))
    next_states = states @ a.T + actions @ b.T
    if noise:
        next_states = next_states + rng.normal(0, noise, size=next_states.shape)
    rewards = -np.linalg.norm(states, axis=1)
    return ContinuousTransitionDataset(states, actions, rewards, next_states,
                                       np.zeros(n, dtype=bool)), (a, b)


def perfect_linear_model(a, b):
    """Hand-built single-linear-layer members reproducing x' = Ax + Ba exactly
    (in delta form) with near-zero predicted variance."""
    state_dim, action_dim = a.shape[0], b.shape[1]
    target_dim = state_dim + 1
    w = np.zeros((state_dim + action_dim, 2 * target_dim))
    w[:state_dim, :state_dim] = (a - np.eye(state_dim)).T
    w[state_dim:, :state_dim] = b.T
    bias = np.zeros(2 * target_dim)
    bias[target_dim:] = nn.LOG_STD_MIN
    member = nn.Mlp([state_dim + action_dim, 2 * target_dim], [w, bias])
    return dynamics.EnsembleDynamicsModel(
        [member, nn.Mlp(member.layer_sizes, [p.copy() for p in member.params])],
        in_mean=np.zeros(state_dim + action_dim),
        in_std=np.ones(state_dim + action_dim),
        out_mean=np.zeros(target_dim),
        out_std=np.ones(target_dim),
        state_dim=state_dim,
        action_dim=action_dim,
    )


def member_gaussian(model, index, states, actions):
    """Normalized-space mean and clamped log-std of one member, with the
    np.hstack and np.clip that the model's own passes replace."""
    x = (np.hstack([states, actions]) - model.in_mean) / model.in_std
    out = model.members[index].forward(x)
    dim = model.state_dim + 1
    return out[..., :dim], np.clip(out[..., dim:], nn.LOG_STD_MIN, nn.LOG_STD_MAX)


@pytest.fixture(scope="module")
def trained_linear():
    dataset, system = linear_system_dataset()
    config = dynamics.EnsembleConfig(num_members=2, hidden_sizes=(64, 64),
                                     max_epochs=300, patience=8)
    model = dynamics.train_ensemble(dataset, config, np.random.default_rng(1))
    return dataset, system, model


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_trains_linear_system_to_small_one_step_error(trained_linear):
    dataset, _, model = trained_linear
    report = dynamics.model_error_report(model, dataset)
    assert report.mean_l2 <= 1e-2
    # error of the normalizing pipeline in normalized target space stays small
    targets = np.hstack([dataset.next_states - dataset.states,
                         dataset.rewards[:, None]])
    normalized = (targets - model.out_mean) / model.out_std
    preds = np.mean([member_gaussian(model, i, dataset.states, dataset.actions)[0]
                     for i in range(model.num_members)], axis=0)
    assert float(np.mean(np.linalg.norm(preds - normalized, axis=1))) <= 0.1


def test_single_repeated_transition_converges_to_target():
    s = np.tile([0.2, -0.4], (400, 1))
    a = np.tile([0.5], (400, 1))
    ns = np.tile([0.25, -0.3], (400, 1))
    r = np.full(400, 0.7)
    ds = ContinuousTransitionDataset(s, a, r, ns, np.zeros(400, dtype=bool))
    config = dynamics.EnsembleConfig(num_members=1, hidden_sizes=(16,),
                                     max_epochs=200, patience=20)
    model = dynamics.train_ensemble(ds, config, np.random.default_rng(2))
    nxt, reward, _ = model.mean_prediction_with_action_grad(s[:1], a[:1])
    assert np.max(np.abs(nxt[0] - ns[0])) < 1e-3
    assert abs(reward[0] - 0.7) < 1e-3


def test_shuffled_labels_cannot_beat_unconditional_fit():
    dataset, _ = linear_system_dataset(n=2000, seed=3)
    rng = np.random.default_rng(4)
    perm = rng.permutation(dataset.size)
    shuffled = ContinuousTransitionDataset(
        dataset.states, dataset.actions, dataset.rewards[perm],
        dataset.states + (dataset.next_states - dataset.states)[perm],
        dataset.dones)
    config = dynamics.EnsembleConfig(num_members=1, hidden_sizes=(32, 32),
                                     max_epochs=40, patience=5)
    model = dynamics.train_ensemble(shuffled, config, np.random.default_rng(5))
    hold = model.history["holdout_nll"][0]
    # unconditional fit of the normalized targets is a unit Gaussian per dim
    target_dim = shuffled.state_dim + 1
    unconditional = 0.5 * target_dim * (1.0 + np.log(2 * np.pi))
    assert min(hold) >= unconditional - 0.15


def test_empty_dataset_rejected():
    ds = ContinuousTransitionDataset(np.zeros((0, 2)), np.zeros((0, 1)),
                                     np.zeros(0), np.zeros((0, 2)),
                                     np.zeros(0, dtype=bool))
    with pytest.raises(InputError):
        dynamics.train_ensemble(ds, dynamics.EnsembleConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("batch_size", -8),
                                          ("learning_rate", 0.0), ("learning_rate", -1e-3),
                                          ("learning_rate", float("nan"))])
def test_config_rejects_empty_batches_and_non_positive_learning_rates(field, value):
    with pytest.raises(InputError, match=field):
        dynamics.EnsembleConfig(**{field: value})


@pytest.mark.parametrize("members, batch_size, patience, max_epochs, rows, seed", [
    (3, 64, 1, 40, 300, 0),   # 270 training rows: a last minibatch of 14
    (2, 50, 2, 25, 401, 5),   # 361 rows: 11 in the last minibatch
    (1, 32, 3, 6, 250, 2),    # one member, 225 rows: 1 in the last minibatch
])
def test_fit_matches_the_per_minibatch_gather_fit_bit_for_bit(
        gather_fit, members, batch_size, patience, max_epochs, rows, seed):
    """Slices of one gather per epoch, and the losses written with ufunc
    calls, give every bit of a gather per minibatch with np.mean, np.sum,
    np.hstack and np.clip: each member's kept parameters and NLL history."""
    dataset, _ = linear_system_dataset(n=rows, seed=seed, noise=0.3)
    config = dynamics.EnsembleConfig(num_members=members, hidden_sizes=(16, 16),
                                     batch_size=batch_size, patience=patience,
                                     max_epochs=max_epochs, learning_rate=1e-2)
    train_rows = rows - round(config.holdout_fraction * rows)
    assert train_rows % batch_size != 0
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    model = dynamics.train_ensemble(dataset, config, got_rng)
    want_flats, want_history = gather_fit(dataset, config, want_rng)
    assert [m.flat.tobytes() for m in model.members] == [f.tobytes() for f in want_flats]
    for key in ("train_nll", "holdout_nll"):
        assert np.array(sum(model.history[key], [])).tobytes() == \
            np.array(sum(want_history[key], [])).tobytes()
        assert [len(h) for h in model.history[key]] == [len(h) for h in want_history[key]]
    assert got_rng.random() == want_rng.random()
    epochs = [len(h) for h in model.history["train_nll"]]
    if members > 1:  # early stopping ends the members at different epochs
        assert len(set(epochs)) > 1 and min(epochs) < max_epochs, epochs


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_minimum_variance_member_samples_its_mean():
    # the log-std clamp floors the member at sigma = e^-10, so samples sit on
    # the mean up to that residual scale
    model = perfect_linear_model(*linear_system_dataset(n=10)[1])
    state = np.array([0.3, -0.2])
    action = np.array([0.4])
    nxt, reward = model.sample_next_batch(state, action, np.random.default_rng(0))
    mean_next, mean_reward, _ = model.mean_prediction_with_action_grad(state, action)
    floor = 6.0 * np.exp(nn.LOG_STD_MIN)
    assert np.max(np.abs(nxt - mean_next)) < floor
    assert np.max(np.abs(reward - mean_reward)) < floor


def test_sampling_is_seed_reproducible(trained_linear):
    dataset, _, model = trained_linear
    s, a = dataset.states[:8], dataset.actions[:8]
    n1, r1 = model.sample_next_batch(s, a, np.random.default_rng(99))
    n2, r2 = model.sample_next_batch(s, a, np.random.default_rng(99))
    assert np.array_equal(n1, n2) and np.array_equal(r1, r2)


def test_sample_mean_matches_truth_within_standard_error(trained_linear):
    dataset, (a, b), model = trained_linear
    state = np.array([0.1, 0.2])
    action = np.array([-0.3])
    true_next = a @ state + b @ action
    rng = np.random.default_rng(7)
    reps = np.tile(state, (1000, 1)), np.tile(action, (1000, 1))
    samples, _ = model.sample_next_batch(reps[0], reps[1], rng)
    se = samples.std(axis=0) / np.sqrt(len(samples))
    bias = np.abs(samples.mean(axis=0) - true_next)
    assert np.all(bias <= 3 * se + 5e-3)


# ---------------------------------------------------------------------------
# Error reporting, normalization, structure
# ---------------------------------------------------------------------------

def test_perfect_model_reports_near_zero_error():
    dataset, (a, b) = linear_system_dataset(n=500, seed=8)
    model = perfect_linear_model(a, b)
    report = dynamics.model_error_report(model, dataset)
    assert report.mean_l2 <= 1e-6
    assert report.disagreement <= 1e-12  # identical members


def test_untrained_model_is_worse_than_trained(trained_linear):
    dataset, _, model = trained_linear
    rng = np.random.default_rng(11)
    sizes = model.members[0].layer_sizes
    fresh = dynamics.EnsembleDynamicsModel(
        [nn.Mlp.init(sizes, rng) for _ in range(2)],
        model.in_mean, model.in_std, model.out_mean, model.out_std,
        model.state_dim, model.action_dim)
    trained_report = dynamics.model_error_report(model, dataset)
    fresh_report = dynamics.model_error_report(fresh, dataset)
    assert fresh_report.mean_l2 >= trained_report.mean_l2


def test_normalization_round_trip():
    dataset, _ = linear_system_dataset(n=200, seed=12)
    config = dynamics.EnsembleConfig(num_members=1, hidden_sizes=(8,), max_epochs=1)
    model = dynamics.train_ensemble(dataset, config, np.random.default_rng(3))
    x = np.hstack([dataset.states, dataset.actions])
    restored = model._inputs(dataset.states, dataset.actions) * model.in_std + model.in_mean
    assert np.max(np.abs(restored - x)) < 1e-12


def test_one_step_only_api():
    assert not hasattr(dynamics.EnsembleDynamicsModel, "rollout")
    assert not hasattr(dynamics.EnsembleDynamicsModel, "sample_trajectory")


def test_action_gradient_pullback_matches_finite_differences(trained_linear):
    dataset, _, model = trained_linear
    states = dataset.states[:3]
    actions = dataset.actions[:3].copy()
    nxt, rew, pullback = model.mean_prediction_with_action_grad(states, actions)
    rng = np.random.default_rng(13)
    cot_next = rng.normal(size=nxt.shape)
    cot_rew = rng.normal(size=rew.shape)
    grad = pullback(cot_next, cot_rew)

    h = 1e-6
    for i in range(actions.shape[0]):
        for j in range(actions.shape[1]):
            up, down = actions.copy(), actions.copy()
            up[i, j] += h
            down[i, j] -= h
            nu, ru, _ = model.mean_prediction_with_action_grad(states, up)
            nd, rd, _ = model.mean_prediction_with_action_grad(states, down)
            fd = (np.sum(nu * cot_next) + np.sum(ru * cot_rew)
                  - np.sum(nd * cot_next) - np.sum(rd * cot_rew)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def random_ensemble(rng, num_members=3, state_dim=2, action_dim=1, hidden=(16, 8)):
    sizes = [state_dim + action_dim, *hidden, 2 * (state_dim + 1)]
    return dynamics.EnsembleDynamicsModel(
        [nn.Mlp.init(sizes, rng) for _ in range(num_members)],
        rng.normal(size=state_dim + action_dim), rng.uniform(0.5, 2.0, size=state_dim + action_dim),
        rng.normal(size=state_dim + 1), rng.uniform(0.5, 2.0, size=state_dim + 1),
        state_dim, action_dim)


def test_ensemble_passes_match_member_by_member_reference_exactly():
    """The batched member passes give the bits of one pass per member."""
    rng = np.random.default_rng(4)
    model = random_ensemble(rng)
    states, actions = rng.normal(size=(30, 2)), rng.normal(size=(30, 1))
    x = (np.hstack([states, actions]) - model.in_mean) / model.in_std
    acc, caches = np.zeros((30, 3)), []
    for member in model.members:
        out, cache = member.forward_cache(x)
        acc += out[:, :3]
        caches.append(cache)
    denorm = acc / 3 * model.out_std + model.out_mean
    cot_next, cot_rew = rng.normal(size=(30, 2)), rng.normal(size=30)
    cot_mean = np.hstack([cot_next, cot_rew[:, None]]) * model.out_std / 3
    grad_x = np.zeros_like(x)
    for member, cache in zip(model.members, caches):
        grad_x += member.backward(cache, np.hstack([cot_mean, np.zeros_like(cot_mean)]))[1]

    nxt, rew, pullback = model.mean_prediction_with_action_grad(states, actions)
    assert nxt.tobytes() == (states + denorm[:, :2]).tobytes()
    assert rew.tobytes() == denorm[:, 2].tobytes()
    assert pullback(cot_next, cot_rew).tobytes() == (grad_x[:, 2:] / model.in_std[2:]).tobytes()

    draw, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    got_next, got_rew = model.sample_next_batch(states, actions, draw)
    picks = want_rng.integers(3, size=30)
    noise = want_rng.standard_normal((30, 3))
    sample = np.empty((30, 3))
    for b in range(3):
        sel = picks == b
        mean, log_std = member_gaussian(model, b, states[sel], actions[sel])
        sample[sel] = mean + np.exp(log_std) * noise[sel]
    sample = sample * model.out_std + model.out_mean
    assert got_next.tobytes() == (states + sample[:, :2]).tobytes()
    assert got_rew.tobytes() == sample[:, 2].tobytes()


def test_writes_through_member_views_reach_the_stacked_passes():
    rng = np.random.default_rng(9)
    model = random_ensemble(rng)
    assert all(np.shares_memory(m.flat, model.net.flat) for m in model.members)
    states, actions = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
    cot_next, cot_rew = rng.normal(size=(6, 2)), rng.normal(size=6)
    before = model.mean_prediction_with_action_grad(states, actions)
    model.members[1].params[0][2] *= -2.0  # member 1's weights on the action
    model.members[2].params[-1][:3] += 0.5  # member 2's mean-head bias
    fresh = dynamics.EnsembleDynamicsModel(
        [m.copy() for m in model.members], model.in_mean, model.in_std, model.out_mean,
        model.out_std, model.state_dim, model.action_dim)
    got, want = (m.mean_prediction_with_action_grad(states, actions) for m in (model, fresh))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(got[2](cot_next, cot_rew), want[2](cot_next, cot_rew))
    assert not np.array_equal(got[1], before[1])
    assert not np.array_equal(got[2](cot_next, cot_rew), before[2](cot_next, cot_rew))


def test_pickled_model_keeps_its_member_views():
    import pickle

    rng = np.random.default_rng(10)
    model = random_ensemble(rng)
    back = pickle.loads(pickle.dumps(model))
    assert np.array_equal(back.net.flat, model.net.flat)
    assert all(np.shares_memory(m.flat, back.net.flat) for m in back.members)
    states, actions = rng.normal(size=(5, 2)), rng.normal(size=(5, 1))
    for got, want in zip(back.mean_prediction_with_action_grad(states, actions)[:2],
                         model.mean_prediction_with_action_grad(states, actions)[:2]):
        assert np.array_equal(got, want)
    back.members[2].flat[:] = 0.0
    assert not back.net.flat.reshape(3, -1)[2].any()
    assert np.array_equal(back.net.flat.reshape(3, -1)[:2], model.net.flat.reshape(3, -1)[:2])


def _two_pass_error_report(model, dataset):
    """model_error_report as first written: the ensemble mean from one pass
    over the members (the mean_prediction it called), then every member again
    in its own loop."""
    acc = np.zeros((dataset.size, model.state_dim + 1))
    for b in range(model.num_members):
        acc += member_gaussian(model, b, dataset.states, dataset.actions)[0]
    denorm = acc / model.num_members * model.out_std + model.out_mean
    mean_next = dataset.states + denorm[:, :model.state_dim]
    mean_reward = denorm[:, model.state_dim]
    member_l2, member_means = [], []
    for b in range(model.num_members):
        mean, _ = member_gaussian(model, b, dataset.states, dataset.actions)
        denorm = mean * model.out_std + model.out_mean
        nxt = dataset.states + denorm[:, :model.state_dim]
        member_means.append(nxt)
        member_l2.append(float(np.mean(np.linalg.norm(nxt - dataset.next_states, axis=1))))
    return dynamics.ModelErrorReport(
        mean_l2=float(np.mean(np.linalg.norm(mean_next - dataset.next_states, axis=1))),
        member_l2=member_l2,
        disagreement=float(np.mean(np.stack(member_means).std(axis=0))),
        reward_mae=float(np.mean(np.abs(mean_reward - dataset.rewards))),
    )


def test_model_error_report_runs_each_member_once_with_two_pass_bits():
    rng = np.random.default_rng(12)
    model = random_ensemble(rng, num_members=4)
    dataset, _ = linear_system_dataset(n=700, seed=3)
    want = _two_pass_error_report(model, dataset)
    calls = []
    for member in model.members:
        forward = member.forward
        member.forward = lambda x, forward=forward: calls.append(1) or forward(x)
    assert dynamics.model_error_report(model, dataset) == want
    assert len(calls) == model.num_members


ONE_BLOCK = nn._BLOCK_FLOATS // 32  # rows of one report block at width 32


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rows, blocks", [(1, 1), (ONE_BLOCK, 1), (ONE_BLOCK + 1, 2),
                                          (7 * ONE_BLOCK // 2, 4)])
def test_model_error_report_in_row_blocks_matches_two_pass_report(seed, rows, blocks):
    rng = np.random.default_rng(30 + seed)
    model = random_ensemble(rng, num_members=4, hidden=(32, 32))
    dataset, _ = linear_system_dataset(n=rows, seed=seed)
    assert len(nn.row_blocks(rows, 32)) - 1 == blocks
    got = dynamics.model_error_report(model, dataset)
    want = _two_pass_error_report(model, dataset)
    for name in ("mean_l2", "member_l2", "disagreement", "reward_mae"):
        assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0)


def test_model_error_report_memory_does_not_grow_with_rows():
    rng = np.random.default_rng(5)
    model = random_ensemble(rng, num_members=5, hidden=(32, 32))
    peaks = []
    for rows in (4_000, 40_000):
        dataset, _ = linear_system_dataset(n=rows, seed=1)
        tracemalloc.start()
        try:
            dynamics.model_error_report(model, dataset)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 ** 20, peaks


def test_members_of_different_shapes_rejected():
    rng = np.random.default_rng(0)
    members = [nn.Mlp.init([3, 8, 6], rng), nn.Mlp.init([3, 4, 6], rng)]
    with pytest.raises(InputError):
        dynamics.EnsembleDynamicsModel(members, np.zeros(3), np.ones(3), np.zeros(3),
                                       np.ones(3), 2, 1)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_preserves_holdout_nll(tmp_path, trained_linear):
    dataset, _, model = trained_linear
    dynamics.save_model(model, tmp_path / "model")
    back = dynamics.load_model(tmp_path / "model")
    assert back.num_members == model.num_members
    for a_m, b_m in zip(model.members, back.members):
        for p, q in zip(a_m.params, b_m.params):
            assert np.array_equal(p, q)
    r1 = dynamics.model_error_report(model, dataset)
    r2 = dynamics.model_error_report(back, dataset)
    assert r1.mean_l2 == r2.mean_l2
