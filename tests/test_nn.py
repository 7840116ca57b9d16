import numpy as np
import pytest

from csve import nn
from csve.errors import CorruptFileError, InputError


def finite_difference_grads(fn, params, h=1e-5):
    """Central finite differences of a scalar function of the parameter list."""
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = [q.copy() for q in params]
            bumped[k][idx] += h
            up = fn(bumped)
            bumped[k][idx] -= 2 * h
            down = fn(bumped)
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        scale = np.maximum(np.abs(a), np.abs(b))
        mask = scale > 1e-8
        if np.any(mask):
            worst = max(worst, float(np.max(np.abs(a - b)[mask] / scale[mask])))
    return worst


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def test_zero_network_outputs_final_bias():
    mlp = nn.Mlp([3, 4, 2], [np.zeros((3, 4)), np.zeros(4),
                             np.zeros((4, 2)), np.array([1.5, -0.5])])
    out = mlp.forward(np.array([0.3, -1.0, 2.0]))
    assert np.allclose(out, [1.5, -0.5])


def test_identity_linear_layer():
    mlp = nn.Mlp([3, 3], [np.eye(3), np.zeros(3)])
    x = np.array([0.1, -2.0, 0.7])
    assert np.allclose(mlp.forward(x), x)


def test_forward_matches_matrix_multiply_oracle():
    rng = np.random.default_rng(1)
    mlp = nn.Mlp.init([4, 8, 2], rng)
    x = rng.normal(size=4)
    h = x
    for i in range(2):
        z = h @ mlp.params[2 * i] + mlp.params[2 * i + 1]
        h = np.maximum(z, 0.0) if i < 1 else z
    assert np.max(np.abs(mlp.forward(x) - h)) < 1e-12


def test_shape_mismatch_raises():
    mlp = nn.Mlp([3, 2], [np.zeros((3, 2)), np.zeros(2)])
    with pytest.raises(InputError):
        mlp.forward(np.zeros(4))


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def test_linear_layer_gradient_is_input_outer_product():
    mlp = nn.Mlp([3, 2], [np.zeros((3, 2)), np.zeros(2)])
    x = np.array([1.0, 2.0, 3.0])
    _, cache = mlp.forward_cache(x)
    grads, _ = mlp.backward(cache, np.array([1.0, 0.0]))  # cotangent e_0
    assert np.allclose(grads[0][:, 0], x)
    assert np.allclose(grads[0][:, 1], 0.0)
    assert np.allclose(grads[1], [1.0, 0.0])


def test_dead_relu_blocks_gradients():
    w0 = -np.ones((2, 3))
    mlp = nn.Mlp([2, 3, 1], [w0, -np.ones(3), np.ones((3, 1)), np.zeros(1)])
    x = np.array([1.0, 1.0])  # all hidden preactivations negative
    _, cache = mlp.forward_cache(x)
    grads, input_grad = mlp.backward(cache, np.array([1.0]))
    assert np.allclose(grads[0], 0.0)
    assert np.allclose(grads[1], 0.0)
    assert np.allclose(input_grad, 0.0)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(5)
    mlp = nn.Mlp.init([3, 6, 5, 2], rng, activation=activation)
    x = rng.normal(size=(4, 3))
    cot = rng.normal(size=(4, 2))

    out, cache = mlp.forward_cache(x)
    grads, input_grad = mlp.backward(cache, cot)

    def value(params):
        return float(np.sum(nn.Mlp(mlp.layer_sizes, params, activation).forward(x) * cot))

    numeric = finite_difference_grads(value, mlp.params)
    assert max_rel_error(grads, numeric) <= 1e-4

    # input gradient against finite differences too
    g = np.zeros_like(x)
    h = 1e-6
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            g[i, j] = (np.sum(mlp.forward(xp) * cot) - np.sum(mlp.forward(xm) * cot)) / (2 * h)
    assert np.max(np.abs(g - input_grad)) < 1e-5


def reference_pass(mlp, x, cot):
    """Forward keeping every pre-activation, backward masking with them."""
    act = (lambda z: np.maximum(z, 0.0)) if mlp.activation == "relu" else np.tanh
    inputs, preacts, h = [], [], x
    for i in range(mlp.num_layers):
        inputs.append(h)
        preacts.append(h @ mlp.params[2 * i] + mlp.params[2 * i + 1])
        h = act(preacts[-1]) if i < mlp.num_layers - 1 else preacts[-1]
    grads, dz = [None] * len(mlp.params), cot
    for i in reversed(range(mlp.num_layers)):
        if i < mlp.num_layers - 1:
            z = preacts[i]
            dz = dz * ((z > 0.0) if mlp.activation == "relu" else 1.0 - np.tanh(z) ** 2)
        grads[2 * i] = inputs[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        dz = dz @ mlp.params[2 * i].T
    return h, grads, dz


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_forward_and_backward_match_preactivation_reference_exactly(activation):
    rng = np.random.default_rng(21)
    mlp = nn.Mlp.init([3, 16, 8, 2], rng, activation=activation)
    for p in mlp.params:
        if p.ndim == 1:
            p += rng.normal(size=p.shape)
    x = rng.normal(size=(40, 3))
    x_before = x.copy()
    cot = rng.normal(size=(40, 2))
    out, cache = mlp.forward_cache(x)
    grads, input_grad = mlp.backward(cache, cot)
    want_out, want_grads, want_input = reference_pass(mlp, x, cot)
    assert out.tobytes() == want_out.tobytes()
    assert [g.tobytes() for g in grads] == [w.tobytes() for w in want_grads]
    assert input_grad.tobytes() == want_input.tobytes()
    assert np.array_equal(mlp.input_grad(cache, cot), want_input)
    assert np.array_equal(x, x_before)
    # an unbatched row is a batch of one (not row 0 of a larger product,
    # which BLAS may sum in another order)
    row_out, row_cache = mlp.forward_cache(x[0])
    row_want, _, row_input = reference_pass(mlp, x[:1], cot[:1])
    assert np.array_equal(row_out, row_want[0])
    assert np.array_equal(mlp.input_grad(row_cache, cot[0]), row_input[0])


def block_shapes(mlp, x):
    """forward(x), and the input shape of each forward_cache pass it made."""
    shapes, whole = [], mlp.forward_cache

    def spy(block):
        shapes.append(block.shape)
        return whole(block)

    mlp.forward_cache = spy
    try:
        return mlp.forward(x), shapes
    finally:
        del mlp.forward_cache


@pytest.mark.parametrize("rows, sizes, activation, blocks", [
    (2560, (6, 256, 256, 1), "relu", [256] * 10),   # the paper's target pass
    (512, (6, 32, 32, 1), "relu", [512]),           # desk size runs unblocked
    (257, (6, 256, 256, 1), "tanh", [128, 129]),    # just above one block
    (1000, (6, 256, 256, 1), "relu", [192, 256, 256, 296]),  # not a multiple
    (5000, (6, 32, 32, 1), "relu", [1664, 1664, 1672]),  # desk width, many rows
    (300, (6, 1024, 1), "relu", [128, 172]),        # the floor of 128 rows wins
    (2560, (6, 256, 256, 4), "relu", [2560]),       # several outputs: one pass
])
def test_blocked_forward_matches_whole_batch_exactly(rows, sizes, activation, blocks):
    rng = np.random.default_rng(rows)
    mlp = nn.Mlp.init(sizes, rng, activation=activation)
    x = rng.normal(size=(rows, sizes[0]))
    x_before = x.copy()
    out, shapes = block_shapes(mlp, x)
    assert [shape[0] for shape in shapes] == blocks
    assert np.array_equal(out, mlp.forward_cache(x)[0])
    assert np.array_equal(x, x_before)


def test_forward_of_one_row_is_one_pass():
    rng = np.random.default_rng(2)
    mlp = nn.Mlp.init([6, 256, 256, 1], rng)
    x = rng.normal(size=6)
    out, shapes = block_shapes(mlp, x)
    assert shapes == [(6,)] and out.shape == (1,)
    assert np.array_equal(out, mlp.forward_cache(x)[0])


def test_gradcheck_on_agent_network_shapes():
    rng = np.random.default_rng(9)
    shapes = [[4, 8, 8, 1], [6, 8, 8, 1], [4, 8, 8, 4], [5, 16, 10], [2, 4, 4, 2]]
    for sizes in shapes:
        mlp = nn.Mlp.init(sizes, rng)
        x = rng.normal(size=(3, sizes[0]))
        cot = rng.normal(size=(3, sizes[-1]))
        _, cache = mlp.forward_cache(x)
        grads, _ = mlp.backward(cache, cot)

        def value(params, sizes=sizes, x=x, cot=cot):
            return float(np.sum(nn.Mlp(sizes, params).forward(x) * cot))

        numeric = finite_difference_grads(value, mlp.params)
        assert max_rel_error(grads, numeric) <= 1e-4


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    flat = np.array([1.0, -2.0])
    state = nn.adam_init(flat, lr=0.1)
    nn.adam_step(state, flat, np.zeros(2))
    assert np.array_equal(flat, [1.0, -2.0])
    assert state.step == 1


def test_adam_constant_gradient_approaches_sign_step():
    flat = np.zeros(2)
    state = nn.adam_init(flat, lr=0.01)
    g = np.array([0.3, -4.0])
    for _ in range(500):
        nn.adam_step(state, flat, g)
    # after bias correction the per-step move tends to -lr * sign(g)
    before = flat.copy()
    nn.adam_step(state, flat, g)
    assert np.allclose(flat - before, -0.01 * np.sign(g), atol=1e-6)


def test_adam_three_step_hand_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    g = np.array([1.0, -2.0])
    theta = np.array([0.0, 0.0])
    m = np.zeros(2)
    v = np.zeros(2)
    expected = []
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        expected.append(theta.copy())

    flat = np.zeros(2)
    state = nn.adam_init(flat, lr=lr)
    for t in range(3):
        nn.adam_step(state, flat, g)
        assert np.max(np.abs(flat - expected[t])) < 1e-12


def test_adam_and_polyak_match_per_array_updates_exactly():
    rng = np.random.default_rng(5)
    sizes = [3, 2, 4]
    net = nn.Mlp.init(sizes, rng)
    target = nn.Mlp.init(sizes, rng)
    shapes = [p.shape for p in net.params]
    state = nn.adam_init(net.flat, lr=0.03)
    want = [p.copy() for p in net.params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = nn.FlatViews(rng.normal(size=net.flat.size), sizes)
        nn.adam_step(state, net.flat, grads.flat)
        for k, g in enumerate(grads):
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            want[k] = want[k] - 0.03 * (m[k] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
        assert all(np.array_equal(p, w) for p, w in zip(net.params, want))
        assert np.array_equal(state.m, np.concatenate([x.ravel() for x in m]))
        assert np.array_equal(state.v, np.concatenate([x.ravel() for x in v]))
        before = [p.copy() for p in target.params]
        nn.polyak_update(target.flat, net.flat, 0.005)
        assert all(np.array_equal(b, (1.0 - 0.005) * t_ + 0.005 * p)
                   for b, t_, p in zip(target.params, before, net.params))
    with pytest.raises(InputError):
        nn.adam_step(nn.adam_init(net.flat[:6], lr=0.1), net.flat, grads.flat)
    with pytest.raises(InputError):
        nn.adam_step(state, net.flat, grads.flat[:-1])


def test_adam_and_polyak_update_their_targets_in_place():
    """Adam writes the parameters and moments where they are, and Polyak the
    target: every per-layer view sees the change, and the gradient and the
    source stay as they were."""
    rng = np.random.default_rng(9)
    net, target = nn.Mlp.init([5, 3, 1], rng), nn.Mlp.init([5, 3, 1], rng)
    state = nn.adam_init(net.flat, lr=0.01)
    flat, m, v, views = net.flat, state.m, state.v, list(net.params)
    grad = rng.normal(size=flat.size)
    saved_grad, saved_flat = grad.copy(), flat.copy()

    nn.adam_step(state, net.flat, grad)
    assert net.flat is flat and state.m is m and state.v is v and state.step == 1
    assert not np.array_equal(flat, saved_flat) and np.array_equal(grad, saved_grad)
    assert all(a is b for a, b in zip(net.params, views))
    assert np.array_equal(np.concatenate([p.ravel() for p in net.params]), flat)

    saved_target, saved_source = target.flat.copy(), net.flat.copy()
    target_flat = target.flat
    nn.polyak_update(target.flat, net.flat, 0.3)
    assert target.flat is target_flat and np.array_equal(net.flat, saved_source)
    assert np.array_equal(target.flat, 0.7 * saved_target + 0.3 * saved_source)
    assert np.array_equal(target.params[2], target.flat[-4:-1].reshape(3, 1))


def test_polyak_closed_form_blend():
    rng = np.random.default_rng(3)
    target = rng.normal(size=8)
    source = rng.normal(size=8)
    omega = 0.005
    blended = target.copy()
    for _ in range(100):
        nn.polyak_update(blended, source, omega)
    w = (1 - omega) ** 100
    assert np.max(np.abs(blended - (w * target + (1 - w) * source))) < 1e-12
    # omega = 1 copies, omega -> 0 freezes
    for omega, want in ((1.0, source), (1e-300, target)):
        blended = target.copy()
        nn.polyak_update(blended, source, omega)
        assert np.allclose(blended, want)


# ---------------------------------------------------------------------------
# The flat parameter layout
# ---------------------------------------------------------------------------

def test_params_are_views_into_one_flat_vector():
    rng = np.random.default_rng(4)
    mlp = nn.Mlp.init([3, 5, 4, 2], rng)
    assert mlp.flat.dtype == np.float64 and mlp.flat.ndim == 1
    assert mlp.flat.size == sum(p.size for p in mlp.params) == 4 * 5 + 6 * 4 + 5 * 2
    assert [p.shape for p in mlp.params] == [(3, 5), (5,), (5, 4), (4,), (4, 2), (2,)]
    assert all(np.shares_memory(p, mlp.flat) for p in mlp.params)
    assert np.array_equal(np.concatenate([p.ravel() for p in mlp.params]), mlp.flat)
    mlp.flat[:] = np.arange(mlp.flat.size)
    assert mlp.params[2][0, 0] == 20.0 and mlp.params[5][1] == 53.0
    mlp.params[0][1, 2] = -7.0
    assert mlp.flat[7] == -7.0
    with pytest.raises(AttributeError):
        mlp.params = [p.copy() for p in mlp.params]

    copy = mlp.copy()
    assert np.array_equal(copy.flat, mlp.flat)
    assert not np.shares_memory(copy.flat, mlp.flat)
    assert all(np.shares_memory(p, copy.flat) for p in copy.params)
    copy.flat[:] += 1.0
    assert not np.array_equal(copy.flat, mlp.flat)
    with pytest.raises(AttributeError):
        copy.flat = mlp.flat.copy()
    # the constructor copies its arrays too
    w, b = np.ones((2, 2)), np.zeros(2)
    small = nn.Mlp([2, 2], [w, b])
    w[0, 0] = 5.0
    assert small.params[0][0, 0] == 1.0


def test_backward_writes_gradients_into_one_flat_vector():
    rng = np.random.default_rng(6)
    mlp = nn.Mlp.init([3, 6, 2], rng)
    out, cache = mlp.forward_cache(rng.normal(size=(5, 3)))
    grads, _ = mlp.backward(cache, rng.normal(size=(5, 2)))
    assert isinstance(grads, nn.FlatViews) and grads.flat.shape == mlp.flat.shape
    assert [g.shape for g in grads] == [p.shape for p in mlp.params]
    assert all(np.shares_memory(g, grads.flat) for g in grads)
    assert not np.shares_memory(grads.flat, mlp.flat)
    assert np.array_equal(np.concatenate([g.ravel() for g in grads]), grads.flat)


def test_pickled_network_keeps_its_views():
    import pickle

    mlp = nn.Mlp.init([2, 4, 1], np.random.default_rng(1), activation="tanh")
    back = pickle.loads(pickle.dumps(mlp))
    assert back.activation == "tanh" and np.array_equal(back.flat, mlp.flat)
    back.flat[:] = 0.0
    assert all(not p.any() for p in back.params)


def _perturbed_nets(rng, sizes, activation, count):
    """``count`` networks with nonzero biases, so that every view matters."""
    nets = [nn.Mlp.init(sizes, rng, activation=activation) for _ in range(count)]
    for net in nets:
        net.flat[:] += rng.normal(scale=0.1, size=net.flat.size)
    return nets


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(17)
    nets = _perturbed_nets(rng, [3, 6, 5, 2], activation, 3)
    stacked = nn.Mlp.stack(nets)
    x = rng.normal(size=(4, 3))
    cot = rng.normal(size=(3, 4, 2))
    out, cache = stacked.forward_cache(x)
    grads, input_grad = stacked.backward(cache, cot)
    assert out.shape == (3, 4, 2) and input_grad.shape == (3, 4, 3)
    assert [g.shape for g in grads] == [p.shape for p in stacked.params]
    for b, net in enumerate(nets):  # each member is its own network, to the bit
        assert np.array_equal(out[b], net.forward(x))
        want_grads, want_input = net.backward(net.forward_cache(x)[1], cot[b])
        assert np.allclose(grads.flat.reshape(3, -1)[b], want_grads.flat, rtol=1e-12, atol=0)
        assert np.allclose(input_grad[b], want_input, rtol=1e-12, atol=0)

    def value(params):
        net = nn.Mlp(stacked.layer_sizes, params, activation, members=3)
        return float(np.sum(net.forward(x) * cot))

    def input_value(inputs):
        return float(np.sum(stacked.forward(inputs[0]) * cot))

    assert max_rel_error(grads, finite_difference_grads(value, stacked.params)) <= 1e-4
    # the members share the input: its gradient is the sum of theirs
    numeric = finite_difference_grads(input_value, [x])[0]
    assert np.max(np.abs(numeric - input_grad.sum(axis=0))) < 1e-5
    # one batch per member: one input gradient per member
    xs = rng.normal(size=(3, 4, 3))
    numeric = finite_difference_grads(input_value, [xs])[0]
    cache = stacked.forward_cache(xs)[1]
    assert np.max(np.abs(numeric - stacked.input_grad(cache, cot))) < 1e-5


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_passes_give_each_members_reference_bits(activation):
    rng = np.random.default_rng(23)
    nets = _perturbed_nets(rng, [3, 16, 8, 2], activation, 3)
    x, cot = rng.normal(size=(40, 3)), rng.normal(size=(3, 40, 2))
    stacked = nn.Mlp.stack(nets)
    out, cache = stacked.forward_cache(x)
    grads, input_grad = stacked.backward(cache, cot)
    for b, net in enumerate(nets):
        want_out, want_grads, want_input = reference_pass(net, x, cot[b])
        assert out[b].tobytes() == want_out.tobytes()
        assert [g[b].tobytes() for g in grads] == [w.tobytes() for w in want_grads]
        assert input_grad[b].tobytes() == want_input.tobytes()


def test_stack_then_member_gives_back_the_networks():
    import pickle

    rng = np.random.default_rng(8)
    nets = _perturbed_nets(rng, [3, 5, 2], "tanh", 3)
    stacked = nn.Mlp.stack(nets)
    assert stacked.members == 3 and stacked.flat.shape == (3 * nets[0].flat.size,)
    assert [p.shape for p in stacked.params] == [(3, 3, 5), (3, 1, 5), (3, 5, 2), (3, 1, 2)]
    assert all(np.shares_memory(p, stacked.flat) for p in stacked.params)
    for b, net in enumerate(nets):
        member = stacked.member(b)
        assert (member.layer_sizes, member.activation, member.members) == (
            net.layer_sizes, "tanh", None)
        assert np.array_equal(stacked.flat.reshape(3, -1)[b], net.flat)
        assert all(np.array_equal(p, q) for p, q in zip(member.params, net.params))
        assert np.shares_memory(member.flat, stacked.flat)
        assert not np.shares_memory(net.flat, stacked.flat)
        # member b's blob body is its slice of the stacked vector
        assert nn.save_mlp_blob(member) == nn.save_mlp_blob(net)
    stacked.member(1).params[2][0, 1] = 9.0
    assert stacked.params[2][1, 0, 1] == 9.0
    stacked.params[1][2, 0, 4] = -3.0
    assert stacked.member(2).params[1][4] == -3.0

    # a stacked critic runs a large batch as one pass, not in row blocks
    critics = _perturbed_nets(rng, [3, 8, 1], "relu", 2)
    x = rng.normal(size=(20_000, 3))
    assert len(nn.row_blocks(len(x), 8)) > 2  # a plain critic would block it
    out = nn.Mlp.stack(critics).forward(x)
    assert out.shape == (2, len(x), 1)
    assert all(np.allclose(out[b], net.forward(x), rtol=1e-12, atol=0)
               for b, net in enumerate(critics))

    for other in (stacked.copy(), pickle.loads(pickle.dumps(stacked))):
        assert other.members == 3 and np.array_equal(other.flat, stacked.flat)
        assert not np.shares_memory(other.flat, stacked.flat)
        assert all(np.shares_memory(p, other.flat) for p in other.params)

    for bad in ([], [nets[0], nn.Mlp.init([3, 4, 2], rng, activation="tanh")],
                [nets[0], nn.Mlp.init([3, 5, 2], rng)], [stacked]):
        with pytest.raises(InputError):
            nn.Mlp.stack(bad)


# ---------------------------------------------------------------------------
# Diagonal Gaussians
# ---------------------------------------------------------------------------

def test_standard_normal_log_prob_at_origin():
    assert nn.gaussian_log_prob(np.zeros(2), np.zeros(2), np.zeros(2)) == pytest.approx(
        -np.log(2 * np.pi))


def test_zero_noise_sample_is_mean():
    mean, log_std = np.array([0.3, -1.0]), np.array([-2.0, 0.5])
    assert np.array_equal(mean + np.exp(log_std) * np.zeros(2), mean)


def test_log_std_clamping_keeps_density_finite():
    log_std = nn.clamp_log_std(np.array([-100.0, 100.0]))
    assert log_std.tolist() == [nn.LOG_STD_MIN, nn.LOG_STD_MAX]
    assert np.isfinite(nn.gaussian_log_prob(np.zeros(2), log_std, np.array([3.0, -3.0])))


def test_gaussian_helpers_give_the_bits_of_np_clip_and_np_sum():
    """clamp_log_std, gaussian_log_prob and squashed_gaussian_log_prob call
    np.maximum/np.minimum and np.add.reduce; compared by bytes, so a -0.0
    for a 0.0 or another NaN payload would fail."""
    rng = np.random.default_rng(13)
    raw = np.concatenate([rng.normal(0.0, 6.0, size=(40, 3)),
                          [[nn.LOG_STD_MIN, nn.LOG_STD_MAX, -0.0],
                           [0.0, np.inf, -np.inf], [np.nan, -12.0, 2.5]]])
    clamped = nn.clamp_log_std(raw)
    assert clamped.tobytes() == np.clip(raw, nn.LOG_STD_MIN, nn.LOG_STD_MAX).tobytes()
    mean, x, log_std = rng.normal(size=(43, 3)), rng.normal(size=(43, 3)), clamped
    z = (x - mean) / np.exp(log_std)
    want = -0.5 * np.sum(z * z + 2.0 * log_std + nn.LOG_TWO_PI, axis=-1)
    assert nn.gaussian_log_prob(mean, log_std, x).tobytes() == want.tobytes()
    scale = np.array([2.0, 1.0, 0.5])
    actions = np.concatenate([scale * np.tanh(rng.normal(0.0, 3.0, size=(40, 3))),
                              [scale, -scale, [0.0, -0.0, 0.5]]])
    log_prob, u = nn.squashed_gaussian_log_prob(mean, log_std, actions, scale)
    a = np.clip(actions / scale, -(1.0 - 1e-9), 1.0 - 1e-9)
    want_u = np.arctanh(a)
    want = (nn.gaussian_log_prob(mean, log_std, want_u)
            - np.sum(np.log(scale * (1.0 - a * a)), axis=-1))
    assert u.tobytes() == want_u.tobytes() and log_prob.tobytes() == want.tobytes()


def test_log_prob_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    mean = rng.normal(size=4)
    log_std = rng.uniform(-1.0, 0.5, size=4)
    x = rng.normal(size=4)
    d_mean, d_log_std = nn.gaussian_log_prob_grads(mean, log_std, x)
    h = 1e-6
    for i in range(4):
        for vec, grad in ((mean, d_mean), (log_std, d_log_std)):
            up, down = vec.copy(), vec.copy()
            up[i] += h
            down[i] -= h
            if vec is mean:
                fd = (nn.gaussian_log_prob(up, log_std, x)
                      - nn.gaussian_log_prob(down, log_std, x)) / (2 * h)
            else:
                fd = (nn.gaussian_log_prob(mean, up, x)
                      - nn.gaussian_log_prob(mean, down, x)) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
            assert rel <= 1e-5


def test_squashed_log_prob_change_of_variables():
    rng = np.random.default_rng(11)
    mean = rng.normal(size=3)
    log_std = rng.uniform(-1, 0, size=3)
    noise = rng.normal(size=3)
    scale = np.array([2.0, 1.0, 0.5])
    u = mean + np.exp(log_std) * noise
    action = scale * np.tanh(u)
    assert np.all(np.abs(action) < scale)
    lp, presquash = nn.squashed_gaussian_log_prob(mean, log_std, action, scale)
    assert presquash == pytest.approx(u, abs=1e-8)
    base = nn.gaussian_log_prob(mean, log_std, u)
    jac = np.sum(np.log(scale * (1 - np.tanh(u) ** 2)))
    assert lp == pytest.approx(base - jac, abs=1e-8)


# ---------------------------------------------------------------------------
# Determinism and checkpoints
# ---------------------------------------------------------------------------

def test_training_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(123)
        mlp = nn.Mlp.init([3, 8, 1], rng)
        state = nn.adam_init(mlp.flat, lr=1e-3)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=(16, 1))
        for _ in range(50):
            out, cache = mlp.forward_cache(x)
            grads, _ = mlp.backward(cache, 2 * (out - y) / 16)
            nn.adam_step(state, mlp.flat, grads.flat)
        return mlp.params

    a, b = run(), run()
    for p, q in zip(a, b):
        assert np.array_equal(p, q)


def test_blob_round_trip_is_exact():
    rng = np.random.default_rng(17)
    mlp = nn.Mlp.init([4, 7, 3], rng, activation="tanh")
    blob = nn.save_mlp_blob(mlp)
    back, end = nn.read_mlp_blob(blob)
    assert end == len(blob)
    assert back.layer_sizes == mlp.layer_sizes
    assert back.activation == "tanh"
    for p, q in zip(back.params, mlp.params):
        assert np.array_equal(p, q)
    assert blob[-8 * mlp.flat.size:] == mlp.flat.astype("<f8").tobytes()
    assert back.flat.flags.writeable and not np.shares_memory(back.flat, mlp.flat)
    with pytest.raises(InputError):
        nn.read_mlp_blob(b"JUNK" + blob)
    with pytest.raises(CorruptFileError, match="truncated"):
        nn.read_mlp_blob(blob[:-1])


def test_blob_file_must_hold_exactly_its_blobs(tmp_path):
    rng = np.random.default_rng(3)
    mlps = [nn.Mlp.init([3, 5, 2], rng), nn.Mlp.init([3, 5, 2], rng, activation="tanh")]
    blob = b"".join(nn.save_mlp_blob(m) for m in mlps)
    path = tmp_path / "nets.bin"
    path.write_bytes(blob)
    back = nn.load_mlp_file(path, 2)
    assert [m.activation for m in back] == ["relu", "tanh"]
    assert all(np.array_equal(p, q) for a, b in zip(back, mlps)
               for p, q in zip(a.params, b.params))
    for cut in range(len(blob)):            # every truncation, header or body
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptFileError, match="nets.bin"):
            nn.load_mlp_file(path, 2)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CorruptFileError, match="1 bytes after the last blob"):
        nn.load_mlp_file(path, 2)
