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
    mlp.params = [p + rng.normal(size=p.shape) if p.ndim == 1 else p for p in mlp.params]
    x = rng.normal(size=(40, 3))
    x_before = x.copy()
    cot = rng.normal(size=(40, 2))
    out, cache = mlp.forward_cache(x)
    grads, input_grad = mlp.backward(cache, cot)
    want_out, want_grads, want_input = reference_pass(mlp, x, cot)
    assert np.array_equal(out, want_out)
    assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
    assert np.array_equal(input_grad, want_input)
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
    params = [np.array([1.0, -2.0])]
    state = nn.adam_init(params, lr=0.1)
    new_params, new_state = nn.adam_step(state, params, [np.zeros(2)])
    assert np.array_equal(new_params[0], params[0])
    assert new_state.step == 1


def test_adam_constant_gradient_approaches_sign_step():
    params = [np.zeros(2)]
    state = nn.adam_init(params, lr=0.01)
    g = [np.array([0.3, -4.0])]
    prev = params
    for _ in range(500):
        prev, state = nn.adam_step(state, prev, g)
    # after bias correction the per-step move tends to -lr * sign(g)
    before = prev[0].copy()
    prev, state = nn.adam_step(state, prev, g)
    step_vec = prev[0] - before
    assert np.allclose(step_vec, -0.01 * np.sign(g[0]), atol=1e-6)


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

    params = [np.zeros(2)]
    state = nn.adam_init(params, lr=lr)
    for t in range(3):
        params, state = nn.adam_step(state, params, [g])
        assert np.max(np.abs(params[0] - expected[t])) < 1e-12


def test_adam_and_polyak_match_per_array_updates_exactly():
    rng = np.random.default_rng(5)
    shapes = [(3, 2), (2,), (2, 4), (4,)]
    params = [rng.normal(size=s) for s in shapes]
    target = [rng.normal(size=s) for s in shapes]
    state = nn.adam_init(params, lr=0.03)
    want = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        params, state = nn.adam_step(state, params, grads)
        for k, g in enumerate(grads):
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            want[k] = want[k] - 0.03 * (m[k] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[k] / (1.0 - 0.999 ** t)) + 1e-8)
        assert all(np.array_equal(p, w) for p, w in zip(params, want))
        assert np.array_equal(state.m, np.concatenate([x.ravel() for x in m]))
        assert np.array_equal(state.v, np.concatenate([x.ravel() for x in v]))
        blended = nn.polyak_update(target, params, 0.005)
        assert all(np.array_equal(b, (1.0 - 0.005) * t_ + 0.005 * p)
                   for b, t_, p in zip(blended, target, params))
    with pytest.raises(InputError):
        nn.adam_step(nn.adam_init(params[:2], lr=0.1), params, grads)


def test_adam_and_polyak_leave_their_inputs_unchanged():
    rng = np.random.default_rng(9)
    shapes = [(5, 3), (3,), (3, 1), (1,)]
    params = [rng.normal(size=s) for s in shapes]
    state = nn.adam_init(params, lr=0.01)
    params, state = nn.adam_step(state, params, [rng.normal(size=s) for s in shapes])
    grads = [rng.normal(size=s) for s in shapes]
    target = [rng.normal(size=s) for s in shapes]
    inputs = [params, grads, target, [state.m, state.v]]
    before = [[a.copy() for a in group] for group in inputs]

    new_params, new_state = nn.adam_step(state, params, grads)
    blended = nn.polyak_update(target, params, 0.3)
    for group, saved in zip(inputs, before):
        assert all(np.array_equal(a, b) for a, b in zip(group, saved))
    assert state.step == 1 and new_state.step == 2
    outputs = [*new_params, *blended, new_state.m, new_state.v]
    assert not any(np.shares_memory(a, b) for a in outputs
                   for group in inputs for b in group)


def test_polyak_closed_form_blend():
    rng = np.random.default_rng(3)
    target = [rng.normal(size=(3, 2)), rng.normal(size=2)]
    source = [rng.normal(size=(3, 2)), rng.normal(size=2)]
    omega = 0.005
    blended = [t.copy() for t in target]
    for _ in range(100):
        blended = nn.polyak_update(blended, source, omega)
    w = (1 - omega) ** 100
    for b, t, s in zip(blended, target, source):
        assert np.max(np.abs(b - (w * t + (1 - w) * s))) < 1e-12
    # omega = 1 copies, omega -> 0 freezes
    assert np.allclose(nn.polyak_update(target, source, 1.0)[0], source[0])
    assert np.allclose(nn.polyak_update(target, source, 1e-300)[0], target[0])


# ---------------------------------------------------------------------------
# Gaussian heads
# ---------------------------------------------------------------------------

def test_standard_normal_log_prob_at_origin():
    head = nn.DiagGaussianHead(np.zeros(2), np.zeros(2))
    assert nn.gaussian_log_prob(head, np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))


def test_zero_noise_sample_is_mean():
    head = nn.DiagGaussianHead(np.array([0.3, -1.0]), np.array([-2.0, 0.5]))
    assert np.array_equal(head.mean + np.exp(head.log_std) * np.zeros(2), head.mean)


def test_log_std_clamping_keeps_density_finite():
    head = nn.DiagGaussianHead(np.zeros(2), np.array([-100.0, 100.0]))
    assert head.log_std.tolist() == [nn.LOG_STD_MIN, nn.LOG_STD_MAX]
    assert np.isfinite(nn.gaussian_log_prob(head, np.array([3.0, -3.0])))


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
                fd = (nn.gaussian_log_prob(nn.DiagGaussianHead(up, log_std), x)
                      - nn.gaussian_log_prob(nn.DiagGaussianHead(down, log_std), x)) / (2 * h)
            else:
                fd = (nn.gaussian_log_prob(nn.DiagGaussianHead(mean, up), x)
                      - nn.gaussian_log_prob(nn.DiagGaussianHead(mean, down), x)) / (2 * h)
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
    lp = nn.squashed_gaussian_log_prob(mean, log_std, action, scale)
    base = nn.gaussian_log_prob(nn.DiagGaussianHead(mean, log_std), u)
    jac = np.sum(np.log(scale * (1 - np.tanh(u) ** 2)))
    assert lp == pytest.approx(base - jac, abs=1e-8)


# ---------------------------------------------------------------------------
# Determinism and checkpoints
# ---------------------------------------------------------------------------

def test_training_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(123)
        mlp = nn.Mlp.init([3, 8, 1], rng)
        state = nn.adam_init(mlp.params, lr=1e-3)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=(16, 1))
        for _ in range(50):
            out, cache = mlp.forward_cache(x)
            grads, _ = mlp.backward(cache, 2 * (out - y) / 16)
            mlp.params, state = nn.adam_step(state, mlp.params, grads)
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
    with pytest.raises(InputError):
        nn.read_mlp_blob(b"JUNK" + blob)


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
