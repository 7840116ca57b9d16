"""Minimal float64 neural substrate: MLPs with explicit reverse-mode
gradients, Adam, diagonal-Gaussian heads and a binary checkpoint format.

The backward passes are written by hand and certified against central
finite differences in the test suite; keeping everything in numpy float64
makes training runs bit-reproducible for a fixed seed and thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0
LOG_TWO_PI = float(np.log(2.0 * np.pi))

_MAGIC = b"MLPCKPT\x00"
_BLOB_VERSION = 1
_ACTIVATION_CODES = {"relu": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


class Mlp:
    """Fully connected network with identity output and relu/tanh hidden
    activations.  Parameters are stored as [W0, b0, W1, b1, ...] with W of
    shape (n_in, n_out)."""

    def __init__(self, layer_sizes, params, activation="relu"):
        self.layer_sizes = [int(n) for n in layer_sizes]
        if len(self.layer_sizes) < 2 or any(n <= 0 for n in self.layer_sizes):
            raise InputError(f"bad layer sizes {layer_sizes}")
        if activation not in _ACTIVATION_CODES:
            raise InputError(f"unknown activation {activation!r}")
        self.activation = activation
        self.params = [np.asarray(p, dtype=np.float64) for p in params]
        expected = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            expected.append((n_in, n_out))
            expected.append((n_out,))
        shapes = [p.shape for p in self.params]
        if shapes != expected:
            raise InputError(f"parameter shapes {shapes} do not match sizes {expected}")

    @classmethod
    def init(cls, layer_sizes, rng: np.random.Generator, activation="relu",
             final_scale: float = 1.0) -> "Mlp":
        """Fan-in uniform initialization; the last layer may be scaled down
        (used for near-zero initial policy actions)."""
        params = []
        n_layers = len(layer_sizes) - 1
        for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            limit = np.sqrt(6.0 / n_in)
            w = rng.uniform(-limit, limit, size=(n_in, n_out))
            b = np.zeros(n_out)
            if i == n_layers - 1 and final_scale != 1.0:
                w *= final_scale
            params.append(w)
            params.append(b)
        return cls(layer_sizes, params, activation)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, [p.copy() for p in self.params], self.activation)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x: np.ndarray):
        """Returns (output, cache); accepts (batch, n_in) or (n_in,).

        The cache holds each layer's input.  A hidden activation is applied
        in place to its pre-activation, and the backward pass reads the
        activation's derivative off the next layer's input (relu(z) > 0
        exactly when z > 0, and 1 - tanh(z)^2 from tanh(z) itself).
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.layer_sizes[0]:
            raise InputError(f"input width {h.shape[1]} != {self.layer_sizes[0]}")
        params, last = self.params, self.num_layers - 1
        relu = self.activation == "relu"
        inputs = []
        for i in range(last + 1):
            inputs.append(h)
            h = h @ params[2 * i]
            h += params[2 * i + 1]
            if i < last:
                if relu:
                    np.maximum(h, 0.0, out=h)
                else:
                    np.tanh(h, out=h)
        out = h[0] if squeeze else h
        return out, (inputs, squeeze)

    def backward(self, cache, cotangent: np.ndarray):
        """Gradients of <output, cotangent> for every parameter and the input."""
        return self._backward(cache, cotangent, with_params=True)

    def input_grad(self, cache, cotangent: np.ndarray) -> np.ndarray:
        """Gradient of <output, cotangent> for the input alone: the input
        gradient of :meth:`backward`, without forming the parameter ones."""
        return self._backward(cache, cotangent, with_params=False)[1]

    def _backward(self, cache, cotangent, with_params: bool):
        inputs, squeeze = cache
        dz = np.asarray(cotangent, dtype=np.float64)
        if squeeze:
            dz = dz[None, :]
        params, last = self.params, self.num_layers - 1
        relu = self.activation == "relu"
        grads = [None] * len(params) if with_params else None
        for i in range(last, -1, -1):
            if i < last:  # dz is this pass's own array here: scale it in place
                act = inputs[i + 1]
                dz *= (act > 0.0) if relu else 1.0 - act ** 2
            if with_params:
                grads[2 * i] = inputs[i].T @ dz
                grads[2 * i + 1] = dz.sum(axis=0)
            dz = dz @ params[2 * i].T
        input_grad = dz[0] if squeeze else dz
        return grads, input_grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _flatten(arrays) -> np.ndarray:
    return np.concatenate(arrays, axis=None)


def _unflatten(flat: np.ndarray, like) -> list:
    """Views into ``flat`` with the shapes of ``like``, in order."""
    out, start = [], 0
    for p in like:
        out.append(flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return out


@dataclass
class AdamState:
    """Moments are flat vectors over all parameters in list order, so one
    update is a handful of whole-vector operations; each element sees the
    same arithmetic as a per-array update."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params, lr: float) -> AdamState:
    size = sum(np.size(p) for p in params)
    return AdamState(m=np.zeros(size), v=np.zeros(size), step=0, lr=lr)


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
    if len(grads) != len(params):
        raise InputError("gradient list does not match parameter list")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise InputError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    g = _flatten(grads)
    if g.size != state.m.size:
        raise InputError("optimizer state does not match the parameter list")
    step = state.step + 1
    b1, b2 = state.beta1, state.beta2
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** step)
    v_hat = v / (1.0 - b2 ** step)
    new = _flatten(params) - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return _unflatten(new, params), AdamState(m, v, step, state.lr, b1, b2, state.eps)


def polyak_update(target_params, source_params, omega: float):
    """target <- (1 - omega) * target + omega * source, per parameter."""
    blended = (1.0 - omega) * _flatten(target_params) + omega * _flatten(source_params)
    return _unflatten(blended, target_params)


# ---------------------------------------------------------------------------
# Diagonal Gaussians
# ---------------------------------------------------------------------------

def clamp_log_std(raw: np.ndarray) -> np.ndarray:
    return np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)


@dataclass(frozen=True)
class DiagGaussianHead:
    """Mean and clamped log-standard-deviation of a diagonal Gaussian; the
    leading axes may carry a batch."""

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        log_std = clamp_log_std(np.asarray(self.log_std, dtype=np.float64))
        if mean.shape != log_std.shape:
            raise InputError("mean and log_std must share a shape")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_std", log_std)


def gaussian_log_prob(head: DiagGaussianHead, x: np.ndarray) -> np.ndarray:
    """Exact diagonal-Gaussian log density, summed over the last axis."""
    z = (np.asarray(x, dtype=np.float64) - head.mean) / np.exp(head.log_std)
    return -0.5 * np.sum(z * z + 2.0 * head.log_std + LOG_TWO_PI, axis=-1)


def gaussian_sample(head: DiagGaussianHead, noise: np.ndarray) -> np.ndarray:
    """Reparameterized sample mean + exp(log_std) * noise."""
    return head.mean + np.exp(head.log_std) * np.asarray(noise, dtype=np.float64)


def gaussian_log_prob_grads(mean, log_std, x):
    """d log N(x; mean, std) / d mean and / d log_std, elementwise."""
    inv_var = np.exp(-2.0 * log_std)
    diff = x - mean
    d_mean = diff * inv_var
    d_log_std = diff * diff * inv_var - 1.0
    return d_mean, d_log_std


# Tanh-squashed policy head: a = scale * tanh(u), u ~ N(mean, std).

_ATANH_CLIP = 1.0 - 1e-9


def squashed_gaussian_sample(mean, log_std, noise, scale):
    """Returns (action, presquash) with gradients flowing through mean and
    log_std via the reparameterization u = mean + std * noise."""
    u = mean + np.exp(log_std) * noise
    return scale * np.tanh(u), u


def squashed_gaussian_log_prob(mean, log_std, actions, scale):
    """log pi(a|s) for a = scale * tanh(u): Gaussian density of the presquash
    point minus the log-Jacobian of the squash, summed over action dims."""
    a = np.clip(np.asarray(actions, dtype=np.float64) / scale, -_ATANH_CLIP, _ATANH_CLIP)
    u = np.arctanh(a)
    base = gaussian_log_prob(DiagGaussianHead(mean, log_std), u)
    jacobian = np.sum(np.log(scale * (1.0 - a * a)), axis=-1)
    return base - jacobian


def presquash_actions(actions, scale):
    a = np.clip(np.asarray(actions, dtype=np.float64) / scale, -_ATANH_CLIP, _ATANH_CLIP)
    return np.arctanh(a)


# ---------------------------------------------------------------------------
# Checkpoint blobs
# ---------------------------------------------------------------------------

def save_mlp_blob(mlp: Mlp) -> bytes:
    """Header (magic, version, activation, layer sizes) followed by all
    parameters as little-endian float64 in layer order."""
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<I", _BLOB_VERSION)
    header += struct.pack("<B", _ACTIVATION_CODES[mlp.activation])
    header += struct.pack("<I", len(mlp.layer_sizes))
    for n in mlp.layer_sizes:
        header += struct.pack("<I", n)
    body = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in mlp.params)
    return bytes(header) + body


def load_mlp_blob(data: bytes) -> Mlp:
    if data[: len(_MAGIC)] != _MAGIC:
        raise InputError("not a checkpoint blob (bad magic)")
    offset = len(_MAGIC)
    (version,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if version != _BLOB_VERSION:
        raise InputError(f"unsupported checkpoint version {version}")
    (act_code,) = struct.unpack_from("<B", data, offset)
    offset += 1
    (n_sizes,) = struct.unpack_from("<I", data, offset)
    offset += 4
    sizes = list(struct.unpack_from(f"<{n_sizes}I", data, offset))
    offset += 4 * n_sizes
    params = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(data, dtype="<f8", count=n_in * n_out, offset=offset)
        offset += 8 * n_in * n_out
        params.append(w.reshape(n_in, n_out).copy())
        b = np.frombuffer(data, dtype="<f8", count=n_out, offset=offset)
        offset += 8 * n_out
        params.append(b.copy())
    return Mlp(sizes, params, _ACTIVATION_NAMES[act_code])
