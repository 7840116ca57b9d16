"""Minimal float64 neural substrate: MLPs with explicit reverse-mode
gradients, Adam, diagonal-Gaussian heads and a binary checkpoint format.

The backward passes are written by hand and certified against central
finite differences in the test suite; keeping everything in numpy float64
makes training runs bit-reproducible for a fixed seed and thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptFileError, InputError

LOG_STD_MIN = -10.0
LOG_STD_MAX = 2.0
LOG_TWO_PI = float(np.log(2.0 * np.pi))

# Row blocks (row_blocks): 2^16 float64 (512 KiB) per layer output.
_BLOCK_FLOATS = 2 ** 16
_MIN_BLOCK_ROWS = 128
_ROW_ALIGN = 64

_MAGIC = b"MLPCKPT\x00"
_BLOB_VERSION = 1
_ACTIVATION_CODES = {"relu": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


def row_blocks(rows: int, widest: int) -> list[int]:
    """Bounds ``[0, ..., rows]`` of the row blocks in which a pass over
    ``rows`` rows, whose widest layer output has ``widest`` columns, keeps
    each block's activations small: as few blocks as keep every layer output
    within ``_BLOCK_FLOATS`` floats, but no block under ``_MIN_BLOCK_ROWS``
    rows, every block starting on a multiple of ``_ROW_ALIGN`` rows, and the
    blocks as near equal as that allows (about 2,000 rows a block at
    width 32)."""
    n_blocks = min(-(-rows * widest // _BLOCK_FLOATS), rows // _MIN_BLOCK_ROWS)
    if n_blocks <= 1:
        return [0, rows]
    units = rows // _ROW_ALIGN
    return [_ROW_ALIGN * (units * i // n_blocks) for i in range(n_blocks)] + [rows]


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
        """Output alone, for batches that need no backward pass.

        A critic (a network with one output) runs a large batch in the row
        blocks of :func:`row_blocks`, so that each block's activations stay
        in a core's L2 cache.  A batch that fits in one block, and any batch
        of a network with several outputs, runs as one pass.  Each block is
        one ``forward_cache`` call whose cache is dropped with it.

        Blocking keeps every output bit.  Each output row is a set of dot
        products of that input row alone, and the BLAS kernels sum them in
        an order set by the inner dimension and by the row's place in a
        group of a few rows, which block starts on multiples of
        ``_ROW_ALIGN`` keep.  A product with a few output columns is the
        exception: a BLAS may route a block of it, but not the whole batch,
        to a small-matrix kernel that rounds differently, so only networks
        whose output layer is a matrix-vector product are blocked.  (Checked
        by the tests on OpenBLAS 0.3.31, Haswell kernel, where output layers
        of 2, 4, 10 and 12 columns do not survive blocking.)
        """
        x = np.asarray(x, dtype=np.float64)
        rows = x.shape[0] if x.ndim == 2 else 1
        bounds = row_blocks(rows, max(self.layer_sizes[1:]))
        if self.layer_sizes[-1] != 1 or len(bounds) <= 2:
            return self.forward_cache(x)[0]
        out = np.empty((rows, 1))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            out[start:stop] = self.forward_cache(x[start:stop])[0]
        return out

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
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # p - lr*m_hat/(sqrt(v_hat) + eps), operation for operation, with every
    # intermediate written into g or one scratch vector
    step = state.step + 1
    b1, b2 = state.beta1, state.beta2
    tmp = np.multiply(g, 1.0 - b1)
    m = np.multiply(state.m, b1)
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v = np.multiply(state.v, b2)
    v += tmp
    np.divide(m, 1.0 - b1 ** step, out=tmp)
    tmp *= state.lr
    np.divide(v, 1.0 - b2 ** step, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    tmp /= g
    new = _flatten(params)
    new -= tmp
    return _unflatten(new, params), AdamState(m, v, step, state.lr, b1, b2, state.eps)


def polyak_update(target_params, source_params, omega: float):
    """target <- (1 - omega) * target + omega * source, per parameter."""
    blended = _flatten(target_params)
    blended *= 1.0 - omega
    source = _flatten(source_params)
    source *= omega
    blended += source
    return _unflatten(blended, target_params)


# ---------------------------------------------------------------------------
# Diagonal Gaussians
# ---------------------------------------------------------------------------

def clamp_log_std(raw: np.ndarray) -> np.ndarray:
    return np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)


def clamp_log_std_mask(raw: np.ndarray) -> np.ndarray:
    """Where :func:`clamp_log_std` passes gradients: strictly inside its bounds."""
    return (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)


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


def gaussian_log_prob_grads(mean, log_std, x):
    """d log N(x; mean, std) / d mean and / d log_std, elementwise."""
    inv_var = np.exp(-2.0 * log_std)
    diff = x - mean
    d_mean = diff * inv_var
    d_log_std = diff * diff * inv_var - 1.0
    return d_mean, d_log_std


# Tanh-squashed policy head: a = scale * tanh(u), u ~ N(mean, std).

_ATANH_CLIP = 1.0 - 1e-9


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


def read_mlp_blob(data: bytes, offset: int = 0):
    """Parse the blob that starts at ``offset``; returns (mlp, end offset).
    Raises CorruptFileError when the bytes there are not a whole blob."""
    if data[offset:offset + len(_MAGIC)] != _MAGIC:
        raise CorruptFileError("not a checkpoint blob (bad magic)")
    offset += len(_MAGIC)
    try:
        version, act_code, n_sizes = struct.unpack_from("<IBI", data, offset)
        sizes = list(struct.unpack_from(f"<{n_sizes}I", data, offset + 9))
    except struct.error:
        raise CorruptFileError("checkpoint blob is truncated") from None
    offset += 9 + 4 * n_sizes
    if version != _BLOB_VERSION:
        raise CorruptFileError(f"unsupported checkpoint version {version}")
    if act_code not in _ACTIVATION_NAMES:
        raise CorruptFileError(f"unknown activation code {act_code}")
    params = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        for shape in ((n_in, n_out), (n_out,)):
            count = int(np.prod(shape))
            if offset + 8 * count > len(data):
                raise CorruptFileError("checkpoint blob is truncated")
            params.append(np.frombuffer(data, dtype="<f8", count=count,
                                        offset=offset).reshape(shape).copy())
            offset += 8 * count
    try:
        return Mlp(sizes, params, _ACTIVATION_NAMES[act_code]), offset
    except InputError as err:
        raise CorruptFileError(f"bad checkpoint blob: {err}") from None


def load_mlp_file(path, count: int = 1) -> list:
    """The ``count`` networks of a file that holds exactly that many blobs
    back to back; a short, malformed or over-long file raises
    CorruptFileError naming the file."""
    data = Path(path).read_bytes()
    mlps, offset = [], 0
    try:
        for _ in range(count):
            mlp, offset = read_mlp_blob(data, offset)
            mlps.append(mlp)
        if offset != len(data):
            raise CorruptFileError(f"{len(data) - offset} bytes after the last blob")
    except CorruptFileError as err:
        raise CorruptFileError(f"{path}: {err}") from None
    return mlps
