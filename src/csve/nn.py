"""Minimal float64 neural substrate: MLPs (one network or a stacked
ensemble) with explicit reverse-mode gradients, Adam, diagonal-Gaussian
densities and a binary checkpoint format.

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


def _param_count(layer_sizes) -> int:
    return sum((n_in + 1) * n_out for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]))


class FlatViews(list):
    """The arrays [W0, b0, W1, b1, ...] of an MLP with ``layer_sizes``, W of
    shape (n_in, n_out), as views into ``flat``, the one vector that holds
    them in that order.  With ``members`` B, ``flat`` is B such vectors back
    to back, and the views are W (B, n_in, n_out) and b (B, 1, n_out)."""

    def __init__(self, flat: np.ndarray, layer_sizes, members: int | None = None):
        super().__init__()
        self.flat = flat
        rows = flat.reshape(members or 1, -1)
        start = 0
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            mid, stop = start + n_in * n_out, start + (n_in + 1) * n_out
            if members is None:
                self.append(rows[0, start:mid].reshape(n_in, n_out))
                self.append(rows[0, mid:stop])
            else:
                self.append(rows[:, start:mid].reshape(members, n_in, n_out))
                self.append(rows[:, mid:stop].reshape(members, 1, n_out))
            start = stop


class Mlp:
    """Fully connected network with identity output and relu/tanh hidden
    activations.  One float64 vector, ``flat``, owns every parameter, and
    ``params`` are its per-layer views (:class:`FlatViews`).  Training
    writes into them in place; neither can be rebound.

    With ``members`` B it is B networks of one shape run side by side, member
    after member in ``flat``: a batch (rows, n_in), or (B, rows, n_in), gives
    outputs (B, rows, n_out), and :meth:`member` is one of them."""

    def __init__(self, layer_sizes, params, activation="relu", members: int | None = None):
        """``params`` are the arrays [W0, b0, W1, b1, ...], of the shapes of
        :class:`FlatViews`, copied into ``flat``."""
        self.layer_sizes = [int(n) for n in layer_sizes]
        if len(self.layer_sizes) < 2 or any(n <= 0 for n in self.layer_sizes):
            raise InputError(f"bad layer sizes {layer_sizes}")
        if activation not in _ACTIVATION_CODES:
            raise InputError(f"unknown activation {activation!r}")
        self.activation = activation
        self.members = members
        arrays = [np.asarray(p, dtype=np.float64) for p in params]
        flat = np.empty((members or 1) * _param_count(self.layer_sizes))
        self._params = FlatViews(flat, self.layer_sizes, members)
        shapes, expected = [p.shape for p in arrays], [v.shape for v in self._params]
        if shapes != expected:
            raise InputError(f"parameter shapes {shapes} do not match sizes {expected}")
        for view, p in zip(self._params, arrays):
            view[...] = p

    def __reduce__(self):  # a pickle keeps the views on ``flat``
        return Mlp, (self.layer_sizes, self.params, self.activation, self.members)

    @classmethod
    def _on(cls, flat, layer_sizes, activation, members=None) -> "Mlp":
        """A network whose parameters are ``flat`` itself, not a copy."""
        net = cls.__new__(cls)
        net.layer_sizes, net.activation, net.members = layer_sizes, activation, members
        net._params = FlatViews(flat, layer_sizes, members)
        return net

    @classmethod
    def stack(cls, nets) -> "Mlp":
        """Plain networks of one shape and activation as one network, member
        b a copy of ``nets[b]``."""
        if len({(tuple(n.layer_sizes), n.activation, n.members) for n in nets}) != 1 \
                or nets[0].members is not None:
            raise InputError("stacked networks must be plain and share layer sizes "
                             "and activation")
        return cls._on(np.concatenate([n.flat for n in nets]), nets[0].layer_sizes,
                       nets[0].activation, len(nets))

    def member(self, b: int) -> "Mlp":
        """Member ``b`` as a plain network on its slice of ``flat``, not a copy."""
        return Mlp._on(self.flat.reshape(self.members, -1)[b], self.layer_sizes,
                       self.activation)

    @property
    def params(self) -> FlatViews:
        return self._params

    @property
    def flat(self) -> np.ndarray:
        return self._params.flat

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
        return Mlp(self.layer_sizes, self.params, self.activation, self.members)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Output alone, for batches that need no backward pass.

        A critic (a network with one output) runs a large batch in the row
        blocks of :func:`row_blocks`, so that each block's activations stay
        in a core's L2 cache.  Any other batch (one block's worth, or of a
        network with several outputs or members) runs as one pass.  Each
        block is one ``forward_cache`` call whose cache is dropped with it.

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
        if self.layer_sizes[-1] != 1 or self.members is not None or len(bounds) <= 2:
            return self.forward_cache(x)[0]
        out = np.empty((rows, 1))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            out[start:stop] = self.forward_cache(x[start:stop])[0]
        return out

    def forward_cache(self, x: np.ndarray):
        """Returns (output, cache); accepts (batch, n_in) or (n_in,), and a
        stacked network (B, batch, n_in) too.

        The cache holds each layer's input.  A hidden activation is applied
        in place to its pre-activation, and the backward pass reads the
        activation's derivative off the next layer's input (relu(z) > 0
        exactly when z > 0, and 1 - tanh(z)^2 from tanh(z) itself).
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[-1] != self.layer_sizes[0]:
            raise InputError(f"input width {h.shape[-1]} != {self.layer_sizes[0]}")
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
        out = h[..., 0, :] if squeeze else h
        return out, (inputs, squeeze)

    def backward(self, cache, cotangent: np.ndarray):
        """Gradients of <output, cotangent> for every parameter, as the views
        of one vector like ``flat`` (:class:`FlatViews`), and for the input.
        A stacked network's cotangent has its output's shape and its input
        gradient is one per member, (B, batch, n_in), which sum to that of a
        shared batch; :meth:`input_grad` also takes a shared cotangent."""
        return self._backward(cache, cotangent, with_params=True)

    def input_grad(self, cache, cotangent: np.ndarray) -> np.ndarray:
        """Gradient of <output, cotangent> for the input alone: the input
        gradient of :meth:`backward`, without forming the parameter ones."""
        return self._backward(cache, cotangent, with_params=False)[1]

    def _backward(self, cache, cotangent, with_params: bool):
        inputs, squeeze = cache
        dz = np.asarray(cotangent, dtype=np.float64)
        if squeeze:
            dz = dz[..., None, :]
        params, last = self.params, self.num_layers - 1
        relu = self.activation == "relu"
        grads = (FlatViews(np.empty_like(self.flat), self.layer_sizes, self.members)
                 if with_params else None)
        for i in range(last, -1, -1):
            if i < last:  # dz is this pass's own array here: scale it in place
                act = inputs[i + 1]
                dz *= (act > 0.0) if relu else 1.0 - act ** 2
            if with_params:
                np.matmul(inputs[i].mT, dz, out=grads[2 * i])
                np.add.reduce(dz, axis=-2, keepdims=self.members is not None,
                              out=grads[2 * i + 1])
            dz = dz @ params[2 * i].mT
        input_grad = dz[..., 0, :] if squeeze else dz
        return grads, input_grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moments over a network's ``flat``; :func:`adam_step` updates them,
    and the step count, in place."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(flat: np.ndarray, lr: float) -> AdamState:
    return AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat), step=0, lr=lr)


def adam_step(state: AdamState, flat: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of the vector ``flat`` in place:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    flat -= lr*m_hat/(sqrt(v_hat) + eps), every intermediate in one of two
    scratch vectors.  ``grad`` is left as it is."""
    if not flat.shape == grad.shape == state.m.shape:
        raise InputError(f"gradient size {grad.size} and optimizer size {state.m.size} "
                         f"do not match the {flat.size} parameters")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    tmp = np.multiply(grad, 1.0 - b1)
    state.m *= b1
    state.m += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    state.v *= b2
    state.v += tmp
    np.divide(state.m, 1.0 - b1 ** state.step, out=tmp)
    tmp *= state.lr
    denom = np.divide(state.v, 1.0 - b2 ** state.step)
    np.sqrt(denom, out=denom)
    denom += state.eps
    tmp /= denom
    flat -= tmp


def polyak_update(target: np.ndarray, source: np.ndarray, omega: float) -> None:
    """target <- (1 - omega) * target + omega * source, in place."""
    target *= 1.0 - omega
    target += omega * source


# ---------------------------------------------------------------------------
# Diagonal Gaussians
# ---------------------------------------------------------------------------

def clamp_log_std(raw: np.ndarray) -> np.ndarray:
    """``np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)``, bit for bit (NaN stays NaN)."""
    return np.minimum(np.maximum(raw, LOG_STD_MIN), LOG_STD_MAX)


def clamp_log_std_mask(raw: np.ndarray) -> np.ndarray:
    """Where :func:`clamp_log_std` passes gradients: strictly inside its bounds."""
    return (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)


def gaussian_log_prob(mean, log_std, x) -> np.ndarray:
    """Exact diagonal-Gaussian log density, summed over the last axis;
    ``log_std`` is taken as it is, already clamped (:func:`clamp_log_std`)."""
    z = (np.asarray(x, dtype=np.float64) - mean) / np.exp(log_std)
    return -0.5 * np.add.reduce(z * z + 2.0 * log_std + LOG_TWO_PI, axis=-1)


def gaussian_log_prob_grads(mean, log_std, x):
    """d log N(x; mean, std) / d mean and / d log_std, elementwise."""
    inv_var = np.exp(-2.0 * log_std)
    diff = x - mean
    return diff * inv_var, diff * diff * inv_var - 1.0


# Tanh-squashed policy head: a = scale * tanh(u), u ~ N(mean, std).

_ATANH_CLIP = 1.0 - 1e-9


def squashed_gaussian_log_prob(mean, log_std, actions, scale):
    """(log pi(a|s), u) for a = scale * tanh(u): Gaussian density of the
    presquash point u minus the log-Jacobian of the squash, summed over
    action dims, and u itself."""
    a = np.minimum(np.maximum(np.asarray(actions, dtype=np.float64) / scale, -_ATANH_CLIP),
                   _ATANH_CLIP)
    jacobian = np.add.reduce(np.log(scale * (1.0 - a * a)), axis=-1)
    u = np.arctanh(a)
    return gaussian_log_prob(mean, log_std, u) - jacobian, u


# ---------------------------------------------------------------------------
# Checkpoint blobs
# ---------------------------------------------------------------------------

def save_mlp_blob(mlp: Mlp) -> bytes:
    """Header (magic, version, activation, layer sizes) followed by ``flat``
    as little-endian float64."""
    sizes = mlp.layer_sizes
    header = struct.pack(f"<IBI{len(sizes)}I", _BLOB_VERSION, _ACTIVATION_CODES[mlp.activation],
                         len(sizes), *sizes)
    return _MAGIC + header + mlp.flat.astype("<f8", copy=False).tobytes()


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
    count = _param_count(sizes)
    end = offset + 8 * count
    if end > len(data):
        raise CorruptFileError("checkpoint blob is truncated")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
    try:
        return Mlp(sizes, FlatViews(flat, sizes), _ACTIVATION_NAMES[act_code]), end
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
