"""Small dense MLPs with hand-derived backpropagation and Adam.

Layers are fully connected with ELU/ReLU/linear activations, analytic L2
regularization, and inverted dropout. Parameters are enumerated in a fixed
order (layer 0 weights, layer 0 bias, layer 1 weights, ...) which the Adam
state and the finite-difference checker both rely on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .core import BinaryReader, FormatError, Rng, ShapeError, cross_entropy, softmax_rows

ELU_ALPHA = 1.0

ACTIVATIONS = ("elu", "relu", "linear")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in, out)
    bias: np.ndarray  # (out,)
    activation: str = "linear"
    l2_coeff: float = 0.0
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ShapeError("bias shape inconsistent with weights")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class Mlp:
    layers: list

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list:
        """Stable enumeration: [W0, b0, W1, b1, ...]."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def copy(self) -> "Mlp":
        return Mlp(
            [
                DenseLayer(
                    l.weights.copy(),
                    l.bias.copy(),
                    l.activation,
                    l.l2_coeff,
                    l.dropout_rate,
                )
                for l in self.layers
            ]
        )


def _glorot(rng: Rng, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, (n_in, n_out))


def make_mlp(
    dims,
    rng: Rng,
    hidden_activation: str = "elu",
    l2_coeff: float = 0.0,
    dropout_rate: float = 0.0,
) -> Mlp:
    """Build an MLP with linear output layer and zero biases.

    dims = (input, hidden..., output). Hidden layers share the activation,
    L2 coefficient, and dropout rate; the output layer is plain linear.
    """
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        layers.append(
            DenseLayer(
                _glorot(rng.child(f"layer{i}"), n_in, n_out),
                np.zeros(n_out),
                "linear" if last else hidden_activation,
                0.0 if last else l2_coeff,
                0.0 if last else dropout_rate,
            )
        )
    return Mlp(layers)


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return pre
    if kind == "relu":
        return np.maximum(pre, 0.0)
    # elu: min(pre, 0) keeps expm1 from overflowing; non-negative and NaN
    # entries are then copied through from pre as they are
    out = np.minimum(pre, 0.0)
    np.expm1(out, out=out)
    out *= ELU_ALPHA
    np.copyto(out, pre, where=~(pre < 0))
    return out


def _activate_grad(pre: np.ndarray, post: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return np.ones_like(pre)
    if kind == "relu":
        return (pre > 0).astype(np.float64)
    # post is post-dropout here: a kept negative unit gets (e^x - 1)/keep + alpha, not alpha e^x
    grad = post + ELU_ALPHA
    np.copyto(grad, 1.0, where=~(pre < 0))
    return grad


def forward(net: Mlp, batch: np.ndarray, train_mode: bool = False, rng: Rng = None):
    """Run the net; returns (logits, cache) where cache feeds backward().

    With train_mode off the pass is a pure function of (parameters, batch).
    Dropout uses inverted scaling so inference needs no rescale.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch shape {x.shape} does not match input dim {net.input_dim}"
        )
    if train_mode and rng is None:
        rng = Rng(0)
    cache = []
    for i, layer in enumerate(net.layers):
        pre = x @ layer.weights + layer.bias
        post = _activate(pre, layer.activation)
        mask = None
        if train_mode and layer.dropout_rate > 0.0:
            keep = 1.0 - layer.dropout_rate
            mask = (rng.child(f"drop{i}").random(post.shape) < keep) / keep
            post = post * mask
        cache.append({"x": x, "pre": pre, "post": post, "mask": mask})
        x = post
    return x, cache


def loss_grad_logits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Descent gradient of mean NLL w.r.t. logits: (p - onehot) / batch."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError("label out of range")
    grad = probs.copy()
    grad[np.arange(probs.shape[0]), labels] -= 1.0
    return grad / probs.shape[0]


def backward(net: Mlp, cache: list, dlogits: np.ndarray):
    """Backpropagate dlogits; returns (grads, dinput).

    grads aligns with net.parameters() and includes the analytic L2 term
    2 * l2_coeff * W per layer. Dropout masks are reused from the cached
    forward pass.
    """
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match network")
    d = np.asarray(dlogits, dtype=np.float64)
    if d.shape != cache[-1]["post"].shape:
        raise ShapeError("dlogits shape does not match forward logits")
    grads = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer, c = net.layers[i], cache[i]
        if c["mask"] is not None:
            d = d * c["mask"]
        d = d * _activate_grad(c["pre"], c["post"], layer.activation)
        grads[2 * i] = c["x"].T @ d + 2.0 * layer.l2_coeff * layer.weights
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ layer.weights.T
    return grads, d


@dataclass
class AdamState:
    lr: float = 2.5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, lr: float = 2.5e-4, **kw) -> "AdamState":
        st = cls(lr=lr, **kw)
        st.m = [np.zeros_like(p) for p in params]
        st.v = [np.zeros_like(p) for p in params]
        return st


def adam_step(state: AdamState, params: list, grads: list) -> None:
    """One bias-corrected Adam update, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("parameter/gradient/state lengths differ")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError("gradient shape does not match parameter")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)


def regularization_loss(net: Mlp) -> float:
    return float(sum(l.l2_coeff * np.sum(l.weights**2) for l in net.layers))


def net_loss(net: Mlp, batch: np.ndarray, labels: np.ndarray) -> float:
    """Cross-entropy plus L2 penalty, dropout off; the finite-diff target."""
    logits, _ = forward(net, batch, train_mode=False)
    return cross_entropy(softmax_rows(logits), labels) + regularization_loss(net)


def finite_diff_check(
    net: Mlp,
    batch: np.ndarray,
    labels: np.ndarray,
    h: float = 1e-5,
    kink_tol: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    For ReLU layers, parameters feeding a unit whose pre-activation sits
    within kink_tol of zero are excluded (nondifferentiable point).
    """
    logits, cache = forward(net, batch, train_mode=False)
    dlogits = loss_grad_logits(softmax_rows(logits), labels)
    analytic, _ = backward(net, cache, dlogits)

    excluded = []
    for i, layer in enumerate(net.layers):
        cols = np.zeros(layer.out_dim, dtype=bool)
        if layer.activation == "relu":
            cols = np.abs(cache[i]["pre"]).min(axis=0) < kink_tol
        excluded.append(cols)

    worst = 0.0
    params = net.parameters()
    for idx, (param, grad) in enumerate(zip(params, analytic)):
        layer_cols = excluded[idx // 2]
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            out_unit = j % param.shape[-1] if param.ndim == 2 else j
            if layer_cols[out_unit]:
                continue
            orig = flat[j]
            flat[j] = orig + h
            up = net_loss(net, batch, labels)
            flat[j] = orig - h
            down = net_loss(net, batch, labels)
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[j] - numeric) / max(1e-8, abs(gflat[j]) + abs(numeric))
            worst = max(worst, err)
    return worst


CHECKPOINT_MAGIC = b"EIRM"
CHECKPOINT_VERSION = 1
_ACT_CODE = {name: float(i) for i, name in enumerate(ACTIVATIONS)}
_ACT_NAME = {float(i): name for i, name in enumerate(ACTIVATIONS)}


def save_model(net: Mlp, path) -> None:
    """Versioned binary checkpoint; all numeric fields little-endian float64."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(net.layers)))
        for layer in net.layers:
            f.write(
                struct.pack(
                    "<5d",
                    float(layer.in_dim),
                    float(layer.out_dim),
                    _ACT_CODE[layer.activation],
                    layer.l2_coeff,
                    layer.dropout_rate,
                )
            )
            f.write(np.ascontiguousarray(layer.weights, "<f8").tobytes())
            f.write(np.ascontiguousarray(layer.bias, "<f8").tobytes())


def load_model(path) -> Mlp:
    with open(path, "rb") as f:
        reader = BinaryReader(f.read(), path)
    (magic,) = reader.unpack("4s")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic at byte 0: {magic!r}")
    version, n_layers = reader.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if n_layers < 1:
        raise FormatError(f"{path}: checkpoint has no layers")
    layers = []
    for i in range(n_layers):
        n_in, n_out, act, l2, drop = reader.unpack("<5d")
        if act not in _ACT_NAME or not all(v.is_integer() and v >= 0 for v in (n_in, n_out)):
            raise FormatError(f"{path}: layer {i} has dims {n_in} x {n_out}, activation code {act}")
        n_in, n_out = int(n_in), int(n_out)
        w = reader.array("<f8", n_in * n_out).reshape(n_in, n_out)
        b = reader.array("<f8", n_out)
        layers.append((w.copy(), b.copy(), _ACT_NAME[act], l2, drop))
    try:
        return Mlp([DenseLayer(*fields) for fields in layers])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
