"""Small dense MLPs with hand-derived backpropagation and Adam.

Layers are fully connected with ELU or linear activations, analytic L2
regularization, and inverted dropout. Parameters are enumerated in a fixed
order (layer 0 weights, layer 0 bias, layer 1 weights, ...) which the Adam
state and the finite-difference checker both rely on.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import Rng, ShapeError, cross_entropy, softmax_rows

# The mask-free ELU kernels below rest on this value: the forward pass holds
# for 0 <= ELU_ALPHA <= 1, the gradient for ELU_ALPHA == 1.
ELU_ALPHA = 1.0

ACTIVATIONS = ("elu", "linear")


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


def _activate(pre: np.ndarray, kind: str, out: np.ndarray = None) -> np.ndarray:
    if kind == "linear":
        return pre
    # elu as max(alpha * expm1(min(pre, 0)), pre), no boolean mask: for x < 0,
    # alpha * expm1(x) >= expm1(x) >= x as alpha <= 1; for x >= 0 the first term
    # is 0 <= x; maximum propagates NaN. min(pre, 0) keeps expm1 from overflowing.
    out = np.minimum(pre, 0.0, out=out)
    np.expm1(out, out=out)
    if ELU_ALPHA != 1.0:
        out *= ELU_ALPHA
    return np.maximum(out, pre, out=out)


def _activate_grad(post: np.ndarray) -> np.ndarray:
    # The ELU gradient alone: backward skips linear layers, whose gradient is 1.
    # post is post-dropout here: a kept negative unit gets (e^x - 1)/keep + alpha, not alpha e^x.
    # fmin(post, 0) + alpha, no boolean mask: where x < 0, post <= 0 (alpha >= 0), so it
    # is post + alpha; elsewhere post >= 0 or NaN (fmin drops NaN), so it is alpha, i.e. 1.
    grad = np.fmin(post, 0.0)
    grad += ELU_ALPHA
    return grad


def _input(net: Mlp, batch: np.ndarray) -> np.ndarray:
    """batch as an array in its own dtype, checked against the net's input width."""
    x = np.asarray(batch)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch shape {x.shape} does not match input dim {net.input_dim}"
        )
    return x


_BLOCK_BYTES = 2 << 20  # one layer output of a predict block: about 2 MiB


def _block_rows(net: Mlp) -> int:
    """Rows of one predict block: its widest float64 layer output takes about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(1, *(l.out_dim for l in net.layers))))


def _predict_block(net: Mlp, x: np.ndarray, work=None) -> np.ndarray:
    """forward(net, x)[0], keeping no layer outputs.

    work, if given, is a work set of _run_blocks: two flat float64 buffers of
    at least x's rows times the widest layer output, for the layer outputs,
    and one into which x is widened if it is not float64. The result is then
    a view of a work buffer; the values are the same either way.
    """
    if work is not None and x.dtype != np.float64:
        wide = work[2][: x.size].reshape(x.shape)
        wide[...] = x
        x = wide
    x = x.astype(np.float64, copy=False)
    pre = post = None
    for layer in net.layers:
        if work is not None:
            pre, post = (w[: x.shape[0] * layer.out_dim].reshape(x.shape[0], -1) for w in work[:2])
        x = np.matmul(x, layer.weights, out=pre)
        x += layer.bias
        x = _activate(x, layer.activation, post)
    return x


def _drain(blocks, work, errors: list) -> None:
    """Runs each (net, block, out rows) taken from blocks into its out rows.

    With a helper, the threads share one list iterator, whose next() is
    atomic under the GIL. On an exception the iterator is emptied, so any
    other thread stops after its current block, and the exception is kept in
    errors for the caller to raise.
    """
    try:
        for net, x, out in blocks:
            out[...] = _predict_block(net, x, work)
    except BaseException as exc:
        errors.append(exc)
        for _ in blocks:
            pass


def _run_blocks(parts, threads: int) -> np.ndarray:
    """predict of each (net, x) of parts, stacked in order, block by block.

    The nets share every width but their inputs'. Each thread gets a work set
    allocated here, so a helper allocates nothing (glibc would give it a malloc
    arena of its own): two layer outputs, and a widened block if an input is
    not float64. On one thread the blocks come from a generator, so memory
    stays flat whatever the rows; helpers, which call no public function, share
    a list. They are joined before this returns or raises, and an exception
    from any thread is raised here.
    """
    net = parts[0][0]
    rows, sizes = _block_rows(net), [x.shape[0] for _, x in parts]
    out = np.empty((sum(sizes), net.output_dim))
    widest = max(l.out_dim for l in net.layers)
    wide = max((x.shape[1] for _, x in parts if x.dtype != np.float64), default=0)
    works = [(np.empty(rows * widest), np.empty(rows * widest), np.empty(rows * wide))
             for _ in range(threads)]
    blocks = ((cut, x[at : at + rows], o[at : at + rows])
              for (cut, x), o in zip(parts, np.split(out, np.cumsum(sizes)[:-1]))
              for at in range(0, x.shape[0], rows))
    if threads > 1:
        blocks = iter(list(blocks))
    errors = []
    helpers = [threading.Thread(target=_drain, args=(blocks, work, errors)) for work in works[1:]]
    for helper in helpers:
        helper.start()
    try:
        _drain(blocks, works[0], errors)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return out


def predict(net: Mlp, batch: np.ndarray) -> np.ndarray:
    """The net's inference output, row blocks of forward(net, block)[0] stacked.

    Rows run in blocks whose widest float64 layer output takes about
    _BLOCK_BYTES, so a block's layer outputs stay in cache: 4096 rows at
    width 64, 672 at width 390. A batch of one block runs as it is; a longer
    one runs on this thread alone with one work set per call, into which its
    layer outputs go and, if it is not float64 (uint8 pixels), each block
    widened: no float64 copy of the batch is made, and memory is not
    allocated and returned to the system block by block.
    """
    x = _input(net, batch)
    if x.shape[0] <= _block_rows(net):
        return _predict_block(net, x)
    return _run_blocks([(net, x)], 1)


def predict_parts(parts) -> np.ndarray:
    """predict(net, batch) of each (net, batch) of parts, stacked, with its bits.

    The nets share every width but their inputs' (one net cut to each column
    slab's weight rows). Parts of at most one block in all run through
    predict. A longer pass is cut where predict cuts each batch; when the
    process may use two CPUs, this thread and a helper take its blocks from
    one queue. With BLAS on one thread that keeps both CPUs busy; with BLAS
    on more, the two threads' BLAS calls contend for the CPUs.
    """
    parts = [(net, _input(net, batch)) for net, batch in parts]
    if sum(x.shape[0] for _, x in parts) <= _block_rows(parts[0][0]):
        outs = [predict(net, x) for net, x in parts]
        return outs[0] if len(outs) == 1 else np.concatenate(outs)
    two = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    return _run_blocks(parts, 1 + two)


def forward(net: Mlp, batch: np.ndarray, train_mode: bool = False, rng: Rng = None):
    """Run the net; returns (logits, cache) where cache feeds backward().

    With train_mode off the pass is a pure function of (parameters, batch).
    Dropout uses inverted scaling so inference needs no rescale. Callers
    that do not backpropagate use predict().
    """
    x = _input(net, batch).astype(np.float64, copy=False)
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
        cache.append({"x": x, "post": post, "mask": mask})
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


def backward(net: Mlp, cache: list, dlogits: np.ndarray, input_grad: bool = False):
    """Backpropagate dlogits; returns (grads, dinput).

    grads aligns with net.parameters() and includes the analytic L2 term
    2 * l2_coeff * W per layer. Dropout masks are reused from the cached
    forward pass. dinput, the gradient with respect to the net's input, is
    computed only with input_grad set, for a caller that backpropagates into
    the network feeding this one; otherwise it is None, and the product with
    the first layer's weights that no one reads is skipped. grads are the
    same either way.
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
        if layer.activation != "linear":
            d = d * _activate_grad(c["post"])
        grads[2 * i] = c["x"].T @ d
        grads[2 * i] += 2.0 * layer.l2_coeff * layer.weights
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ layer.weights.T if i > 0 or input_grad else None
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
    return cross_entropy(softmax_rows(predict(net, batch)), labels) + regularization_loss(net)


def finite_diff_check(net: Mlp, batch: np.ndarray, labels: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    logits, cache = forward(net, batch, train_mode=False)
    dlogits = loss_grad_logits(softmax_rows(logits), labels)
    analytic, _ = backward(net, cache, dlogits)

    worst = 0.0
    for param, grad in zip(net.parameters(), analytic):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
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
