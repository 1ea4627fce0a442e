"""Small dense MLPs with hand-derived backpropagation and Adam.

Layers are fully connected with ELU or linear activations, analytic L2
regularization, and inverted dropout. Parameters are enumerated in a fixed
order (layer 0 weights, layer 0 bias, layer 1 weights, ...) which the Adam
state and the finite-difference checker both rely on.
"""

from __future__ import annotations

import ctypes
import functools
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
_SHARED_BLOCK_ROWS = 512  # a shared pass's block of a net whose _BLOCK_BYTES hold over twice as many


def _block_rows(net: Mlp, shared: bool = False) -> int:
    """Rows of one predict block: as many as make its widest float64 layer
    output take about _BLOCK_BYTES (672 at width 390, 4096 at the desk width
    64). A pass that two threads share (shared) cuts a net for which that is
    more than twice _SHARED_BLOCK_ROWS at _SHARED_BLOCK_ROWS instead, so a
    desk pass is several blocks and each widened block stays small.

    At width 64 a product cut every 512 rows has the bits of the uncut
    product, and one cut every 672 rows need not (OpenBLAS 0.3, Haswell
    kernels): a cut at a multiple of 64 rows keeps them there.
    """
    rows = max(1, _BLOCK_BYTES // (8 * max(1, *(l.out_dim for l in net.layers))))
    return _SHARED_BLOCK_ROWS if shared and rows > 2 * _SHARED_BLOCK_ROWS else rows


def _predict_block(net: Mlp, x: np.ndarray, work=None) -> np.ndarray:
    """forward(net, x)[0], keeping no layer outputs.

    work, if given, is a work set of Passes: two flat float64 buffers for the
    layer outputs, each of at least x's rows times the widest layer output;
    if x is not float64 it is widened into the second, which must then hold
    x's size as well, and which the first layer overwrites only after its
    product has read x. The result is then a view of a work buffer; the
    values are the same either way.
    """
    if work is not None and x.dtype != np.float64:
        wide = work[1][: x.size].reshape(x.shape)
        wide[...] = x
        x = wide
    x = x.astype(np.float64, copy=False)
    pre = post = None
    for layer in net.layers:
        if work is not None:
            pre, post = (w[: x.shape[0] * layer.out_dim].reshape(x.shape[0], -1) for w in work)
        x = np.matmul(x, layer.weights, out=pre)
        x += layer.bias
        x = _activate(x, layer.activation, post)
    return x


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


# OpenBLAS's thread-count getter under the names numpy's bundled build and a
# system build export it.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.lru_cache(maxsize=None)
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS mapped into this process, or
    None where none is found (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps") as f:  # address, perms, offset, device, inode, path
            fields = (line.split(None, 5) for line in f)
            paths = sorted({fs[5].strip() for fs in fields if len(fs) == 6 and "openblas" in fs[5]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the loaded library itself: dlopen counts a second handle
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get
    return None


def _blas_threads() -> int:
    """Threads the loaded BLAS runs a product on; 0 if that cannot be read."""
    get = _blas_thread_getter()
    return get() if get is not None else 0


# glibc's mallopt parameters (malloc.h) and the values _keep_freed_pages sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit systems
_TRIM_THRESHOLD = 256 << 20


def _keep_freed_pages() -> bool:
    """Sets the C library's allocator to keep freed memory in the process;
    returns whether it could (False where the library has no mallopt, as
    musl and macOS have not).

    glibc's default thresholds follow the largest block freed so far: at the
    desk width that is a 1.5 MiB widened batch, so memory above about 3 MiB
    at the top of the heap goes back to the system on free, and a training
    turn that frees more than that (a ROBUST turn holds two forwards) faults
    it in again on the next turn: about 1,200 minor faults a turn. Here a
    block under _MMAP_THRESHOLD comes from the heap and is reused, and the
    heap's top is returned only past _TRIM_THRESHOLD. No value computed
    changes. eirm.nn calls this once, on import.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success; setting either turns glibc's dynamic thresholds off
    done = [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)]
    return all(done)


_keep_freed_pages()


def _helper_may_run() -> bool:
    """Whether a helper thread has a CPU of its own: this process may use two
    CPUs and BLAS runs each product on one thread. With BLAS on more threads
    (OpenBLAS's default is one per CPU) each product already uses the CPUs,
    and a second caller slows both down; with a BLAS whose thread count
    cannot be read, no helper starts either."""
    return _two_cpus() and _blas_threads() == 1


class Passes:
    """Inference passes run block by block, on a helper thread while the caller
    does other work and on both threads once the caller joins.

    add(parts) queues predict(net, x) of each (net, x) of parts, stacked, and
    returns the array that holds it once join() returns. The nets of one pass
    share every width but their inputs'. Each part is cut into blocks of
    _block_rows, shared when a helper runs or would start, and every block
    runs through _predict_block with a work set, so no output bit depends
    on the thread that ran the block. Blocks
    added after barrier() start only once every block added before it is
    done, so a pass may read an earlier pass's output.

    start() hands the queued blocks to the helper, which it starts on its
    first call if _helper_may_run(); the helper lives
    until close(). join() runs on the caller the blocks the helper has
    not taken, waits for the helper's, and raises the first exception any
    block raised; a block that raises empties the queue. Without a helper,
    join() runs every block. The helper calls no public function and
    allocates nothing: its work set (two layer outputs of one block, the
    second also large enough for a widened block when an input is not
    float64) is allocated by start() and kept until close(), the caller's by
    join() when it takes its first block.
    The queue holds one entry per part, not per block, so its memory does not
    grow with the rows.
    """

    def __init__(self):
        self._thread = None
        self._cond = threading.Condition(threading.Lock())
        self._pending = []  # added since the last start()
        self._queue = []  # (net, x, out rows, block rows) per part; None is a barrier
        self._part = self._row = 0  # the next block: its part, and its first row there
        self._busy = 0  # blocks taken and not yet done
        self._errors = []
        self._need = (0, 0)  # work set of the largest block queued: layer, widened input
        self._work = None  # the helper's work set
        self._closed = False

    def add(self, parts) -> np.ndarray:
        """Queues predict of each (net, x) of parts, stacked; returns the output it fills."""
        parts = [(net, _input(net, x)) for net, x in parts]
        net = parts[0][0]
        rows, sizes = _block_rows(net, self._sharing()), [x.shape[0] for _, x in parts]
        out = np.empty((sum(sizes), net.output_dim))
        widest = max(l.out_dim for l in net.layers)
        layer, wide = self._need
        for (cut, x), o in zip(parts, np.split(out, np.cumsum(sizes)[:-1])):
            block = min(rows, x.shape[0])
            layer = max(layer, block * widest)
            if x.dtype != np.float64:
                wide = max(wide, block * x.shape[1])
            self._pending.append((cut, x, o, rows))
        self._need = (layer, wide)
        return out

    def barrier(self) -> None:
        """Blocks added after this start once every block added before it is done."""
        self._pending.append(None)

    def _work_set(self) -> tuple:
        layer, wide = self._need
        return np.empty(layer), np.empty(max(layer, wide))

    def _sharing(self) -> bool:
        """Whether a helper runs or would start now."""
        return self._thread is not None or _helper_may_run()

    def start(self) -> None:
        """Hands the queued blocks to the helper, started if it is not running and may run."""
        if self._thread is None and self._sharing():
            self._thread = threading.Thread(target=self._serve, daemon=True)
            self._thread.start()
        layer, wide = self._need
        if self._thread is not None and (self._work is None or self._work[0].size < layer
                                         or self._work[1].size < wide):
            self._work = self._work_set()
        with self._cond:
            self._queue += self._pending
            self._cond.notify_all()
        self._pending = []

    def _take(self):
        """The next block (net, x rows, out rows) that may start now, or None."""
        while self._part < len(self._queue):
            part = self._queue[self._part]
            if part is None:
                if self._busy:
                    return None
            else:
                net, x, out, rows = part
                at = self._row
                if at < x.shape[0]:
                    self._row += rows
                    self._busy += 1
                    return net, x[at : at + rows], out[at : at + rows]
            self._part += 1
            self._row = 0
        return None

    def _run(self, block, work) -> None:
        net, x, out = block
        error = None
        try:
            out[...] = _predict_block(net, x, work)
        except BaseException as exc:
            error = exc
        with self._cond:
            self._busy -= 1
            if error is not None:
                self._errors.append(error)
                del self._queue[self._part :]  # no other block starts
            self._cond.notify_all()

    def _serve(self) -> None:
        while True:
            with self._cond:
                block = self._take()
                while block is None and not self._closed:
                    self._cond.wait()
                    block = self._take()
            if block is None:
                return
            self._run(block, self._work)

    def join(self) -> None:
        """Runs the blocks the helper has not taken here, waits for the rest; raises a block's error."""
        self.start()
        work = None
        while True:
            with self._cond:
                block = self._take()
                while block is None and self._busy:
                    self._cond.wait()
                    block = self._take()
                if block is None:
                    errors, self._errors = self._errors, []
                    self._queue, self._part, self._row = [], 0, 0
                    self._need = (0, 0)
                    break
            if work is None:
                work = self._work_set()
            self._run(block, work)
        if errors:
            raise errors[0]

    def close(self) -> None:
        """Stops the helper after its current block and drops its work set; queued blocks are dropped."""
        if self._thread is not None:
            with self._cond:
                self._closed = True
                del self._queue[self._part :]
                self._cond.notify_all()
            self._thread.join()
        self._thread, self._work, self._closed = None, None, False
        self._queue, self._pending, self._part, self._row = [], [], 0, 0


def predict(net: Mlp, batch: np.ndarray) -> np.ndarray:
    """The net's inference output, row blocks of forward(net, block)[0] stacked.

    Rows run in blocks whose widest float64 layer output takes about
    _BLOCK_BYTES: 672 rows at width 390, 4096 at the desk width 64. A batch of
    one block runs as it is; a longer one runs block by block into one
    output, each block widened on its own if the batch is not float64 (uint8
    pixels), so no float64 copy of the batch is made.
    """
    x = _input(net, batch)
    rows = _block_rows(net)
    if x.shape[0] <= rows:
        return _predict_block(net, x)
    out = np.empty((x.shape[0], net.output_dim))
    for lo in range(0, x.shape[0], rows):
        out[lo : lo + rows] = _predict_block(net, x[lo : lo + rows])
    return out


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


_DECAY_BYTES = 1 << 19  # one row chunk of the L2 term: about 512 KiB


def _add_decay(grad: np.ndarray, decay: float, weights: np.ndarray) -> None:
    """grad += decay * weights, a row chunk of about _DECAY_BYTES at a time, so
    no temporary of the weights' size is made; the values are the same."""
    rows = max(1, _DECAY_BYTES // (8 * weights.shape[1]))
    for lo in range(0, weights.shape[0], rows):
        grad[lo : lo + rows] += decay * weights[lo : lo + rows]


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
        _add_decay(grads[2 * i], 2.0 * layer.l2_coeff, layer.weights)
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
    """One bias-corrected Adam update, in place.

    Per parameter p with gradient g it computes m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g g and p -= lr (m / corr1) / (sqrt(v / corr2) + eps),
    each operation in that order, through two arrays of the parameter's
    size, so a step holds no more than those two; the values are those of
    the expression written out with numpy's temporaries.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("parameter/gradient/state lengths differ")
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError("gradient shape does not match parameter")
        m *= b1
        v *= b2
        a = np.multiply(1.0 - b1, g)
        m += a
        np.multiply(1.0 - b2, g, out=a)
        a *= g
        v += a
        np.divide(m, corr1, out=a)
        a *= lr  # lr * (m / corr1): the product is the same either way round
        b = np.divide(v, corr2)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


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
