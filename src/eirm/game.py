"""Best-response training of the ensemble game across environments.

Each training environment owns one classifier; every environment predicts
with the arithmetic mean of all classifiers. Environments take turns
minimizing their own risk of the shared ensemble (optionally preceded by a
representation turn that minimizes the summed risk). Training stops when a
rolling-window quantile rule catches the ensemble in its low-accuracy,
low-spurious-correlation state. The same loop trains the baselines: ERM is a
game of one, and the robust min-max baseline's one classifier takes a
worst-environment step as its only turn.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import nn
from .core import Rng, ShapeError, cross_entropy, mean_squared_error, pearson, softmax_rows

FIXED_PHI = "fixed_phi"
VARIABLE_PHI = "variable_phi"
ROBUST = "robust"  # one classifier, a min-max step per iteration


class Loss(str, Enum):
    """The training loss; its value is the name configs and manifests carry.

    Every choice that depends on the loss is made here. Public entry points
    take a member or its string value.
    """

    CROSS_ENTROPY = "cross_entropy"
    SQUARED = "squared"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"loss must be one of {[m.value for m in cls]}, got {value!r}")

    def targets(self, env) -> np.ndarray:
        if self is Loss.SQUARED:
            return np.asarray(env.targets, dtype=np.float64)
        return np.asarray(env.labels)

    def risk(self, out: np.ndarray, y: np.ndarray) -> float:
        if self is Loss.SQUARED:
            return mean_squared_error(out, y.reshape(out.shape))
        return cross_entropy(softmax_rows(out), y)

    def grad(self, out: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the mean risk with respect to the outputs."""
        if self is Loss.SQUARED:
            return 2.0 * (out - y.reshape(out.shape)) / out.shape[0]
        return nn.loss_grad_logits(softmax_rows(out), y)

    def predictions(self, out: np.ndarray) -> np.ndarray:
        return out.ravel() if self is Loss.SQUARED else np.argmax(out, axis=1)

    def accuracy(self, out: np.ndarray, y: np.ndarray) -> float:
        """Argmax accuracy, ties to class 0; NaN for squared loss."""
        if self is Loss.SQUARED:
            return float("nan")
        return float(np.mean(np.argmax(out, axis=1) == y))

    def monitored(self, out: np.ndarray, y: np.ndarray) -> float:
        """The termination monitor's value: accuracy, or -risk for squared loss."""
        return -self.risk(out, y) if self is Loss.SQUARED else self.accuracy(out, y)

    def spurious_correlation(self, out: np.ndarray, bits) -> float:
        """Correlation of the argmax predictions with bits; NaN for squared loss."""
        if self is Loss.SQUARED or bits is None:
            return float("nan")
        return pearson(self.predictions(out).astype(np.float64), bits)

    def output_dim(self) -> int:
        """One regression output, or one logit per class of the binary labels."""
        return 1 if self is Loss.SQUARED else 2


CROSS_ENTROPY = Loss.CROSS_ENTROPY
SQUARED = Loss.SQUARED


@dataclass
class EnsembleModel:
    classifiers: list  # one Mlp per environment
    representation: nn.Mlp = None  # None means identity (fixed-phi game)
    mode: str = FIXED_PHI

    def __post_init__(self):
        if not self.classifiers:
            raise ValueError("need at least one classifier")
        in_dims = {c.input_dim for c in self.classifiers}
        out_dims = {c.output_dim for c in self.classifiers}
        if len(in_dims) != 1 or len(out_dims) != 1:
            raise ShapeError("classifiers must share input and output dims")
        if self.representation is not None:
            if self.representation.output_dim != self.classifiers[0].input_dim:
                raise ShapeError("representation output does not match classifiers")
        if self.mode == VARIABLE_PHI and self.representation is None:
            raise ValueError("variable-phi game needs a representation network")

    @property
    def n_envs(self) -> int:
        return len(self.classifiers)

    def represent(self, batch: np.ndarray) -> np.ndarray:
        if self.representation is None:
            return np.asarray(batch, dtype=np.float64)
        return nn.predict(self.representation, batch)


def ensemble_logits(model: EnsembleModel, batch: np.ndarray) -> np.ndarray:
    """Mean of the per-environment classifier outputs, inference mode."""
    z = model.represent(batch)
    total = None
    for clf in model.classifiers:
        logits = nn.predict(clf, z)
        total = logits if total is None else total + logits
    return total / model.n_envs


@dataclass
class TerminationRule:
    window: int = 20
    quantile: float = 0.25
    min_steps: int = None  # default: steps in one epoch of pooled data + window
    enabled: bool = True
    threshold: float = None  # optional manual accuracy threshold

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")


class TerminationMonitor:
    """Fires when the tracked accuracy sits in the low quartile of a window.

    Never fires before min_steps or before the window fills. With a manual
    threshold set, firing additionally requires accuracy <= threshold.
    """

    def __init__(self, window: int = 20, quantile: float = 0.25,
                 min_steps: int = 0, threshold: float = None):
        self.window = deque(maxlen=window)
        self.quantile = quantile
        self.min_steps = min_steps
        self.threshold = threshold

    def observe(self, accuracy: float, step: int) -> bool:
        self.window.append(accuracy)
        if step < self.min_steps or len(self.window) < self.window.maxlen:
            return False
        if self.threshold is not None and accuracy > self.threshold:
            return False
        return accuracy <= float(np.quantile(self.window, self.quantile))


@dataclass
class TrainConfig:
    lr: float = 2.5e-4
    batch_size: int = 256
    steps_per_turn: int = 1
    max_iters: int = 500
    termination: TerminationRule = field(default_factory=TerminationRule)
    seed: int = 0
    loss: Loss = CROSS_ENTROPY  # a Loss member or its string value
    # architecture used when best_response_train builds the model itself
    hidden_dims: tuple = (390, 390)
    phi_hidden_dims: tuple = (390,)
    repr_dim: int = 390
    l2_coeff: float = 1.25e-3
    dropout_rate: float = 0.75
    activation: str = "elu"
    test_every: int = 10  # trace cadence for test accuracy

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name in ("batch_size", "steps_per_turn", "max_iters", "test_every", "repr_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("hidden_dims", "phi_hidden_dims"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name}: every width must be >= 1, got {list(getattr(self, name))}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.activation not in nn.ACTIVATIONS:
            raise ValueError(f"activation must be one of {list(nn.ACTIVATIONS)}, got {self.activation!r}")
        self.loss = Loss(self.loss)


@dataclass
class TraceRecord:
    step: int
    turn_owner: str
    ens_train_acc: float
    env_risks: list
    env_accs: list
    ens_spur_corr: float
    w_spur_corrs: list
    test_acc: float = None


class TrainTrace:
    """Per-turn training diagnostics; serializes to the trace CSV schema."""

    def __init__(self):
        self.records = []

    def append(self, rec: TraceRecord) -> None:
        if self.records and rec.step <= self.records[-1].step:
            raise ValueError("trace steps must strictly increase")
        self.records.append(rec)

    def train_accuracies(self) -> np.ndarray:
        return np.array([r.ens_train_acc for r in self.records])

    def ensemble_correlations(self) -> np.ndarray:
        return np.array([r.ens_spur_corr for r in self.records])

    def to_csv(self, path) -> None:
        if not self.records:
            raise ValueError("empty trace")
        n_envs = len(self.records[0].env_risks)
        cols = ["step", "turn_owner", "ens_train_acc"]
        cols += [f"env{k}_risk" for k in range(n_envs)]
        cols += ["ens_spur_corr"]
        cols += [f"w{k}_spur_corr" for k in range(n_envs)]
        cols += ["test_acc"]
        fmt = lambda v: "" if v is None or (isinstance(v, float) and math.isnan(v)) else f"{v:.6g}"
        with open(path, "w", newline="") as f:
            f.write(",".join(cols) + "\n")
            for r in self.records:
                row = [str(r.step), r.turn_owner, fmt(r.ens_train_acc)]
                row += [fmt(v) for v in r.env_risks]
                row += [fmt(r.ens_spur_corr)]
                # a model with fewer classifiers than environments leaves the
                # remaining w{k}_spur_corr cells blank
                row += [fmt(v) for v in r.w_spur_corrs]
                row += [""] * (n_envs - len(r.w_spur_corrs))
                row += [fmt(r.test_acc)]
                f.write(",".join(row) + "\n")


def _joined(arrays) -> np.ndarray:
    """The arrays end to end along the first axis; a lone array is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


_BLOCK_ROWS = 512  # rows per block when the distinct pool is filled and checked


def _row_keys(x: np.ndarray) -> np.ndarray:
    """One number per row, the same for equal rows: the product with a fixed probe.

    The probe holds integers below 2**40, so on integer-valued features (the
    binary COLORED_SHAPES pixels) every sum is exact and equal rows get equal
    keys whatever order BLAS adds in. Distinct rows may share a key; the
    caller checks the grouping exactly.
    """
    probe = np.random.default_rng(0).integers(1, 2**40, size=x.shape[1])
    return x @ probe.astype(np.float64)


def _blocks(features, columns, keep):
    """Rows keep (ascending indices into the arrays end to end) cut to columns.

    Yields (position in keep, float64 block) for blocks of at most
    _BLOCK_ROWS rows, so no larger copy is ever made.
    """
    bounds = np.cumsum([0] + [x.shape[0] for x in features])
    cuts = np.searchsorted(keep, bounds)
    for x, lo, start, stop in zip(features, bounds, cuts[:-1], cuts[1:]):
        for at in range(start, stop, _BLOCK_ROWS):
            block = np.take(x, keep[at : min(at + _BLOCK_ROWS, stop)] - lo, axis=0)
            block = block if columns is None else np.take(block, columns, axis=1)
            yield at, block.astype(np.float64, copy=False)


def _gather(features, columns, keep) -> np.ndarray:
    """Rows keep of the arrays end to end, cut to columns, as one float64 array."""
    width = features[0].shape[1] if columns is None else columns.size
    pool = np.empty((keep.size, width))
    for at, block in _blocks(features, columns, keep):
        pool[at : at + block.shape[0]] = block
    return pool


def _distinct_pool(features):
    """Two or more feature arrays end to end, each distinct row once, without never-lit columns.

    Returns (pool, columns, rows): pool[rows] is the pooled rows cut to the kept
    column indices, bit for bit. columns is None when every column is kept and
    rows is None when the pool holds every row in order. Rows are grouped by
    _row_keys in first-occurrence order, so the distinct rows of a leading
    array come first, and every repeated row is checked against its pool row
    bit for bit; if two distinct rows share a key, every row is kept. The
    pool is filled from the arrays block by block, so no full-width copy of
    them is ever built.
    """
    lit = np.logical_or.reduce([np.any(x, axis=0) for x in features])
    columns = None if lit.all() else np.flatnonzero(lit)
    keys = np.concatenate([_row_keys(x) for x in features])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size < keys.size:
        order = np.argsort(first)
        keep = first[order]  # the pool's rows, ascending
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        rows = rank[inverse]
        pool = _gather(features, columns, keep)
        repeats = np.flatnonzero(keep[rows] != np.arange(keys.size))
        if all(np.array_equal(pool[rows[repeats[at : at + block.shape[0]]]].view(np.int64),
                              block.view(np.int64))
               for at, block in _blocks(features, columns, repeats)):
            return pool, columns, rows
        del pool  # before the full pool is built
    return _gather(features, columns, np.arange(keys.size)), columns, None


def _first_rows(net: nn.Mlp, columns) -> nn.Mlp:
    """net with its first layer cut to the weight rows of the given input columns.

    The later layers are shared, not copied. Dropping an input column that is
    zero in every row changes each output by rounding only.
    """
    if columns is None:
        return net
    first = net.layers[0]
    return nn.Mlp([replace(first, weights=first.weights[columns]), *net.layers[1:]])


class TraceRecorder:
    """Full-data diagnostics of one training call, one trace row per model state.

    Built once per call: it pools the environments' features, targets and
    spurious bits and keeps each environment's row slice of the pool.
    A lone environment's arrays are used as they are, not copied, and so are
    the test split's features (`tail`). Two or more environments are copied
    into the pool anyway, with the test split after them, so it keeps only
    the feature columns nonzero in some row (`columns`), and the network fed
    the pool runs with the matching rows of its first layer's weights. That
    pool also holds each distinct row once: first the training rows
    (`features`), then the test rows that equal no training row (`tail`).
    `rows` gives the pool row of each pooled training row and `test_rows`
    that of each test row; every network's output is gathered back through
    them before the row's figures are taken (None when the rows are in order).
    Each network's output on `features` is kept with a copy of its parameters
    and the input array it ran on, and a row reruns only the networks whose
    parameters or input changed since the previous row: after one player's
    turn, that player's network and the classifiers fed by a new
    representation output. A test step runs every network on `tail` alone.
    The `nn.predict` passes run from these methods, not from a public game
    function, so profilers see them as direct children of the training call.
    """

    def __init__(self, envs, loss, test_env, test_every: int):
        self.loss = Loss(loss)
        self.data = [(env.features, self.loss.targets(env)) for env in envs]
        self.targets = _joined([y for _, y in self.data])
        bits = [getattr(env, "spurious_bits", None) for env in envs]
        self.bits = _joined(bits) if all(b is not None for b in bits) else None
        bounds = np.cumsum([0] + [x.shape[0] for x, _ in self.data])
        self.slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        features = [x for x, _ in self.data]
        tests = [] if test_env is None else [test_env.features]
        self.rows = self.test_rows = None
        if len(features) == 1:
            self.features, self.columns = features[0], None
            self.tail = tests[0] if tests else None
        else:
            pool, self.columns, rows = _distinct_pool(features + tests)
            n = bounds[-1]
            if rows is not None:
                self.rows, self.test_rows = rows[:n], rows[n:]
                n = int(self.rows.max()) + 1  # the training rows come first
            self.features = pool[:n]
            self.tail = pool[n:] if tests else None
        self.test_targets = None if test_env is None else self.loss.targets(test_env)
        self.test_every = test_every
        # id(net) -> (net, parameter copies, input, output); holding net keeps its id unique
        self._runs = {}

    def _predict(self, net: nn.Mlp, x: np.ndarray) -> np.ndarray:
        """net's inference output on x, run with the pool's columns if x is pooled."""
        pooled = x is self.features or x is self.tail
        return nn.predict(_first_rows(net, self.columns) if pooled else net, x)

    def _output(self, net: nn.Mlp, x: np.ndarray, runs: dict) -> np.ndarray:
        """net's inference output on x, reused from the previous row if neither changed."""
        params = net.parameters()
        last = self._runs.get(id(net))
        if (last is None or last[2] is not x or len(last[1]) != len(params)
                or not all(map(np.array_equal, last[1], params))):
            last = (net, [p.copy() for p in params], x, self._predict(net, x))
        runs[id(net)] = last
        return last[3]

    def _test_accuracy(self, model: EnsembleModel, pooled: list) -> float:
        """Test accuracy from each classifier's outputs on features, then on tail."""
        phi = model.representation
        z = self.tail if phi is None else self._predict(phi, self.tail)
        outs = [self._predict(clf, z) for clf in model.classifiers]
        if self.test_rows is not None:
            outs = [np.concatenate([p, o])[self.test_rows] for p, o in zip(pooled, outs)]
        return self.loss.accuracy(sum(outs) / model.n_envs, self.test_targets)

    def record(self, model: EnsembleModel, step: int, owner: str, monitor=None):
        """Returns (TraceRecord, whether monitor fired) for the model's current state."""
        loss = self.loss
        runs = {}  # only this row's networks are kept for the next row
        phi = model.representation
        z = self.features if phi is None else self._output(phi, self.features, runs)
        pooled = [self._output(clf, z, runs) for clf in model.classifiers]
        self._runs = runs
        clf_outs = pooled if self.rows is None else [o[self.rows] for o in pooled]
        out = sum(clf_outs) / model.n_envs
        env_outs = [(out[sl], y) for sl, (_, y) in zip(self.slices, self.data)]
        test_acc = None
        if self.tail is not None and step % self.test_every == 0:
            test_acc = self._test_accuracy(model, pooled)
        rec = TraceRecord(
            step,
            owner,
            loss.accuracy(out, self.targets),
            [loss.risk(o, y) for o, y in env_outs],
            [loss.accuracy(o, y) for o, y in env_outs],
            loss.spurious_correlation(out, self.bits),
            [loss.spurious_correlation(o, self.bits) for o in clf_outs],
            test_acc,
        )
        # observe before the pooled outputs are freed: freeing them first let glibc
        # trim and re-fault the heap top on every turn (SEM game training 40% slower)
        fired = monitor is not None and monitor.observe(loss.monitored(out, self.targets), step)
        return rec, fired


class _Batcher:
    """Batches of one environment's rows in a shuffled order, reshuffled per epoch."""

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int, rng: Rng):
        self.x, self.y, self.n = x, y, x.shape[0]
        self.batch_size = min(batch_size, self.n)
        self.rng = rng
        self.order = rng.permutation(self.n)
        self.pos = 0

    def next(self) -> tuple:
        """The next batch's (features, targets)."""
        if self.pos + self.batch_size > self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.batch_size]
        self.pos += self.batch_size
        return self.x[idx], self.y[idx]


def env_turn(model: EnsembleModel, e: int, batch_x, batch_y, opt: nn.AdamState,
             rng: Rng = None, loss: str = CROSS_ENTROPY) -> None:
    """One best-response gradient step for environment e's classifier.

    Only w^e moves; the ensemble mean contributes the 1/n_envs chain factor
    to its logit gradient. The representation and all other classifiers are
    read-only here.
    """
    if not 0 <= e < model.n_envs:
        raise IndexError(f"environment index {e} out of range")
    z = model.represent(batch_x)
    outputs = []
    cache_e = None
    for q, clf in enumerate(model.classifiers):
        train = q == e
        out, cache = nn.forward(clf, z, train_mode=train, rng=rng if train else None)
        if train:
            cache_e = cache
        outputs.append(out)
    ens = sum(outputs) / model.n_envs
    dlogits = Loss(loss).grad(ens, batch_y) / model.n_envs
    grads, _ = nn.backward(model.classifiers[e], cache_e, dlogits)
    nn.adam_step(opt, model.classifiers[e].parameters(), grads)


def phi_turn(model: EnsembleModel, env_batches, opt: nn.AdamState,
             rng: Rng = None, loss: str = CROSS_ENTROPY) -> None:
    """One representation step on the summed environment risks.

    env_batches is a list of (x, y), one per environment. Classifier
    parameters are untouched; gradients flow through every classifier into
    the shared representation.
    """
    if model.mode != VARIABLE_PHI:
        raise ValueError("phi_turn requires a variable-phi game")
    phi = model.representation
    total = [np.zeros_like(p) for p in phi.parameters()]
    for e, (x, y) in enumerate(env_batches):
        z, phi_cache = nn.forward(
            phi, x, train_mode=True, rng=rng.child(f"phi_env{e}") if rng else None
        )
        outputs, caches = [], []
        for clf in model.classifiers:
            out, cache = nn.forward(clf, z, train_mode=False)
            outputs.append(out)
            caches.append(cache)
        ens = sum(outputs) / model.n_envs
        dlogits = Loss(loss).grad(ens, y) / model.n_envs
        dz = np.zeros_like(z)
        for clf, cache in zip(model.classifiers, caches):
            _, dinput = nn.backward(clf, cache, dlogits)
            dz += dinput
        grads, _ = nn.backward(phi, phi_cache, dz)
        for t, g in zip(total, grads):
            t += g
    nn.adam_step(opt, phi.parameters(), total)


def robust_turn(model: EnsembleModel, env_batches, opt: nn.AdamState, rngs,
                loss: str = CROSS_ENTROPY) -> None:
    """One min-max step of the robust model's lone classifier.

    env_batches is a list of (x, y), one per environment, each run in train
    mode with its own dropout stream from rngs. Only the worst environment's
    batch risk (plus the L2 penalty) is descended; ties go to the lowest index.
    """
    if model.mode != ROBUST:
        raise ValueError("robust_turn requires a robust model")
    loss, clf = Loss(loss), model.classifiers[0]
    turns = []  # (risk, outputs, targets, cache) per environment
    penalty = nn.regularization_loss(clf)  # the model is fixed within the step
    for (x, y), rng in zip(env_batches, rngs):
        out, cache = nn.forward(clf, x, train_mode=True, rng=rng)
        turns.append((loss.risk(out, y) + penalty, out, y, cache))
    # argmax takes the first max: ties go to the lowest index
    _, out, y, cache = turns[int(np.argmax([t[0] for t in turns]))]
    grads, _ = nn.backward(clf, cache, loss.grad(out, y))
    nn.adam_step(opt, clf.parameters(), grads)


def evaluate(model: EnsembleModel, dataset, loss: str = CROSS_ENTROPY) -> dict:
    """Accuracy (argmax, ties to class 0) and mean risk, inference mode."""
    loss = Loss(loss)
    out = ensemble_logits(model, dataset.features)
    y = loss.targets(dataset)
    return {"accuracy": loss.accuracy(out, y), "risk": loss.risk(out, y)}


def spurious_correlation(model: EnsembleModel, dataset,
                         loss: str = CROSS_ENTROPY) -> float:
    """Pearson correlation between hard predictions and the spurious bit."""
    out = ensemble_logits(model, dataset.features)
    return Loss(loss).spurious_correlation(out, dataset.spurious_bits)


def build_ensemble(envs, config: TrainConfig, mode: str, rng: Rng) -> EnsembleModel:
    in_dim = envs[0].features.shape[1]
    out_dim = Loss(config.loss).output_dim()
    representation = None
    clf_in = in_dim
    if mode == VARIABLE_PHI:
        representation = nn.make_mlp(
            (in_dim, *config.phi_hidden_dims, config.repr_dim),
            rng.child("phi"),
            hidden_activation=config.activation,
            l2_coeff=config.l2_coeff,
            dropout_rate=config.dropout_rate,
        )
        # the representation's output layer is ELU-regularized too
        representation.layers[-1].activation = config.activation
        representation.layers[-1].l2_coeff = config.l2_coeff
        clf_in = config.repr_dim
    classifiers = [
        nn.make_mlp(
            (clf_in, *config.hidden_dims, out_dim),
            rng.child(f"clf{e}"),
            hidden_activation=config.activation,
            l2_coeff=config.l2_coeff,
            dropout_rate=config.dropout_rate,
        )
        for e in range(len(envs))
    ]
    return EnsembleModel(classifiers, representation, mode)


def best_response_train(envs, config: TrainConfig, mode: str = FIXED_PHI,
                        model: EnsembleModel = None, test_env=None,
                        trace_owner: str = None):
    """Play the ensemble game by round-robin best response; returns (model, trace).

    Turn order per iteration: representation turn (variable-phi only), then
    each environment in index order for steps_per_turn gradient steps. In
    ROBUST mode the model has one classifier, and each iteration is one
    robust_turn over a batch of every environment. The trace records one row
    after every player's turn. The returned model is the state at
    termination, which is the low-correlation state the monitor is designed
    to catch. A model passed in must be of this mode and size.
    """
    if not envs:
        raise ValueError("need at least one environment")
    for env in envs:
        if env.features.shape[0] == 0:
            raise ValueError("empty environment")
    rng = Rng(config.seed)
    n_classifiers = 1 if mode == ROBUST else len(envs)
    if model is None:
        model = build_ensemble(envs[:n_classifiers], config, mode, rng.child("init"))
    elif model.mode != mode:
        raise ValueError(f"model is a {model.mode} model, the game is {mode}")
    elif model.n_envs != n_classifiers:
        raise ValueError(f"model has {model.n_envs} classifiers, the game needs {n_classifiers}")
    loss = config.loss
    recorder = TraceRecorder(envs, loss, test_env, config.test_every)

    warm = max(1, recorder.targets.shape[0] // config.batch_size)  # one epoch of pooled rows
    rule = config.termination
    min_steps = rule.min_steps if rule.min_steps is not None else warm + rule.window
    monitor = (TerminationMonitor(rule.window, rule.quantile, min_steps, rule.threshold)
               if rule.enabled else None)

    batchers = [
        _Batcher(x, y, config.batch_size, rng.child(f"batch{e}"))
        for e, (x, y) in enumerate(recorder.data)
    ]
    opts = [
        nn.AdamState.for_params(clf.parameters(), lr=config.lr)
        for clf in model.classifiers
    ]
    phi_opt = (
        nn.AdamState.for_params(model.representation.parameters(), lr=config.lr)
        if mode == VARIABLE_PHI
        else None
    )
    drop_rng = rng.child("dropout")

    trace = TrainTrace()
    step = 0

    def record(owner: str) -> bool:
        nonlocal step
        step += 1
        rec, fired = recorder.record(model, step, trace_owner or owner, monitor)
        trace.append(rec)
        return fired

    for _ in range(config.max_iters):
        if mode == ROBUST:
            robust_turn(model, [b.next() for b in batchers], opts[0],
                        [drop_rng.child(f"s{step + 1}e{e}") for e in range(len(envs))], loss)
            if record("robust"):
                return model, trace
            continue
        if mode == VARIABLE_PHI:
            for _ in range(config.steps_per_turn):
                phi_turn(model, [b.next() for b in batchers], phi_opt,
                         rng=drop_rng.child(f"phi{step}"), loss=loss)
            if record("phi"):
                return model, trace
        for e in range(model.n_envs):
            for k in range(config.steps_per_turn):
                env_turn(model, e, *batchers[e].next(), opts[e],
                         rng=drop_rng.child(f"env{e}_{step}_{k}"), loss=loss)
            if record(f"env{e}"):
                return model, trace
    return model, trace
