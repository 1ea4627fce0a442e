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
    representation: nn.Mlp = None  # None means identity

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

    @property
    def n_envs(self) -> int:
        return len(self.classifiers)

    def represent(self, batch: np.ndarray) -> np.ndarray:
        """The classifiers' float64 input for a training batch."""
        if self.representation is None:
            return np.asarray(batch, dtype=np.float64)
        return nn.predict(self.representation, batch)


def ensemble_logits(model: EnsembleModel, batch: np.ndarray) -> np.ndarray:
    """Mean of the per-environment classifier outputs, inference mode.

    Without a representation the classifiers run on batch as it is, so
    nn.predict widens it block by block rather than as one float64 copy.
    """
    phi = model.representation
    z = batch if phi is None else nn.predict(phi, batch)
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
        if self.min_steps is not None and self.min_steps < 0:
            raise ValueError("min_steps must be >= 0")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")


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
    # architecture used when play builds the model itself
    hidden_dims: tuple = (390, 390)
    phi_hidden_dims: tuple = (390,)
    repr_dim: int = 390
    l2_coeff: float = 1.25e-3
    dropout_rate: float = 0.75
    test_every: int = 10  # trace cadence for test accuracy

    def __post_init__(self):
        if not 0 < self.lr <= 1:
            raise ValueError(f"lr must be in (0, 1], got {self.lr!r}")
        for name in ("batch_size", "steps_per_turn", "max_iters", "test_every", "repr_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("hidden_dims", "phi_hidden_dims"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name}: every width must be >= 1, got {list(getattr(self, name))}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not 0 <= self.l2_coeff <= 1:
            raise ValueError(f"l2_coeff must be in [0, 1], got {self.l2_coeff!r}")
        self.loss = Loss(self.loss)


@dataclass
class TraceRecord:
    step: int
    turn_owner: str
    ens_train_acc: float
    env_risks: list
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


def _source(dataset):
    """A dataset's rows, indexed like an array: a COLOR environment builds only those indexed."""
    return dataset if hasattr(dataset, "packed") else dataset.features


def _take(features, bounds, idx: np.ndarray) -> np.ndarray:
    """Rows idx of the sources end to end, in their dtype; bounds holds their row offsets."""
    if len(features) == 1:
        return features[0][idx]
    part = np.searchsorted(bounds, idx, side="right") - 1
    rows = np.empty((idx.size, features[0].shape[1]), np.result_type(*(x.dtype for x in features)))
    for k, x in enumerate(features):
        at = np.flatnonzero(part == k)
        rows[at] = x[idx[at] - bounds[k]]
    return rows


_BLOCK_ROWS = 512  # rows per block when the distinct pool is found, grouped and filled


def _blocks(features, idx: np.ndarray):
    """Yields (position in idx, rows of the arrays end to end) _BLOCK_ROWS of idx at a time."""
    bounds = np.cumsum([0] + [x.shape[0] for x in features])
    for at in range(0, idx.size, _BLOCK_ROWS):
        yield at, _take(features, bounds, idx[at : at + _BLOCK_ROWS])


def _distinct_rows(features):
    """(keep, rows): the first occurrence of each distinct row of the arrays end to end.

    keep ascends, and keep[rows] holds each row's first occurrence. Rows are
    equal exactly when their bytes are. A COLOR row's bytes are its packed
    mask and then its colour bit, the bit set to 0 where no pixel is lit
    (that dense row is zero in either colour), so no dense row is built;
    while any source is not COLOR, every row's are its dense row's in the
    sources' common dtype. The bytes are sorted once and each compared with
    the one before it _BLOCK_ROWS at a time, so no sorted copy is made.
    """
    if all(hasattr(x, "packed") for x in features):
        bits = _joined([x.packed.bits for x in features])
        colour = _joined([x.spurious_bits for x in features]) * bits.any(axis=1)
        rows = np.hstack([bits, colour.astype(np.uint8)[:, None]])
    else:
        rows = _slab(features, np.arange(sum(x.shape[0] for x in features)), None)
    rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]  # one per row
    order = np.argsort(rows, kind="stable")  # equal rows in ascending position
    new = np.ones(rows.size, bool)  # a sorted row unlike the one before it
    for lo in range(1, rows.size, _BLOCK_ROWS):
        at = order[lo : lo + _BLOCK_ROWS]
        new[lo : lo + at.size] = rows[at] != rows[order[lo - 1 : lo - 1 + at.size]]
    first = order[new]
    keep = np.sort(first)
    inverse = np.empty_like(order)
    inverse[order] = np.searchsorted(keep, first)[np.cumsum(new) - 1]
    return keep, inverse


def _groups(features, keep: np.ndarray):
    """(group of each row in keep, per group its columns, the arrays its slab reads and their cut).

    COLOR rows group by their declared colour: a red row (bit 1) lights only
    channel 0 of its pixels, a green row channel 1, so a colour's columns are
    3 * pixel + channel for the pixels its rows light (the packed rows of
    the colour OR-ed, then unpacked), its slab read from the masks cut to
    those pixels; the lower first lit pixel goes first, red on a tie. Other
    rows are one group on the columns they light (None: all).
    """
    if not all(hasattr(x, "packed") for x in features):
        lit = np.zeros(features[0].shape[1], bool)
        for _, block in _blocks(features, keep):
            lit |= (block != 0).any(axis=0)
        columns = None if lit.all() else np.flatnonzero(lit)
        return np.zeros(keep.size, np.intp), [(columns, features, columns)]
    masks = [x.packed for x in features]
    colour = (_joined([x.spurious_bits for x in features])[keep] == 0).astype(np.intp)  # 0 red, 1 green
    lit = np.zeros((2, masks[0].bits.shape[1]), np.uint8)
    for at, block in _blocks([m.bits for m in masks], keep):
        rows = colour[at : at + block.shape[0]]
        lit |= [np.bitwise_or.reduce(block[rows == c], axis=0) for c in (0, 1)]
    pixels = [np.flatnonzero(on) for on in np.unpackbits(lit, axis=1, count=masks[0].width)]
    # bincount, not np.unique, which would import numpy.ma on this call
    present = sorted(np.flatnonzero(np.bincount(colour, minlength=2)),
                     key=lambda c: pixels[c][0] if pixels[c].size else math.inf)
    group = colour if present[0] == 0 else 1 - colour
    return group, [(3 * pixels[c] + c, masks, pixels[c]) for c in present]


@dataclass
class Slabs:
    """Pooled rows group by group: blocks[g] holds group g's rows cut to columns[g].

    The blocks are the diagonal of a block-diagonal matrix of `shape`; every
    entry off the diagonal is zero. A column entry of None keeps every column.
    """

    blocks: list
    columns: list

    @property
    def shape(self) -> tuple:
        return (sum(b.shape[0] for b in self.blocks), sum(b.shape[1] for b in self.blocks))


def _slab(features, idx: np.ndarray, columns) -> np.ndarray:
    """Rows idx (ascending) of the sources end to end, cut to columns, in their dtype."""
    width = features[0].shape[1] if columns is None else columns.size
    slab = np.empty((idx.size, width), np.result_type(*(x.dtype for x in features)))
    for at, rows in _blocks(features, idx):
        slab[at : at + rows.shape[0]] = rows if columns is None else rows[:, columns]
    return slab


def _distinct_pool(features, n: int):
    """Row sources end to end, each distinct row once, as per-group slabs.

    Two rows are one pool row when their bytes are equal (_distinct_rows).
    Returns (train, tail, rows): the distinct rows of the first n rows, then
    (None if there are none) the later rows equal to no earlier one, group by
    group (_groups), in first-occurrence order, each slab cut to its group's
    columns and filled block by block in the sources' dtype. rows maps each
    row to its place in train then tail, or is None when that is every row.
    """
    keep, rows = _distinct_rows(features)
    group, groups = _groups(features, keep)
    columns = [c for c, _, _ in groups]
    # one segment per (part, group), training part first; keep ascends, so a
    # stable sort leaves first occurrences in order within each segment
    segment = group + len(groups) * (keep >= n)
    order = np.argsort(segment, kind="stable")
    bounds = np.cumsum([0, *np.bincount(segment, minlength=2 * len(groups))])
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    keep = keep[order]
    slabs = [_slab(arrays, keep[lo:hi], cut)
             for (lo, hi), (_, arrays, cut) in zip(zip(bounds[:-1], bounds[1:]), groups * 2)]
    train = Slabs(slabs[: len(groups)], columns)
    tail = Slabs(slabs[len(groups) :], columns) if n < rows.size else None
    in_order = keep.size == rows.size and np.all(order[1:] > order[:-1])
    return train, tail, None if in_order else at[rows]


def _first_rows(net: nn.Mlp, columns) -> nn.Mlp:
    """net with its first layer cut to the weight rows of the given input columns.

    The later layers are shared, not copied. Dropping an input column that is
    zero in every row the cut net is fed changes each output by rounding only.
    """
    if columns is None:
        return net
    first = net.layers[0]
    return nn.Mlp([replace(first, weights=first.weights[columns]), *net.layers[1:]])


def _player_data(envs, loss: Loss) -> list:
    """Each player's (row source (_source), targets)."""
    return [(_source(d), loss.targets(d)) for d in envs]


class TraceRecorder:
    """Full-data diagnostics of one training call, one trace row per model state.

    Built once per call, it pools every player's rows (a player is one
    dataset) and then the test split's, each distinct row once
    (_distinct_pool): training rows as `features`, test rows no training row
    equals as `tail`, both Slabs that a network runs with the matching rows
    of its first layer's weights. `rows` and `test_rows` give each pooled
    training and test row's pool row (None when in order); outputs are
    gathered back through them. A row reruns only the networks whose
    parameters or input changed since the previous row; a test step runs
    every network on `tail` alone. Each pass is one `nn.predict_parts` call,
    made from these methods, not from a public game function, so profilers
    see it as a direct child of the training call. `data` holds each
    player's (row source, targets), as `_player_data` builds them.
    """

    def __init__(self, envs, loss, test_env, test_every: int):
        self.loss = Loss(loss)
        self.data = _player_data(envs, self.loss)
        self.targets = _joined([y for _, y in self.data])
        bits = [getattr(d, "spurious_bits", None) for d in envs]
        self.bits = _joined(bits) if all(b is not None for b in bits) else None
        bounds = np.cumsum([0] + [y.shape[0] for _, y in self.data])
        self.slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        features = [x for x, _ in self.data]
        tests = [] if test_env is None else [_source(test_env)]
        n = bounds[-1]
        self.features, self.tail, rows = _distinct_pool(features + tests, n)
        self.rows = self.test_rows = None
        if rows is not None:
            self.rows, self.test_rows = rows[:n], rows[n:]
        self.test_targets = None if test_env is None else self.loss.targets(test_env)
        self.test_every = test_every
        # id(net) -> (net, parameter copies, input, output); holding net keeps its id unique
        self._runs = {}

    def _predict(self, net: nn.Mlp, x) -> np.ndarray:
        """net's inference output on x; each block of Slabs runs with its columns' weight rows."""
        parts = ([(_first_rows(net, c), b) for c, b in zip(x.columns, x.blocks)]
                 if isinstance(x, Slabs) else [(net, x)])
        return nn.predict_parts(parts)

    def _output(self, net: nn.Mlp, x: np.ndarray, runs: dict) -> np.ndarray:
        """net's inference output on x, reused from the previous row if neither changed."""
        params = net.parameters()
        last = self._runs.get(id(net))
        if (last is None or last[2] is not x or len(last[1]) != len(params)
                or not all(map(np.array_equal, last[1], params))):
            del last
            self._runs.pop(id(net), None)  # the stale copies go before the pass, new ones after
            out = self._predict(net, x)
            last = (net, [p.copy() for p in params], x, out)
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
        test_acc = None
        if self.tail is not None and step % self.test_every == 0:
            test_acc = self._test_accuracy(model, pooled)
        rec = TraceRecord(
            step,
            owner,
            loss.accuracy(out, self.targets),
            [loss.risk(out[sl], y) for sl, (_, y) in zip(self.slices, self.data)],
            loss.spurious_correlation(out, self.bits),
            [loss.spurious_correlation(o, self.bits) for o in clf_outs],
            test_acc,
        )
        fired = monitor is not None and monitor.observe(loss.monitored(out, self.targets), step)
        return rec, fired


class _Batcher:
    """Batches of one player's rows in a shuffled order, reshuffled per epoch.

    x is the player's row source: an array, or a COLOR environment that
    builds only the rows of each batch.
    """

    def __init__(self, x, y: np.ndarray, batch_size: int, rng: Rng):
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
    read-only here, and run in inference mode (nn.predict).
    """
    if not 0 <= e < model.n_envs:
        raise IndexError(f"environment index {e} out of range")
    z = model.represent(batch_x)
    outputs = []
    for q, clf in enumerate(model.classifiers):
        if q == e:
            out, cache_e = nn.forward(clf, z, train_mode=True, rng=rng)
        else:
            out = nn.predict(clf, z)
        outputs.append(out)
    ens = sum(outputs) / model.n_envs
    dlogits = Loss(loss).grad(ens, batch_y) / model.n_envs
    grads, _ = nn.backward(model.classifiers[e], cache_e, dlogits)
    del z, outputs, out, cache_e, ens, dlogits  # freed before Adam allocates its temporaries
    nn.adam_step(opt, model.classifiers[e].parameters(), grads)


def phi_turn(model: EnsembleModel, env_batches, opt: nn.AdamState,
             rng: Rng = None, loss: str = CROSS_ENTROPY) -> None:
    """One representation step on the summed environment risks.

    env_batches is a list of (x, y), one per environment. Classifier
    parameters are untouched; gradients flow through every classifier into
    the shared representation.
    """
    phi = model.representation
    if phi is None:
        raise ValueError("phi_turn needs a model with a representation network")
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
            _, dinput = nn.backward(clf, cache, dlogits, input_grad=True)
            dz += dinput
        grads, _ = nn.backward(phi, phi_cache, dz)
        for t, g in zip(total, grads):
            t += g
    nn.adam_step(opt, phi.parameters(), total)


def robust_turn(model: EnsembleModel, env_batches, opt: nn.AdamState, rngs,
                loss: str = CROSS_ENTROPY) -> None:
    """One min-max step of the robust model's lone classifier.

    env_batches is a list of (x, y), one per environment, each represented as
    in env_turn and run in train mode with its own dropout stream from rngs.
    Only the worst environment's
    batch risk (plus the L2 penalty) is descended; ties go to the lowest index.
    """
    if model.n_envs != 1:
        raise ValueError(f"robust_turn needs a model with one classifier, got {model.n_envs}")
    loss, clf = Loss(loss), model.classifiers[0]
    turns = []  # (risk, outputs, targets, cache) per environment
    penalty = nn.regularization_loss(clf)  # the model is fixed within the step
    for (x, y), rng in zip(env_batches, rngs):
        out, cache = nn.forward(clf, model.represent(x), train_mode=True, rng=rng)
        turns.append((loss.risk(out, y) + penalty, out, y, cache))
    # argmax takes the first max: ties go to the lowest index
    _, out, y, cache = turns[int(np.argmax([t[0] for t in turns]))]
    grads, _ = nn.backward(clf, cache, loss.grad(out, y))
    del turns, out, cache  # freed before Adam allocates its temporaries
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
    in_dim = _source(envs[0]).shape[1]
    out_dim = Loss(config.loss).output_dim()
    representation = None
    clf_in = in_dim
    if mode == VARIABLE_PHI:
        representation = nn.make_mlp(
            (in_dim, *config.phi_hidden_dims, config.repr_dim),
            rng.child("phi"),
            l2_coeff=config.l2_coeff,
            dropout_rate=config.dropout_rate,
        )
        # the representation's output layer is ELU-regularized too
        representation.layers[-1].activation = "elu"
        representation.layers[-1].l2_coeff = config.l2_coeff
        clf_in = config.repr_dim
    classifiers = [
        nn.make_mlp(
            (clf_in, *config.hidden_dims, out_dim),
            rng.child(f"clf{e}"),
            l2_coeff=config.l2_coeff,
            dropout_rate=config.dropout_rate,
        )
        for e in range(len(envs))
    ]
    return EnsembleModel(classifiers, representation)


def play(envs, config: TrainConfig, mode: str = FIXED_PHI, model: EnsembleModel = None):
    """Set up the ensemble game by round-robin best response; returns (model, turns).

    turns is a generator that plays one player's turn per item and yields the
    turn's owner ("phi", "env{e}" or "robust"); the model trains in place, and
    draining turns plays config.max_iters iterations. Turn order per
    iteration: representation turn (variable-phi only), then each environment
    in index order for steps_per_turn gradient steps. In ROBUST mode the model
    has one classifier, and each iteration is one robust_turn over a batch of
    every environment. A model passed in must have this many classifiers, and
    a representation network if the mode is VARIABLE_PHI; both are checked
    here, before any turn. Each entry of envs is one player, one dataset.
    """
    if not envs:
        raise ValueError("need at least one environment")
    if any(_source(d).shape[0] == 0 for d in envs):
        raise ValueError("empty environment")
    rng = Rng(config.seed)
    n_classifiers = 1 if mode == ROBUST else len(envs)
    if model is None:
        model = build_ensemble(envs[:n_classifiers], config, mode, rng.child("init"))
    elif model.n_envs != n_classifiers:
        raise ValueError(f"model has {model.n_envs} classifiers, the game needs {n_classifiers}")
    elif mode == VARIABLE_PHI and model.representation is None:
        raise ValueError("variable-phi game needs a representation network")
    loss = config.loss
    batchers = [
        _Batcher(x, y, config.batch_size, rng.child(f"batch{e}"))
        for e, (x, y) in enumerate(_player_data(envs, loss))
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

    def turns():
        step = 0  # turns played; the dropout keys name it
        for _ in range(config.max_iters):
            if mode == ROBUST:
                robust_turn(model, [b.next() for b in batchers], opts[0],
                            [drop_rng.child(f"s{step + 1}e{e}") for e in range(len(envs))], loss)
                step += 1
                yield "robust"
                continue
            if mode == VARIABLE_PHI:
                for _ in range(config.steps_per_turn):
                    phi_turn(model, [b.next() for b in batchers], phi_opt,
                             rng=drop_rng.child(f"phi{step}"), loss=loss)
                step += 1
                yield "phi"
            for e in range(model.n_envs):
                for k in range(config.steps_per_turn):
                    env_turn(model, e, *batchers[e].next(), opts[e],
                             rng=drop_rng.child(f"env{e}_{step}_{k}"), loss=loss)
                step += 1
                yield f"env{e}"

    return model, turns()


def best_response_train(envs, config: TrainConfig, mode: str = FIXED_PHI,
                        model: EnsembleModel = None, test_env=None,
                        trace_owner: str = None):
    """Play the ensemble game (play) and record it; returns (model, trace).

    The trace records one row after every player's turn, its owner
    trace_owner if given. Training stops after the turn on which the
    termination monitor fires, or when play runs out of iterations. The
    returned model is the state at termination, which is the low-correlation
    state the monitor is designed to catch.
    """
    model, turns = play(envs, config, mode, model)
    recorder = TraceRecorder(envs, config.loss, test_env, config.test_every)
    warm = max(1, recorder.targets.shape[0] // config.batch_size)  # one epoch of pooled rows
    rule = config.termination
    min_steps = rule.min_steps if rule.min_steps is not None else warm + rule.window
    monitor = (TerminationMonitor(rule.window, rule.quantile, min_steps, rule.threshold)
               if rule.enabled else None)
    trace = TrainTrace()
    for step, owner in enumerate(turns, 1):
        rec, fired = recorder.record(model, step, trace_owner or owner, monitor)
        trace.append(rec)
        if fired:
            break
    return model, trace
