"""Checks of eirm's outputs against computations made apart from eirm.

Nothing here imports eirm. The forward pass, losses and correlations are
written again in plain numpy from the paper's definitions, so a fault in
eirm's own arithmetic shows as a disagreement instead of being copied into
the expected values. Networks are passed as lists of (weights, bias,
activation) triples; `mlp_layers` reads those out of an eirm `Mlp`.
"""

from __future__ import annotations

import csv
import math

import numpy as np

LOG_FLOOR = 1e-12  # probability floor before the log, as the paper's loss uses


class MalformedTrace(ValueError):
    """A trace CSV that cannot be read against its own header."""


class Mismatch(AssertionError):
    """An output of the program that disagrees with the independent value."""


def mlp_layers(net) -> list:
    return [(l.weights, l.bias, l.activation) for l in net.layers]


def forward(layers, x) -> np.ndarray:
    """Inference pass of a dense net: affine map then activation, per layer."""
    out = np.asarray(x, dtype=np.float64)
    for weights, bias, activation in layers:
        out = out @ weights + bias
        if activation == "elu":
            out = np.where(out < 0.0, np.expm1(np.minimum(out, 0.0)), out)
        elif activation == "relu":
            out = np.maximum(out, 0.0)
        elif activation != "linear":
            raise ValueError(f"unknown activation {activation!r}")
    return out


def ensemble_forward(representation, classifiers, x):
    """Returns (ensemble mean output, per-classifier outputs)."""
    z = x if representation is None else forward(representation, x)
    outs = [forward(c, z) for c in classifiers]
    return sum(outs[1:], outs[0]) / len(outs), outs


def cross_entropy(logits, labels) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_FLOOR))))


def accuracy(logits, labels) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def correlation(a, b) -> float:
    """Pearson correlation, 0 when either side is constant."""
    a = np.asarray(a, dtype=np.float64) - np.mean(a)
    b = np.asarray(b, dtype=np.float64) - np.mean(b)
    denom = math.sqrt(float(a @ a)) * math.sqrt(float(b @ b))
    return 0.0 if denom == 0.0 else float(np.clip((a @ b) / denom, -1.0, 1.0))


def trace_diagnostics(representation, classifiers, envs, test=None) -> dict:
    """Values one trace row holds for a model, computed from scratch.

    envs is a list of (features, labels, spurious bits) for the training
    environments the trace was recorded on; test is (features, labels).
    Keys follow the trace CSV's column names.
    """
    x = np.vstack([e[0] for e in envs])
    bits = np.concatenate([e[2] for e in envs])
    ens, outs = ensemble_forward(representation, classifiers, x)
    labels = np.concatenate([e[1] for e in envs])
    row = {"ens_train_acc": accuracy(ens, labels)}
    lo = 0
    for k, (features, env_labels, _) in enumerate(envs):
        hi = lo + features.shape[0]
        row[f"env{k}_risk"] = cross_entropy(ens[lo:hi], env_labels)
        lo = hi
    row["ens_spur_corr"] = correlation(np.argmax(ens, axis=1), bits)
    for k, out in enumerate(outs):
        row[f"w{k}_spur_corr"] = correlation(np.argmax(out, axis=1), bits)
    if test is not None:
        test_out, _ = ensemble_forward(representation, classifiers, test[0])
        row["test_acc"] = accuracy(test_out, test[1])
    return row


def agrees(text: str, value) -> bool:
    """True when a CSV cell written with 6 significant digits holds value."""
    if value is None:
        return text == ""
    if text == "":
        return False
    if f"{value:.6g}" == text:
        return True
    return abs(float(text) - value) <= 1e-5 * abs(value) + 1e-12


def read_csv(path) -> tuple:
    """Returns (header, rows); raises MalformedTrace on a short or long row."""
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    if not lines:
        raise MalformedTrace(f"{path}: empty file")
    header, rows = lines[0], lines[1:]
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedTrace(
                f"{path}: line {i} has {len(row)} fields under a "
                f"{len(header)}-column header"
            )
    return header, rows


def check_trace(path, owners, test_every: int, expected_last: dict) -> None:
    """Checks a trace CSV's shape, round-robin order and last row.

    owners is the full expected turn-owner sequence; expected_last maps
    column names to the independently computed values of the final row.
    """
    header, rows = read_csv(path)
    n_envs = sum(1 for col in header if col.endswith("_risk"))
    want = ["step", "turn_owner", "ens_train_acc"]
    want += [f"env{k}_risk" for k in range(n_envs)] + ["ens_spur_corr"]
    want += [f"w{k}_spur_corr" for k in range(n_envs)] + ["test_acc"]
    if header != want:
        raise Mismatch(f"{path}: header {header} != {want}")
    if len(rows) != len(owners):
        raise Mismatch(f"{path}: {len(rows)} rows, expected {len(owners)}")
    col = {name: i for i, name in enumerate(header)}
    for step, (row, owner) in enumerate(zip(rows, owners), start=1):
        if row[0] != str(step) or row[1] != owner:
            raise Mismatch(f"{path}: row {step} is ({row[0]}, {row[1]}), expected ({step}, {owner})")
        if (row[col["test_acc"]] != "") != (step % test_every == 0):
            raise Mismatch(f"{path}: row {step} test_acc presence breaks the every-{test_every} cadence")
    last = rows[-1]
    for name, value in expected_last.items():
        if not agrees(last[col[name]], value):
            raise Mismatch(f"{path}: last {name} {last[col[name]]!r} != {value:.6g}")


def check_results(path, accuracies: dict) -> None:
    """Checks results.csv against per-seed (train, test) accuracies per label.

    The table holds mean and sample standard deviation in percent, or n/a
    for the deviation of a single seed.
    """
    header, rows = read_csv(path)
    if header != ["method", "train_acc_mean", "train_acc_std", "test_acc_mean", "test_acc_std"]:
        raise Mismatch(f"{path}: unexpected header {header}")
    table = {row[0]: row[1:] for row in rows}
    if set(table) != set(accuracies):
        raise Mismatch(f"{path}: methods {sorted(table)} != {sorted(accuracies)}")
    for label, pairs in accuracies.items():
        pct = np.asarray(pairs, dtype=np.float64) * 100.0
        mean = pct.mean(axis=0)
        std = pct.std(axis=0, ddof=1) if len(pairs) > 1 else None
        cells = table[label]
        expected = [mean[0], None if std is None else std[0], mean[1], None if std is None else std[1]]
        for cell, value in zip(cells, expected):
            ok = cell == "n/a" if value is None else agrees(cell, value)
            if not ok:
                raise Mismatch(f"{path}: {label} cell {cell!r} != {value}")


def least_squares(features, targets) -> np.ndarray:
    """Ordinary least squares through the origin, by the normal equations."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return np.linalg.solve(x.T @ x, x.T @ y)
