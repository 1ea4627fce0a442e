"""Seeded randomness, losses, statistics, and the package's error types.

Everything downstream (networks, datasets, the ensemble game) is built on
the handful of primitives in this module. The losses and statistics work on
float64 numpy arrays and guarantee finite outputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

LOG_CLAMP = 1e-12  # floor applied to probabilities before log


class ShapeError(ValueError):
    """Raised when operand dimensions are inconsistent."""


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by per-row max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under row probabilities.

    Probabilities are clamped below at LOG_CLAMP so saturated predictions
    stay finite.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError("label out of range")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_CLAMP))))


def mean_squared_error(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; returns 0 when either input is constant.

    The zero-variance convention keeps correlation traces NaN-free.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ShapeError("need at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc * xc))
    sy = np.sqrt(np.sum(yc * yc))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.clip(np.sum(xc * yc) / (sx * sy), -1.0, 1.0))


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Seeded random stream with order-independent child derivation.

    A child stream is keyed by (seed, label path), so drawing from one
    child never perturbs another. The same seed reproduces identical
    streams across runs and platforms (PCG64). The PCG64 generator is built
    on the first draw (`np`), not with the stream: most streams only derive
    children or are never drawn from (a dropout stream at rate 0), and
    building one costs tens of microseconds.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self._path = _path
        self._np = None

    @property
    def np(self) -> np.random.Generator:
        if self._np is None:
            self._np = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([self.seed, *(self._path or (0,))]))
            )
        return self._np

    def child(self, label: str) -> "Rng":
        return Rng(self.seed, self._path + (_label_key(label),))

    # thin delegations for the draws the codebase actually uses
    def uniform(self, lo, hi, size=None):
        return self.np.uniform(lo, hi, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.np.normal(loc, scale, size)

    def random(self, size=None):
        return self.np.random(size)

    def integers(self, lo, hi=None, size=None):
        return self.np.integers(lo, hi, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.np.permutation(n)
