"""Multi-environment spurious-correlation benchmarks and a linear SEM generator.

The image benchmark, COLORED_SHAPES, follows the paper's Colored MNIST
recipe on procedural shapes: binarize a preliminary label, flip it with
probability 0.25 to get the final label, then sample a spurious bit z by
flipping the final label with a per-environment probability p_e. The
spurious bit picks the image's color (red vs green channel). The test
environment reverses the correlation (p_e = 0.9 by default).

Every source image is 0/1 from generation on, held once, packed one bit a
pixel, with its colour bit; uint8 dense H*W*3 rows are built only where
read. The networks widen pixels to float64 a batch or a block of rows at a
time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import Rng

LABEL_NOISE = 0.25
DEFAULT_FLIP_PROBS = (0.2, 0.1, 0.9)

BENCHMARKS = ("COLORED_SHAPES",)


@dataclass
class LabeledImages:
    images: np.ndarray  # (n, H*W), uint8 0/1
    prelim_labels: np.ndarray  # (n,), values in {0, 1}
    height: int
    width: int

    def __post_init__(self):
        if self.images.ndim != 2 or self.images.shape[1] != self.height * self.width:
            raise ValueError("images must be (n, height*width)")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        if not np.isin(self.prelim_labels, (0, 1)).all():
            raise ValueError("preliminary labels must be binary")

    def take(self, idx: np.ndarray) -> "LabeledImages":
        return LabeledImages(self.images[idx], self.prelim_labels[idx], self.height, self.width)


@dataclass
class EnvironmentDataset:
    # (n, d), uint8 0/1 pixels; uint8 wraps under arithmetic
    # (1 - x is 0 or 255), so widen before computing with it
    features: np.ndarray
    labels: np.ndarray  # (n,), int
    spurious_bits: np.ndarray  # (n,), values in {0, 1}
    env_id: str
    flip_prob: float


_UNPACK_ROWS = 128  # rows unpacked at a time, so a read of many rows holds one small chunk


@dataclass(frozen=True)
class PackedMasks:
    """(n, width) uint8 0/1 masks held as np.packbits rows, ceil(width / 8) bytes each.

    Indexing (an integer, a slice, an index or boolean array) unpacks only
    the rows read, as indexing the dense masks would; `shape` and `dtype`
    are the dense masks'. The bits past width must be 0.
    """

    bits: np.ndarray  # (n, ceil(width / 8)) uint8, first pixel in the high bit
    width: int
    dtype = np.dtype(np.uint8)

    def __post_init__(self):
        padding = (1 << -self.width % 8) - 1
        if padding and np.any(self.bits[..., -1] & padding):
            raise ValueError(f"packed rows set bits past width {self.width}")

    @classmethod
    def stacked(cls, parts) -> "PackedMasks":
        """The parts' packed rows in order, stacked into one array."""
        widths = {p.width for p in parts}
        if len(widths) != 1:
            raise ValueError(f"masks of different widths {sorted(widths)} cannot be stacked")
        return cls(np.vstack([p.bits for p in parts]), widths.pop())

    @property
    def shape(self) -> tuple:
        return (self.bits.shape[0], self.width)

    def __getitem__(self, idx) -> np.ndarray:
        return np.unpackbits(self.bits[idx], axis=-1, count=self.width)


@dataclass
class ColorEnvironment:
    """A COLOR environment as held: each row's source image, packed, and its colour bit.

    A row's dense H*W*3 features hold its image in the red channel (0) when
    its bit is 1, in the green channel (1) when it is 0, zero elsewhere. Only
    rows read are built: indexing builds those rows, as indexing the dense
    array (whose shape and dtype these are) would; `features` builds all.
    The images are given as (n, H*W) 0/1 masks, packed on construction, or
    as PackedMasks, held as they are; `masks` unpacks them all.
    """

    packed: PackedMasks
    labels: np.ndarray  # (n,), int
    spurious_bits: np.ndarray  # (n,), 1 red, 0 green
    env_id: str
    flip_prob: float

    def __post_init__(self):
        if not isinstance(self.packed, PackedMasks):
            masks = np.asarray(self.packed)
            if masks.ndim != 2 or not np.isin(masks, (0, 1)).all():
                raise ValueError("masks must be (n, height*width) with 0/1 pixels")
            bits = np.packbits(masks.astype(np.uint8, copy=False), axis=1)
            self.packed = PackedMasks(bits, masks.shape[1])
        if not np.isin(self.spurious_bits, (0, 1)).all():
            raise ValueError("colour bits must be 0 (green) or 1 (red)")

    @property
    def masks(self) -> np.ndarray:
        return self.packed[:]

    @property
    def shape(self) -> tuple:
        return (self.packed.shape[0], 3 * self.packed.width)

    @property
    def dtype(self) -> np.dtype:
        return self.packed.dtype

    @property
    def features(self) -> np.ndarray:
        return self[:]

    def __getitem__(self, idx) -> np.ndarray:
        rows, bits = self.packed.bits[idx], self.spurious_bits[idx]
        if rows.ndim == 1:  # one row, by an integer
            return self[[idx]][0]
        n, width = rows.shape[0], self.packed.width
        rows = PackedMasks(rows, width)
        rgb = np.zeros((n, width, 3), np.uint8)
        for lo in range(0, n, _UNPACK_ROWS):  # unpacked a chunk at a time into the result
            at = slice(lo, lo + _UNPACK_ROWS)
            masks = rows[at]
            np.multiply(masks, (bits[at] == 1)[:, None], out=rgb[at, :, 0])
            np.multiply(masks, (bits[at] == 0)[:, None], out=rgb[at, :, 1])
        return rgb.reshape(n, 3 * width)


@dataclass
class Benchmark:
    """Training environments and a held-out test split; grayscale oracle splits on use.

    oracle_env (the training rows) and oracle_test (the test rows) train and
    score the oracle baseline: each is the masks unpacked in order, built on
    its first read and then kept.
    """

    train_envs: list
    test_env: ColorEnvironment

    @functools.cached_property
    def oracle_env(self) -> EnvironmentDataset:
        return _grayscale(self.train_envs, "oracle")

    @functools.cached_property
    def oracle_test(self) -> EnvironmentDataset:
        return _grayscale([self.test_env], "oracle_test")


def _grayscale(envs, env_id: str) -> EnvironmentDataset:
    """The masks of COLOR environments unpacked in order, with their labels and bits."""
    return EnvironmentDataset(
        PackedMasks.stacked([e.packed for e in envs])[:],
        np.concatenate([e.labels for e in envs]),
        np.concatenate([e.spurious_bits for e in envs]),
        env_id,
        float("nan"),
    )


_SHAPE_CHUNK = 256  # shapes masked per broadcast, so a chunk's float64 temporaries stay small


def synth_shapes(n: int, height: int, width: int, rng: Rng) -> LabeledImages:
    """Procedural circles (label 0) vs squares (label 1), binary uint8 pixels.

    Shapes have random center and scale but always fit inside the canvas
    and cover at least 16 pixels. Each shape's radius and center take the
    next three doubles of the geometry stream, so the shapes are those of
    drawing r, cy and cx shape by shape with `uniform`, bit for bit. Each
    shape gets only its own label's mask, built by broadcasting over
    _SHAPE_CHUNK shapes of that label at a time.
    """
    packed, labels = _shapes(n, height, width, rng, slice(None))
    return LabeledImages(packed[:], labels, height, width)


def _shapes(n: int, height: int, width: int, rng: Rng, order):
    """(PackedMasks, labels) of synth_shapes' n shapes with shape order[i] as row i.

    Each image is packed into its row a chunk of shapes at a time, so no
    dense copy of every image is made.
    """
    if height < 16 or width < 16:
        raise ValueError("canvas must be at least 16x16")
    labels = rng.child("class").integers(0, 2, size=n).astype(np.int64)[order]
    u = rng.child("geometry").random((n, 3))[order]
    min_r = 2.5  # circle of this radius fills >= 16 pixels
    max_r = (min(height, width) - 1) / 2.0 - 1.0
    # uniform(lo, hi) is lo + (hi - lo) * u, with hi - lo rounded first
    r = min_r + (max_r - min_r) * u[:, 0]
    cy = r + (height - 1 - r - r) * u[:, 1]
    cx = r + (width - 1 - r - r) * u[:, 2]
    pixels = height * width
    images = np.zeros((n, -(-pixels // 8)), dtype=np.uint8)
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    for label in (0, 1):
        rows = np.flatnonzero(labels == label)
        for lo in range(0, len(rows), _SHAPE_CHUNK):
            at = rows[lo : lo + _SHAPE_CHUNK]
            rr, dy, dx = r[at, None, None], ys - cy[at, None, None], xs - cx[at, None, None]
            if label == 0:
                mask = dy**2 + dx**2 <= rr * rr
            else:
                mask = (np.abs(dy) <= rr) & (np.abs(dx) <= rr)
            images[at] = np.packbits(mask.reshape(at.size, pixels), axis=1)
    return PackedMasks(images, pixels), labels


def make_spurious_env(
    src: LabeledImages,
    p_e: float,
    mode: str,
    rng: Rng,
    env_id: str = "env",
) -> ColorEnvironment:
    """Attach label noise and a spurious color channel to a grayscale source.

    Row order is preserved, and the environment holds the source images,
    packed, as its masks, with each row's colour bit z (red when z=1, green
    when z=0). mode must be "COLOR", the only spurious channel; the argument
    stays because callers, acceptance criterion 8 among them, pass it.
    """
    return _spurious_env(src.images, src.prelim_labels, p_e, mode, rng, env_id)


def _spurious_env(masks, prelim_labels, p_e, mode, rng, env_id) -> ColorEnvironment:
    """make_spurious_env on masks (0/1 or PackedMasks) and their preliminary labels."""
    if mode != "COLOR":
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must be a probability")
    n = prelim_labels.shape[0]
    y = prelim_labels ^ (rng.child("label_noise").random(n) < LABEL_NOISE)
    z = y ^ (rng.child("spurious").random(n) < p_e)
    return ColorEnvironment(masks, y.astype(np.int64), z.astype(np.int64), env_id, float(p_e))


def make_benchmark(
    name: str,
    sizes,
    seed: int,
    data_dir=None,
    flip_probs=DEFAULT_FLIP_PROBS,
    height: int = 16,
    width: int = 16,
) -> Benchmark:
    """Build train and test environments from disjoint source rows.

    sizes lists one count per environment; the last entry is the test
    environment (flip_probs likewise, default (0.2, 0.1, 0.9)). name must
    be "COLORED_SHAPES" and data_dir None, since no corpus is read from
    disk; both stay because perfbench/workloads.py passes them.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}")
    if data_dir is not None:
        raise ValueError(f"data_dir: {name} reads no corpus, got {data_dir!r}")
    if len(sizes) != len(flip_probs):
        raise ValueError("sizes and flip_probs must have equal length")
    total = int(sum(sizes))
    rng = Rng(seed)
    # the shapes are built in split order into one packed array, so each
    # environment's images are one run of its rows: every image is held once
    order = rng.child("split").permutation(total)
    packed, labels = _shapes(total, height, width, rng.child("shapes"), order)
    bounds = np.cumsum([0, *sizes])
    envs = []
    for i, p_e in enumerate(flip_probs):
        env_id = "test" if i == len(sizes) - 1 else f"env{i}"
        part = slice(bounds[i], bounds[i + 1])
        masks = PackedMasks(packed.bits[part], packed.width)
        envs.append(_spurious_env(masks, labels[part], p_e, "COLOR", rng.child(env_id), env_id))
    return Benchmark(envs[:-1], envs[-1])


@dataclass
class SemSpec:
    n_causal: int
    n_spurious: int
    gamma: np.ndarray
    alpha_per_env: list
    noise_sd: float
    samples_per_env: int

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.gamma.shape != (self.n_causal,):
            raise ValueError("gamma length must equal n_causal")
        if len(self.alpha_per_env) != len(set(self.alpha_per_env)):
            raise ValueError("spurious loadings must differ across environments")


@dataclass
class SemEnvironment:
    features: np.ndarray  # (n, n_causal + n_spurious); causal columns first
    targets: np.ndarray  # (n,), real-valued
    env_id: str
    alpha: float
    spurious_bits: np.ndarray = field(default=None)


def make_linear_sem(spec: SemSpec, rng: Rng):
    """Sample environments from Y = gamma . X_causal + noise.

    The spurious block is anti-causal: X_s = alpha_e * Y + standard normal,
    mirroring how the colored benchmarks sample color from the label.
    Returns (environments, gamma).
    """
    envs = []
    for i, alpha in enumerate(spec.alpha_per_env):
        r = rng.child(f"sem{i}")
        n = spec.samples_per_env
        x_causal = r.child("causal").normal(size=(n, spec.n_causal))
        eps = r.child("noise").normal(scale=max(spec.noise_sd, 1e-300), size=n)
        if spec.noise_sd == 0.0:
            eps = np.zeros(n)
        y = x_causal @ spec.gamma + eps
        x_spur = alpha * y[:, None] + r.child("spurious").normal(
            size=(n, spec.n_spurious)
        )
        envs.append(
            SemEnvironment(np.hstack([x_causal, x_spur]), y, f"sem{i}", float(alpha))
        )
    return envs, spec.gamma.copy()
