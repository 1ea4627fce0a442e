"""Multi-environment spurious-correlation benchmarks and a linear SEM generator.

The image benchmark, COLORED_SHAPES, follows the paper's Colored MNIST
recipe on procedural shapes: binarize a preliminary label, flip it with
probability 0.25 to get the final label, then sample a spurious bit z by
flipping the final label with a per-environment probability p_e. The
spurious bit picks the image's color (red vs green channel). The test
environment reverses the correlation (p_e = 0.9 by default).

Every source image is uint8 0/1 from generation on (one byte where float64
takes eight). The networks widen pixels to float64 a batch or a block of
rows at a time.
"""

from __future__ import annotations

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
        return LabeledImages(
            self.images[idx], self.prelim_labels[idx], self.height, self.width
        )


@dataclass
class EnvironmentDataset:
    # (n, d), uint8 0/1 pixels; uint8 wraps under arithmetic
    # (1 - x is 0 or 255), so widen before computing with it
    features: np.ndarray
    labels: np.ndarray  # (n,), int
    spurious_bits: np.ndarray  # (n,), values in {0, 1}
    env_id: str
    flip_prob: float


@dataclass
class Benchmark:
    """Training environments plus held-out test and grayscale-oracle splits.

    oracle_test is the grayscale variant of the test rows, used to score
    the oracle baseline.
    """

    train_envs: list
    test_env: EnvironmentDataset
    oracle_env: EnvironmentDataset
    oracle_test: EnvironmentDataset


_SHAPE_CHUNK = 2048  # shapes masked per broadcast, so a chunk's float64 temporaries stay small


def synth_shapes(n: int, height: int, width: int, rng: Rng) -> LabeledImages:
    """Procedural circles (label 0) vs squares (label 1), binary uint8 pixels.

    Shapes have random center and scale but always fit inside the canvas
    and cover at least 16 pixels. Each shape's radius and center take the
    next three doubles of the geometry stream, so the shapes are those of
    drawing r, cy and cx shape by shape with `uniform`, bit for bit. The
    masks are built by broadcasting, _SHAPE_CHUNK shapes at a time.
    """
    if height < 16 or width < 16:
        raise ValueError("canvas must be at least 16x16")
    images = np.zeros((n, height, width), dtype=np.uint8)
    labels = rng.child("class").integers(0, 2, size=n).astype(np.int64)
    u = rng.child("geometry").random((n, 3))
    min_r = 2.5  # circle of this radius fills >= 16 pixels
    max_r = (min(height, width) - 1) / 2.0 - 1.0
    # uniform(lo, hi) is lo + (hi - lo) * u, with hi - lo rounded first
    r = min_r + (max_r - min_r) * u[:, 0]
    cy = r + (height - 1 - r - r) * u[:, 1]
    cx = r + (width - 1 - r - r) * u[:, 2]
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    for lo in range(0, n, _SHAPE_CHUNK):
        at = slice(lo, lo + _SHAPE_CHUNK)
        rr, dy, dx = r[at, None, None], ys - cy[at, None, None], xs - cx[at, None, None]
        circles = dy**2 + dx**2 <= rr * rr
        squares = (np.abs(dy) <= rr) & (np.abs(dx) <= rr)
        images[at] = np.where(labels[at, None, None] == 0, circles, squares)
    return LabeledImages(images.reshape(n, height * width), labels, height, width)


def make_spurious_env(
    src: LabeledImages,
    p_e: float,
    mode: str,
    rng: Rng,
    env_id: str = "env",
) -> EnvironmentDataset:
    """Attach label noise and a spurious color channel to a grayscale source.

    Row order is preserved, so callers can align outputs with the source,
    and the features keep the source images' dtype. The features are H*W*3
    wide, with the grayscale in the red channel when z=1 and the green
    channel when z=0. mode must be "COLOR", the only spurious channel; the
    argument stays because callers, acceptance criterion 8 among them, pass it.
    """
    if mode != "COLOR":
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must be a probability")
    n = src.images.shape[0]
    h, w = src.height, src.width
    y = src.prelim_labels ^ (rng.child("label_noise").random(n) < LABEL_NOISE)
    z = y ^ (rng.child("spurious").random(n) < p_e)
    y = y.astype(np.int64)
    z = z.astype(np.int64)

    rgb = np.zeros((n, h * w, 3), dtype=src.images.dtype)
    rgb[z == 1, :, 0] = src.images[z == 1]
    rgb[z == 0, :, 1] = src.images[z == 0]
    return EnvironmentDataset(rgb.reshape(n, h * w * 3), y, z, env_id, float(p_e))


def make_benchmark(
    name: str,
    sizes,
    seed: int,
    data_dir=None,
    flip_probs=DEFAULT_FLIP_PROBS,
    height: int = 16,
    width: int = 16,
) -> Benchmark:
    """Build train/test/oracle environments from disjoint source rows.

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
    src = synth_shapes(total, height, width, rng.child("shapes"))
    perm = rng.child("split").permutation(total)

    envs = []
    offset = 0
    for i, (size, p_e) in enumerate(zip(sizes, flip_probs)):
        rows = perm[offset : offset + size]
        offset += size
        env_id = "test" if i == len(sizes) - 1 else f"env{i}"
        sub = src.take(rows)
        envs.append(
            (make_spurious_env(sub, p_e, "COLOR", rng.child(env_id), env_id), sub)
        )

    train = [e for e, _ in envs[:-1]]
    test_env, test_src = envs[-1]
    oracle_env = EnvironmentDataset(
        np.vstack([s.images for _, s in envs[:-1]]),
        np.concatenate([e.labels for e, _ in envs[:-1]]),
        np.concatenate([e.spurious_bits for e, _ in envs[:-1]]),
        "oracle",
        float("nan"),
    )
    oracle_test = EnvironmentDataset(
        test_src.images, test_env.labels, test_env.spurious_bits, "oracle_test",
        float("nan"),
    )
    return Benchmark(train, test_env, oracle_env, oracle_test)


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
