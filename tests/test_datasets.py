import numpy as np
import numpy.testing as npt
import pytest

from eirm import datasets
from eirm.core import Rng
from eirm.datasets import (
    DEFAULT_FLIP_PROBS,
    SemSpec,
    make_benchmark,
    make_linear_sem,
    make_spurious_env,
    synth_shapes,
)


def test_synth_shapes_properties():
    src = synth_shapes(50, 16, 16, Rng(0))
    assert src.images.shape == (50, 256)
    assert set(np.unique(src.images)) <= {0.0, 1.0}
    # every shape covers at least 16 pixels and stays inside the canvas
    for img in src.images:
        assert img.sum() >= 16
    assert set(np.unique(src.prelim_labels)) == {0, 1}


def _shapes_one_by_one(n, height, width, rng):
    """The per-shape loop synth_shapes replaced: three uniform draws, then one mask, per shape."""
    images = np.zeros((n, height, width))
    labels = rng.child("class").integers(0, 2, size=n).astype(np.int64)
    r_rng = rng.child("geometry")
    ys, xs = np.mgrid[0:height, 0:width]
    max_r = (min(height, width) - 1) / 2.0 - 1.0
    for i in range(n):
        r = r_rng.uniform(2.5, max_r)
        cy = r_rng.uniform(r, height - 1 - r)
        cx = r_rng.uniform(r, width - 1 - r)
        if labels[i] == 0:
            images[i] = (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r
        else:
            images[i] = (np.abs(ys - cy) <= r) & (np.abs(xs - cx) <= r)
    return images.reshape(n, height * width), labels


@pytest.mark.parametrize("height,width", [(16, 16), (20, 17), (28, 28)])
def test_synth_shapes_equal_the_per_shape_loop(height, width):
    n = datasets._SHAPE_CHUNK + 37  # a full chunk and a ragged one
    for seed in (0, 3, 11):
        src = synth_shapes(n, height, width, Rng(seed))
        images, labels = _shapes_one_by_one(n, height, width, Rng(seed))
        assert src.images.dtype == np.uint8
        assert np.array_equal(src.images, images)
        assert src.prelim_labels.tobytes() == labels.tobytes()


def test_synth_shapes_deterministic():
    a = synth_shapes(20, 16, 16, Rng(5))
    b = synth_shapes(20, 16, 16, Rng(5))
    npt.assert_array_equal(a.images, b.images)
    npt.assert_array_equal(a.prelim_labels, b.prelim_labels)


def test_spurious_env_color_channel_exclusive():
    src = synth_shapes(100, 16, 16, Rng(1))
    env = make_spurious_env(src, 0.2, "COLOR", Rng(2))
    rgb = env.features.reshape(100, 256, 3)
    # blue channel unused; red xor green per image depending on z
    assert np.all(rgb[:, :, 2] == 0)
    for i in range(100):
        if env.spurious_bits[i] == 1:
            npt.assert_array_equal(rgb[i, :, 0], src.images[i])
            assert rgb[i, :, 1].sum() == 0
        else:
            npt.assert_array_equal(rgb[i, :, 1], src.images[i])
            assert rgb[i, :, 0].sum() == 0
    # color is the only spurious channel
    with pytest.raises(ValueError, match="PATCH"):
        make_spurious_env(src, 0.2, "PATCH", Rng(2))


def test_label_flip_rate_within_3_sigma():
    n = 30_000
    src = synth_shapes(200, 16, 16, Rng(6))
    big = src.take(np.zeros(n, dtype=int))  # replicate rows; flips are i.i.d.
    env = make_spurious_env(big, 0.2, "COLOR", Rng(7))
    flips = np.mean(env.labels != big.prelim_labels)
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(flips - 0.25) < 3 * sigma


@pytest.mark.parametrize("p_e", [0.2, 0.1, 0.9])
def test_spurious_flip_rate_within_3_sigma(p_e):
    n = 30_000
    src = synth_shapes(100, 16, 16, Rng(8))
    big = src.take(np.zeros(n, dtype=int))
    env = make_spurious_env(big, p_e, "COLOR", Rng(9))
    rate = np.mean(env.spurious_bits != env.labels)
    sigma = np.sqrt(p_e * (1 - p_e) / n)
    assert abs(rate - p_e) < 3 * sigma


def test_make_benchmark_shapes_and_disjointness():
    bench = make_benchmark("COLORED_SHAPES", (300, 200, 100), 0)
    train, test, oracle = bench.train_envs, bench.test_env, bench.oracle_env
    assert len(train) == 2
    assert train[0].features.shape == (300, 16 * 16 * 3)
    assert train[1].features.shape == (200, 16 * 16 * 3)
    assert test.features.shape == (100, 16 * 16 * 3)
    assert oracle.features.shape == (500, 16 * 16)
    assert bench.oracle_test.features.shape == (100, 16 * 16)
    # binary pixels stay one byte, oracle splits too
    for env in (*train, test, oracle, bench.oracle_test):
        assert env.features.dtype == np.uint8, env.env_id
    npt.assert_array_equal(
        [e.flip_prob for e in train] + [test.flip_prob], DEFAULT_FLIP_PROBS
    )
    # grayscale oracle rows carry the environments' noisy labels
    npt.assert_array_equal(
        oracle.labels, np.concatenate([train[0].labels, train[1].labels])
    )


def test_make_benchmark_builds_no_float64_copy(peak_bytes):
    benches = []
    peak = peak_bytes(lambda: benches.append(make_benchmark("COLORED_SHAPES", (2000, 2000, 2000), 0)))
    b = benches[0]
    envs = (*b.train_envs, b.test_env, b.oracle_env, b.oracle_test)
    as_float64 = sum(env.features.size * 8 for env in envs)  # 46.9 MiB
    assert peak < as_float64 / 2


def test_make_benchmark_deterministic():
    a = make_benchmark("COLORED_SHAPES", (100, 100, 100), 42)
    b = make_benchmark("COLORED_SHAPES", (100, 100, 100), 42)
    for ea, eb in zip(a.train_envs, b.train_envs):
        npt.assert_array_equal(ea.features, eb.features)
        npt.assert_array_equal(ea.labels, eb.labels)
        npt.assert_array_equal(ea.spurious_bits, eb.spurious_bits)
    npt.assert_array_equal(a.test_env.features, b.test_env.features)


def test_make_benchmark_takes_only_colored_shapes_and_no_data_dir():
    with pytest.raises(ValueError, match="COLORED_DIGITS"):
        make_benchmark("COLORED_DIGITS", (10, 10, 10), 0)
    with pytest.raises(ValueError, match="data_dir"):
        make_benchmark("COLORED_SHAPES", (10, 10, 10), 0, data_dir="x")


def test_linear_sem_recovers_gamma_by_ols():
    gamma = np.array([1.0, -0.5, 0.25])
    spec = SemSpec(3, 2, gamma, [1.0, -0.3], 0.5, 20_000)
    envs, got = make_linear_sem(spec, Rng(13))
    npt.assert_array_equal(got, gamma)
    for env in envs:
        x, y = env.features[:, :3], env.targets
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        npt.assert_allclose(coef, gamma, atol=0.02)


def test_linear_sem_spurious_is_anticausal():
    spec = SemSpec(2, 1, [1.0, 1.0], [2.0, -2.0], 0.0, 5_000)
    envs, _ = make_linear_sem(spec, Rng(14))
    for env, alpha in zip(envs, (2.0, -2.0)):
        resid = env.features[:, 2] - alpha * env.targets
        # what's left after removing alpha*y is unit Gaussian noise
        assert abs(resid.mean()) < 0.05
        assert abs(resid.std() - 1.0) < 0.05


def test_sem_spec_requires_distinct_alphas():
    with pytest.raises(ValueError):
        SemSpec(2, 1, [1.0, 1.0], [0.5, 0.5], 1.0, 100)
