import numpy as np
import numpy.testing as npt
import pytest

from eirm import datasets
from eirm.baselines import pool_environments
from eirm.core import Rng
from eirm.datasets import (
    DEFAULT_FLIP_PROBS,
    ColorEnvironment,
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
    chunk = datasets._SHAPE_CHUNK
    n = 3 * chunk  # each label's masks: a full chunk and a ragged one
    for seed in (0, 3, 11):
        src = synth_shapes(n, height, width, Rng(seed))
        images, labels = _shapes_one_by_one(n, height, width, Rng(seed))
        for label in (0, 1):
            assert chunk < np.count_nonzero(labels == label) < 2 * chunk, (seed, label)
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


@pytest.mark.parametrize("height,width", [(16, 16), (20, 18), (20, 17)])
@pytest.mark.parametrize("seed", [0, 7])
def test_oracle_splits_equal_the_source_rows(seed, height, width):
    sizes = (150, 120, 90)
    bench = make_benchmark("COLORED_SHAPES", sizes, seed, height=height, width=width)
    # the oracle as it was built when the benchmark held it: the source
    # images in split order, with the colored environments' labels and bits
    rng = Rng(seed)
    src = synth_shapes(sum(sizes), height, width, rng.child("shapes"))
    rows = np.split(rng.child("split").permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    envs = [
        make_spurious_env(src.take(r), p_e, "COLOR", rng.child(env_id), env_id)
        for r, p_e, env_id in zip(rows, DEFAULT_FLIP_PROBS, ("env0", "env1", "test"))
    ]
    expected = {
        "oracle_env": (np.vstack([src.images[r] for r in rows[:-1]]), envs[:-1]),
        "oracle_test": (src.images[rows[-1]], envs[-1:]),
    }
    for name, (images, colored) in expected.items():
        split = getattr(bench, name)
        assert split.env_id == ("oracle" if name == "oracle_env" else name)
        assert split.features.dtype == np.uint8
        assert split.features.shape == images.shape
        assert split.features.tobytes() == images.tobytes(), name
        assert split.labels.tobytes() == np.concatenate([e.labels for e in colored]).tobytes()
        assert split.spurious_bits.tobytes() == (
            np.concatenate([e.spurious_bits for e in colored]).tobytes()
        )
        assert getattr(bench, name) is split  # derived once, then kept


def test_make_benchmark_holds_each_image_at_most_twice(peak_bytes):
    sizes = (2000, 2000, 2000)
    make_benchmark("COLORED_SHAPES", (10, 10, 10), 0)  # so one-time imports are not counted
    benches = []
    peak = peak_bytes(lambda: benches.append(make_benchmark("COLORED_SHAPES", sizes, 0)))
    b = benches[0]
    images = sum(sizes) * 16 * 16  # one uint8 copy of every image
    held = sum(sizes) * -(-16 * 16 // 8)  # every image packed, ceil(H*W / 8) bytes
    # every environment holds its images once, as packed masks with a colour
    # bit, and the shapes are built in split order, so no image is ever
    # copied; a grayscale copy is made only when the oracle is read
    envs = (*b.train_envs, b.test_env)
    assert sum(env.packed.bits.nbytes for env in envs) == held
    base = b.test_env.packed.bits.base  # one array of every packed image, in split order
    assert base.nbytes == held and all(env.packed.bits.base is base for env in envs)
    assert peak < 2 * images
    assert "oracle_env" not in vars(b) and "oracle_test" not in vars(b)


def test_reading_features_builds_only_the_dense_rows(peak_bytes):
    env = make_benchmark("COLORED_SHAPES", (2000, 10, 10), 0).train_envs[0]
    built = []
    peak = peak_bytes(lambda: built.append(env.features))
    features = built[0]
    assert features.shape == (2000, 768) and features.dtype == np.uint8
    assert peak < 1.05 * features.nbytes  # 1.46 MiB
    # the rows of an index are those of the dense array, built alone
    idx = np.array([5, 0, 1999, 5])
    assert env[idx].tobytes() == features[idx].tobytes()
    assert env[10:20].tobytes() == features[10:20].tobytes()
    assert env[np.arange(0)].shape == (0, 768)


def _source_rows(sizes, seed, height, width):
    """Each environment's (source images, dense rows) as built without packing."""
    rng = Rng(seed)
    src = synth_shapes(sum(sizes), height, width, rng.child("shapes"))
    rows = np.split(rng.child("split").permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    bench = make_benchmark("COLORED_SHAPES", sizes, seed, height=height, width=width)
    out = []
    for r, env in zip(rows, (*bench.train_envs, bench.test_env)):
        images, red = src.images[r], env.spurious_bits == 1
        dense = np.zeros((r.size, height * width, 3), np.uint8)
        dense[red, :, 0] = images[red]
        dense[~red, :, 1] = images[~red]
        out.append((images, dense.reshape(r.size, -1)))
    return bench, out


# 16 * 16 pixels pack into whole bytes; 20 * 17 = 340 leave 4 pad bits a row
PACKED_CANVASES = [(16, 16), (20, 17)]


@pytest.mark.parametrize("height,width", PACKED_CANVASES)
def test_packed_environments_read_as_their_dense_rows(height, width):
    sizes = (300, 200, 150)
    bench, sources = _source_rows(sizes, 4, height, width)
    n_bytes = -(-height * width // 8)
    rng = np.random.default_rng(0)
    for env, (images, dense) in zip((*bench.train_envs, bench.test_env), sources):
        n = images.shape[0]
        assert env.packed.bits.shape == (n, n_bytes) and env.packed.bits.dtype == np.uint8
        assert env.shape == dense.shape and env.dtype == dense.dtype
        assert env.masks.dtype == np.uint8 and env.masks.tobytes() == images.tobytes()
        features = env.features
        assert features.dtype == np.uint8 and features.tobytes() == dense.tobytes()
        for i in (0, -1):  # one row, by an integer, is the features row
            assert env[i].shape == (3 * height * width,)
            assert env[i].tobytes() == features[i].tobytes(), i
        indexes = [
            rng.integers(0, n, 300),  # repeats, more rows than one unpack chunk
            np.array([-1, 0, n - 1, 5, 5]),
            np.arange(0),
            slice(None),
            slice(10, 20),
            slice(None, None, -3),
            slice(n - 5, None),
            rng.random(n) < 0.4,
            0,
            -1,
            np.int64(n // 2),
        ]
        for idx in indexes:
            assert env[idx].shape == dense[idx].shape, idx
            assert env[idx].tobytes() == dense[idx].tobytes(), idx
            assert env.packed[idx].tobytes() == images[idx].tobytes(), idx


@pytest.mark.parametrize("height,width", PACKED_CANVASES)
def test_pooled_packed_environments_read_as_the_stacked_rows(height, width):
    bench, sources = _source_rows((120, 90, 60), 2, height, width)
    envs = [*bench.train_envs, bench.test_env]
    pooled = pool_environments(envs)
    assert isinstance(pooled, ColorEnvironment)
    assert pooled.packed.bits.shape == (270, -(-height * width // 8))
    assert pooled.masks.tobytes() == np.vstack([i for i, _ in sources]).tobytes()
    assert pooled.features.tobytes() == np.vstack([d for _, d in sources]).tobytes()
    assert pooled.labels.tobytes() == np.concatenate([e.labels for e in envs]).tobytes()
    assert pooled.spurious_bits.tobytes() == np.concatenate([e.spurious_bits for e in envs]).tobytes()
    other = make_benchmark("COLORED_SHAPES", (10, 10, 10), 2, height=height + 1, width=width)
    with pytest.raises(ValueError, match="widths"):
        pool_environments([envs[0], other.test_env])


def test_color_environment_packs_hand_built_masks():
    masks = np.zeros((3, 20), np.uint8)
    masks[0, [0, 19]] = masks[2, 9] = 1
    bits = np.array([1, 0, 0])
    for given in (masks, masks.astype(bool), masks.astype(np.float64)):
        env = ColorEnvironment(given, np.zeros(3, np.int64), bits, "hand", 0.1)
        assert env.packed.bits.shape == (3, 3)
        assert env.masks.tobytes() == masks.tobytes()
        assert env[0].reshape(20, 3)[:, 0].tolist() == masks[0].tolist()
        assert env[2].reshape(20, 3)[:, 1].tolist() == masks[2].tolist()
    for bad in (2 * masks, masks[0], masks - 0.5):
        with pytest.raises(ValueError, match="0/1"):
            ColorEnvironment(bad, np.zeros(3, np.int64), bits, "bad", 0.1)


def test_packed_masks_reject_bits_past_their_width():
    # width 5 uses the high 5 bits of one byte; 0b10100111 would read as 0b10100000
    ok = datasets.PackedMasks(np.array([[0b10100000], [0b11111000]], np.uint8), 5)
    assert ok[:].tolist() == [[1, 0, 1, 0, 0], [1, 1, 1, 1, 1]]
    for bad in (0b10100111, 0b00000001):
        with pytest.raises(ValueError, match="width 5"):
            datasets.PackedMasks(np.array([[0b10100000], [bad]], np.uint8), 5)
    # 12 pixels: the second byte's low 4 bits are padding
    datasets.PackedMasks(np.array([[0xFF, 0xF0]], np.uint8), 12)
    with pytest.raises(ValueError, match="width 12"):
        datasets.PackedMasks(np.array([[0xFF, 0xF8]], np.uint8), 12)
    datasets.PackedMasks(np.zeros((0, 2), np.uint8), 12)  # no rows, nothing set
    # masks packed on construction leave the padding 0
    env = ColorEnvironment(np.ones((2, 12), np.uint8), np.zeros(2, np.int64), np.ones(2), "ones", 0.1)
    assert env.packed.bits.tolist() == [[0xFF, 0xF0]] * 2


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
