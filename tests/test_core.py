import numpy as np
import numpy.testing as npt
import pytest

from eirm import core
from eirm.core import (
    Rng,
    _label_key,
    ShapeError,
    cross_entropy,
    mean_squared_error,
    pearson,
    softmax_rows,
)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(50, 4)) * 10
    p = softmax_rows(logits)
    npt.assert_allclose(p.sum(axis=1), np.ones(50), atol=1e-12)
    # adding a per-row constant must not change the output
    shifted = logits + rng.normal(size=(50, 1)) * 100
    npt.assert_allclose(softmax_rows(shifted), p, atol=1e-12)


def test_softmax_rows_extreme_logits_stay_finite():
    p = softmax_rows(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    assert np.all(np.isfinite(p))
    npt.assert_allclose(p, [[1.0, 0.0], [0.0, 1.0]], atol=1e-300)


def test_cross_entropy_known_values():
    # uniform predictions over two classes: mean NLL is log 2
    probs = np.full((8, 2), 0.5)
    labels = np.arange(8) % 2
    npt.assert_allclose(cross_entropy(probs, labels), np.log(2.0))
    # perfect predictions give zero loss
    perfect = np.eye(2)[labels]
    npt.assert_allclose(cross_entropy(perfect, labels), 0.0, atol=1e-10)


def test_cross_entropy_clamps_zero_probability():
    probs = np.array([[0.0, 1.0]])
    val = cross_entropy(probs, np.array([0]))
    assert np.isfinite(val)
    npt.assert_allclose(val, -np.log(1e-12))


def test_cross_entropy_rejects_out_of_range_labels():
    probs = np.full((4, 3), 1 / 3)
    with pytest.raises(IndexError):
        cross_entropy(probs, np.array([0, 1, 2, 3]))
    with pytest.raises(IndexError):
        cross_entropy(probs, np.array([0, -1, 2, 1]))


def test_mean_squared_error_basic():
    npt.assert_allclose(
        mean_squared_error(np.array([1.0, 2.0]), np.array([0.0, 0.0])), 2.5
    )
    with pytest.raises(ShapeError):
        mean_squared_error(np.zeros(3), np.zeros(4))


def test_pearson_matches_numpy_corrcoef():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        npt.assert_allclose(pearson(x, y), np.corrcoef(x, y)[0, 1], atol=1e-12)


def test_pearson_perfect_and_anti_correlation():
    x = np.linspace(0, 1, 10)
    npt.assert_allclose(pearson(x, 3 * x + 1), 1.0)
    npt.assert_allclose(pearson(x, -2 * x), -1.0)


def test_pearson_zero_variance_convention():
    x = np.ones(5)
    y = np.arange(5.0)
    assert pearson(x, y) == 0.0


def test_rng_same_seed_reproduces_streams():
    a = Rng(7).child("weights").normal(size=100)
    b = Rng(7).child("weights").normal(size=100)
    npt.assert_array_equal(a, b)


def test_rng_children_are_order_independent():
    r1 = Rng(3)
    first_a = r1.child("a").normal(size=10)
    _ = r1.child("b").normal(size=10)
    r2 = Rng(3)
    _ = r2.child("b").normal(size=10)
    second_a = r2.child("a").normal(size=10)
    npt.assert_array_equal(first_a, second_a)
    # draws from the parent do not perturb children either
    r3 = Rng(3)
    _ = r3.normal(size=1000)
    npt.assert_array_equal(r3.child("a").normal(size=10), first_a)


def test_rng_distinct_labels_give_distinct_streams():
    r = Rng(0)
    seen = set()
    for label in ("a", "b", "c", "aa", "a/b", "b/a"):
        seen.add(tuple(r.child(label).integers(0, 1_000_000, size=4).tolist()))
    assert len(seen) == 6


def test_rng_nested_children_reproducible():
    x = Rng(11).child("outer").child("inner").uniform(0, 1, size=5)
    y = Rng(11).child("outer").child("inner").uniform(0, 1, size=5)
    npt.assert_array_equal(x, y)



def test_rng_child_draws_equal_an_eagerly_built_generators(monkeypatch):
    # a stream's generator is built on its first draw, from the SeedSequence of
    # (seed, label keys), so its draws are those of a generator built up front
    def eager(seed, *labels):
        path = [_label_key(label) for label in labels] or [0]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))

    for parent_draws_first in (False, True):
        parent, ref = Rng(5), eager(5)
        if parent_draws_first:
            npt.assert_array_equal(parent.normal(size=3), ref.normal(size=3))
        child, ref_child = parent.child("a").child("b"), eager(5, "a", "b")
        npt.assert_array_equal(child.random(7), ref_child.random(7))
        npt.assert_array_equal(child.integers(0, 100, size=4), ref_child.integers(0, 100, size=4))
        npt.assert_array_equal(parent.permutation(9), ref.permutation(9))

    # a child hashes its label only when it draws or derives a child
    hashed = []
    monkeypatch.setattr(core, "_label_key", lambda label: hashed.append(label) or _label_key(label))
    for draws_first in (False, True):
        hashed.clear()
        lazy = Rng(5).child("lazy")
        assert hashed == []
        if draws_first:
            npt.assert_array_equal(lazy.random(5), eager(5, "lazy").random(5))
        grandchildren = [lazy.child("g0").child("x"), lazy.child("g1")]
        assert hashed == ["lazy", "g0"]
        npt.assert_array_equal(grandchildren[0].normal(size=4), eager(5, "lazy", "g0", "x").normal(size=4))
        npt.assert_array_equal(grandchildren[1].integers(0, 100, size=6),
                               eager(5, "lazy", "g1").integers(0, 100, size=6))
        if not draws_first:
            npt.assert_array_equal(lazy.random(5), eager(5, "lazy").random(5))
        assert hashed == ["lazy", "g0", "x", "g1"]
