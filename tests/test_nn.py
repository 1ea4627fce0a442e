import struct

import numpy as np
import numpy.testing as npt
import pytest

from eirm import nn
from eirm.core import Rng, FormatError, ShapeError, softmax_rows


def _toy_batch(rng, n=12, d=5, classes=3):
    x = rng.normal(size=(n, d))
    y = rng.np.integers(0, classes, size=n)
    return x, y


def test_make_mlp_glorot_bounds_and_linear_output():
    net = nn.make_mlp((10, 20, 3), Rng(0), l2_coeff=0.1, dropout_rate=0.5)
    limit0 = np.sqrt(6.0 / (10 + 20))
    assert np.all(np.abs(net.layers[0].weights) <= limit0)
    assert net.layers[0].activation == "elu"
    assert net.layers[-1].activation == "linear"
    # regularization and dropout apply to hidden layers only
    assert net.layers[0].l2_coeff == 0.1 and net.layers[-1].l2_coeff == 0.0
    assert net.layers[0].dropout_rate == 0.5 and net.layers[-1].dropout_rate == 0.0
    npt.assert_array_equal(net.layers[0].bias, np.zeros(20))


def test_mlp_rejects_mismatched_layer_dims():
    l1 = nn.DenseLayer(np.zeros((3, 4)), np.zeros(4))
    l2 = nn.DenseLayer(np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        nn.Mlp([l1, l2])


def test_forward_linear_net_is_matrix_product():
    w = np.arange(6.0).reshape(3, 2)
    b = np.array([1.0, -1.0])
    net = nn.Mlp([nn.DenseLayer(w, b)])
    x = np.arange(12.0).reshape(4, 3)
    out, _ = nn.forward(net, x)
    npt.assert_allclose(out, x @ w + b)


def test_forward_rejects_wrong_width():
    net = nn.make_mlp((4, 2), Rng(0))
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros((3, 5)))


def test_elu_values():
    layer = nn.DenseLayer(np.eye(1), np.zeros(1), "elu")
    net = nn.Mlp([layer])
    x = np.array([[-2.0], [0.0], [3.0]])
    out, _ = nn.forward(net, x)
    npt.assert_allclose(out, [[np.expm1(-2.0)], [0.0], [3.0]])


def _masked_elu(pre):
    out = pre.copy()
    neg = pre < 0
    out[neg] = nn.ELU_ALPHA * np.expm1(pre[neg])
    return out


def _masked_elu_grad(pre, post):
    grad = np.ones_like(pre)
    neg = pre < 0
    grad[neg] = post[neg] + nn.ELU_ALPHA
    return grad


def test_elu_matches_masked_indexing_bit_for_bit():
    edge = [-0.0, 0.0, 1e-300, -1e-300, 50.0, -50.0, np.inf, -np.inf, np.nan, -np.nan]
    rng = Rng(3)
    pre = np.concatenate([np.array(edge * 4), rng.normal(scale=5.0, size=960)]).reshape(25, 40)
    post = nn._activate(pre, "elu")
    assert post.tobytes() == _masked_elu(pre).tobytes()
    keep = 0.25
    mask = (rng.child("drop").random(pre.shape) < keep) / keep
    with np.errstate(invalid="ignore"):  # a dropped inf unit is NaN
        dropped = post * mask
    for p in (post, dropped):  # backward passes the post-dropout value
        assert nn._activate_grad(pre, p, "elu").tobytes() == _masked_elu_grad(pre, p).tobytes()


def test_loss_grad_logits_identity():
    # gradient of mean NLL w.r.t. logits is (softmax - onehot) / batch
    rng = Rng(1)
    logits = rng.normal(size=(16, 4))
    y = rng.np.integers(0, 4, size=16)
    p = softmax_rows(logits)
    onehot = np.eye(4)[y]
    npt.assert_allclose(
        nn.loss_grad_logits(p, y), (p - onehot) / 16.0, atol=1e-8
    )


def test_finite_diff_small_elu_net():
    rng = Rng(2)
    x, y = _toy_batch(rng)
    net = nn.make_mlp((5, 8, 3), rng.child("net"), l2_coeff=0.01)
    assert nn.finite_diff_check(net, x, y) < 1e-5


def test_finite_diff_relu_net_excludes_kinks():
    rng = Rng(3)
    x, y = _toy_batch(rng)
    net = nn.make_mlp((5, 8, 3), rng.child("net"), hidden_activation="relu")
    assert nn.finite_diff_check(net, x, y) < 1e-5


def test_finite_diff_deep_net_with_l2():
    rng = Rng(4)
    x, y = _toy_batch(rng, n=8)
    net = nn.make_mlp((5, 6, 6, 3), rng.child("net"), l2_coeff=1.25e-3)
    assert nn.finite_diff_check(net, x, y) < 1e-5


def test_backward_l2_term_is_analytic():
    # with zero data gradient the weight gradient is exactly 2 * l2 * W
    net = nn.make_mlp((3, 4, 2), Rng(5), l2_coeff=0.25)
    x = np.zeros((2, 3))
    out, cache = nn.forward(net, x)
    grads, _ = nn.backward(net, cache, np.zeros_like(out))
    npt.assert_allclose(grads[0], 2 * 0.25 * net.layers[0].weights)
    npt.assert_allclose(grads[1], np.zeros(4))


def test_dropout_keep_fraction_monte_carlo():
    rate = 0.75
    layer = nn.DenseLayer(np.eye(1), np.zeros(1), "linear", dropout_rate=rate)
    net = nn.Mlp([layer])
    x = np.ones((200, 1))
    rng = Rng(6)
    kept = []
    for i in range(200):
        out, _ = nn.forward(net, x, train_mode=True, rng=rng.child(f"t{i}"))
        kept.append(np.mean(out != 0))
    assert abs(np.mean(kept) - (1 - rate)) < 0.01
    # surviving units carry inverted scaling 1 / keep
    out, _ = nn.forward(net, x, train_mode=True, rng=rng.child("scale"))
    nonzero = out[out != 0]
    npt.assert_allclose(nonzero, 1.0 / (1 - rate))


def test_dropout_off_at_inference():
    net = nn.make_mlp((4, 16, 2), Rng(7), dropout_rate=0.9)
    x = Rng(8).normal(size=(5, 4))
    a, _ = nn.forward(net, x, train_mode=False)
    b, _ = nn.forward(net, x, train_mode=False)
    npt.assert_array_equal(a, b)


def test_adam_first_step_is_signed_lr():
    # after one step with fresh state the update is ~ -lr * sign(g)
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -0.1, 2.0])
    state = nn.AdamState.for_params([p], lr=0.01)
    before = p.copy()
    nn.adam_step(state, [p], [g])
    npt.assert_allclose(p - before, -0.01 * np.sign(g), rtol=1e-6)


def test_adam_converges_on_quadratic():
    p = np.array([5.0])
    state = nn.AdamState.for_params([p], lr=0.1)
    for _ in range(500):
        nn.adam_step(state, [p], [2.0 * (p - 1.5)])
    npt.assert_allclose(p, [1.5], atol=1e-3)


def test_adam_rejects_mismatched_grads():
    p = np.zeros(3)
    state = nn.AdamState.for_params([p])
    with pytest.raises(ShapeError):
        nn.adam_step(state, [p], [np.zeros(4)])


def test_checkpoint_roundtrip_bitexact(tmp_path):
    net = nn.make_mlp((6, 9, 4), Rng(9), l2_coeff=1.25e-3, dropout_rate=0.75)
    path = tmp_path / "model.eirm"
    nn.save_model(net, path)
    loaded = nn.load_model(path)
    assert len(loaded.layers) == len(net.layers)
    for a, b in zip(net.layers, loaded.layers):
        npt.assert_array_equal(a.weights, b.weights)
        npt.assert_array_equal(a.bias, b.bias)
        assert a.activation == b.activation
        assert a.l2_coeff == b.l2_coeff
        assert a.dropout_rate == b.dropout_rate


def test_checkpoint_magic_and_version_checked(tmp_path):
    path = tmp_path / "bad.eirm"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError):
        nn.load_model(path)
    net = nn.make_mlp((2, 2), Rng(0))
    good = tmp_path / "good.eirm"
    nn.save_model(net, good)
    raw = bytearray(good.read_bytes())
    raw[4] = 99  # bump version field
    bad = tmp_path / "vers.eirm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        nn.load_model(bad)


def test_checkpoint_truncated_or_corrupt_is_format_error(tmp_path):
    path = tmp_path / "model.eirm"
    nn.save_model(nn.make_mlp((3, 4, 2), Rng(1)), path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.eirm"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            nn.load_model(cut)
    bad = bytearray(raw)
    bad[12 + 16 : 12 + 24] = struct.pack("<d", 7.0)  # layer 0 activation code
    cut.write_bytes(bytes(bad))
    with pytest.raises(FormatError, match="activation"):
        nn.load_model(cut)


def test_loaded_model_same_predictions(tmp_path):
    rng = Rng(10)
    net = nn.make_mlp((5, 7, 2), rng, l2_coeff=0.01)
    x = rng.child("x").normal(size=(20, 5))
    before, _ = nn.forward(net, x)
    path = tmp_path / "m.eirm"
    nn.save_model(net, path)
    after, _ = nn.forward(nn.load_model(path), x)
    npt.assert_array_equal(before, after)
