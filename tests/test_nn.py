import threading

import numpy as np
import numpy.testing as npt
import pytest

from eirm import nn
from eirm.core import Rng, ShapeError, softmax_rows


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


def test_predict_equals_forward_bit_for_bit():
    edge = [np.nan, np.inf, -np.inf, -0.0, 1e-300, -1e-300]
    rng = Rng(11)
    x = rng.normal(scale=3.0, size=(40, 6))
    x[:6] = edge  # all six edge values in one row
    x[6:12] = np.diag(edge)  # one edge value per row
    for kind in nn.ACTIVATIONS:
        net = nn.make_mlp((6, 8, 8, 3), rng.child(kind), hidden_activation=kind, dropout_rate=0.5)
        for i, layer in enumerate(net.layers):
            layer.bias[:] = rng.child(f"{kind}{i}").normal(size=layer.out_dim)
        with np.errstate(invalid="ignore", over="ignore"):
            expected, _ = nn.forward(net, x)
            assert nn.predict(net, x).tobytes() == expected.tobytes(), kind


def test_predict_rejects_the_batches_forward_rejects():
    net = nn.make_mlp((4, 3, 2), Rng(0))
    for bad in (np.zeros((3, 5)), np.zeros(4), np.zeros((2, 4, 1))):
        with pytest.raises(ShapeError) as by_forward:
            nn.forward(net, bad)
        with pytest.raises(ShapeError) as by_predict:
            nn.predict(net, bad)
        assert str(by_predict.value) == str(by_forward.value)


def test_predict_keeps_no_layer_outputs(peak_bytes):
    net = nn.make_mlp((768, 64, 64, 2), Rng(5))
    x = Rng(6).normal(size=(4000, 768))
    layer_output = x.shape[0] * 64 * x.itemsize
    by_forward = peak_bytes(lambda: nn.forward(net, x))
    by_predict = peak_bytes(lambda: nn.predict(net, x))
    assert by_predict <= by_forward - layer_output


def _block_rows(width):
    return nn._BLOCK_BYTES // (8 * width)


def test_predict_stacks_forward_over_row_blocks_bit_for_bit():
    rng = Rng(12)
    block = _block_rows(390)
    x = rng.normal(scale=2.0, size=(3 * block + 101, 7))  # three blocks and a ragged one
    for kind in nn.ACTIVATIONS:
        net = nn.make_mlp((7, 390, 390, 2), rng.child(kind), hidden_activation=kind)
        for i, layer in enumerate(net.layers):
            layer.bias[:] = rng.child(f"{kind}{i}").normal(size=layer.out_dim)
        stacked = np.vstack([nn.forward(net, x[lo : lo + block])[0]
                             for lo in range(0, x.shape[0], block)])
        assert nn.predict(net, x).tobytes() == stacked.tobytes(), kind


def test_predict_peak_memory_is_a_few_blocks_whatever_the_rows(peak_bytes):
    net = nn.make_mlp((16, 390, 390, 2), Rng(7))
    beyond_output = []
    for n in (10000, 20000):
        x = Rng(8).normal(size=(n, 16))
        beyond_output.append(peak_bytes(lambda: nn.predict(net, x)) - n * 2 * x.itemsize)
    assert beyond_output[1] <= 3 * nn._BLOCK_BYTES  # one unblocked layer output is 62 MB
    assert abs(beyond_output[1] - beyond_output[0]) <= 4096


def test_predict_widens_a_byte_batch_block_by_block(peak_bytes):
    net = nn.make_mlp((768, 390, 2), Rng(11))
    n = 6 * _block_rows(390) + 57  # six blocks and a ragged one
    pixels = (Rng(12).random((n, 768)) < 0.1).astype(np.uint8)
    wide = pixels.astype(np.float64)
    assert nn.predict(net, pixels).tobytes() == nn.predict(net, wide).tobytes()
    # the blocks are those of the float64 copy, which is never built
    assert peak_bytes(lambda: nn.predict(net, pixels)) < wide.nbytes / 2


def test_desk_widths_run_as_one_block(monkeypatch):
    blocks = []

    def counted(net, x, *work):
        blocks.append(x.shape[0])
        return run(net, x, *work)

    run = nn._predict_block
    monkeypatch.setattr(nn, "_predict_block", counted)
    net = nn.make_mlp((392, 64, 64, 2), Rng(9))
    rows = _block_rows(64)
    assert rows == 4096  # above every desk pool (at most 4000 rows) and test split
    x = Rng(10).normal(size=(rows, 392))
    assert nn.predict(net, x).tobytes() == nn.forward(net, x)[0].tobytes()
    assert blocks == [rows]
    nn.predict(net, np.vstack([x, x[:1]]))
    assert blocks == [rows, rows, 1]


def _two_cpus_no_threads(monkeypatch):
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0, 1})

    def started(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading, "Thread", started)


def test_predict_parts_of_one_block_runs_predict_per_part_on_the_caller(monkeypatch):
    rows = _block_rows(390)
    nets = [nn.make_mlp((9, 390, 2), Rng(13)), nn.make_mlp((4, 390, 2), Rng(14))]
    pixels = (Rng(15).random((rows - 100, 9)) < 0.3).astype(np.uint8)
    parts = [(nets[0], pixels), (nets[1], Rng(16).normal(size=(100, 4)))]
    stacked = np.vstack([nn.predict(net, x) for net, x in parts])
    _two_cpus_no_threads(monkeypatch)
    calls = []

    def logged(net, batch):
        calls.append((net, batch.shape[0], threading.current_thread()))
        return run(net, batch)

    run = nn.predict
    monkeypatch.setattr(nn, "predict", logged)
    assert nn.predict_parts(parts).tobytes() == stacked.tobytes()  # one block in total
    assert calls == [(net, x.shape[0], threading.main_thread()) for net, x in parts]
    with pytest.raises(AssertionError, match="helper thread"):  # one row more is two blocks
        nn.predict_parts([*parts, (nets[1], parts[1][1][:1])])


def test_a_multi_block_predict_starts_no_thread(monkeypatch):
    _two_cpus_no_threads(monkeypatch)
    net = nn.make_mlp((20, 390, 390, 2), Rng(17))
    rows = _block_rows(390)
    pixels = (Rng(18).random((3 * rows + 5, 20)) < 0.3).astype(np.uint8)
    for x in (pixels.astype(np.float64), pixels):
        stacked = np.vstack([nn.forward(net, x[lo : lo + rows])[0]
                             for lo in range(0, x.shape[0], rows)])
        assert nn.predict(net, x).tobytes() == stacked.tobytes(), x.dtype


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
    # the mask-free kernels are exact only for 0 <= alpha <= 1 (the gradient for alpha == 1,
    # which the masked reference below checks)
    assert 0 <= nn.ELU_ALPHA <= 1
    edge = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 50.0, -50.0, -745.0, -710.0, 1e300,
            np.inf, -np.inf, np.nan, -np.nan]
    rng = Rng(3)
    # one negative value in each binade [-2^(k+1), -2^k), k = -1074 .. 10
    binades = np.ldexp(-1.0 - rng.random(1085), np.arange(-1074, 11))
    # one contiguous row, so numpy runs its vector loops over every value
    pre = np.concatenate([np.array(edge * 4), binades, rng.normal(scale=5.0, size=960)])[None, :]
    post = nn._activate(pre, "elu")
    assert post.tobytes() == _masked_elu(pre).tobytes()
    keep = 0.25
    mask = (rng.child("drop").random(pre.shape) < keep) / keep
    with np.errstate(invalid="ignore"):  # a dropped inf unit is NaN
        dropped = post * mask
    for p in (post, dropped):  # backward passes the post-dropout value
        assert nn._activate_grad(p).tobytes() == _masked_elu_grad(pre, p).tobytes()


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


def test_backward_input_gradient_only_when_asked():
    rng = Rng(8)
    x, _ = _toy_batch(rng, n=16)
    net = nn.make_mlp((5, 7, 6, 3), rng.child("net"), l2_coeff=1e-3, dropout_rate=0.5)
    out, cache = nn.forward(net, x, train_mode=True, rng=rng.child("drop"))
    d = rng.child("d").normal(size=out.shape)
    grads, dinput = nn.backward(net, cache, d)
    asked, dinput_asked = nn.backward(net, cache, d, input_grad=True)
    assert dinput is None and dinput_asked.shape == x.shape
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in asked]
    # through one linear layer the input gradient is dlogits times the weights' transpose
    linear = nn.make_mlp((5, 3), rng.child("lin"))
    out, cache = nn.forward(linear, x)
    _, dx = nn.backward(linear, cache, d, input_grad=True)
    npt.assert_array_equal(dx, d @ linear.layers[0].weights.T)


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
