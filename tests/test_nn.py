import os
import subprocess
import sys
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


def test_a_shared_pass_cuts_desk_widths_in_512_row_blocks(monkeypatch):
    blocks = []

    def counted(net, x, *work):
        blocks.append(x.shape[0])
        return run(net, x, *work)

    run = nn._predict_block
    monkeypatch.setattr(nn, "_predict_block", counted)
    net = nn.make_mlp((392, 64, 64, 2), Rng(9))
    assert nn._block_rows(net, shared=True) == 512
    assert nn._block_rows(nn.make_mlp((392, 390, 2), Rng(9)), shared=True) == 672
    assert nn._block_rows(nn.make_mlp((5, 1), Rng(9)), shared=True) == 512
    # a desk pool of 4000 rows: with a helper, seven blocks and a ragged one, each
    # forward's rows bit for bit; with none (one CPU, or BLAS on two threads), one block
    x = Rng(11).normal(size=(4000, 392))
    for cpus, blas_threads, cuts in (({0, 1}, 1, range(0, 4000, 512)), ({0}, 1, [0]),
                                     ({0, 1}, 2, [0])):
        monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(nn, "_blas_threads", lambda: blas_threads)
        blocks.clear()
        passes = nn.Passes()
        out = passes.add([(net, x)])
        passes.join()
        passes.close()
        rows = 512 if len(cuts) > 1 else 4000
        stacked = np.vstack([nn.forward(net, x[lo : lo + rows])[0] for lo in cuts])
        assert out.tobytes() == stacked.tobytes(), (cpus, blas_threads)
        assert sorted(blocks) == sorted(min(rows, 4000 - lo) for lo in cuts), (cpus, blas_threads)


def _python(code: str, blas_threads: str = "1") -> str:
    """Standard output of code run in a fresh interpreter that imports this eirm."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(nn.__file__)),
                                          os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_blas_threads_reads_the_loaded_openblas():
    code = "from eirm import nn; print(nn._blas_threads())"
    read = [int(_python(code, threads)) for threads in ("1", "2")]
    # OpenBLAS runs on at most as many threads as the process has CPUs; 0: no
    # OpenBLAS was found, and then no helper starts
    assert read in ([1, min(2, len(os.sched_getaffinity(0)))], [0, 0])


_ROBUST_TURN_FAULTS = """
import resource
import numpy as np
from eirm import nn
from eirm.core import Rng
from eirm.game import EnsembleModel, robust_turn

rng = Rng(3)
clf = nn.make_mlp((768, 64, 64, 2), rng.child("clf"), l2_coeff=1.25e-3, dropout_rate=0.1)
model = EnsembleModel([clf])
opt = nn.AdamState.for_params(clf.parameters(), lr=2.5e-3)
batches = [((rng.child(f"x{e}").random((256, 768)) < 0.1).astype(np.uint8),
            rng.child(f"y{e}").np.integers(0, 2, size=256)) for e in range(2)]

def turns(first, n):
    for s in range(first, first + n):
        robust_turn(model, batches, opt, [rng.child(f"s{s}e{e}") for e in range(2)])

turns(0, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
turns(2, 20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not nn._keep_freed_pages(), reason="the C library has no mallopt")
def test_a_desk_robust_turn_faults_no_pages_in_after_warm_up():
    # a desk-width ROBUST turn (two 256-row uint8 batches of 768 columns, widths
    # 64) frees more than glibc's default trim threshold settles at, and took
    # about 1,200 minor faults a turn while freed pages went back to the system
    faults = int(_python(_ROBUST_TURN_FAULTS))
    assert faults < 50 * 20


def test_without_mallopt_the_allocator_policy_does_nothing():
    code = """
import ctypes
real = ctypes.CDLL

def no_mallopt(name, *args, **kwargs):
    return object() if name is None else real(name, *args, **kwargs)

def no_handle(name, *args, **kwargs):
    if name is None:
        raise OSError("no handle on the C library")
    return real(name, *args, **kwargs)

ctypes.CDLL = no_mallopt
import eirm
from eirm import nn
print(nn._keep_freed_pages())
ctypes.CDLL = no_handle
print(nn._keep_freed_pages())
"""
    assert _python(code).split() == ["False", "False"]


def _two_cpus_no_threads(monkeypatch):
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nn, "_blas_threads", lambda: 1)  # so a helper may start

    def started(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading, "Thread", started)


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


def test_a_wide_layers_l2_term_is_added_in_row_chunks_bit_for_bit(monkeypatch):
    rng = Rng(20)
    net = nn.make_mlp((800, 100, 2), rng.child("net"), l2_coeff=1e-3)
    assert net.layers[0].weights.nbytes > nn._DECAY_BYTES  # so the first layer's term is chunked
    out, cache = nn.forward(net, rng.child("x").normal(size=(32, 800)))
    d = rng.child("d").normal(size=out.shape)
    chunked, _ = nn.backward(net, cache, d)
    monkeypatch.setattr(nn, "_DECAY_BYTES", net.layers[0].weights.nbytes)
    whole, _ = nn.backward(net, cache, d)
    assert [g.tobytes() for g in chunked] == [g.tobytes() for g in whole]


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


def test_adam_step_equals_the_plain_expression_bit_for_bit():
    rng = Rng(19)
    params = [rng.normal(size=(4096, 8)), rng.normal(size=7), rng.normal(size=(7, 2))]
    plain = [p.copy() for p in params]
    state = nn.AdamState.for_params(params, lr=1e-2)
    m, v = [np.zeros_like(p) for p in plain], [np.zeros_like(p) for p in plain]
    b1, b2, eps = state.beta1, state.beta2, state.eps
    for t in range(1, 6):
        grads = [rng.child(f"g{t}").normal(scale=10.0 ** (k - 2), size=p.shape)
                 for k, p in enumerate(params)]
        nn.adam_step(state, params, grads)
        corr1, corr2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, mk, vk in zip(plain, grads, m, v):
            mk *= b1
            mk += (1.0 - b1) * g
            vk *= b2
            vk += (1.0 - b2) * g * g
            p -= state.lr * (mk / corr1) / (np.sqrt(vk / corr2) + eps)
        for got, want in zip([*params, *state.m, *state.v], [*plain, *m, *v]):
            assert got.tobytes() == want.tobytes(), t


def test_adam_step_holds_two_arrays_of_the_largest_parameter(peak_bytes):
    params = [np.ones((400, 300)), np.ones(300)]
    grads = [np.full((400, 300), 0.5), np.full(300, 0.5)]
    state = nn.AdamState.for_params(params)
    nn.adam_step(state, params, grads)  # so one-time allocations are not counted
    assert peak_bytes(lambda: nn.adam_step(state, params, grads)) < 2.1 * params[0].nbytes


def test_adam_rejects_mismatched_grads():
    p = np.zeros(3)
    state = nn.AdamState.for_params([p])
    with pytest.raises(ShapeError):
        nn.adam_step(state, [p], [np.zeros(4)])
