import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from eirm import nn
from eirm.baselines import as_ensemble, pool_environments, train_erm, train_robust_minmax
from eirm.core import Rng
from eirm.datasets import EnvironmentDataset, make_benchmark
from eirm.game import (
    CROSS_ENTROPY,
    FIXED_PHI,
    SQUARED,
    Loss,
    TerminationRule,
    TraceRecorder,
    TrainConfig,
    TrainTrace,
    build_ensemble,
    evaluate,
)


def _cfg(**kw):
    base = dict(
        hidden_dims=(16, 16), dropout_rate=0.0, max_iters=40, seed=0,
        termination=TerminationRule(enabled=False),
    )
    base.update(kw)
    return TrainConfig(**base)


def test_pool_environments_concatenates_in_order():
    a = EnvironmentDataset(np.ones((3, 2)), np.zeros(3, int), np.zeros(3, int), "a", 0.1)
    b = EnvironmentDataset(2 * np.ones((2, 2)), np.ones(2, int), np.ones(2, int), "b", 0.2)
    pooled = pool_environments([a, b])
    npt.assert_array_equal(pooled.features[:3], a.features)
    npt.assert_array_equal(pooled.features[3:], b.features)
    npt.assert_array_equal(pooled.labels, [0, 0, 0, 1, 1])
    npt.assert_array_equal(pooled.spurious_bits, [0, 0, 0, 1, 1])
    with pytest.raises(ValueError):
        pool_environments([])


def test_recorder_shares_the_pool_it_is_given():
    # ERM's pool and a lone environment are held once, not copied again
    bench = make_benchmark("COLORED_SHAPES", (100, 100, 100), 0)
    env = bench.train_envs[0]
    assert pool_environments([env]) is env
    for data in (pool_environments(bench.train_envs), env):
        recorder = TraceRecorder([data], CROSS_ENTROPY, None, 10)
        assert np.shares_memory(recorder.features, data.features)
        assert np.shares_memory(recorder.targets, data.labels)
        assert np.shares_memory(recorder.bits, data.spurious_bits)


def test_erm_on_pooled_equals_erm_on_parts():
    # pooling two environments by hand or letting train_erm do it must give
    # identical parameters (same seed drives the same batch stream)
    bench = make_benchmark("COLORED_SHAPES", (150, 150, 150), 0)
    cfg = _cfg()
    direct, _ = train_erm(bench.train_envs, cfg)
    pooled = pool_environments(bench.train_envs)
    via_pool, _ = train_erm([pooled], cfg)
    for pa, pb in zip(direct.parameters(), via_pool.parameters()):
        npt.assert_array_equal(pa, pb)


def test_erm_trace_owner_and_length():
    bench = make_benchmark("COLORED_SHAPES", (150, 150, 150), 0)
    _, trace = train_erm(bench.train_envs, _cfg(max_iters=15))
    assert all(r.turn_owner == "erm" for r in trace.records)
    assert len(trace.records) == 15


def test_erm_learns_training_data():
    bench = make_benchmark("COLORED_SHAPES", (300, 300, 300), 0)
    model, trace = train_erm(bench.train_envs, _cfg(max_iters=120))
    pooled = pool_environments(bench.train_envs)
    acc = evaluate(as_ensemble(model), pooled)["accuracy"]
    assert acc > 0.7


def test_robust_requires_two_envs():
    bench = make_benchmark("COLORED_SHAPES", (100, 100, 100), 0)
    with pytest.raises(ValueError):
        train_robust_minmax(bench.train_envs[:1], _cfg())


def test_robust_minmax_quadratic_toy():
    # two squared-loss environments whose optima differ: the minimax
    # solution for intercept-only prediction is the midpoint
    n = 2000
    c1, c2 = 1.0, 3.0

    class E:
        def __init__(self, c, label):
            self.features = np.ones((n, 1))
            self.targets = np.full(n, c)
            self.spurious_bits = None
            self.env_id = label

    envs = [E(c1, "a"), E(c2, "b")]
    cfg = TrainConfig(
        lr=2e-2, batch_size=256, max_iters=800, loss=SQUARED,
        hidden_dims=(), dropout_rate=0.0, l2_coeff=0.0, seed=0,
        termination=TerminationRule(enabled=False),
    )
    model, _ = train_robust_minmax(envs, cfg)
    pred = model.layers[0].weights[0, 0] + model.layers[0].bias[0]
    npt.assert_allclose(pred, (c1 + c2) / 2, atol=1e-2)


def test_robust_minmax_worst_risk_trend():
    # the smoothed max environment risk should go down over training
    bench = make_benchmark("COLORED_SHAPES", (200, 200, 200), 1)
    _, trace = train_robust_minmax(bench.train_envs, _cfg(max_iters=100))
    worst = np.array([max(r.env_risks) for r in trace.records])
    k = 20
    head = worst[:k].mean()
    tail = worst[-k:].mean()
    assert tail < head


def test_robust_trace_owner():
    bench = make_benchmark("COLORED_SHAPES", (100, 100, 100), 2)
    _, trace = train_robust_minmax(bench.train_envs, _cfg(max_iters=10))
    assert all(r.turn_owner == "robust" for r in trace.records)
    assert [r.step for r in trace.records] == list(range(1, 11))


class _IndexBatcher:
    """Cycles a shuffled index permutation, reshuffled per epoch."""

    def __init__(self, n, batch_size, rng):
        self.n, self.batch_size, self.rng = n, min(batch_size, n), rng
        self.order, self.pos = rng.permutation(n), 0

    def next(self):
        if self.pos + self.batch_size > self.n:
            self.order, self.pos = self.rng.permutation(self.n), 0
        self.pos += self.batch_size
        return self.order[self.pos - self.batch_size : self.pos]


def _reference_robust_minmax(envs, config, test_env=None):
    """The robust min-max baseline as its own loop, before it became a turn of the game's."""
    loss = Loss(config.loss)
    rng = Rng(config.seed)
    recorder = TraceRecorder(envs, loss, test_env, config.test_every)
    data = recorder.data
    model = build_ensemble(envs[:1], config, FIXED_PHI, rng.child("init")).classifiers[0]
    opt = nn.AdamState.for_params(model.parameters(), lr=config.lr)
    batchers = [
        _IndexBatcher(x.shape[0], config.batch_size, rng.child(f"batch{e}"))
        for e, (x, _) in enumerate(data)
    ]
    drop_rng = rng.child("dropout")
    trace = TrainTrace()
    for step in range(1, config.max_iters + 1):
        turns = []
        penalty = nn.regularization_loss(model)
        for e, (x, y) in enumerate(data):
            idx = batchers[e].next()
            out, cache = nn.forward(
                model, x[idx], train_mode=True, rng=drop_rng.child(f"s{step}e{e}")
            )
            turns.append((loss.risk(out, y[idx]) + penalty, out, y[idx], cache))
        _, out, by, cache = turns[int(np.argmax([t[0] for t in turns]))]
        grads, _ = nn.backward(model, cache, loss.grad(out, by))
        nn.adam_step(opt, model.parameters(), grads)
        trace.append(recorder.record(as_ensemble(model), step, "robust")[0])
    return model, trace


def test_robust_minmax_equals_its_own_loop():
    # dropout on, a steps_per_turn that ROBUST ignores, and a test split
    bench = make_benchmark("COLORED_SHAPES", (150, 150, 150), 3)
    cfg = _cfg(dropout_rate=0.5, steps_per_turn=2, max_iters=25, batch_size=64, test_every=5)
    model, trace = train_robust_minmax(bench.train_envs, cfg, test_env=bench.test_env)
    ref, ref_trace = _reference_robust_minmax(bench.train_envs, cfg, test_env=bench.test_env)
    for p, q in zip(model.parameters(), ref.parameters(), strict=True):
        npt.assert_array_equal(p, q)
    assert len(trace.records) == 25
    assert [dataclasses.asdict(r) for r in trace.records] == [
        dataclasses.asdict(r) for r in ref_trace.records
    ]
