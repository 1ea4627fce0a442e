import dataclasses
import hashlib
import inspect
import os
import subprocess
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from eirm import baselines, cli, game, nn, sem_game
from eirm.core import Rng, ShapeError, softmax_rows
from eirm.datasets import (
    ColorEnvironment,
    EnvironmentDataset,
    make_benchmark,
    make_linear_sem,
    make_spurious_env,
    synth_shapes,
)
from eirm.game import (
    CROSS_ENTROPY,
    FIXED_PHI,
    SQUARED,
    VARIABLE_PHI,
    EnsembleModel,
    TerminationMonitor,
    TerminationRule,
    TraceRecord,
    TrainConfig,
    TraceRecorder,
    TrainTrace,
    best_response_train,
    build_ensemble,
    ensemble_logits,
    env_turn,
    evaluate,
    phi_turn,
    robust_turn,
    spurious_correlation,
)
from eirm.sem_game import causal_projection, default_sem_spec, sem_train_config, train_sem_game


def _tiny_model(n_envs, in_dim=4, out_dim=2, seed=0):
    rng = Rng(seed)
    clfs = [nn.make_mlp((in_dim, 6, out_dim), rng.child(f"c{e}")) for e in range(n_envs)]
    return EnsembleModel(clfs)


def _params_digest(net):
    h = hashlib.sha256()
    for p in net.parameters():
        h.update(p.tobytes())
    return h.hexdigest()


def test_ensemble_logits_is_mean_of_members():
    model = _tiny_model(3)
    x = Rng(1).normal(size=(10, 4))
    outs = [nn.forward(c, x)[0] for c in model.classifiers]
    npt.assert_allclose(ensemble_logits(model, x), np.mean(outs, axis=0), atol=1e-12)


def test_ensemble_model_validates_dims():
    rng = Rng(0)
    a = nn.make_mlp((4, 2), rng.child("a"))
    b = nn.make_mlp((5, 2), rng.child("b"))
    with pytest.raises(Exception):
        EnsembleModel([a, b])
    with pytest.raises(ShapeError, match="representation output"):
        EnsembleModel([a], nn.make_mlp((3, 5), rng.child("phi")))


def test_env_turn_only_moves_owner():
    model = _tiny_model(3, seed=2)
    before = [_params_digest(c) for c in model.classifiers]
    x = Rng(3).normal(size=(8, 4))
    y = Rng(4).np.integers(0, 2, size=8)
    opt = nn.AdamState.for_params(model.classifiers[1].parameters())
    env_turn(model, 1, x, y, opt)
    after = [_params_digest(c) for c in model.classifiers]
    assert after[0] == before[0]
    assert after[1] != before[1]
    assert after[2] == before[2]


def test_env_turn_gradient_matches_finite_difference():
    # loss through the ensemble mean: perturbing the owner's weights must
    # match the analytic direction used by the turn
    rng = Rng(5)
    x = rng.normal(size=(16, 3))
    y = rng.np.integers(0, 2, size=16)
    clfs = [nn.Mlp([nn.DenseLayer(rng.child(f"w{e}").normal(size=(3, 2)),
                                  np.zeros(2))]) for e in range(2)]
    model = EnsembleModel(clfs)

    def risk(model):
        out = ensemble_logits(model, x)
        p = softmax_rows(out)
        return -np.mean(np.log(p[np.arange(16), y]))

    # analytic gradient wrt classifier 0 weights: (1/2) x^T (p - onehot)/n
    out = ensemble_logits(model, x)
    p = softmax_rows(out)
    onehot = np.eye(2)[y]
    analytic = 0.5 * x.T @ ((p - onehot) / 16)
    h = 1e-6
    w = model.classifiers[0].layers[0].weights
    for i in range(3):
        for j in range(2):
            orig = w[i, j]
            w[i, j] = orig + h
            up = risk(model)
            w[i, j] = orig - h
            down = risk(model)
            w[i, j] = orig
            npt.assert_allclose((up - down) / (2 * h), analytic[i, j], atol=1e-6)


def test_phi_turn_moves_only_representation():
    rng = Rng(6)
    phi = nn.make_mlp((4, 5, 3), rng.child("phi"))
    clfs = [nn.make_mlp((3, 2), rng.child(f"c{e}")) for e in range(2)]
    model = EnsembleModel(clfs, phi)
    clf_before = [_params_digest(c) for c in clfs]
    phi_before = _params_digest(phi)
    batches = [
        (rng.child(f"x{e}").normal(size=(8, 4)), rng.child(f"y{e}").np.integers(0, 2, size=8))
        for e in range(2)
    ]
    opt = nn.AdamState.for_params(phi.parameters())
    phi_turn(model, batches, opt)
    assert _params_digest(phi) != phi_before
    assert [_params_digest(c) for c in clfs] == clf_before


def test_phi_turn_rejected_in_fixed_mode():
    model = _tiny_model(2)
    with pytest.raises(ValueError, match="representation network"):
        phi_turn(model, [], None)


def test_robust_turn_rejects_more_than_one_classifier():
    model = _tiny_model(2)
    with pytest.raises(ValueError, match="one classifier, got 2"):
        robust_turn(model, [], None, [])


def test_robust_turn_runs_the_classifier_on_the_representation():
    rng = Rng(7)
    x, y = rng.normal(size=(16, 3)), rng.np.integers(0, 2, size=16)
    flip = nn.Mlp([nn.DenseLayer(-np.eye(3), np.zeros(3))])
    flipped = nn.make_mlp((3, 4, 2), rng.child("clf"), dropout_rate=0.5)
    plain = flipped.copy()
    for model, batch in ((EnsembleModel([flipped], flip), x), (EnsembleModel([plain]), -x)):
        opt = nn.AdamState.for_params(model.classifiers[0].parameters(), lr=1e-2)
        robust_turn(model, [(batch[:8], y[:8]), (batch[8:], y[8:])], opt, [Rng(1), Rng(2)])
    assert all(map(np.array_equal, flipped.parameters(), plain.parameters()))
    assert not np.array_equal(flipped.layers[0].bias, np.zeros(4))


def test_evaluate_ties_break_to_class_zero():
    w = np.zeros((3, 2))
    clf = nn.Mlp([nn.DenseLayer(w, np.zeros(2))])
    model = EnsembleModel([clf])

    class Data:
        features = np.ones((4, 3))
        labels = np.array([0, 0, 1, 1])

    r = evaluate(model, Data())
    assert r["accuracy"] == 0.5  # all predictions are class 0


def test_termination_monitor_square_wave():
    # alternating high/low accuracy: the low phase sits at the window's
    # lower quartile, so the rule fires on a low observation once armed
    monitor = TerminationMonitor(window=20, quantile=0.25, min_steps=25)
    wave = ([0.88] * 5 + [0.75] * 5) * 10
    fired_at = None
    for step, acc in enumerate(wave, start=1):
        if monitor.observe(acc, step):
            fired_at = step
            break
    assert fired_at is not None
    assert fired_at >= 25
    assert wave[fired_at - 1] == 0.75


def test_termination_monitor_never_fires_early_or_on_rise():
    monitor = TerminationMonitor(window=20, quantile=0.25, min_steps=30)
    # strictly improving accuracy should never trip the rule
    for step, acc in enumerate(np.linspace(0.5, 0.99, 100), start=1):
        assert not monitor.observe(acc, step)


def test_termination_monitor_manual_threshold():
    monitor = TerminationMonitor(window=5, quantile=1.0, min_steps=0, threshold=0.6)
    for step, acc in enumerate([0.9] * 10, start=1):
        assert not monitor.observe(acc, step)  # above threshold, never fires


def test_trace_steps_strictly_increase():
    trace = TrainTrace()
    trace.append(TraceRecord(1, "env0", 0.5, [0.1], 0.0, [0.0]))
    with pytest.raises(ValueError):
        trace.append(TraceRecord(1, "env1", 0.5, [0.1], 0.0, [0.0]))


def test_trace_csv_schema(tmp_path):
    trace = TrainTrace()
    trace.append(TraceRecord(1, "env0", 0.5, [0.1, 0.2], 0.25, [0.1, 0.2]))
    trace.append(TraceRecord(2, "env1", 0.625, [0.1, 0.2], float("nan"), [0.1, 0.2], 0.75))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "step,turn_owner,ens_train_acc,env0_risk,env1_risk,"
        "ens_spur_corr,w0_spur_corr,w1_spur_corr,test_acc"
    )
    assert lines[1].startswith("1,env0,0.5,")
    assert lines[1].endswith(",")  # test_acc blank when not measured
    fields = lines[2].split(",")
    assert fields[5] == ""  # NaN correlation serializes as blank
    assert fields[-1] == "0.75"


def _small_bench(seed=0, n=150):
    return make_benchmark("COLORED_SHAPES", (n, n, n), seed)


def _small_cfg(**kw):
    base = dict(
        hidden_dims=(16, 16), phi_hidden_dims=(16,), repr_dim=16,
        dropout_rate=0.0, max_iters=20, seed=0,
        termination=TerminationRule(enabled=False),
    )
    base.update(kw)
    return TrainConfig(**base)


def test_best_response_train_runs_and_records_turn_owners():
    bench = _small_bench()
    model, trace = best_response_train(bench.train_envs, _small_cfg(), FIXED_PHI)
    owners = {r.turn_owner for r in trace.records}
    assert owners == {"env0", "env1"}
    assert len(trace.records) == 40  # 2 envs x 20 iterations
    assert model.n_envs == 2


def test_best_response_train_variable_phi_has_phi_turns():
    bench = _small_bench()
    model, trace = best_response_train(
        bench.train_envs, _small_cfg(max_iters=5), VARIABLE_PHI
    )
    owners = [r.turn_owner for r in trace.records]
    assert owners[0] == "phi"
    assert owners[:3] == ["phi", "env0", "env1"]
    assert model.representation is not None


def test_best_response_train_deterministic():
    bench = _small_bench()
    m1, t1 = best_response_train(bench.train_envs, _small_cfg(), FIXED_PHI)
    m2, t2 = best_response_train(bench.train_envs, _small_cfg(), FIXED_PHI)
    for a, b in zip(m1.classifiers, m2.classifiers):
        for pa, pb in zip(a.parameters(), b.parameters()):
            npt.assert_array_equal(pa, pb)
    assert [r.ens_train_acc for r in t1.records] == [r.ens_train_acc for r in t2.records]


def test_best_response_training_learns_something():
    bench = _small_bench(n=300)
    cfg = _small_cfg(max_iters=80, dropout_rate=0.0)
    model, trace = best_response_train(bench.train_envs, cfg, FIXED_PHI)
    accs = trace.train_accuracies()
    assert accs[-1] > accs[0] + 0.1  # accuracy rose substantially


def test_spurious_correlation_sign():
    # a predictor that outputs the color bit itself correlates at +1
    src = synth_shapes(200, 16, 16, Rng(20))
    env = make_spurious_env(src, 0.1, "COLOR", Rng(21))
    # red-channel mass minus green-channel mass separates z perfectly
    d = env.features.shape[1] // 3
    rgb = env.features.reshape(200, d, 3)
    w = np.zeros((3 * d, 2))
    w[0::3, 1] = 1.0  # red mass votes class 1
    w[1::3, 0] = 1.0  # green mass votes class 0
    clf = nn.Mlp([nn.DenseLayer(w, np.zeros(2))])
    model = EnsembleModel([clf])
    npt.assert_allclose(spurious_correlation(model, env), 1.0, atol=1e-12)


def test_squared_loss_game_reaches_shared_minimizer():
    # two quadratic environments with the same minimizer: the game settles
    # at that minimizer for both
    rng = Rng(22)
    n = 400

    class Env:
        def __init__(self, label):
            r = rng.child(label)
            self.features = r.normal(size=(n, 2))
            self.targets = self.features @ np.array([2.0, -1.0])
            self.spurious_bits = None

    envs = [Env("a"), Env("b")]
    cfg = TrainConfig(
        lr=5e-2, batch_size=128, max_iters=300, loss=SQUARED,
        hidden_dims=(), dropout_rate=0.0, l2_coeff=0.0, seed=0,
        termination=TerminationRule(enabled=False),
    )
    model, _ = best_response_train(envs, cfg, FIXED_PHI)
    # individual classifiers may split the optimum between them; the
    # ensemble mean is what both environments pin down
    mean_w = np.mean([c.layers[0].weights[:, 0] for c in model.classifiers], axis=0)
    npt.assert_allclose(mean_w, [2.0, -1.0], atol=0.05)


def test_warm_start_defaults_to_one_pooled_epoch():
    bench = _small_bench()
    cfg = _small_cfg(batch_size=50, max_iters=1)
    # 300 pooled rows / 50 batch = 6 warm-up steps; the monitor only arms
    # after warm start + window, checked indirectly via min_steps plumbing
    model, trace = best_response_train(bench.train_envs, cfg, FIXED_PHI)
    assert len(trace.records) == 2


def test_warm_up_counts_every_pooled_row(monkeypatch):
    armed = []

    class Captured(TerminationMonitor):
        def __init__(self, window, quantile, min_steps, threshold):
            armed.append(min_steps)
            super().__init__(window, quantile, min_steps, threshold)

    monkeypatch.setattr(game, "TerminationMonitor", Captured)
    envs = _small_bench(n=200).train_envs
    assert TraceRecorder(envs, CROSS_ENTROPY, None, 10).features.shape[0] < 400
    cfg = _small_cfg(batch_size=50, max_iters=1, termination=TerminationRule())
    best_response_train(envs, cfg, FIXED_PHI)
    assert armed == [400 // 50 + TerminationRule().window]


def test_disabled_rule_never_observes(monkeypatch):
    calls = []
    observe = TerminationMonitor.observe

    def counted(self, accuracy, step):
        calls.append(step)
        return observe(self, accuracy, step)

    monkeypatch.setattr(TerminationMonitor, "observe", counted)
    envs = _small_bench().train_envs
    traces = {}
    for label, rule in (("off", TerminationRule(enabled=False)),
                        ("never fires", TerminationRule(min_steps=10**6))):
        del calls[:]
        _, trace = best_response_train(envs, _small_cfg(max_iters=5, termination=rule), FIXED_PHI)
        traces[label] = [dataclasses.asdict(r) for r in trace.records]
        assert len(calls) == (0 if label == "off" else len(trace.records))
    npt.assert_equal(traces["off"], traces["never fires"])


def test_empty_environment_rejected():
    class Empty:
        features = np.zeros((0, 4))
        labels = np.zeros(0, dtype=int)
        spurious_bits = None

    with pytest.raises(ValueError, match="empty environment"):
        best_response_train([Empty()], _small_cfg(), FIXED_PHI)
    bench = make_benchmark("COLORED_SHAPES", (60, 60, 60), 0)
    with pytest.raises(ValueError, match="empty environment"):
        baselines.train_robust_minmax([bench.train_envs[0], Empty()], _small_cfg())


def test_prebuilt_model_must_fit_the_game(monkeypatch):
    monkeypatch.setattr(game, "TraceRecorder", None)  # rejected before it is built
    bench = make_benchmark("COLORED_SHAPES", (60, 60, 60), 0)
    envs, cfg = bench.train_envs, _small_cfg()
    fixed = build_ensemble(envs, cfg, FIXED_PHI, Rng(0))
    with pytest.raises(ValueError, match="variable-phi game needs a representation network"):
        best_response_train(envs, cfg, VARIABLE_PHI, model=fixed)
    with pytest.raises(ValueError, match="model has 2 classifiers"):
        best_response_train(envs + envs[:1], cfg, FIXED_PHI, model=fixed)
    lone = build_ensemble(envs[:1], cfg, FIXED_PHI, Rng(0))
    with pytest.raises(ValueError, match="model has 1 classifiers"):
        best_response_train(envs, cfg, FIXED_PHI, model=lone)


def test_play_checks_on_the_call_and_yields_each_turns_owner():
    bench = make_benchmark("COLORED_SHAPES", (60, 60, 60), 0)
    envs, cfg = bench.train_envs, _small_cfg(max_iters=2)
    fixed = build_ensemble(envs, cfg, FIXED_PHI, Rng(0))
    # the call raises; no turn is asked for
    with pytest.raises(ValueError, match="variable-phi game needs a representation network"):
        game.play(envs, cfg, VARIABLE_PHI, model=fixed)
    with pytest.raises(ValueError, match="model has 2 classifiers"):
        game.play(envs + envs[:1], cfg, FIXED_PHI, model=fixed)
    model, turns = game.play(envs, cfg, VARIABLE_PHI)
    assert model.representation is not None
    assert list(turns) == ["phi", "env0", "env1"] * 2
    _, turns = game.play(envs, cfg, game.ROBUST)
    assert list(turns) == ["robust"] * 2


def test_sem_game_builds_no_recorder(monkeypatch):
    monkeypatch.setattr(game, "TraceRecorder", None)  # building one would raise
    model, envs, _ = train_sem_game(default_sem_spec(200), sem_train_config(max_iters=4))
    assert model.n_envs == len(envs)


def test_sem_game_trains_the_classifiers_a_recorded_game_trains():
    spec, config = default_sem_spec(300), sem_train_config(seed=3, max_iters=20)
    model, envs, _ = train_sem_game(spec, config, seed=3)
    # the initial model train_sem_game builds
    rng = Rng(config.seed).child("sem-init")
    initial = EnsembleModel(
        [nn.make_mlp((spec.n_causal, 1), rng.child(f"clf{e}")) for e in range(len(envs))],
        causal_projection(spec.n_causal + spec.n_spurious, spec.n_causal),
    )
    recorded, trace = best_response_train(envs, config, FIXED_PHI, model=initial)
    assert len(trace.records) == config.max_iters * len(envs)
    assert [_params_digest(c) for c in model.classifiers] == [
        _params_digest(c) for c in recorded.classifiers
    ]


def test_sem_game_rejects_an_enabled_termination_rule(monkeypatch):
    monkeypatch.setattr(sem_game, "make_linear_sem", None)  # rejected before the data are made
    config = dataclasses.replace(sem_train_config(), termination=TerminationRule())
    with pytest.raises(ValueError, match="termination"):
        train_sem_game(default_sem_spec(200), config)


class _CheckedRecorder(TraceRecorder):
    """Checks every row against a freshly built recorder's row for the same state."""

    rows = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.args = args

    def record(self, model, step, owner, monitor=None):
        rec, fired = super().record(model, step, owner, monitor)
        fresh, _ = TraceRecorder(*self.args).record(model, step, owner)
        npt.assert_equal(dataclasses.asdict(rec), dataclasses.asdict(fresh))
        _CheckedRecorder.rows += 1
        return rec, fired


def test_recorder_rows_equal_a_fresh_recorders(monkeypatch):
    monkeypatch.setattr(game, "TraceRecorder", _CheckedRecorder)
    bench = _small_bench(n=60)
    cfg = _small_cfg(max_iters=4, dropout_rate=0.5, test_every=3)
    sem_envs, _ = make_linear_sem(default_sem_spec(200), Rng(0))
    runs = {
        "F_IRM": lambda: best_response_train(bench.train_envs, cfg, FIXED_PHI, test_env=bench.test_env),
        "V_IRM": lambda: best_response_train(bench.train_envs, cfg, VARIABLE_PHI, test_env=bench.test_env),
        "ROBUST": lambda: baselines.train_robust_minmax(bench.train_envs, cfg, test_env=bench.test_env),
        "SEM": lambda: best_response_train(sem_envs, sem_train_config(max_iters=4), FIXED_PHI),
    }
    for name, run in runs.items():
        before = _CheckedRecorder.rows
        run()
        assert _CheckedRecorder.rows > before, name


def _count_forward_rows(monkeypatch):
    """Rows run through nn.forward or nn.predict until monkeypatch.undo()."""
    rows = []

    def counting(run):
        def counted(net, batch, *args, **kwargs):
            rows.append(batch.shape[0])
            return run(net, batch, *args, **kwargs)
        return counted

    for name in ("forward", "predict"):
        monkeypatch.setattr(nn, name, counting(getattr(nn, name)))
    return rows


def test_recorder_reruns_only_the_network_that_moved(monkeypatch):
    bench = _small_bench(n=60)
    envs = bench.train_envs
    model = build_ensemble(envs, _small_cfg(dropout_rate=0.5), VARIABLE_PHI, Rng(4))
    recorder = TraceRecorder(envs, CROSS_ENTROPY, None, 10)
    pool = recorder.features.shape[0]
    recorder.record(model, 1, "init")
    x, y = recorder.data[0]

    def rows_of_record(step):
        rows = _count_forward_rows(monkeypatch)
        rec, _ = recorder.record(model, step, "check")
        monkeypatch.undo()
        return rec, sum(rows)

    opt = nn.AdamState.for_params(model.classifiers[0].parameters(), lr=1e-2)
    env_turn(model, 0, x[:32], y[:32], opt, rng=Rng(5))
    assert rows_of_record(2)[1] == pool  # one classifier pass
    phi_opt = nn.AdamState.for_params(model.representation.parameters(), lr=1e-2)
    phi_turn(model, [(x[:32], y[:32]) for x, y in recorder.data], phi_opt, rng=Rng(6))
    assert rows_of_record(3)[1] == (1 + model.n_envs) * pool  # phi, then every classifier
    unmoved, rows = rows_of_record(4)
    assert rows == 0  # nothing moved

    # an in-place edit between rows is seen
    model.classifiers[1].layers[-1].bias[0] += 5.0
    edited, rows = rows_of_record(5)
    assert rows == pool
    fresh, _ = TraceRecorder(envs, CROSS_ENTROPY, None, 10).record(model, 5, "check")
    npt.assert_equal(dataclasses.asdict(edited), dataclasses.asdict(fresh))
    assert edited.env_risks != unmoved.env_risks


def test_recorder_pools_only_the_lit_columns(unslabbed):
    envs = _small_bench(n=200).train_envs
    recorder = TraceRecorder(envs, CROSS_ENTROPY, None, 10)
    full = np.vstack([env.features for env in envs])
    assert full.shape[1] == 768 and recorder.features.shape[1] < 768
    # each slab keeps only the columns its own rows light
    for block in recorder.features.blocks:
        assert np.any(block, axis=0).all()
    npt.assert_array_equal(unslabbed(recorder.features, 768)[recorder.rows], full)
    dropped = np.setdiff1d(np.arange(full.shape[1]), np.concatenate(recorder.features.columns))
    assert not np.any(full[:, dropped])
    # no SEM column is zero in every row: the pool keeps them all, in one slab
    sem_envs, _ = make_linear_sem(default_sem_spec(200), Rng(0))
    sem = TraceRecorder(sem_envs, SQUARED, None, 10)
    assert sem.features.columns == [None] and sem.rows is None
    npt.assert_array_equal(sem.features.blocks[0], np.vstack([env.features for env in sem_envs]))


def _assert_rows_match(rec, ref, model, envs, label):
    """A narrowed pool's row against a full-width pool's row for the same model state."""
    assert rec.ens_train_acc == ref.ens_train_acc, label
    assert rec.ens_spur_corr == ref.ens_spur_corr, label
    assert rec.w_spur_corrs == ref.w_spur_corrs, label
    assert rec.test_acc == ref.test_acc, label
    # per environment, against a full-width pass over its own rows
    for env, risk in zip(envs, rec.env_risks):
        npt.assert_allclose(risk, evaluate(model, env)["risk"], rtol=1e-12, atol=0, err_msg=label)


def test_recorder_keeps_each_distinct_row_once(unslabbed):
    envs = _small_bench(n=200).train_envs
    recorder = TraceRecorder(envs, CROSS_ENTROPY, None, 10)
    full = np.vstack([env.features for env in envs])
    assert len(np.unique(full, axis=0)) < full.shape[0]  # binary shapes repeat
    pool = unslabbed(recorder.features, full.shape[1])
    assert pool.shape[0] == len(np.unique(pool, axis=0)) == len(np.unique(full, axis=0))
    assert recorder.rows.shape == (full.shape[0],)
    npt.assert_array_equal(pool[recorder.rows], full)
    # first-occurrence order within each slab
    firsts = np.unique(recorder.rows, return_index=True)[1]  # each pool row's first pooled row
    bounds = np.cumsum([0] + [block.shape[0] for block in recorder.features.blocks])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert np.all(np.diff(firsts[lo:hi]) > 0)
    npt.assert_array_equal(recorder.targets, np.concatenate([env.labels for env in envs]))


def _full_width_row(model, envs, test_env):
    """A trace row's figures from full-width passes over the vstacked training rows."""
    pool = baselines.pool_environments(envs)
    z = model.represent(pool.features)
    return TraceRecord(
        1,
        "check",
        evaluate(model, pool)["accuracy"],
        [evaluate(model, env)["risk"] for env in envs],
        spurious_correlation(model, pool),
        [CROSS_ENTROPY.spurious_correlation(nn.predict(clf, z), pool.spurious_bits)
         for clf in model.classifiers],
        evaluate(model, test_env)["accuracy"],
    )


def _hand_env(masks, bits, env_id):
    masks = np.asarray(masks, np.uint8)
    return ColorEnvironment(masks, np.zeros(len(masks), np.int64), np.asarray(bits), env_id, 0.5)


def test_rows_are_one_pool_row_only_when_their_dense_rows_are_equal(unslabbed):
    # 12 pixels: a packed row is 2 bytes, its last 4 bits padding
    empty, shape = np.zeros(12, np.uint8), np.zeros(12, np.uint8)
    shape[[2, 3, 11]] = 1
    extra = shape.copy()
    extra[7] = 1
    train = _hand_env([empty, shape, shape, extra, empty, shape], [1, 1, 0, 1, 0, 1], "train")
    test = _hand_env([empty, shape, extra, extra], [0, 0, 0, 1], "test")
    recorder = TraceRecorder([train], CROSS_ENTROPY, test, 1)
    # the red and the green empty rows share a pool row; a shape in red and
    # in green, or with one pixel more, does not; later repeats map back
    npt.assert_array_equal(recorder.rows[[0, 4]], recorder.rows[0])
    npt.assert_array_equal(recorder.rows[[1, 5]], recorder.rows[1])
    assert len({*recorder.rows[:4]}) == 4 and recorder.features.shape[0] == 4
    npt.assert_array_equal(recorder.test_rows[[0, 1, 3]], recorder.rows[[0, 2, 3]])
    assert recorder.tail.shape[0] == 1 and recorder.test_rows[2] == 4  # green extra is new
    pool = np.vstack([unslabbed(recorder.features, 36), unslabbed(recorder.tail, 36)])
    npt.assert_array_equal(pool[recorder.rows], train.features)
    npt.assert_array_equal(pool[recorder.test_rows], test.features)
    assert len(np.unique(pool, axis=0)) == pool.shape[0]


def test_a_lone_dataset_without_repeats_keeps_its_order(unslabbed):
    masks = np.eye(12, dtype=np.uint8)[:9] + np.eye(12, k=3, dtype=np.uint8)[:9]
    env = _hand_env(masks, np.ones(9, np.int64), "red")
    recorder = TraceRecorder([env], CROSS_ENTROPY, None, 1)
    assert recorder.rows is None and recorder.tail is None
    npt.assert_array_equal(unslabbed(recorder.features, 36), env.features)
    dense = EnvironmentDataset(env.features, env.labels, env.spurious_bits, "dense", 0.5)
    recorder = TraceRecorder([dense], CROSS_ENTROPY, None, 1)
    assert recorder.rows is None
    npt.assert_array_equal(unslabbed(recorder.features, 36), env.features)


def test_recorder_builds_no_dense_color_row(monkeypatch):
    bench = _small_bench(n=200)
    players = (bench.train_envs, [baselines.pool_environments(bench.train_envs)])

    def dense(*_):
        raise AssertionError("a dense COLOR row was built")

    monkeypatch.setattr(ColorEnvironment, "__getitem__", dense)
    recorders = [TraceRecorder(envs, CROSS_ENTROPY, bench.test_env, 1) for envs in players]
    monkeypatch.undo()
    full = np.vstack([env.features for env in bench.train_envs])
    for recorder in recorders:
        assert recorder.features.shape[0] == len(np.unique(full, axis=0)) < full.shape[0]


def test_building_a_recorder_leaves_numpy_ma_unimported():
    src = os.path.dirname(os.path.dirname(game.__file__))
    # numpy before 2.0 imports numpy.ma itself; the build must not add it
    code = (
        "import sys\n"
        "from eirm.datasets import make_benchmark\n"
        "from eirm.game import CROSS_ENTROPY, TraceRecorder\n"
        "bench = make_benchmark('COLORED_SHAPES', (100, 100, 100), 0)\n"
        "before = 'numpy.ma' in sys.modules\n"
        "TraceRecorder(bench.train_envs, CROSS_ENTROPY, bench.test_env, 1)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert after == before
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert after == "False"


def test_recorder_drops_a_moved_networks_copies_before_its_pass():
    bench = _small_bench(n=60)
    envs = bench.train_envs
    model = build_ensemble(envs, _small_cfg(), FIXED_PHI, Rng(4))
    recorder = TraceRecorder(envs, CROSS_ENTROPY, None, 10)
    first, _ = recorder.record(model, 1, "init")
    model.classifiers[1].layers[-1].bias[0] += 5.0
    passes = []
    predict = recorder._predict

    def checked(net, x):
        passes.append(id(net) in recorder._runs)
        return predict(net, x)

    recorder._predict = checked
    moved, _ = recorder.record(model, 2, "check")
    assert passes == [False]  # only the moved classifier ran, and its entry was gone
    fresh, _ = TraceRecorder(envs, CROSS_ENTROPY, None, 10).record(model, 2, "check")
    npt.assert_equal(dataclasses.asdict(moved), dataclasses.asdict(fresh))
    assert moved.env_risks != first.env_risks
    net, params, _, _ = recorder._runs[id(model.classifiers[1])]
    assert net is model.classifiers[1]
    assert all(map(np.array_equal, params, net.parameters()))


def test_narrowed_pool_rows_equal_a_full_width_pools():
    bench = _small_bench(n=200)
    envs = bench.train_envs
    width = envs[0].features.shape[1]
    cfg = _small_cfg(max_iters=3, dropout_rate=0.5)
    models = {
        mode: best_response_train(envs, cfg, mode)[0] for mode in (FIXED_PHI, VARIABLE_PHI)
    }
    models["ROBUST"] = baselines.as_ensemble(baselines.train_robust_minmax(envs, cfg)[0])
    models["ERM"] = baselines.as_ensemble(baselines.train_erm(envs, cfg)[0])
    for name, model in models.items():
        # ERM's one player is its two datasets pooled
        players = [baselines.pool_environments(envs)] if name == "ERM" else envs
        narrowed = TraceRecorder(players, CROSS_ENTROPY, bench.test_env, 1)
        assert narrowed.features.shape[1] < width
        assert narrowed.features.shape[0] < 2 * envs[0].features.shape[0]
        assert narrowed.tail.shape[0] < bench.test_env.features.shape[0]
        rec, _ = narrowed.record(model, 1, "check")
        ref = _full_width_row(model, players, bench.test_env)
        _assert_rows_match(rec, ref, model, players, name)


class _EvaluatedRecorder(TraceRecorder):
    """Checks every test accuracy against evaluate on the test split for the same state."""

    checked = 0

    def __init__(self, envs, loss, test_env, test_every):
        super().__init__(envs, loss, test_env, test_every)
        self.test_env = test_env

    def record(self, model, step, owner, monitor=None):
        rec, fired = super().record(model, step, owner, monitor)
        if rec.test_acc is not None:
            assert rec.test_acc == evaluate(model, self.test_env)["accuracy"], (owner, step)
            _EvaluatedRecorder.checked += 1
        return rec, fired


def test_test_accuracy_equals_evaluate_for_every_method(monkeypatch):
    monkeypatch.setattr(game, "TraceRecorder", _EvaluatedRecorder)
    bench = _small_bench(n=120)
    cfg = _small_cfg(max_iters=6, dropout_rate=0.5, lr=1e-2, test_every=2)
    envs, test = bench.train_envs, bench.test_env
    runs = {
        "F_IRM": lambda: best_response_train(envs, cfg, FIXED_PHI, test_env=test),
        "V_IRM": lambda: best_response_train(envs, cfg, VARIABLE_PHI, test_env=test),
        "ROBUST": lambda: baselines.train_robust_minmax(envs, cfg, test_env=test),
        "ERM": lambda: baselines.train_erm(envs, cfg, test_env=test),
        "ORACLE": lambda: baselines.train_erm([bench.oracle_env], cfg, test_env=bench.oracle_test),
    }
    for name, run in runs.items():
        before = _EvaluatedRecorder.checked
        run()
        assert _EvaluatedRecorder.checked > before, name


def test_lone_dataset_goes_through_the_pool(unslabbed):
    # SEM rows are continuous and never repeat: the pool holds every row in order
    sem_envs, _ = make_linear_sem(default_sem_spec(200), Rng(0))
    env, test = sem_envs
    recorder = TraceRecorder([env], SQUARED, test, 1)
    assert recorder.features.columns == [None] and recorder.rows is None and recorder.test_rows is None
    assert recorder.features.blocks[0].tobytes() == env.features.tobytes()
    assert recorder.tail.blocks[0].tobytes() == test.features.tobytes()
    # the targets are not copied: a lone dataset's are used as they are
    assert np.shares_memory(recorder.targets, env.targets)
    assert np.shares_memory(recorder.data[0][1], env.targets)
    assert TraceRecorder([env], SQUARED, None, 1).tail is None
    # binary shapes repeat: ORACLE's rows go through the distinct, narrowed pool
    bench = _small_bench(n=120)
    env, test = bench.oracle_env, bench.oracle_test
    recorder = TraceRecorder([env], CROSS_ENTROPY, test, 1)
    width = env.features.shape[1]
    assert recorder.features.shape[0] < env.features.shape[0]
    assert recorder.features.shape[1] < width and len(recorder.features.blocks) == 1
    pool = np.vstack([unslabbed(recorder.features, width), unslabbed(recorder.tail, width)])
    npt.assert_array_equal(pool[recorder.rows], env.features)
    npt.assert_array_equal(pool[recorder.test_rows], test.features)
    assert np.shares_memory(recorder.targets, env.labels)
    assert np.shares_memory(recorder.bits, env.spurious_bits)


def _row_bytes(x):
    return (row.tobytes() for row in x)


def _in_first_occurrence_order(slabs, rows, width, unslabbed):
    """Whether each slab of rows holds distinct rows in the order they first occur in rows."""
    first = {}
    for k, row in enumerate(_row_bytes(rows)):
        first.setdefault(row, k)
    pool = list(_row_bytes(unslabbed(slabs, width)))
    at = np.cumsum([0] + [block.shape[0] for block in slabs.blocks])
    return all(np.all(np.diff([first[row] for row in pool[lo:hi]]) > 0)
               for lo, hi in zip(at[:-1], at[1:]))


def test_tail_holds_the_distinct_test_rows_no_training_row_equals(unslabbed):
    bench = _small_bench(n=200)
    recorder = TraceRecorder(bench.train_envs, CROSS_ENTROPY, bench.test_env, 1)
    train = np.vstack([env.features for env in bench.train_envs])
    test = bench.test_env.features
    width = train.shape[1]
    seen = set(_row_bytes(train))
    new = [row for row in _row_bytes(test) if row not in seen]
    assert 0 < len(set(new)) < len(new) < test.shape[0]  # test rows repeat and meet training rows
    tail, features = unslabbed(recorder.tail, width), unslabbed(recorder.features, width)
    assert sorted(_row_bytes(tail)) == sorted(set(new))
    assert sorted(_row_bytes(features)) == sorted(set(_row_bytes(train)))
    new_rows = np.frombuffer(b"".join(new), test.dtype).reshape(len(new), width)
    assert _in_first_occurrence_order(recorder.tail, new_rows, width, unslabbed)
    assert _in_first_occurrence_order(recorder.features, train, width, unslabbed)
    pool = np.vstack([features, tail])
    assert pool[recorder.test_rows].tobytes() == test.tobytes()
    assert pool[recorder.rows].tobytes() == train.tobytes()


def test_byte_features_are_widened_a_block_at_a_time(peak_bytes):
    bench = make_benchmark("COLORED_SHAPES", (2000, 2000, 2000), 0)
    envs, test = bench.train_envs, bench.test_env
    built = []
    peak = peak_bytes(lambda: built.append(TraceRecorder(envs, CROSS_ENTROPY, test, 1)))
    recorder = built[0]
    assert all(block.dtype == np.uint8 for block in recorder.features.blocks + recorder.tail.blocks)
    pool_rows = recorder.features.shape[0] + recorder.tail.shape[0]
    assert peak < pool_rows * recorder.features.shape[1] * 8  # the pool in float64: 12.5 MiB
    # evaluation at the paper width: the rows are widened one predict block at a time
    pooled = baselines.pool_environments([*envs, test])
    wide = EnvironmentDataset(pooled.features.astype(np.float64), pooled.labels,
                              pooled.spurious_bits, "wide", float("nan"))
    clf = nn.make_mlp((pooled.features.shape[1], 390, 2), Rng(1))
    model = EnsembleModel([clf, clf.copy()])
    for fn in (evaluate, spurious_correlation):
        assert fn(model, pooled) == fn(model, wide), fn.__name__
        assert peak_bytes(lambda: fn(model, pooled)) < wide.features.nbytes / 2, fn.__name__


def test_colour_slabs_follow_the_declared_colour_first_lit_pixel_first(unslabbed):
    # each row's colour is its declared bit (1 red, 0 green); the colour whose
    # lowest lit pixel over the training and test rows is lower is the first
    # slab, red on a tie; the last row of each case is the test row
    cases = [
        (([3, 4], [6], [9]), (1, 0, 0), "red"),
        (([6], [3, 4], [9]), (1, 0, 1), "green"),
        (([5, 6], [5, 7], [8]), (1, 0, 1), "red"),
        (([5], [6], [1]), (1, 0, 0), "green"),
    ]
    for lit, bits, first in cases:
        masks = np.zeros((3, 16), np.uint8)
        for row, pixels in enumerate(lit):
            masks[row, pixels] = 1
        bits, y = np.array(bits), np.zeros(3, np.int64)
        train = ColorEnvironment(masks[:2], y[:2], bits[:2], "train", 0.1)
        test = ColorEnvironment(masks[2:], y[2:], bits[2:], "test", 0.9)
        recorder = TraceRecorder([train], CROSS_ENTROPY, test, 1)
        columns = {
            "red": [3 * p for p in sorted({p for pixels, b in zip(lit, bits) if b for p in pixels})],
            "green": [3 * p + 1 for p in sorted({p for pixels, b in zip(lit, bits) if not b for p in pixels})],
        }
        order = [first, "green" if first == "red" else "red"]
        assert [c.tolist() for c in recorder.features.columns] == [columns[c] for c in order], lit
        assert recorder.tail.columns is recorder.features.columns
        pool = np.vstack([unslabbed(recorder.features, 48), unslabbed(recorder.tail, 48)])
        rows = np.arange(3) if recorder.rows is None else np.concatenate(
            [recorder.rows, recorder.test_rows])
        npt.assert_array_equal(pool[rows], np.vstack([train.features, test.features]))
    # a pool of one colour is one slab
    lone = ColorEnvironment(masks, y, np.ones(3, np.int64), "red", 0.1)
    assert TraceRecorder([lone], CROSS_ENTROPY, None, 1).features.columns[0].tolist() == [3, 15, 18]


def test_recorder_pools_a_large_canvas_in_a_few_times_its_mask_bytes(peak_bytes):
    # the pool is read from the masks by colour: no dense row of the pool and
    # no column-by-column structure of the 3 * 48 * 48 dense columns is built
    bench = make_benchmark("COLORED_SHAPES", (1000, 1000, 1000), 0, height=48, width=48)
    envs, test = bench.train_envs, bench.test_env
    TraceRecorder([envs[0]], CROSS_ENTROPY, None, 1)  # so one-time imports are not counted
    built = []
    peak = peak_bytes(lambda: built.append(TraceRecorder(envs, CROSS_ENTROPY, test, 1)))
    masks = sum(env.masks.nbytes for env in (*envs, test))  # 6.6 MiB
    assert peak < 3 * masks
    assert [set(c % 3) for c in built[0].features.columns] == [{0}, {1}]


def test_colored_shapes_split_into_one_slab_per_colour(unslabbed):
    bench = _small_bench(n=200)
    envs, test = bench.train_envs, bench.test_env
    width = test.features.shape[1]
    for players in (envs, [baselines.pool_environments(envs)]):  # the game's players, then ERM's
        recorder = TraceRecorder(players, CROSS_ENTROPY, test, 1)
        columns = recorder.features.columns
        assert recorder.tail.columns is columns
        # red is channel 0 and green channel 1 of each pixel; blue is never lit
        assert [set(c % 3) for c in columns] == [{0}, {1}]
        train = np.vstack([env.features for env in envs])
        pool = np.vstack([unslabbed(recorder.features, width), unslabbed(recorder.tail, width)])
        # every pooled row rebuilds from its slab, zero outside the slab's columns
        npt.assert_array_equal(pool[recorder.rows], train)
        npt.assert_array_equal(pool[recorder.test_rows], test.features)
    # a dense dataset pooled with COLOR ones takes the dense path: one group
    dense = EnvironmentDataset(train, np.concatenate([env.labels for env in envs]),
                               np.concatenate([env.spurious_bits for env in envs]), "dense", 0.0)
    mixed = TraceRecorder([dense], CROSS_ENTROPY, test, 1)
    assert mixed.features.columns[0].tolist() == np.flatnonzero(np.any(train, axis=0) | np.any(
        test.features, axis=0)).tolist()
    pool = np.vstack([unslabbed(mixed.features, width), unslabbed(mixed.tail, width)])
    npt.assert_array_equal(pool[mixed.rows], train)
    npt.assert_array_equal(pool[mixed.test_rows], test.features)
    # ORACLE's grayscale rows and SEM's continuous ones are one group each
    oracle = TraceRecorder([bench.oracle_env], CROSS_ENTROPY, bench.oracle_test, 1)
    assert len(oracle.features.blocks) == len(oracle.tail.blocks) == 1
    sem_envs, _ = make_linear_sem(default_sem_spec(200), Rng(0))
    assert len(TraceRecorder(sem_envs, SQUARED, None, 1).features.blocks) == 1


# A recorder pass of more than one nn.predict block is one nn.predict_parts
# call, which runs on the caller and a helper thread when two CPUs may be used.
def _cpus(monkeypatch, cpus=(0, 1)):
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: set(cpus))


def _paper_width_recorder():
    """A recorder whose unbalanced colour slabs each span several 672-row blocks
    at width 390, with a ragged last block, and whose tail spans two; and a
    paper-width classifier, representation and head on its representation."""
    bench = make_benchmark("COLORED_SHAPES", (6000, 6000, 2000), 0)
    recorder = TraceRecorder(bench.train_envs, CROSS_ENTROPY, bench.test_env, 1)
    rows = nn._block_rows(nn.make_mlp((1, 390, 2), Rng(0)))
    sizes = [b.shape[0] for b in recorder.features.blocks]
    assert rows == 672 and min(sizes) > 2 * rows and len(set(sizes)) == 2
    assert all(size % rows for size in sizes) and recorder.tail.shape[0] > rows
    nets = [nn.make_mlp((768, 390, 390, 2), Rng(1)), nn.make_mlp((768, 390, 390), Rng(2)),
            nn.make_mlp((390, 390, 390, 2), Rng(3))]
    return recorder, nets


def _per_slab_predict(net, x):
    """nn.predict on each slab with its columns' weight rows, end to end."""
    if not isinstance(x, game.Slabs):
        return nn.predict(net, x)
    return np.vstack([nn.predict(game._first_rows(net, c), b) for c, b in zip(x.columns, x.blocks)])


def _passes(recorder, clf, phi, head):
    """(name, net, input) of the recorder's passes: uint8 slabs, the tail, and a dense float64 input."""
    z = _per_slab_predict(phi, recorder.features)
    return [("features", clf, recorder.features), ("tail", clf, recorder.tail),
            ("phi", phi, recorder.features), ("dense", head, z)]


def test_a_multi_block_pass_on_two_threads_is_per_slab_predict_bit_for_bit(monkeypatch):
    recorder, (clf, phi, head) = _paper_width_recorder()
    passes = _passes(recorder, clf, phi, head)
    expected = [_per_slab_predict(net, x) for _, net, x in passes]
    _cpus(monkeypatch)
    alive = threading.enumerate()
    threads, helper_ran = [], threading.Event()

    def tracked(net, x, work=None):
        # the caller waits until the helper has taken a block, so both run some
        if threading.current_thread() is threading.main_thread():
            assert helper_ran.wait(30)
        else:
            helper_ran.set()
        threads.append(threading.get_ident())
        return run(net, x, work)

    run = nn._predict_block
    monkeypatch.setattr(nn, "_predict_block", tracked)
    public = []  # (name, thread) of every public nn call: a profiler sees these alone

    def logged(name, fn):
        def call(*args, **kwargs):
            public.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return call

    for name, fn in list(vars(nn).items()):
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == nn.__name__:
            monkeypatch.setattr(nn, name, logged(name, fn))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the interpreter lock as often as they can
    try:
        for (name, net, x), want in zip(passes, expected):
            helper_ran.clear()
            threads.clear()
            public.clear()
            got = recorder._predict(net, x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert public == [("predict_parts", threading.main_thread())], name
            slabs = x.blocks if isinstance(x, game.Slabs) else [x]
            assert len(threads) == sum(-(-b.shape[0] // 672) for b in slabs), name  # each block once
            assert len(set(threads)) == 2, name
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == alive


def test_a_helper_error_is_raised_after_the_helper_stops(monkeypatch, tmp_path):
    _cpus(monkeypatch)
    alive = threading.enumerate()
    helper_ran, blocks = threading.Event(), []

    def failing(net, x, work=None):
        if work is not None and len(work) == 3:  # a block of a two-thread pass
            if threading.current_thread() is threading.main_thread():
                assert helper_ran.wait(30)
            else:
                helper_ran.set()
                blocks.append(x.shape[0])
                if len(blocks) == 3:
                    raise MemoryError("Unable to allocate 2. MiB")
        return run(net, x, work)

    run = nn._predict_block
    monkeypatch.setattr(nn, "_predict_block", failing)
    cfg = cli.ExperimentConfig(
        sizes=(6000, 6000, 2000), methods=("F_IRM",), n_seeds=1, out_dir=str(tmp_path),
        train=TrainConfig(max_iters=1, termination=TerminationRule(enabled=False)),
    )
    with pytest.raises(cli.ConfigError, match=r"sizes \[6000, 6000, 2000\].*2\. MiB"):
        cli.run_experiment(cfg)
    assert len(blocks) == 3
    assert threading.enumerate() == alive


def _no_threads(*args, **kwargs):
    raise AssertionError("a helper thread was started")


def test_no_helper_starts_on_desk_widths_or_one_cpu(monkeypatch):
    bench = _small_bench(n=2000)
    cfg = dataclasses.replace(_small_cfg(max_iters=5), hidden_dims=(64, 64),
                              phi_hidden_dims=(64,), repr_dim=64)
    runs = {}
    for mode in (FIXED_PHI, VARIABLE_PHI):
        model, trace = best_response_train(bench.train_envs, cfg, mode, test_env=bench.test_env)
        runs[mode] = (model, [dataclasses.astuple(r) for r in trace.records])
    recorder, (clf, phi, head) = _paper_width_recorder()
    passes = _passes(recorder, clf, phi, head)
    expected = [_per_slab_predict(net, x).tobytes() for _, net, x in passes]
    monkeypatch.setattr(threading, "Thread", _no_threads)
    # every desk pass is one block: 4096 rows at width 64
    _cpus(monkeypatch)
    for mode, (model, records) in runs.items():
        again, trace = best_response_train(bench.train_envs, cfg, mode, test_env=bench.test_env)
        assert [dataclasses.astuple(r) for r in trace.records] == records, mode
        nets = [*model.classifiers, *([model.representation] if model.representation else [])]
        redone = [*again.classifiers, *([again.representation] if again.representation else [])]
        assert [_params_digest(n) for n in redone] == [_params_digest(n) for n in nets], mode
    _cpus(monkeypatch, (0,))
    got = [recorder._predict(net, x).tobytes() for _, net, x in passes]
    assert got == expected
