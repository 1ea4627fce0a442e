import dataclasses
import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from eirm import baselines, game, nn
from eirm.core import Rng, softmax_rows
from eirm.datasets import make_benchmark, make_linear_sem, make_spurious_env, synth_shapes
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
    spurious_correlation,
)
from eirm.sem_game import default_sem_spec, sem_train_config, train_sem_game


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
    with pytest.raises(ValueError):
        EnsembleModel([a], None, VARIABLE_PHI)


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
    model = EnsembleModel(clfs, phi, VARIABLE_PHI)
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
    with pytest.raises(ValueError):
        phi_turn(model, [], None)


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
    trace.append(TraceRecord(1, "env0", 0.5, [0.1], [0.5], 0.0, [0.0]))
    with pytest.raises(ValueError):
        trace.append(TraceRecord(1, "env1", 0.5, [0.1], [0.5], 0.0, [0.0]))


def test_trace_csv_schema(tmp_path):
    trace = TrainTrace()
    trace.append(TraceRecord(1, "env0", 0.5, [0.1, 0.2], [0.5, 0.6], 0.25, [0.1, 0.2]))
    trace.append(TraceRecord(2, "env1", 0.625, [0.1, 0.2], [0.5, 0.6], float("nan"),
                             [0.1, 0.2], 0.75))
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
    with pytest.raises(ValueError, match="fixed_phi model, the game is variable_phi"):
        best_response_train(envs, cfg, VARIABLE_PHI, model=fixed)
    with pytest.raises(ValueError, match="model has 2 classifiers"):
        best_response_train(envs + envs[:1], cfg, FIXED_PHI, model=fixed)
    lone = build_ensemble(envs[:1], cfg, FIXED_PHI, Rng(0))
    with pytest.raises(ValueError, match="model has 1 classifiers"):
        best_response_train(envs, cfg, FIXED_PHI, model=lone)


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
    runs = {
        "F_IRM": lambda: best_response_train(bench.train_envs, cfg, FIXED_PHI, test_env=bench.test_env),
        "V_IRM": lambda: best_response_train(bench.train_envs, cfg, VARIABLE_PHI, test_env=bench.test_env),
        "ROBUST": lambda: baselines.train_robust_minmax(bench.train_envs, cfg, test_env=bench.test_env),
        "SEM": lambda: train_sem_game(default_sem_spec(200), sem_train_config(max_iters=4)),
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


def test_recorder_pools_only_the_lit_columns():
    envs = _small_bench(n=200).train_envs
    recorder = TraceRecorder(envs, CROSS_ENTROPY, None, 10)
    full = np.vstack([env.features for env in envs])
    assert full.shape[1] == 768 and recorder.features.shape[1] < 768
    assert np.any(recorder.features, axis=0).all()
    npt.assert_array_equal(recorder.features[recorder.rows], full[:, recorder.columns])
    dropped = np.setdiff1d(np.arange(full.shape[1]), recorder.columns)
    assert not np.any(full[:, dropped])
    # no SEM column is zero in every row: the pool keeps them all
    sem_envs, _ = make_linear_sem(default_sem_spec(200), Rng(0))
    sem = TraceRecorder(sem_envs, SQUARED, None, 10)
    assert sem.columns is None and sem.rows is None
    npt.assert_array_equal(sem.features, np.vstack([env.features for env in sem_envs]))


def _assert_rows_match(rec, ref, model, envs, label):
    """A narrowed pool's row against a full-width pool's row for the same model state."""
    assert rec.ens_train_acc == ref.ens_train_acc, label
    assert rec.ens_spur_corr == ref.ens_spur_corr, label
    assert rec.w_spur_corrs == ref.w_spur_corrs, label
    assert rec.test_acc == ref.test_acc, label
    # per environment, against a full-width pass over its own rows
    for env, risk, acc in zip(envs, rec.env_risks, rec.env_accs):
        by_env = evaluate(model, env)
        assert acc == by_env["accuracy"], label
        npt.assert_allclose(risk, by_env["risk"], rtol=1e-12, atol=0, err_msg=label)


def test_recorder_keeps_each_distinct_row_once():
    envs = _small_bench(n=200).train_envs
    recorder = TraceRecorder(envs, CROSS_ENTROPY, None, 10)
    full = np.vstack([env.features for env in envs])
    assert len(np.unique(full, axis=0)) < full.shape[0]  # binary shapes repeat
    assert recorder.features.shape[0] == len(np.unique(full, axis=0))
    assert recorder.rows.shape == (full.shape[0],)
    npt.assert_array_equal(recorder.features[recorder.rows], full[:, recorder.columns])
    # first-occurrence order
    assert np.all(np.diff(np.unique(recorder.rows, return_index=True)[1]) > 0)
    npt.assert_array_equal(recorder.targets, np.concatenate([env.labels for env in envs]))


def test_colliding_row_keys_keep_every_row(monkeypatch):
    bench = _small_bench(n=200)
    envs = bench.train_envs
    model, _ = best_response_train(envs, _small_cfg(max_iters=3, dropout_rate=0.5), FIXED_PHI)
    full = TraceRecorder([baselines.pool_environments(envs)], CROSS_ENTROPY, bench.test_env, 1)
    ref, _ = full.record(model, 1, "check")
    monkeypatch.setattr(game, "_row_keys", lambda x: np.zeros(x.shape[0]))
    recorder = TraceRecorder(envs, CROSS_ENTROPY, bench.test_env, 1)
    assert recorder.rows is None and recorder.test_rows is None
    npt.assert_array_equal(recorder.features, full.features[:, recorder.columns])
    npt.assert_array_equal(recorder.tail, bench.test_env.features[:, recorder.columns])
    rec, _ = recorder.record(model, 1, "check")
    _assert_rows_match(rec, ref, model, envs, "colliding keys")
    assert rec.test_acc == evaluate(model, bench.test_env)["accuracy"]


def test_narrowed_pool_rows_equal_a_full_width_pools():
    bench = _small_bench(n=200)
    envs = bench.train_envs
    pool = baselines.pool_environments(envs)
    full = TraceRecorder([pool], CROSS_ENTROPY, bench.test_env, 1)
    assert full.features.shape == pool.features.shape and full.rows is None
    cfg = _small_cfg(max_iters=3, dropout_rate=0.5)
    models = {
        mode: best_response_train(envs, cfg, mode)[0] for mode in (FIXED_PHI, VARIABLE_PHI)
    }
    models["ROBUST"] = baselines.as_ensemble(baselines.train_robust_minmax(envs, cfg)[0])
    for name, model in models.items():
        narrowed = TraceRecorder(envs, CROSS_ENTROPY, bench.test_env, 1)
        assert narrowed.features.shape[1] < pool.features.shape[1]
        assert narrowed.features.shape[0] < pool.features.shape[0]
        assert narrowed.tail.shape[0] < bench.test_env.features.shape[0]
        rec, _ = narrowed.record(model, 1, "check")
        ref, _ = full.record(model, 1, "check")
        _assert_rows_match(rec, ref, model, envs, name)


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


def test_lone_environment_runs_the_test_split_as_it_is():
    bench = _small_bench(n=120)
    for env, test in ((bench.train_envs[0], bench.test_env), (bench.oracle_env, bench.oracle_test)):
        recorder = TraceRecorder([env], CROSS_ENTROPY, test, 1)
        assert recorder.features is env.features and recorder.tail is test.features
        assert recorder.columns is None and recorder.rows is None and recorder.test_rows is None
    assert TraceRecorder([env], CROSS_ENTROPY, None, 1).tail is None


def _row_bytes(x):
    return (row.tobytes() for row in x)


def test_tail_holds_the_distinct_test_rows_no_training_row_equals():
    bench = _small_bench(n=200)
    recorder = TraceRecorder(bench.train_envs, CROSS_ENTROPY, bench.test_env, 1)
    cols = recorder.columns
    train = np.vstack([env.features for env in bench.train_envs])[:, cols]
    test = bench.test_env.features[:, cols]
    seen = set(_row_bytes(train))
    new = [row for row in _row_bytes(test) if row not in seen]
    assert 0 < len(set(new)) < len(new) < test.shape[0]  # test rows repeat and meet training rows
    assert list(_row_bytes(recorder.tail)) == list(dict.fromkeys(new))  # first-occurrence order
    assert list(_row_bytes(recorder.features)) == list(dict.fromkeys(_row_bytes(train)))
    pool = np.vstack([recorder.features, recorder.tail])
    assert pool[recorder.test_rows].tobytes() == test.tobytes()
    assert pool[recorder.rows].tobytes() == train.tobytes()
