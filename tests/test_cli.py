import dataclasses
import json
import os

import numpy as np
import pytest

from eirm import cli, nn
from eirm.baselines import as_ensemble, pool_environments, train_erm, train_robust_minmax
from eirm.cli import METHODS, ConfigError, load_config, main
from eirm.core import Rng
from eirm.datasets import load_environment, make_benchmark
from eirm.game import (
    FIXED_PHI,
    VARIABLE_PHI,
    TerminationRule,
    TrainConfig,
    best_response_train,
    evaluate,
)


def _write_config(tmp_path, **overrides):
    cfg = {
        "benchmark": "COLORED_SHAPES",
        "sizes": [120, 120, 120],
        "n_seeds": 1,
        "methods": ["F_IRM", "ERM"],
        "baseline_iters": 10,
        "train": {
            "hidden_dims": [8, 8],
            "repr_dim": 8,
            "phi_hidden_dims": [8],
            "dropout_rate": 0.0,
            "max_iters": 10,
            "termination": {"enabled": False},
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_expected_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "results.md").exists()
    assert (out / "manifest.json").exists()
    assert (out / "trace_F_IRM_seed0.csv").exists()
    assert (out / "trace_ERM_seed0.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [0]
    assert manifest["config"]["benchmark"] == "COLORED_SHAPES"
    assert manifest["wall_time_s"] > 0
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header.startswith("method,train_acc_mean")


def test_run_traces_are_byte_identical_across_reruns(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for name in ("trace_F_IRM_seed0.csv", "trace_ERM_seed0.csv", "results.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_trace_rows_fill_the_header(tmp_path):
    # single-classifier ROBUST writes w0_spur_corr and leaves w1 blank, so
    # test_acc stays in the last column
    cfg = _write_config(tmp_path, methods=list(METHODS))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    traces = sorted(out.glob("trace_*.csv"))
    assert len(traces) == 7
    for path in traces:
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows and all(len(row) == len(header) for row in rows), path.name
    lines = (out / "trace_ROBUST_seed0.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    for row in rows:
        assert row["w0_spur_corr"] == row["ens_spur_corr"] != ""
        assert row["w1_spur_corr"] == ""
    assert rows[9]["test_acc"] != ""


def test_final_trace_row_is_the_returned_models_train_accuracy():
    # run_experiment reads each method's train accuracy from the last trace row
    bench = make_benchmark("COLORED_SHAPES", (120, 120, 120), 0)
    train, oracle = bench.train_envs, [bench.oracle_env]
    cfg = TrainConfig(
        hidden_dims=(8, 8), phi_hidden_dims=(8,), repr_dim=8, max_iters=6,
        termination=TerminationRule(enabled=False),
    )
    stopping = dataclasses.replace(
        cfg, termination=TerminationRule(window=3, quantile=1.0, min_steps=0)
    )

    def baseline(fit, envs):
        mlp, trace = fit(envs, cfg)
        return as_ensemble(mlp), trace

    runs = [
        ("F_IRM", train, lambda: best_response_train(train, cfg, FIXED_PHI)),
        ("V_IRM", train, lambda: best_response_train(train, cfg, VARIABLE_PHI)),
        ("F_IRM stopped", train, lambda: best_response_train(train, stopping, FIXED_PHI)),
        ("ERM", train, lambda: baseline(train_erm, train)),
        ("ROBUST", train, lambda: baseline(train_robust_minmax, train)),
        ("ORACLE", oracle, lambda: baseline(train_erm, oracle)),
    ]
    rows = {}
    for name, envs, run in runs:
        model, trace = run()
        pooled = evaluate(model, pool_environments(envs))["accuracy"]
        assert trace.records[-1].ens_train_acc == pooled, name
        rows[name] = len(trace.records)
    assert rows["F_IRM stopped"] == 3 < rows["F_IRM"]


def test_final_test_accuracy_comes_from_the_last_trace_row(tmp_path, monkeypatch):
    # F-IRM ends at step 20, V-IRM at 30 and the baselines at 10: every last
    # step is a multiple of 10 and none of 7, so the last row holds the test
    # accuracy with test_every 10 and run_experiment evaluates each of the 7
    # trained models itself with test_every 7; the table is the same
    calls = []

    def counting(model, dataset, *args, **kwargs):
        calls.append(dataset)
        return evaluate(model, dataset, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", counting)
    tables = {}
    for test_every, expected in ((10, 0), (7, 7)):
        calls.clear()
        path = _write_config(tmp_path, methods=list(METHODS))
        cfg = json.loads(path.read_text())
        cfg["train"]["test_every"] = test_every
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"every{test_every}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert len(calls) == expected
        tables[test_every] = (out / "results.csv").read_bytes()
    assert tables[10] == tables[7]


def test_run_seed_offset_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2), "--seed-offset", "5"]) == 0
    t1 = (out1 / "trace_F_IRM_seed0.csv").exists()
    t2 = (out2 / "trace_F_IRM_seed5.csv").exists()
    assert t1 and t2


BAD_CONFIGS = [
    ({"n_seeds": "3"}, "n_seeds"),
    ({"sizes": "abc"}, "sizes"),
    ({"train": {"termination": {"bogus": 1}}}, "train.termination.bogus"),
    ({"train": {"loss": "mse"}}, "train.loss"),
    ({"sizes": [-5, 60, 60]}, "sizes"),
    ({"baseline_iters": 0}, "baseline_iters"),
    ({"baseline_lr": -1.0}, "baseline_lr"),
    ({"train": {"loss": "squared"}}, "train.loss"),
    ({"flip_probs": [2.0, 0.1, 0.9]}, "flip_probs"),
    ({"train": {"dropout_rate": 1.0}}, "train.dropout_rate"),
    ({"baseline_dropout": 1.0}, "baseline_dropout"),
    ({"height": 0}, "height"),
    ({"sizes": [60], "flip_probs": [0.9]}, "sizes"),
    ({"sizes": [60, 60], "flip_probs": [0.2, 0.9], "methods": ["ROBUST"]}, "methods"),
    ({"train": {"test_every": 0}}, "train.test_every"),
    ({"train": {"termination": {"window": 0}}}, "train.termination.window"),
    ({"train": {"termination": {"quantile": 1.5}}}, "train.termination.quantile"),
    ({"train": {"termination": {"quantile": -0.1}}}, "train.termination.quantile"),
    ({"train": {"activation": "tanh"}}, "train.activation"),
    ({"train": {"hidden_dims": [0]}}, "train.hidden_dims"),
    ({"train": {"phi_hidden_dims": [8, 0]}}, "train.phi_hidden_dims"),
    ({"train": {"repr_dim": 0}}, "train.repr_dim"),
    ({"seed": -1}, "seed"),
]


def test_config_validation_names_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"benchmark": "NOPE"}))
    with pytest.raises(ConfigError, match="benchmark"):
        load_config(path)
    path.write_text(json.dumps({"methods": ["MAGIC"]}))
    with pytest.raises(ConfigError, match="methods"):
        load_config(path)
    path.write_text(json.dumps({"train": {"learning": 1}}))
    with pytest.raises(ConfigError, match="train.learning"):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    for raw, field in BAD_CONFIGS:
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    with pytest.raises(ValueError, match="loss"):
        TrainConfig(loss="mse")


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for raw, field in [({"benchmark": "NOPE"}, "benchmark"), *BAD_CONFIGS]:
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2, field
        assert field in capsys.readouterr().err, field


def test_truncated_checkpoint_exit_code(tmp_path, capsys):
    path = tmp_path / "clf.eirm"
    nn.save_model(nn.make_mlp((3, 1), Rng(0)), path)
    path.write_bytes(path.read_bytes()[:30])
    assert main(["theory", "nash", "--checkpoints", str(path), str(path)]) == 2
    assert "truncated" in capsys.readouterr().err


def test_missing_idx_corpus_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("EIRM_DATA_DIR", raising=False)
    cfg = _write_config(tmp_path, benchmark="COLORED_DIGITS")
    with pytest.raises(ConfigError, match="data_dir"):
        load_config(cfg)


def test_preset_overrides_architecture(tmp_path):
    cfg = _write_config(tmp_path)
    loaded = load_config(cfg, preset="desk")
    assert loaded.train.hidden_dims == (64, 64)
    assert loaded.sizes == (2000, 2000, 2000)
    with pytest.raises(ConfigError, match="preset"):
        load_config(cfg, preset="galactic")


def test_gen_writes_loadable_caches(tmp_path, capsys):
    out = tmp_path / "cache"
    rc = main([
        "gen", "COLORED_SHAPES", "--sizes", "40", "40", "40",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == [
        "COLORED_SHAPES_env0.eenv",
        "COLORED_SHAPES_env1.eenv",
        "COLORED_SHAPES_oracle.eenv",
        "COLORED_SHAPES_oracle_test.eenv",
        "COLORED_SHAPES_test.eenv",
    ]
    env = load_environment(out / "COLORED_SHAPES_env0.eenv")
    assert env.features.shape == (40, 16 * 16 * 3)
    assert env.flip_prob == 0.2


def test_theory_grid_exit_codes(capsys):
    assert main(["theory", "grid", "--c1", "0.5", "--c2", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "equal=True" in out
    # a no-invariant-predictor instance still exits 0 with the finding shown
    assert main(["theory", "grid", "--c1", "0.0", "--c2", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "no invariant predictor" in out


def test_theory_bounded_reports_fixed_point(capsys):
    assert main(["theory", "bounded", "--c1", "0.3", "--c2", "0.3"]) == 0
    assert "interior=True" in capsys.readouterr().out


def test_theory_grid_report_file(tmp_path):
    report = tmp_path / "grid.txt"
    assert main([
        "theory", "grid", "--c1", "0.5", "--c2", "0.5", "--report", str(report)
    ]) == 0
    text = report.read_text()
    assert "equal=True" in text
    assert "ne_pair_count=" in text


@pytest.mark.parametrize("argv, named", [
    (["theory", "grid", "--step", "0"], "step"),
    (["theory", "grid", "--lo", "-1", "--hi", "2"], "symmetric"),
    (["theory", "bounded", "--lo", "1", "--hi", "-1"], "points"),
    (["gen", "COLORED_SHAPES", "--sizes", "10"], "sizes"),
    (["gen", "COLORED_SHAPES", "--seed", "-1"], "seed"),
    (["theory", "nash", "--seed", "-1"], "--seed"),
    (["theory", "nash", "--budget", "50"], "--budget"),
    (["theory", "invariance", "--samples", "10"], "--samples"),
    (["run", "CONFIG", "--seed-offset", "-1"], "--seed-offset"),
])
def test_bad_arguments_exit_2_before_any_work(argv, named, tmp_path, capsys, monkeypatch):
    # the certificates' minimums are checked before the SEM game is trained
    monkeypatch.setattr(cli, "train_sem_game", None)
    config, out = _write_config(tmp_path), tmp_path / "out"
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    assert main([*argv, "--out", str(out)] if argv[0] in ("gen", "run") else argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()
