import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eirm import cli, datasets
from eirm.baselines import as_ensemble, pool_environments, train_erm, train_robust_minmax
from eirm.cli import METHODS, ConfigError, load_config, main
from eirm.datasets import make_benchmark
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
    ({"train": {"seed": 7}}, "train.seed"),
    ({"train": {"lr": float("nan")}}, "train.lr"),
    ({"train": {"lr": float("inf")}}, "train.lr"),
    ({"baseline_lr": float("inf")}, "baseline_lr"),
    ({"flip_probs": [0.2, float("-inf"), 0.9]}, "flip_probs"),
    ({"train": {"l2_coeff": -1.0}}, "train.l2_coeff"),
    ({"train": {"l2_coeff": float("nan")}}, "train.l2_coeff"),
    ({"train": {"lr": 1e18}}, "train.lr"),
    ({"baseline_lr": 1e18}, "baseline_lr"),
    ({"train": {"l2_coeff": 1e18}}, "train.l2_coeff"),
    ({"train": {"termination": {"min_steps": -5}}}, "train.termination.min_steps"),
    ({"train": {"termination": {"threshold": float("nan")}}}, "train.termination.threshold"),
    ({"train": {"termination": {"window": 10**23}}}, "train.termination.window"),
    ({"train": {"hidden_dims": [10**20]}}, "train.hidden_dims"),
    ({"height": 10**20}, "height"),
    ({"sizes": [10**20, 20, 20]}, "sizes"),
    ({"benchmark": "COLORED_DIGITS"}, "benchmark"),
    ({"data_dir": "x"}, "data_dir"),
    ({"methods": []}, "methods"),
    ({"methods": ["ERM", "ERM"], "n_seeds": 1}, "methods"),
    ({"train": {"termination": {"threshold": -0.5}}}, "train.termination.threshold"),
    ({"train": {"termination": {"threshold": 1.5}}}, "train.termination.threshold"),
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


# loads and validates, but its canvas needs hundreds of GiB: numpy's MemoryError is reported
TOO_BIG = {"height": 1000000000, "sizes": [10, 10, 10], "n_seeds": 1, "methods": ["ERM"]}


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    too_big = dict(TOO_BIG, out_dir=str(tmp_path / "out"))
    for raw, field in [({"benchmark": "NOPE"}, "benchmark"), *BAD_CONFIGS, (too_big, "height")]:
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2, field
        assert field in capsys.readouterr().err, field


def test_running_out_of_memory_in_training_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. GiB")

    monkeypatch.setattr(cli, "train_erm", out_of_memory)
    path = _write_config(tmp_path, methods=["ERM"], height=20, width=18, out_dir=str(tmp_path / "out"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for named in ("sizes [120, 120, 120]", "20x18 canvas", "hidden_dims [8, 8]",
                  "phi_hidden_dims [8]", "repr_dim 8", "512. GiB"):
        assert named in err, named


def test_only_oracle_derives_the_oracle_splits(tmp_path, monkeypatch):
    def underived(envs, env_id):
        raise AssertionError(f"{env_id} derived")

    monkeypatch.setattr(datasets, "_grayscale", underived)
    path = _write_config(tmp_path, methods=["F_IRM", "V_IRM", "ERM", "ROBUST"])
    assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    path = _write_config(tmp_path, methods=["ORACLE"])
    with pytest.raises(AssertionError, match="oracle derived"):
        main(["run", str(path), "--out", str(tmp_path / "b")])


def test_a_run_never_reads_a_colour_environments_dense_features(tmp_path, monkeypatch):
    # training batches are built from the masks per batch and the trace pool
    # per colour, so no method builds a COLOR environment's dense rows; every
    # last trace row carries a test accuracy, so none is evaluated afterwards
    def dense(env):
        raise AssertionError(f"dense features of {env.env_id} read")

    monkeypatch.setattr(datasets.ColorEnvironment, "features", property(dense))
    path = _write_config(tmp_path, methods=["F_IRM", "V_IRM", "ERM", "ROBUST", "ORACLE"])
    cfg = load_config(path, preset="desk")
    cfg.sizes, cfg.baseline_iters = (200, 200, 200), 10
    cfg.train = dataclasses.replace(cfg.train, max_iters=4, test_every=2,
                                    termination=TerminationRule(enabled=False))
    results = cli.run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert sorted(results) == sorted(["F_IRM", "V_IRM", "ERM", "ROBUST", "ORACLE"])
    for method in results:
        last = (tmp_path / "out" / f"trace_{method}_seed0.csv").read_text().splitlines()[-1]
        assert last.split(",")[-1] != "", method


def test_a_run_never_unpacks_a_colour_environments_images_whole(tmp_path, monkeypatch):
    # training batches (256 rows), the trace pool (512-row blocks) and test
    # evaluation unpack the packed images a part at a time, so with 600 rows
    # an environment no read unpacks as many rows as one holds; ORACLE, whose
    # splits unpack every image on purpose, is left out
    unpack = datasets.PackedMasks.__getitem__

    def in_parts(packed, idx):
        masks = unpack(packed, idx)
        assert masks.ndim == 1 or masks.shape[0] < 600, f"{masks.shape[0]} rows unpacked at once"
        return masks

    monkeypatch.setattr(datasets.PackedMasks, "__getitem__", in_parts)
    methods = ["F_IRM", "V_IRM", "ERM", "ROBUST"]
    path = _write_config(tmp_path, methods=methods)
    cfg = load_config(path, preset="desk")
    cfg.sizes, cfg.baseline_iters = (600, 600, 600), 10
    cfg.train = dataclasses.replace(cfg.train, max_iters=4, test_every=2,
                                    termination=TerminationRule(enabled=False))
    results = cli.run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert sorted(results) == sorted(methods)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
    | st.floats() | st.text(max_size=6)
    | st.sampled_from([*METHODS, "COLORED_SHAPES", "COLORED_DIGITS", "squared"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _field_paths(cls, prefix=()):
    for f in dataclasses.fields(cls):
        yield (*prefix, f.name)
        if dataclasses.is_dataclass(f.default_factory):
            yield from _field_paths(f.default_factory, (*prefix, f.name))


@settings(max_examples=400, deadline=None)
@example([(("baseline_lr",), 2.0**63)])
@given(st.lists(st.tuples(st.sampled_from(list(_field_paths(cli.ExperimentConfig))), _JSON_VALUES),
                max_size=3))
def test_any_json_field_values_build_a_config_or_raise_config_error(entries):
    raw = {}
    for path, value in entries:
        at = raw
        for key in path[:-1]:
            if not isinstance(at.get(key), dict):
                at[key] = {}
            at = at[key]
        at[path[-1]] = value
    try:
        cfg = cli._from_json(cli.ExperimentConfig, raw, "")
        cfg.validate()
    except ConfigError:
        return
    # a config that loads holds only numbers numpy and the training loop can take
    numbers, todo = [], [dataclasses.asdict(cfg)]
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            todo.extend(v.values())
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
        elif isinstance(v, (int, float)):
            numbers.append(v)
    assert all(math.isfinite(v) and -2**63 <= v < 2**63 for v in numbers), numbers


def test_preset_overrides_architecture(tmp_path):
    cfg = _write_config(tmp_path)
    loaded = load_config(cfg, preset="desk")
    assert loaded.train.hidden_dims == (64, 64)
    assert loaded.sizes == (2000, 2000, 2000)
    with pytest.raises(ConfigError, match="preset"):
        load_config(cfg, preset="galactic")


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
    # a box too narrow for an 11-point grid: bounded builds no grid
    narrow = ["--c1", "0.1", "--c2", "0.1", "--lo", "-0.3", "--hi", "0.3"]
    assert main(["theory", "bounded", *narrow]) == 0
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
    (["theory", "bounded", "--lo", "1", "--hi", "-1"], "below"),
    (["theory", "grid", "--c1", "nan"], "minimizers"),
    (["theory", "grid", "--c2", "inf"], "minimizers"),
    (["theory", "nash", "--seed", "-1"], "--seed"),
    (["theory", "nash", "--budget", "50"], "--budget"),
    (["theory", "invariance", "--samples", "10"], "--samples"),
    (["run", "CONFIG", "--seed-offset", "-1"], "--seed-offset"),
    (["theory", "grid", "--lo=-inf", "--hi", "inf"], "lo"),
    (["theory", "bounded", "--c1", "nan"], "minimizers"),
    (["theory", "nash", "--eps", "inf"], "--eps"),
    (["theory", "invariance", "--eps", "nan"], "--eps"),
    (["theory", "nash", "--eps", "-1"], "--eps"),
    (["theory", "grid", "--step", "1e-6"], "4001"),
    (["theory", "grid", "--step", "1e-300"], "4001"),
])
def test_bad_arguments_exit_2_before_any_work(argv, named, tmp_path, capsys, monkeypatch):
    # the certificates' minimums are checked before the SEM game is trained
    monkeypatch.setattr(cli, "train_sem_game", None)
    config, out = _write_config(tmp_path), tmp_path / "out"
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    assert main([*argv, "--out", str(out)] if argv[0] == "run" else argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["run", "DIR"], "Is a directory"),
    (["run", "LATIN1"], "config: not UTF-8"),
    (["run", "CONFIG", "--out", "FILE"], "File exists"),
    (["theory", "grid", "--report", "DIR"], "Is a directory"),
    (["theory", "nash", "--report", "DIR"], "Is a directory"),
    (["theory", "bounded", "--report", "DIR"], "Is a directory"),
])
def test_unusable_paths_exit_2(argv, named, tmp_path, capsys, monkeypatch):
    # a path that cannot be read or written is reported like a bad config,
    # before any training or printing
    monkeypatch.setattr(cli, "best_response_train", None)
    monkeypatch.setattr(cli, "train_sem_game", None)
    paths = {"DIR": tmp_path, "CONFIG": _write_config(tmp_path),
             "FILE": tmp_path / "file", "LATIN1": tmp_path / "latin1.json"}
    paths["FILE"].write_text("x")
    paths["LATIN1"].write_bytes('{"out_dir": "café"}'.encode("latin-1"))
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["theory", "invariance", "--budget", "5"],
    ["theory", "nash", "--samples", "1"],
])
def test_each_certificate_takes_only_its_own_size_option(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_sem_game", None)
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err
