"""Config-driven experiment runner: seed sweeps, method dispatch, artifacts.

`eirm run config.json` trains the configured methods over a seed sweep and
writes one trace CSV per (method, seed), a results table (CSV + markdown),
and a manifest. `eirm theory ...` fronts the equilibrium/invariance
certificates, exiting nonzero on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import as_ensemble, train_erm, train_robust_minmax
from .datasets import BENCHMARKS, DEFAULT_FLIP_PROBS, make_benchmark
from .game import (
    FIXED_PHI,
    SQUARED,
    VARIABLE_PHI,
    TerminationRule,
    TrainConfig,
    best_response_train,
    evaluate,
)
from .sem_game import train_sem_game
from .theory import QuadGameSpec, bounded_linear_ne, scalar_game_grid, verify_invariance, verify_nash
from .core import Rng
from . import theory

METHODS = ("F_IRM", "V_IRM", "ERM", "ERM_PER_ENV", "ROBUST", "ORACLE")


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class ExperimentConfig:
    benchmark: str = "COLORED_SHAPES"
    sizes: tuple = (2000, 2000, 2000)
    flip_probs: tuple = DEFAULT_FLIP_PROBS
    # COLORED_SHAPES is the only benchmark, and it reads no corpus, so
    # data_dir must stay null. benchmark and data_dir remain because
    # perfbench/workloads.py reads both and passes data_dir to
    # datasets.make_benchmark; a change to the benchmark can drop them.
    data_dir: str = None
    height: int = 16
    width: int = 16
    methods: tuple = METHODS
    n_seeds: int = 3
    seed: int = 0
    out_dir: str = "results"
    baseline_iters: int = 300
    baseline_lr: float = None  # None: inherit train.lr
    baseline_dropout: float = None  # None: inherit train.dropout_rate
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)

    def validate(self):
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"benchmark: unknown name {self.benchmark!r}")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds: must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.train.seed != 0:
            raise ConfigError(
                f"train.seed: must be 0 (each run trains with its sweep seed), got {self.train.seed}"
            )
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown method {m!r}")
        if len(self.sizes) != len(self.flip_probs):
            raise ConfigError(
                f"sizes: {len(self.sizes)} entries, but flip_probs has {len(self.flip_probs)}"
            )
        if any(size < 1 for size in self.sizes):
            raise ConfigError(f"sizes: every size must be >= 1, got {list(self.sizes)}")
        if len(self.sizes) < 2:
            raise ConfigError("sizes: need at least one training environment before the test one")
        if "ROBUST" in self.methods and len(self.sizes) < 3:
            raise ConfigError("methods: ROBUST needs at least 2 training environments")
        if not all(0.0 <= p <= 1.0 for p in self.flip_probs):
            raise ConfigError(f"flip_probs: every value must be in [0, 1], got {list(self.flip_probs)}")
        if self.data_dir is not None:
            raise ConfigError(f"data_dir: must be null, {self.benchmark} reads no corpus")
        for name in ("height", "width"):
            if getattr(self, name) < 16:
                raise ConfigError(f"{name}: COLORED_SHAPES needs at least 16")
        if self.baseline_iters < 1:
            raise ConfigError("baseline_iters: must be >= 1")
        if self.baseline_lr is not None and self.baseline_lr <= 0:
            raise ConfigError("baseline_lr: must be positive")
        if self.baseline_dropout is not None and not 0.0 <= self.baseline_dropout < 1.0:
            raise ConfigError("baseline_dropout: must be in [0, 1)")
        if self.train.loss is SQUARED:
            raise ConfigError(
                "train.loss: squared loss needs regression targets, "
                f"and {self.benchmark} has class labels"
            )


def load_config(path, preset: str = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: not UTF-8 text ({exc})") from exc
    cfg = _from_json(ExperimentConfig, raw, "")
    if preset:
        apply_preset(cfg, preset)
    cfg.validate()
    return cfg


_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}
_INT64_RANGE = (-2**63, 2**63)  # [lo, hi) of every number a config may hold


def _fits(value, kind: str) -> bool:
    """Whether a JSON value fits a field annotated kind; the dataclass checks the rest."""
    return isinstance(value, _JSON_TYPES.get(kind, object)) and not (
        isinstance(value, bool) and kind != "bool"
    )


def _from_json(cls, raw, prefix: str):
    """Build the config dataclass cls from a JSON object, naming any bad field.

    JSON types follow the annotations; list items follow the default's items.
    Every number, integer or float, must be finite and in the 64-bit integer
    range [-2**63, 2**63).
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'}: expected a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        name, f = prefix + key, fields.get(key)
        if f is None:
            raise ConfigError(f"{name}: unknown field")
        # json reads NaN and Infinity as floats, and integers of any size
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name}: must be finite, got {value!r}")
            if isinstance(v, (int, float)) and not _INT64_RANGE[0] <= v < _INT64_RANGE[1]:
                raise ConfigError(f"{name}: {v!r} is outside the config number range [-2**63, 2**63)")
        if dataclasses.is_dataclass(f.default_factory):
            value = _from_json(f.default_factory, value, name + ".")
        elif f.type == "tuple":
            kind = type(f.default[0]).__name__
            if not isinstance(value, list) or not all(_fits(v, kind) for v in value):
                raise ConfigError(f"{name}: expected a list of {kind}, got {value!r}")
            value = tuple(value)
        elif not (value is None and f.default is None or _fits(value, f.type)):
            raise ConfigError(f"{name}: expected {f.type}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def apply_preset(cfg: ExperimentConfig, preset: str) -> None:
    """desk: small/fast suite for a laptop CPU; paper: full-scale settings."""
    if preset == "desk":
        cfg.sizes = (2000, 2000, 2000)
        cfg.n_seeds = min(cfg.n_seeds, 3)
        # The game needs aggressive steps for the between-state oscillation to
        # develop at width 64; the single-objective baselines do not, and
        # diverge at these settings, so they get a tamer optimizer.
        cfg.baseline_iters = 300
        cfg.baseline_lr = 2.5e-3
        cfg.baseline_dropout = 0.1
        cfg.train = dataclasses.replace(
            cfg.train,
            lr=1e-2,
            hidden_dims=(64, 64),
            phi_hidden_dims=(64,),
            repr_dim=64,
            dropout_rate=0.75,
            max_iters=1500,
            termination=TerminationRule(
                window=20, quantile=0.25, min_steps=400, threshold=0.6
            ),
        )
    elif preset == "paper":
        cfg.sizes = (30000, 30000, 10000)
        cfg.baseline_iters = 500
        cfg.train = dataclasses.replace(
            cfg.train,
            hidden_dims=(390, 390),
            phi_hidden_dims=(390,),
            repr_dim=390,
            dropout_rate=0.75,
            max_iters=3000,
        )
    else:
        raise ConfigError(f"preset: unknown preset {preset!r}")


def baseline_config(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    """Baseline optimizer: fixed budget, no termination, optional lr/dropout override."""
    return dataclasses.replace(
        cfg.train,
        seed=seed,
        max_iters=cfg.baseline_iters,
        lr=cfg.baseline_lr if cfg.baseline_lr is not None else cfg.train.lr,
        dropout_rate=(
            cfg.baseline_dropout
            if cfg.baseline_dropout is not None
            else cfg.train.dropout_rate
        ),
        termination=TerminationRule(enabled=False),
    )


GAME_MODES = {"F_IRM": FIXED_PHI, "V_IRM": VARIABLE_PHI}


def _train_method(method, bench, cfg: ExperimentConfig, seed: int):
    """Returns a list of (row_label, model, trace, test split), one per trained model.

    The trainers are looked up at call time, so they can be wrapped in place.
    """
    if method in GAME_MODES:
        model, trace = best_response_train(
            bench.train_envs, dataclasses.replace(cfg.train, seed=seed),
            GAME_MODES[method], test_env=bench.test_env,
        )
        return [(method, model, trace, bench.test_env)]
    runs = {  # (row label, training envs, test split) per trained model
        "ERM": [(method, bench.train_envs, bench.test_env)],
        "ERM_PER_ENV": [
            (f"ERM_ENV{e}", [env], bench.test_env)
            for e, env in enumerate(bench.train_envs)
        ],
        "ROBUST": [(method, bench.train_envs, bench.test_env)],
        "ORACLE": [(method, [bench.oracle_env], bench.oracle_test)],
    }
    if method not in runs:
        raise ConfigError(f"methods: unknown method {method!r}")
    train = train_robust_minmax if method == "ROBUST" else train_erm
    base_cfg = baseline_config(cfg, seed)
    rows = []
    for label, envs, test in runs[method]:
        mlp, trace = train(envs, base_cfg, test_env=test)
        rows.append((label, as_ensemble(mlp), trace, test))
    return rows


def run_experiment(cfg: ExperimentConfig, seed_offset: int = 0, out_dir=None) -> dict:
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.time()
    results = {}  # row label -> list of (train_acc, test_acc)
    seeds = [cfg.seed + seed_offset + i for i in range(cfg.n_seeds)]
    for seed in seeds:
        try:
            bench = make_benchmark(
                cfg.benchmark, cfg.sizes, seed, flip_probs=cfg.flip_probs,
                height=cfg.height, width=cfg.width,
            )
        except MemoryError as exc:
            raise ConfigError(
                f"sizes/height/width: the benchmark {cfg.benchmark} with sizes {list(cfg.sizes)} "
                f"on a {cfg.height}x{cfg.width} canvas does not fit in memory ({exc})"
            ) from exc
        for method in cfg.methods:
            for label, model, trace, test in _train_method(method, bench, cfg, seed):
                trace.to_csv(os.path.join(out, f"trace_{label}_seed{seed}.csv"))
                # every trainer records a row, on its pooled training rows,
                # for the state it returns; that row holds the test accuracy
                # when its step is a multiple of test_every
                last = trace.records[-1]
                train_acc = last.ens_train_acc
                test_acc = last.test_acc
                if test_acc is None:
                    test_acc = evaluate(model, test)["accuracy"]
                results.setdefault(label, []).append((train_acc, test_acc))
    _write_table(results, out)
    manifest = {
        "config": dataclasses.asdict(cfg),
        "seeds": seeds,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return results


def _stats(pairs):
    arr = np.asarray(pairs, dtype=np.float64) * 100.0
    mean = arr.mean(axis=0)
    if arr.shape[0] >= 2:
        std = arr.std(axis=0, ddof=1)
        return mean, std
    return mean, None


def _write_table(results: dict, out: str) -> None:
    csv_lines = ["method,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std"]
    md_lines = [
        "| Method | Train accuracy | Test accuracy |",
        "| --- | --- | --- |",
    ]
    for label, pairs in results.items():
        mean, std = _stats(pairs)
        if std is None:
            csv_lines.append(f"{label},{mean[0]:.6g},n/a,{mean[1]:.6g},n/a")
            md_lines.append(f"| {label} | {mean[0]:.2f} | {mean[1]:.2f} |")
        else:
            csv_lines.append(
                f"{label},{mean[0]:.6g},{std[0]:.6g},{mean[1]:.6g},{std[1]:.6g}"
            )
            md_lines.append(
                f"| {label} | {mean[0]:.2f} ± {std[0]:.2f} "
                f"| {mean[1]:.2f} ± {std[1]:.2f} |"
            )
    with open(os.path.join(out, "results.csv"), "w") as f:
        f.write("\n".join(csv_lines) + "\n")
    with open(os.path.join(out, "results.md"), "w") as f:
        f.write("\n".join(md_lines) + "\n")


def _write_report(kv: dict, text: str, path) -> None:
    print(text)
    if path:
        with open(path, "w") as f:
            for key, value in kv.items():
                f.write(f"{key}={value}\n")


def cmd_run(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    if cfg.seed + args.seed_offset < 0:
        raise ConfigError(f"--seed-offset: seed {cfg.seed} + {args.seed_offset} is below 0")
    run_experiment(cfg, seed_offset=args.seed_offset, out_dir=args.out)
    return 0


def _quad_spec(args, **kw) -> QuadGameSpec:
    try:
        return QuadGameSpec(minimizers=(args.c1, args.c2), lo=args.lo, hi=args.hi, **kw)
    except ValueError as exc:
        raise ConfigError(f"theory {args.sub}: {exc}") from exc


def cmd_theory(args) -> int:
    report_path = args.report
    if args.sub == "grid":
        res = scalar_game_grid(_quad_spec(args, step=args.step))
        note = ""
        if not res.invariant_set:
            note = " (no invariant predictor exists on this instance)"
        text = (
            f"NE pairs: {len(res.ne_pairs)}, NE ensembles: {sorted(res.ne_ensembles)}\n"
            f"invariant set: {sorted(res.invariant_set)}{note}\n"
            f"equal={res.equal}"
        )
        _write_report(res.to_kv(), text, report_path)
        return 0
    if args.sub == "bounded":
        pair, interior = bounded_linear_ne(_quad_spec(args, step=None))
        kv = {"w1": pair[0], "w2": pair[1], "interior": interior}
        _write_report(kv, f"fixed point {pair}, interior={interior}", report_path)
        return 0
    # nash / invariance run against the linear-SEM scenario
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    if not (np.isfinite(args.eps) and args.eps > 0):
        raise ConfigError(f"--eps: must be finite and positive, got {args.eps}")
    if args.sub == "nash" and args.budget < theory.MIN_BUDGET:
        raise ConfigError(f"--budget: must be at least {theory.MIN_BUDGET}, got {args.budget}")
    if args.sub == "invariance" and args.samples < theory.MIN_SAMPLES:
        raise ConfigError(f"--samples: must be at least {theory.MIN_SAMPLES}, got {args.samples}")
    model, envs, _ = train_sem_game(seed=args.seed)
    if args.sub == "nash":
        report = verify_nash(
            model, envs, deviation_budget=args.budget, eps=args.eps,
            loss=SQUARED, lr=2e-2, seed=args.seed,
        )
    else:
        report = verify_invariance(
            model, envs, n_perturb=args.samples, eps=args.eps,
            rng=Rng(args.seed), loss=SQUARED, lr=2e-2,
        )
    _write_report(report.to_kv(), report.to_text(), report_path)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eirm", description="Ensemble-game invariant risk minimization experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment suite")
    p_run.add_argument("config")
    p_run.add_argument("--preset", choices=("desk", "paper"))
    p_run.add_argument("--seed-offset", type=int, default=0)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_th = sub.add_parser("theory", help="equilibrium and invariance certificates")
    th_sub = p_th.add_subparsers(dest="sub", required=True)
    for name in ("grid", "bounded"):
        p = th_sub.add_parser(name)
        p.add_argument("--c1", type=float, default=0.5)
        p.add_argument("--c2", type=float, default=0.5)
        p.add_argument("--lo", type=float, default=-2.0)
        p.add_argument("--hi", type=float, default=2.0)
        if name == "grid":
            p.add_argument("--step", type=float, default=0.1)
        p.add_argument("--report", default=None)
    for name, size, default in (("nash", "--budget", 500), ("invariance", "--samples", 100)):
        p = th_sub.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=1e-3)
        p.add_argument(size, type=int, default=default)
        p.add_argument("--report", default=None)
    p_th.set_defaults(func=cmd_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
