"""The benchmark's workloads: set-up, the measured work, and its checks.

Each workload has three phases, which worker.py times apart:

- `setup(seed, out_dir)` builds the config and generates every environment
  the round uses, for all of its seeds;
- `run(state)` does the work a user waits for and returns the optimizer
  step count and the seconds spent inside training and certificate calls;
- `check(state)` compares the outputs with checks.py and returns one
  (operation, status, message) triple per checked operation.

The COLORED_SHAPES workloads go through `eirm.cli.run_experiment`, the path
`eirm run` takes. Environments generated in set-up are handed to it in place
of `make_benchmark`, so generation is timed once, before training.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time

import numpy as np

from eirm import cli, datasets, game, sem_game, theory
from eirm.core import Rng

import checks

OK, FAILED, WRONG = "ok", "failed", "wrong"


@contextlib.contextmanager
def patched(module, **replacements):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


class TrainingCalls:
    """Wraps training entry points to time them and keep what they return."""

    def __init__(self):
        self.seconds = 0.0
        self.models = []

    def timed(self, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.models.append(out[0])
            return out

        return call


def run_op(ops: list, name: str, check) -> None:
    try:
        check()
    except checks.MalformedTrace as exc:
        ops.append((name, FAILED, str(exc)))
    except checks.Mismatch as exc:
        ops.append((name, WRONG, str(exc)))
    else:
        ops.append((name, OK, ""))


def _xyb(env):
    return (env.features, env.labels, env.spurious_bits)


@dataclasses.dataclass(frozen=True)
class ExperimentWorkload:
    """`eirm run` on COLORED_SHAPES with termination off and fixed budgets."""

    preset: str
    methods: tuple
    n_seeds: int
    max_iters: int = None  # game iterations; None keeps the preset's
    test_every: int = None  # None keeps TrainConfig's

    def setup(self, seed: int, out_dir: str) -> dict:
        path = os.path.join(out_dir, "config.json")
        with open(path, "w") as f:
            json.dump(
                {"methods": list(self.methods), "n_seeds": self.n_seeds,
                 "seed": seed * self.n_seeds},
                f,
            )
        cfg = cli.load_config(path, preset=self.preset)
        budget = {"max_iters": self.max_iters, "test_every": self.test_every}
        cfg.train = dataclasses.replace(
            cfg.train,
            termination=game.TerminationRule(enabled=False),
            **{k: v for k, v in budget.items() if v is not None},
        )
        cfg.out_dir = out_dir
        benches = {}
        for s in range(cfg.seed, cfg.seed + cfg.n_seeds):
            key = (cfg.benchmark, tuple(cfg.sizes), s, cfg.data_dir,
                   tuple(cfg.flip_probs), cfg.height, cfg.width)
            benches[key] = datasets.make_benchmark(
                cfg.benchmark, cfg.sizes, s, data_dir=cfg.data_dir,
                flip_probs=cfg.flip_probs, height=cfg.height, width=cfg.width,
            )
        return {"cfg": cfg, "benches": benches, "calls": TrainingCalls()}

    def feature_bytes(self, state) -> int:
        return sum(
            env.features.nbytes
            for b in state["benches"].values()
            for env in (*b.train_envs, b.test_env, b.oracle_env, b.oracle_test)
        )

    def steps(self, cfg) -> int:
        """Adam updates per round, from the config."""
        n_envs = len(cfg.sizes) - 1
        k = cfg.train.steps_per_turn
        per_method = {
            "F_IRM": cfg.train.max_iters * n_envs * k,
            "V_IRM": cfg.train.max_iters * (n_envs + 1) * k,
            "ERM": cfg.baseline_iters * k,
            "ORACLE": cfg.baseline_iters * k,
            "ROBUST": cfg.baseline_iters,
        }
        return cfg.n_seeds * sum(per_method[m] for m in cfg.methods)

    def run(self, state) -> tuple:
        cfg, benches, calls = state["cfg"], state["benches"], state["calls"]

        def prebuilt(name, sizes, seed, data_dir=None, flip_probs=None,
                     height=16, width=16):
            return benches[(name, tuple(sizes), seed, data_dir,
                            tuple(flip_probs), height, width)]

        with patched(
            cli,
            make_benchmark=prebuilt,
            best_response_train=calls.timed(cli.best_response_train),
            train_erm=calls.timed(cli.train_erm),
            train_robust_minmax=calls.timed(cli.train_robust_minmax),
        ):
            cli.run_experiment(cfg)
        return self.steps(cfg), calls.seconds

    def _expected(self, method, model, bench):
        """(representation, classifiers, trace envs, test split) of a model."""
        train = [_xyb(e) for e in bench.train_envs]
        test = (bench.test_env.features, bench.test_env.labels)
        if method in ("F_IRM", "V_IRM"):
            rep = model.representation
            rep = None if rep is None else checks.mlp_layers(rep)
            return rep, [checks.mlp_layers(c) for c in model.classifiers], train, test
        clfs = [checks.mlp_layers(model)]
        if method == "ERM":
            pooled = (np.vstack([e[0] for e in train]), np.concatenate([e[1] for e in train]),
                      np.concatenate([e[2] for e in train]))
            return None, clfs, [pooled], test
        if method == "ORACLE":
            oracle_test = (bench.oracle_test.features, bench.oracle_test.labels)
            return None, clfs, [_xyb(bench.oracle_env)], oracle_test
        return None, clfs, train, test  # ROBUST

    def owners(self, method, cfg) -> list:
        """Turn owners of every trace row, in round-robin order."""
        turn = [f"env{e}" for e in range(len(cfg.sizes) - 1)]
        if method == "F_IRM":
            return turn * cfg.train.max_iters
        if method == "V_IRM":
            return ["phi", *turn] * cfg.train.max_iters
        return ["robust" if method == "ROBUST" else "erm"] * cfg.baseline_iters

    def check(self, state) -> list:
        cfg, benches, calls = state["cfg"], state["benches"], state["calls"]
        order = [(key, m) for key in benches for m in cfg.methods]
        if len(calls.models) != len(order):
            raise RuntimeError(f"{len(calls.models)} training calls, expected {len(order)}")
        ops, accuracies = [], {m: [] for m in cfg.methods}
        for (key, method), model in zip(order, calls.models):
            seed = key[2]
            rep, clfs, envs, test = self._expected(method, model, benches[key])
            expected = checks.trace_diagnostics(rep, clfs, envs, test)
            accuracies[method].append((expected["ens_train_acc"], expected["test_acc"]))
            path = os.path.join(cfg.out_dir, f"trace_{method}_seed{seed}.csv")
            owners = self.owners(method, cfg)
            run_op(ops, f"trace {method} seed {seed}",
                   lambda: checks.check_trace(path, owners, cfg.train.test_every, expected))
        table = os.path.join(cfg.out_dir, "results.csv")
        run_op(ops, "results table", lambda: checks.check_results(table, accuracies))
        return ops


@dataclasses.dataclass(frozen=True)
class SemWorkload:
    """Linear-SEM game, then both certificates, over a sweep of seeds."""

    n_seeds: int
    deviation_budget: int = 500
    n_perturb: int = 100
    retrain_steps: int = 50
    eps: float = 1e-3
    lr: float = 2e-2  # the certificate step size `eirm theory` uses
    tolerance: float = 0.05  # coefficient distance allowed to gamma and to OLS

    def setup(self, seed: int, out_dir: str) -> dict:
        spec = sem_game.default_sem_spec()
        seeds = range(seed * self.n_seeds, (seed + 1) * self.n_seeds)
        data = {s: datasets.make_linear_sem(spec, Rng(s).child("sem-data")) for s in seeds}
        return {"spec": spec, "data": data, "results": {}}

    def feature_bytes(self, state) -> int:
        return sum(env.features.nbytes for envs, _ in state["data"].values() for env in envs)

    def run(self, state) -> tuple:
        spec, data, results = state["spec"], state["data"], state["results"]

        def prebuilt(spec_arg, rng):
            if spec_arg is not spec:
                raise ValueError("SEM spec differs from the one generated in set-up")
            return data[rng.seed]

        steps, seconds = 0, 0.0
        with patched(sem_game, make_linear_sem=prebuilt):
            for s in data:
                config = sem_game.sem_train_config(s)
                t0 = time.perf_counter()
                model, envs, gamma = sem_game.train_sem_game(spec, config, seed=s)
                nash = theory.verify_nash(
                    model, envs, deviation_budget=self.deviation_budget, eps=self.eps,
                    loss=game.SQUARED, lr=self.lr, seed=s,
                )
                inv = theory.verify_invariance(
                    model, envs, n_perturb=self.n_perturb, eps=self.eps, rng=Rng(s),
                    loss=game.SQUARED, retrain_steps=self.retrain_steps, lr=self.lr,
                )
                seconds += time.perf_counter() - t0
                risks = [game.evaluate(model, env, loss=game.SQUARED)["risk"] for env in envs]
                results[s] = (model, envs, gamma, nash, inv, risks)
                n_envs = len(envs)
                steps += config.max_iters * n_envs * config.steps_per_turn
                steps += (self.deviation_budget + self.retrain_steps) * n_envs
        return steps, seconds

    def check(self, state) -> list:
        """Coefficients against gamma and least squares; every reported risk.

        Whether a certificate passes is not checked: at eps 1e-3 it depends
        on the seed (see the benchmark README), so it cannot be an operation
        that fails the same share of every run.
        """
        n_causal = state["spec"].n_causal
        ops = []
        for s, (model, envs, gamma, nash, inv, risks) in state["results"].items():
            coef = np.mean([c.layers[0].weights[:, 0] for c in model.classifiers], axis=0)
            ols = checks.least_squares(
                np.vstack([e.features[:, :n_causal] for e in envs]),
                np.concatenate([e.targets for e in envs]),
            )

            def coefficients():
                for name, ref in (("gamma", gamma), ("least squares", ols)):
                    gap = float(np.max(np.abs(coef - ref)))
                    if gap > self.tolerance:
                        raise checks.Mismatch(f"coefficients {coef} are {gap:.3g} from {name} {ref}")

            rep = checks.mlp_layers(model.representation)
            clfs = [checks.mlp_layers(c) for c in model.classifiers]
            averaged = [
                (np.mean([c[i][0] for c in clfs], axis=0), np.mean([c[i][1] for c in clfs], axis=0),
                 clfs[0][i][2])
                for i in range(len(clfs[0]))
            ]

            def risks_agree(reported, classifiers, what):
                def check():
                    for env, risk in zip(envs, reported):
                        ens, _ = checks.ensemble_forward(rep, classifiers, env.features)
                        mse = float(np.mean((ens[:, 0] - env.targets) ** 2))
                        if abs(mse - risk) > 1e-9 * mse:
                            raise checks.Mismatch(f"{what} risk of {env.env_id} is {risk}, not {mse}")
                return check

            nash_before = [e["before"] for e in nash.entries]
            inv_baseline = [e["baseline"] for e in inv.entries]
            run_op(ops, f"coefficients seed {s}", coefficients)
            run_op(ops, f"nash seed {s}", risks_agree(nash_before, clfs, "nash starting"))
            run_op(ops, f"invariance seed {s}",
                   risks_agree(inv_baseline, [averaged], "invariance baseline"))
            run_op(ops, f"final risk seed {s}", risks_agree(risks, clfs, "final"))
        return ops


WORKLOADS = {
    # F-IRM and V-IRM at desk scale; 5 iterations give 10 and 15 turns, and
    # a test accuracy every 5 turns lands on the last row of both traces.
    "desk_game": ExperimentWorkload("desk", ("F_IRM", "V_IRM"), n_seeds=3,
                                    max_iters=5, test_every=5),
    # The single-classifier baselines at the desk baseline settings: 300
    # steps each, a test accuracy every 10.
    "desk_baselines": ExperimentWorkload("desk", ("ERM", "ROBUST", "ORACLE"), n_seeds=1),
    # One F-IRM iteration at paper scale: 2 turns, the second followed by a
    # test evaluation so the last row carries one.
    "paper_turns": ExperimentWorkload("paper", ("F_IRM",), n_seeds=1,
                                      max_iters=1, test_every=2),
    "sem_certify": SemWorkload(n_seeds=4),
}
