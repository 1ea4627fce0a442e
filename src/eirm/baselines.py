"""Comparison methods: pooled/per-environment ERM, robust min-max, oracle.

All baselines reuse the game module's batching, seeding, and trace schema
so that comparisons isolate the objective rather than the pipeline. The
grayscale oracle is plain ERM run on the benchmark's oracle split.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import nn
from .core import Rng
from .datasets import EnvironmentDataset
from .game import (
    FIXED_PHI,
    EnsembleModel,
    Loss,
    TerminationRule,
    TraceRecorder,
    TrainConfig,
    TrainTrace,
    _Batcher,
    best_response_train,
    build_ensemble,
)


def as_ensemble(model: nn.Mlp) -> EnsembleModel:
    """Wrap a single classifier so game-module evaluation applies."""
    return EnsembleModel([model])


def pool_environments(datasets) -> EnvironmentDataset:
    """The datasets' rows in order as one dataset; a lone dataset is returned as it is."""
    if not datasets:
        raise ValueError("need at least one dataset")
    if len(datasets) == 1:
        return datasets[0]
    bits = [getattr(d, "spurious_bits", None) for d in datasets]
    return EnvironmentDataset(
        np.vstack([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        np.concatenate(bits) if all(b is not None for b in bits) else None,
        "pooled",
        float("nan"),
    )


def train_erm(datasets, config: TrainConfig, test_env=None):
    """Single classifier minimizing mean loss on the pooled rows via Adam.

    Runs the fixed step budget from config (no termination rule); an
    ensemble of one played for max_iters turns is exactly that.
    """
    pooled = pool_environments(datasets)
    cfg = dataclasses.replace(
        config, termination=TerminationRule(enabled=False)
    )
    model, trace = best_response_train(
        [pooled], cfg, test_env=test_env, trace_owner="erm"
    )
    return model.classifiers[0], trace


def train_robust_minmax(envs, config: TrainConfig, test_env=None):
    """Minimize the maximum per-environment loss by hard-max subgradient.

    Each step draws one batch per environment and applies the gradient of
    the worst environment only; ties break toward the lowest index.
    """
    if len(envs) < 2:
        raise ValueError("robust min-max needs at least 2 environments")
    loss = Loss(config.loss)
    rng = Rng(config.seed)
    recorder = TraceRecorder(envs, loss, test_env, config.test_every)
    data = recorder.data
    # a single classifier on the game's initialization path
    model = build_ensemble(envs[:1], config, FIXED_PHI, rng.child("init")).classifiers[0]
    opt = nn.AdamState.for_params(model.parameters(), lr=config.lr)
    batchers = [
        _Batcher(x.shape[0], config.batch_size, rng.child(f"batch{e}"))
        for e, (x, _) in enumerate(data)
    ]
    drop_rng = rng.child("dropout")

    trace = TrainTrace()
    for step in range(1, config.max_iters + 1):
        turns = []  # (risk, outputs, targets, cache) per environment
        penalty = nn.regularization_loss(model)  # the model is fixed within the step
        for e, (x, y) in enumerate(data):
            idx = batchers[e].next()
            out, cache = nn.forward(
                model, x[idx], train_mode=True, rng=drop_rng.child(f"s{step}e{e}")
            )
            risk = loss.risk(out, y[idx]) + penalty
            turns.append((risk, out, y[idx], cache))
        # argmax takes the first max: ties go to the lowest index
        _, out, by, cache = turns[int(np.argmax([t[0] for t in turns]))]
        grads, _ = nn.backward(model, cache, loss.grad(out, by))
        nn.adam_step(opt, model.parameters(), grads)
        trace.append(recorder.record(as_ensemble(model), step, "robust")[0])
    return model, trace
