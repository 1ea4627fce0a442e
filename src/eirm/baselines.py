"""Comparison methods: pooled/per-environment ERM, robust min-max, oracle.

Every baseline is trained by the game module's own loop, so it shares the
game's batching, seeding, and trace schema and comparisons isolate the
objective rather than the pipeline. The grayscale oracle is plain ERM run on
the benchmark's oracle split.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import nn
from .datasets import ColorEnvironment, EnvironmentDataset, PackedMasks, SemEnvironment
from .game import ROBUST, EnsembleModel, TerminationRule, TrainConfig, best_response_train


def as_ensemble(model: nn.Mlp) -> EnsembleModel:
    """Wrap a single classifier so game-module evaluation applies."""
    return EnsembleModel([model])


def pool_environments(datasets):
    """The datasets' rows in order as one dataset; a lone dataset is returned as it is.

    COLOR environments pool into one, their packed masks stacked, so no dense
    row is built; SEM environments into one SEM environment; other datasets'
    features are vstacked. train_erm trains on the pooled dataset, and
    evaluation reads the pooled rows.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    if len(datasets) == 1:
        return datasets[0]
    bits = [getattr(d, "spurious_bits", None) for d in datasets]
    bits = np.concatenate(bits) if all(b is not None for b in bits) else None
    if all(isinstance(d, SemEnvironment) for d in datasets):
        targets = np.concatenate([d.targets for d in datasets])
        return SemEnvironment(np.vstack([d.features for d in datasets]), targets,
                              "pooled", float("nan"), bits)
    labels = np.concatenate([d.labels for d in datasets])
    if all(isinstance(d, ColorEnvironment) for d in datasets):
        packed = PackedMasks.stacked([d.packed for d in datasets])
        return ColorEnvironment(packed, labels, bits, "pooled", float("nan"))
    features = np.vstack([d.features for d in datasets])
    return EnvironmentDataset(features, labels, bits, "pooled", float("nan"))


def train_erm(datasets, config: TrainConfig, test_env=None):
    """Single classifier minimizing mean loss on the pooled rows via Adam.

    Runs the fixed step budget from config (no termination rule); an
    ensemble of one played for max_iters turns is exactly that. Its one
    player is the datasets pooled in order (pool_environments).
    """
    cfg = dataclasses.replace(
        config, termination=TerminationRule(enabled=False)
    )
    model, trace = best_response_train(
        [pool_environments(list(datasets))], cfg, test_env=test_env, trace_owner="erm"
    )
    return model.classifiers[0], trace


def train_robust_minmax(envs, config: TrainConfig, test_env=None):
    """Minimize the maximum per-environment loss by hard-max subgradient.

    Each step draws one batch per environment and applies the gradient of
    the worst environment only (game.robust_turn); ties break toward the
    lowest index. Runs the fixed step budget from config, one step per
    iteration.
    """
    if len(envs) < 2:
        raise ValueError("robust min-max needs at least 2 environments")
    cfg = dataclasses.replace(config, termination=TerminationRule(enabled=False))
    model, trace = best_response_train(envs, cfg, ROBUST, test_env=test_env)
    return model.classifiers[0], trace
