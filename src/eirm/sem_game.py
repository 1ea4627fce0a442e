"""Linear-SEM game scenario: known causal structure, squared loss.

Ties the SEM generator to the game loop with the representation fixed to
the projection onto the causal coordinates. With squared loss the shared
per-environment optimum is the true causal coefficient vector, so this is
the one setting where the Nash certificate has a closed-form oracle (OLS
on the causal features).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import nn
from .core import Rng
from .datasets import SemSpec, make_linear_sem
from .game import (
    FIXED_PHI,
    SQUARED,
    EnsembleModel,
    TerminationRule,
    TrainConfig,
    play,
)

DEFAULT_GAMMA = (1.0, -0.5, 0.25)


def causal_projection(n_total: int, n_causal: int) -> nn.Mlp:
    """Fixed linear map selecting the first n_causal coordinates."""
    w = np.zeros((n_total, n_causal))
    w[:n_causal, :n_causal] = np.eye(n_causal)
    return nn.Mlp([nn.DenseLayer(w, np.zeros(n_causal), "linear")])


def default_sem_spec(samples_per_env: int = 5000) -> SemSpec:
    return SemSpec(
        n_causal=len(DEFAULT_GAMMA),
        n_spurious=2,
        gamma=np.array(DEFAULT_GAMMA),
        alpha_per_env=[1.0, -0.3],
        noise_sd=1.0,
        samples_per_env=samples_per_env,
    )


def sem_train_config(seed: int = 0, max_iters: int = 600) -> TrainConfig:
    # squared loss on a linear model: larger lr is safe and converges tightly
    return TrainConfig(
        lr=2e-2,
        batch_size=512,
        max_iters=max_iters,
        termination=TerminationRule(enabled=False),
        seed=seed,
        loss=SQUARED,
        hidden_dims=(),
        dropout_rate=0.0,
        l2_coeff=0.0,
    )


def train_sem_game(spec: SemSpec = None, config: TrainConfig = None, seed: int = 0):
    """Train the fixed-projection SEM game; returns (model, envs, gamma).

    The game plays all config.max_iters iterations and records no trace, so
    no termination monitor can stop it: a config whose termination rule is
    enabled is rejected. The returned model's classifiers are linear heads on
    the causal coordinates; their averaged weights estimate gamma. The fixed
    projection runs once per environment, not once per batch.
    """
    spec = spec or default_sem_spec()
    config = config or sem_train_config(seed)
    if config.termination.enabled:
        raise ValueError("termination: the SEM game records no trace for a monitor to "
                         "observe; pass TerminationRule(enabled=False)")
    envs, gamma = make_linear_sem(spec, Rng(seed).child("sem-data"))
    phi = causal_projection(spec.n_causal + spec.n_spurious, spec.n_causal)
    rng = Rng(config.seed).child("sem-init")
    classifiers = [
        nn.make_mlp((spec.n_causal, 1), rng.child(f"clf{e}"))
        for e in range(len(envs))
    ]
    # phi is frozen, so each environment is projected once and the heads play
    # on the projections: a row's projection is the same bits in any batch
    projected = [replace(env, features=nn.predict(phi, env.features)) for env in envs]
    _, turns = play(projected, config, FIXED_PHI, EnsembleModel(classifiers))
    for _ in turns:
        pass
    return EnsembleModel(classifiers, phi), envs, gamma


def ensemble_coefficients(model: EnsembleModel) -> np.ndarray:
    """Averaged linear-head weights, i.e. the ensemble's coefficient vector."""
    return np.mean([c.layers[0].weights[:, 0] for c in model.classifiers], axis=0)


def ols_causal(envs, n_causal: int) -> np.ndarray:
    """Closed-form pooled least squares on the causal features (the oracle)."""
    x = np.vstack([e.features[:, :n_causal] for e in envs])
    y = np.concatenate([e.targets for e in envs])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    return coef
