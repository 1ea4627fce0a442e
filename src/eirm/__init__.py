"""Invariant prediction by playing an ensemble game across environments."""

__version__ = "0.1.0"

from .core import Rng, ShapeError, cross_entropy, pearson, softmax_rows
from .nn import (
    AdamState,
    DenseLayer,
    Mlp,
    adam_step,
    backward,
    finite_diff_check,
    forward,
    make_mlp,
    net_loss,
    predict,
)
from .datasets import (
    BENCHMARKS,
    Benchmark,
    ColorEnvironment,
    EnvironmentDataset,
    LabeledImages,
    SemSpec,
    make_benchmark,
    make_linear_sem,
    make_spurious_env,
    synth_shapes,
)
from .game import (
    CROSS_ENTROPY,
    FIXED_PHI,
    SQUARED,
    Loss,
    VARIABLE_PHI,
    EnsembleModel,
    TerminationMonitor,
    TerminationRule,
    TraceRecord,
    TrainConfig,
    TrainTrace,
    best_response_train,
    ensemble_logits,
    env_turn,
    evaluate,
    phi_turn,
    spurious_correlation,
)
from .baselines import as_ensemble, pool_environments, train_erm, train_robust_minmax
from .theory import (
    QuadGameSpec,
    average_classifier,
    bounded_linear_ne,
    scalar_game_grid,
    verify_invariance,
    verify_nash,
)
from .sem_game import (
    causal_projection,
    default_sem_spec,
    ensemble_coefficients,
    ols_causal,
    train_sem_game,
)
