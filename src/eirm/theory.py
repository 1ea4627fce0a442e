"""Executable desk-scale checks of the game's theoretical claims.

Two kinds of certificate live here. The scalar quadratic game gives exact
ground truth: brute-force grid enumeration compares the set of Nash
ensembles with the set of invariant ensemble values, and iterated clamped
best responses exhibit the interior-vs-boundary distinction for bounded
strategy boxes. For trained neural ensembles, where exact verification is
impossible, epsilon-certificates bound the best unilateral deviation found
by retraining and the best risk improvement found by sampled classifier
perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .core import Rng
from .game import CROSS_ENTROPY, EnsembleModel, Loss, ensemble_logits, env_turn


MAX_GRID_POINTS = 4001  # per axis: [-2, 2] at step 0.001 takes about 0.9 s and 570 MB on a 2-vCPU VM


@dataclass
class QuadGameSpec:
    """Two-environment quadratic-risk game on the strategy box [lo, hi].

    Environment e has risk a_e * (v - c_e)^2 + b_e of the ensemble value v.
    With a step the box is also the symmetric strategy grid that
    `scalar_game_grid` enumerates; `step=None` is a box with no grid.
    """

    curvatures: tuple = (1.0, 1.0)
    minimizers: tuple = (0.0, 0.0)
    offsets: tuple = (0.0, 0.0)
    lo: float = -2.0
    hi: float = 2.0
    step: float = 0.1

    def __post_init__(self):
        if len(self.curvatures) != 2 or len(self.minimizers) != 2:
            raise ValueError("exactly 2 environments supported")
        for name in ("curvatures", "minimizers", "offsets", "lo", "hi", "step"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.curvatures) <= 0:
            raise ValueError("curvatures must be positive")
        if not self.lo < self.hi:
            raise ValueError(f"lo must be below hi, got lo={self.lo!r}, hi={self.hi!r}")
        if self.step is None:
            return
        if abs(self.lo + self.hi) > 1e-12:
            raise ValueError("grid must be symmetric about 0")
        if not self.step > 0:
            raise ValueError("grid step must be positive")
        # clamped before rounding: a step near the smallest double overflows int
        points = 2 * round(min(self.hi / self.step, MAX_GRID_POINTS)) + 1
        if points < 11:
            raise ValueError("grid needs at least 11 points")
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid step {self.step!r} gives {2 * self.hi / self.step + 1:.3g} points "
                f"per axis, more than {MAX_GRID_POINTS}"
            )

    @property
    def half_count(self) -> int:
        return int(round(self.hi / self.step))

    def risk(self, e: int, v) -> np.ndarray:
        return self.curvatures[e] * (np.asarray(v) - self.minimizers[e]) ** 2 + self.offsets[e]


@dataclass
class GridResult:
    ne_pairs: set  # {(w1, w2)}
    ne_ensembles: set  # {(w1 + w2) / 2}
    invariant_set: set
    equal: bool

    def boundary_only(self, hi: float) -> bool:
        """True if every NE pair has at least one strategy on the box edge."""
        return all(
            max(abs(w1), abs(w2)) >= hi - 1e-12 for w1, w2 in self.ne_pairs
        ) and bool(self.ne_pairs)

    def to_kv(self) -> dict:
        return {
            "ne_pair_count": len(self.ne_pairs),
            "ne_ensemble_count": len(self.ne_ensembles),
            "invariant_count": len(self.invariant_set),
            "equal": self.equal,
        }


_TIE_TOL = 1e-12


def _argmin_mask(values: np.ndarray, axis: int) -> np.ndarray:
    best = values.min(axis=axis, keepdims=True)
    return values <= best + _TIE_TOL * (1.0 + np.abs(best))


def scalar_game_grid(spec: QuadGameSpec) -> GridResult:
    """Brute-force the NE set and the invariant set over the grid.

    NE pairs are those where each strategy grid-minimizes its own risk of
    the pair mean holding the other fixed. The invariant set lives in the
    space of achievable pair means so both sets are directly comparable.
    """
    k = spec.half_count
    step = spec.step
    idx = np.arange(-k, k + 1)
    # mean_key[i, j] = i + j indexes the half-step lattice of pair means
    mean_keys = idx[:, None] + idx[None, :]
    means = mean_keys * (step / 2.0)
    r1 = spec.risk(0, means)
    r2 = spec.risk(1, means)

    br1 = _argmin_mask(r1, axis=0)  # rows: w1 best responses per column w2
    br2 = _argmin_mask(r2, axis=1)  # cols: w2 best responses per row w1
    ne_mask = br1 & br2

    grid = idx * step
    ne_pairs = {
        (float(grid[i]), float(grid[j])) for i, j in zip(*np.nonzero(ne_mask))
    }
    ne_keys = {int(mean_keys[i, j]) for i, j in zip(*np.nonzero(ne_mask))}

    # invariant ensemble values: achievable means minimizing both risks at once
    all_keys = np.arange(-2 * k, 2 * k + 1)
    vals = all_keys * (step / 2.0)
    inv1 = _argmin_mask(spec.risk(0, vals), axis=0)
    inv2 = _argmin_mask(spec.risk(1, vals), axis=0)
    inv_keys = {int(key) for key in all_keys[inv1 & inv2]}

    half = step / 2.0
    return GridResult(
        ne_pairs=ne_pairs,
        ne_ensembles={float(key * half) for key in ne_keys},
        invariant_set={float(key * half) for key in inv_keys},
        equal=ne_keys == inv_keys,
    )


MAX_SWEEPS = 10_000  # clamped best-response sweeps before the algebraic fallback


def bounded_linear_ne(spec: QuadGameSpec):
    """Iterate exact clamped best responses to a fixed point.

    Returns ((w1, w2), interior_flag). A strictly interior fixed point of
    the unclamped responses w1 = 2*c1 - w2 and w2 = 2*c2 - w1 needs
    c1 = c2, and its ensemble (w1 + w2) / 2 is then that shared, invariant
    value; with c1 != c2 a box edge absorbs one strategy.
    """
    lo, hi = spec.lo, spec.hi
    c1, c2 = spec.minimizers
    clamp = lambda v: min(max(v, lo), hi)
    w1, w2 = 0.0, 0.0
    seen = set()
    for _ in range(MAX_SWEEPS):
        nxt = (clamp(2.0 * c1 - w2), 0.0)
        nxt = (nxt[0], clamp(2.0 * c2 - nxt[0]))
        if nxt == (w1, w2):
            break
        if nxt in seen:
            # discrete cycle: fall back to the continuous map's algebraic fixed point
            w1, w2 = _algebraic_fixed_point(c1, c2, lo, hi)
            break
        seen.add(nxt)
        w1, w2 = nxt
    else:
        w1, w2 = _algebraic_fixed_point(c1, c2, lo, hi)
    return (w1, w2), lo < w1 < hi and lo < w2 < hi


def _algebraic_fixed_point(c1, c2, lo, hi):
    clamp = lambda v: min(max(v, lo), hi)
    if abs(c1 - c2) <= 1e-15:
        w = clamp(c1)
        return (w, w)
    # the unclamped sweep drifts w2 by 2*(c2 - c1) until a box edge absorbs it
    w2 = hi if c2 > c1 else lo
    w1 = clamp(2.0 * c1 - w2)
    w2 = clamp(2.0 * c2 - w1)
    return (w1, w2)


@dataclass
class DeviationReport:
    entries: list  # per environment: {env, before, best, gain}
    eps: float
    max_gain: float = 0.0
    passed: bool = False

    def __post_init__(self):
        self.max_gain = max((e["gain"] for e in self.entries), default=0.0)
        self.passed = self.max_gain < self.eps

    def to_kv(self) -> dict:
        kv = {"eps": self.eps, "max_gain": self.max_gain, "passed": self.passed}
        for e in self.entries:
            kv[f"{e['env']}_gain"] = e["gain"]
        return kv

    def to_text(self) -> str:
        lines = [f"deviation certificate (eps={self.eps:g})"]
        for e in self.entries:
            lines.append(
                f"  {e['env']}: risk {e['before']:.6g} -> best deviation "
                f"{e['best']:.6g} (gain {e['gain']:.3g})"
            )
        lines.append(f"  max gain {self.max_gain:.3g}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


MIN_BUDGET = 100  # fewest retraining steps verify_nash takes
MIN_SAMPLES = 100  # fewest perturbation samples verify_invariance takes
BATCH_SIZE = 256  # rows per retraining step of verify_nash and verify_invariance


def _full_risk(model: EnsembleModel, env, loss: Loss) -> float:
    return loss.risk(ensemble_logits(model, env.features), loss.targets(env))


def _retrain(trial: EnsembleModel, e: int, env, loss: Loss, steps: int, lr: float, rng: Rng):
    """Trains classifier e of trial alone on env by env_turn; yields after each step.

    Step k draws its batch with replacement from rng and its dropout stream
    from rng.child(f"drop{k}"); the value yielded is k.
    """
    x, y = env.features, loss.targets(env)
    opt = nn.AdamState.for_params(trial.classifiers[e].parameters(), lr=lr)
    bs = min(BATCH_SIZE, x.shape[0])
    for step in range(1, steps + 1):
        idx = rng.integers(0, x.shape[0], size=bs)
        env_turn(trial, e, x[idx], y[idx], opt, rng=rng.child(f"drop{step}"), loss=loss)
        yield step


def verify_nash(
    model: EnsembleModel,
    envs,
    deviation_budget: int = 500,
    eps: float = 1e-3,
    loss: str = CROSS_ENTROPY,
    lr: float = 2.5e-4,
    seed: int = 0,
) -> DeviationReport:
    """Epsilon-NE certificate by bounded unilateral retraining.

    For each environment, its classifier is cloned and retrained alone
    against the frozen rest of the ensemble; the report carries the best
    full-dataset risk found along the retraining path. Gains are relative
    to the starting risk, so they are never negative.
    """
    if deviation_budget < MIN_BUDGET:
        raise ValueError(f"deviation budget must be at least {MIN_BUDGET} steps")
    loss = Loss(loss)
    rng = Rng(seed)
    eval_every = max(1, deviation_budget // 20)
    entries = []
    for e, env in enumerate(envs):
        before = best = _full_risk(model, env, loss)
        clfs = [c.copy() if q == e else c for q, c in enumerate(model.classifiers)]
        trial = EnsembleModel(clfs, model.representation)
        steps = _retrain(trial, e, env, loss, deviation_budget, lr, rng.child(f"dev{e}"))
        for step in steps:
            if step % eval_every == 0 or step == deviation_budget:
                best = min(best, _full_risk(trial, env, loss))
        entries.append(
            {"env": getattr(env, "env_id", f"env{e}"), "before": before,
             "best": best, "gain": before - best}
        )
    return DeviationReport(entries, eps)


@dataclass
class InvarianceReport:
    entries: list  # per environment: {env, baseline, best, improvement}
    eps: float
    max_improvement: float = 0.0
    passed: bool = False

    def __post_init__(self):
        self.max_improvement = max(
            (e["improvement"] for e in self.entries), default=0.0
        )
        self.passed = self.max_improvement <= self.eps

    def to_kv(self) -> dict:
        kv = {
            "eps": self.eps,
            "max_improvement": self.max_improvement,
            "passed": self.passed,
        }
        for e in self.entries:
            kv[f"{e['env']}_improvement"] = e["improvement"]
        return kv

    def to_text(self) -> str:
        lines = [f"invariance certificate (eps={self.eps:g})"]
        for e in self.entries:
            lines.append(
                f"  {e['env']}: baseline risk {e['baseline']:.6g}, best sampled "
                f"{e['best']:.6g} (improvement {e['improvement']:.3g})"
            )
        lines.append(
            f"  max improvement {self.max_improvement:.3g}: "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def average_classifier(model: EnsembleModel) -> nn.Mlp:
    """Parameter-space average of the per-environment classifiers."""
    avg = model.classifiers[0].copy()
    for params in zip(avg.parameters(), *(c.parameters() for c in model.classifiers)):
        params[0][...] = np.mean(params[1:], axis=0)
    return avg


PERTURB_SCALES = (0.0, 0.01, 0.1, 1.0)


def verify_invariance(
    model: EnsembleModel,
    envs,
    n_perturb: int = 100,
    eps: float = 1e-3,
    rng: Rng = None,
    loss: str = CROSS_ENTROPY,
    retrain_steps: int = 50,
    lr: float = 2.5e-4,
) -> InvarianceReport:
    """Sampled certificate that no nearby classifier beats the ensemble.

    Candidates are the averaged classifier plus Gaussian parameter noise at
    several multiples of the per-tensor RMS, together with short per-
    environment retrains. Fails when any candidate improves any
    environment's risk by more than eps, with the representation frozen.
    """
    if n_perturb < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} perturbation samples")
    loss = Loss(loss)
    rng = rng or Rng(0)
    avg = average_classifier(model)
    avg_model = EnsembleModel([avg], model.representation)
    baselines = [_full_risk(avg_model, env, loss) for env in envs]

    candidates = []
    noise = rng.child("noise")
    per_scale = max(1, n_perturb // (len(PERTURB_SCALES) - 1))
    for scale in PERTURB_SCALES:
        reps = 1 if scale == 0.0 else per_scale
        for _ in range(reps):
            cand = avg.copy()
            for p in cand.parameters():
                rms = float(np.sqrt(np.mean(p**2)))
                p += noise.normal(scale=scale * max(rms, 1e-12), size=p.shape)
            candidates.append(cand)
    for e, env in enumerate(envs):
        cand = avg.copy()
        retrain = EnsembleModel([cand], model.representation)
        for _ in _retrain(retrain, 0, env, loss, retrain_steps, lr, rng.child(f"retrain{e}")):
            pass
        candidates.append(cand)

    bests = list(baselines)
    for cand in candidates:
        cand_model = EnsembleModel([cand], model.representation)
        for e, env in enumerate(envs):
            bests[e] = min(bests[e], _full_risk(cand_model, env, loss))
    entries = [
        {
            "env": getattr(env, "env_id", f"env{e}"),
            "baseline": baselines[e],
            "best": bests[e],
            "improvement": baselines[e] - bests[e],
        }
        for e, env in enumerate(envs)
    ]
    return InvarianceReport(entries, eps)
