import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from eirm.core import Rng
from eirm.sem_game import (
    default_sem_spec,
    ensemble_coefficients,
    ols_causal,
    sem_train_config,
    train_sem_game,
)
from eirm.theory import (
    QuadGameSpec,
    average_classifier,
    bounded_linear_ne,
    scalar_game_grid,
    verify_invariance,
    verify_nash,
)
from eirm import nn
from eirm.game import EnsembleModel


# -- independent brute-force oracle for the grid game ----------------------
# Kept deliberately naive (explicit loops, no shared code with the library)
# so the two implementations can only agree by computing the same sets.


def _oracle_grid_sets(spec):
    k = int(round(spec.hi / spec.step))
    grid = [i * spec.step for i in range(-k, k + 1)]

    def risk(e, v):
        return spec.curvatures[e] * (v - spec.minimizers[e]) ** 2 + spec.offsets[e]

    def best_responses(e, other):
        vals = [risk(e, (w + other) / 2.0) for w in grid]
        m = min(vals)
        return {i for i, v in enumerate(vals) if v <= m + 1e-12 * (1 + abs(m))}

    ne_means = set()
    for i, w1 in enumerate(grid):
        for j, w2 in enumerate(grid):
            if i in best_responses(0, w2) and j in best_responses(1, w1):
                ne_means.add(i + j - 2 * k)  # integer key on the half lattice

    half = [i * spec.step / 2.0 for i in range(-2 * k, 2 * k + 1)]
    r1 = [risk(0, v) for v in half]
    r2 = [risk(1, v) for v in half]
    m1, m2 = min(r1), min(r2)
    invariant = {
        i - 2 * k
        for i, (a, b) in enumerate(zip(r1, r2))
        if a <= m1 + 1e-12 * (1 + abs(m1)) and b <= m2 + 1e-12 * (1 + abs(m2))
    }
    return ne_means, invariant


def _keys(values, step):
    return {int(round(v / (step / 2.0))) for v in values}


@pytest.mark.parametrize("step", [0.2, 0.1, 0.05])
def test_grid_matches_oracle_shared_minimizer(step):
    spec = QuadGameSpec(minimizers=(0.5, 0.5), step=step)
    res = scalar_game_grid(spec)
    ne_oracle, inv_oracle = _oracle_grid_sets(spec)
    assert _keys(res.ne_ensembles, step) == ne_oracle
    assert _keys(res.invariant_set, step) == inv_oracle
    assert res.equal


def test_grid_matches_oracle_random_instances():
    rng = Rng(0)
    for trial in range(5):
        k = 10
        step = 0.2
        # put the shared minimizer exactly on a grid point
        c = float(rng.child(f"c{trial}").integers(-k + 1, k)) * step
        a1, a2 = rng.child(f"a{trial}").uniform(0.5, 3.0, size=2)
        spec = QuadGameSpec(
            curvatures=(float(a1), float(a2)), minimizers=(c, c), step=step
        )
        res = scalar_game_grid(spec)
        ne_oracle, inv_oracle = _oracle_grid_sets(spec)
        assert _keys(res.ne_ensembles, step) == ne_oracle
        assert _keys(res.invariant_set, step) == inv_oracle
        assert res.equal
        assert res.invariant_set == {c}


def test_grid_distinct_minimizers_break_equivalence():
    # c1 != c2: no single value minimizes both risks, and the NE that do
    # exist sit on the strategy box boundary
    spec = QuadGameSpec(minimizers=(0.0, 1.0), step=0.1)
    res = scalar_game_grid(spec)
    assert res.invariant_set == set()
    assert not res.equal
    assert res.boundary_only(spec.hi)
    ne_oracle, inv_oracle = _oracle_grid_sets(spec)
    assert _keys(res.ne_ensembles, spec.step) == ne_oracle
    assert inv_oracle == set()


def test_grid_swap_symmetry():
    a = scalar_game_grid(QuadGameSpec(minimizers=(0.2, 0.8), step=0.1))
    b = scalar_game_grid(QuadGameSpec(minimizers=(0.8, 0.2), step=0.1))
    assert {(y, x) for x, y in a.ne_pairs} == b.ne_pairs
    assert a.ne_ensembles == b.ne_ensembles
    assert a.equal == b.equal


def test_grid_offsets_do_not_matter():
    plain = scalar_game_grid(QuadGameSpec(minimizers=(0.4, 0.4), step=0.2))
    shifted = scalar_game_grid(
        QuadGameSpec(minimizers=(0.4, 0.4), offsets=(5.0, -3.0), step=0.2)
    )
    assert plain.ne_pairs == shifted.ne_pairs
    assert plain.invariant_set == shifted.invariant_set


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        QuadGameSpec(curvatures=(0.0, 1.0))
    with pytest.raises(ValueError):
        QuadGameSpec(lo=-1.0, hi=2.0)
    with pytest.raises(ValueError):
        QuadGameSpec(step=1.0)  # only 5 points
    for field, kw in [("minimizers", {"minimizers": (float("nan"), 0.0)}),
                      ("offsets", {"offsets": (0.0, float("inf"))}),
                      ("lo", {"lo": float("-inf"), "hi": float("inf")}),
                      ("below", {"lo": 1.0, "hi": -1.0, "step": None})]:
        with pytest.raises(ValueError, match=field):
            QuadGameSpec(**kw)
    # a box with no grid needs neither symmetry nor 11 points
    QuadGameSpec(lo=-0.3, hi=0.5, step=None)


def test_bounded_interior_fixed_point():
    (w1, w2), interior = bounded_linear_ne(QuadGameSpec(minimizers=(0.3, 0.3)))
    assert interior
    npt.assert_allclose((w1 + w2) / 2.0, 0.3, atol=1e-12)


def test_bounded_boundary_absorption():
    (w1, w2), interior = bounded_linear_ne(QuadGameSpec(minimizers=(0.9, -0.9)))
    assert not interior
    assert max(abs(w1), abs(w2)) == 2.0
    # each strategy is still a clamped best response to the other
    clamp = lambda v: min(max(v, -2.0), 2.0)
    npt.assert_allclose(w1, clamp(2 * 0.9 - w2))
    npt.assert_allclose(w2, clamp(2 * -0.9 - w1))


def test_bounded_matches_fixed_point_equations_random():
    rng = Rng(1)
    for trial in range(10):
        c1, c2 = rng.child(f"t{trial}").uniform(-1.5, 1.5, size=2)
        spec = QuadGameSpec(minimizers=(float(c1), float(c2)))
        (w1, w2), interior = bounded_linear_ne(spec)
        clamp = lambda v: min(max(v, spec.lo), spec.hi)
        npt.assert_allclose(w1, clamp(2 * c1 - w2), atol=1e-9)
        npt.assert_allclose(w2, clamp(2 * c2 - w1), atol=1e-9)
        if interior:
            npt.assert_allclose(c1, c2, atol=1e-9)


def test_bounded_interior_fixed_points_sit_at_the_shared_minimizer():
    # 121 x 121 minimizer pairs, some outside each box: an interior fixed
    # point only appears for c1 == c2, with ensemble (w1 + w2) / 2 == c1
    minimizers = np.linspace(-3.0, 3.0, 121)
    interior_count = 0
    for hi in (0.5, 1.0, 2.0, 2.5):
        for c1 in minimizers:
            for c2 in minimizers:
                spec = QuadGameSpec(minimizers=(float(c1), float(c2)), lo=-hi, hi=hi)
                (w1, w2), interior = bounded_linear_ne(spec)
                if interior:
                    interior_count += 1
                    assert abs(w1 + w2 - 2.0 * c1) <= 1e-12, (hi, c1, c2)
                    assert abs(w1 + w2 - 2.0 * c2) <= 1e-12, (hi, c1, c2)
    assert interior_count > 0


# -- certificates on the linear-SEM game ------------------------------------


@pytest.fixture(scope="module")
def sem_setup():
    model, envs, gamma = train_sem_game(seed=0)
    return model, envs, gamma


def test_sem_game_recovers_causal_coefficients(sem_setup):
    model, envs, gamma = sem_setup
    coef = ensemble_coefficients(model)
    npt.assert_allclose(coef, ols_causal(envs, len(gamma)), atol=0.02)
    npt.assert_allclose(coef, gamma, atol=0.05)


def test_verify_nash_passes_at_equilibrium(sem_setup):
    model, envs, _ = sem_setup
    report = verify_nash(
        model, envs, deviation_budget=200, eps=1e-3, loss="squared", lr=2e-2
    )
    assert report.passed
    assert report.max_gain >= 0.0  # the starting point is always on the path


def test_verify_nash_fails_off_equilibrium():
    # a model stopped long before convergence leaves profitable deviations
    spec = default_sem_spec()
    cfg = sem_train_config(0, max_iters=3)
    model, envs, _ = train_sem_game(spec, cfg)
    report = verify_nash(
        model, envs, deviation_budget=200, eps=1e-3, loss="squared", lr=2e-2
    )
    assert not report.passed
    assert report.max_gain > 1e-3


def test_verify_nash_eps_monotonicity(sem_setup):
    model, envs, _ = sem_setup
    report = verify_nash(
        model, envs, deviation_budget=150, eps=1e-9, loss="squared", lr=2e-2
    )
    loose = report.max_gain < 1e-1
    strict = report.max_gain < 1e-9
    # tightening eps can only flip pass -> fail, never the other way
    assert loose or not strict
    if report.passed:
        assert report.max_gain < 1e-9


def test_verify_nash_budget_floor(sem_setup):
    model, envs, _ = sem_setup
    with pytest.raises(ValueError):
        verify_nash(model, envs, deviation_budget=50)


def test_average_classifier_is_parameter_mean():
    rng = Rng(2)
    clfs = [nn.make_mlp((4, 6, 2), rng.child(f"c{e}")) for e in range(3)]
    model = EnsembleModel(clfs)
    avg = average_classifier(model)
    for i, p in enumerate(avg.parameters()):
        stacked = [c.parameters()[i] for c in clfs]
        npt.assert_allclose(p, np.mean(stacked, axis=0))


def test_verify_invariance_passes_at_equilibrium(sem_setup):
    model, envs, _ = sem_setup
    report = verify_invariance(
        model, envs, n_perturb=100, eps=1e-3, rng=Rng(3), loss="squared", lr=2e-2
    )
    assert report.passed
    # zero-scale perturbation is the baseline itself: improvement >= 0 always
    assert report.max_improvement >= 0.0


def test_verify_invariance_fails_off_equilibrium():
    spec = default_sem_spec()
    cfg = sem_train_config(0, max_iters=3)
    model, envs, _ = train_sem_game(spec, cfg)
    report = verify_invariance(
        model, envs, n_perturb=100, eps=1e-3, rng=Rng(4), loss="squared", lr=2e-2
    )
    assert not report.passed


def test_verify_invariance_sample_floor(sem_setup):
    model, envs, _ = sem_setup
    with pytest.raises(ValueError):
        verify_invariance(model, envs, n_perturb=10)


def test_reports_serialize(sem_setup):
    model, envs, _ = sem_setup
    report = verify_nash(
        model, envs, deviation_budget=100, eps=1e-3, loss="squared", lr=2e-2
    )
    kv = report.to_kv()
    assert set(kv) >= {"eps", "max_gain", "passed"}
    text = report.to_text()
    assert ("PASS" in text) or ("FAIL" in text)


def test_the_frozen_representation_runs_once_per_environment_per_call(monkeypatch):
    calls = []  # (net, rows) of every nn.predict call; holding net keeps its id unique
    predict = nn.predict

    def counted(net, batch):
        calls.append((net, np.shape(batch)[0]))
        return predict(net, batch)

    monkeypatch.setattr(nn, "predict", counted)
    spec = default_sem_spec(200)
    model, envs, _ = train_sem_game(spec, sem_train_config(max_iters=20))

    def phi_rows():
        rows = [rows for net, rows in calls if net is model.representation]
        calls.clear()
        return rows

    once = [spec.samples_per_env] * len(envs)  # one pass over each environment
    assert phi_rows() == once
    verify_nash(model, envs, deviation_budget=100, loss="squared", lr=2e-2)
    assert phi_rows() == once
    verify_invariance(model, envs, n_perturb=100, rng=Rng(0), loss="squared",
                      retrain_steps=10, lr=2e-2)
    assert phi_rows() == once


def test_certificates_of_a_representation_equal_those_of_its_heads_on_projected_data(sem_setup):
    model, envs, _ = sem_setup
    heads = EnsembleModel(model.classifiers)
    projected = [
        dataclasses.replace(env, features=nn.predict(model.representation, env.features))
        for env in envs
    ]
    for certify in (
        lambda m, d: verify_nash(m, d, deviation_budget=100, loss="squared", lr=2e-2, seed=1),
        lambda m, d: verify_invariance(m, d, n_perturb=100, rng=Rng(1), loss="squared",
                                       retrain_steps=20, lr=2e-2),
    ):
        raw, on_heads = certify(model, envs), certify(heads, projected)
        assert len(raw.entries) == len(envs)
        assert raw.entries == on_heads.entries
