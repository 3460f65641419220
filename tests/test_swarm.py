import math
import time

import numpy as np
import pytest

from neurocpd import swarm
from neurocpd.datagen import gen_problem
from neurocpd.flow import FlowState, solve_to_equilibrium
from neurocpd.model import objective
from neurocpd.swarm import (
    Particle,
    SwarmConfig,
    SwarmState,
    cno_run,
    diversity,
    gabor_wavelet,
    init_swarm,
    initial_model,
    pso_update,
    update_bests,
    wavelet_mutation,
)
from neurocpd.tensor_ops import KruskalModel


def one_particle_state(x, v, p, p_val, gbest, gbest_val):
    particle = Particle(np.array(x, float), np.array(v, float),
                        np.array(p, float), p_val)
    return SwarmState([particle], np.array(gbest, float), gbest_val)


def test_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(population=0)
    with pytest.raises(ValueError):
        SwarmConfig(inertia=1.5)
    with pytest.raises(ValueError):
        SwarmConfig(inner_solver="newton")


def test_pso_stationary_when_everything_coincides():
    sw = one_particle_state([1.0, 2.0], [0.0, 0.0], [1.0, 2.0], 0.5, [1.0, 2.0], 0.5)
    out = pso_update(sw, SwarmConfig(population=1))
    assert np.array_equal(out.particles[0].position, [1.0, 2.0])
    assert np.array_equal(out.particles[0].velocity, [0.0, 0.0])


def test_pso_pure_inertia_when_accelerations_vanish():
    sw = one_particle_state([1.0, 1.0], [0.2, -0.1], [3.0, 3.0], 0.1, [4.0, 4.0], 0.0)
    cfg = SwarmConfig(population=1, inertia=0.5, accel_personal=0.0, accel_global=0.0)
    out = pso_update(sw, cfg)
    assert np.allclose(out.particles[0].velocity, [0.1, -0.05])
    assert np.allclose(out.particles[0].position, [1.1, 0.95])


def test_pso_hand_value_with_unit_draws(monkeypatch):
    class _Ones:
        def random(self, n):
            return np.ones(n)

    monkeypatch.setattr(swarm, "_rng", lambda *a: _Ones())
    sw = one_particle_state([0.0], [0.0], [1.0], 1.0, [2.0], 0.5)
    cfg = SwarmConfig(population=1, inertia=0.5, accel_personal=0.01,
                      accel_global=0.01)
    out = pso_update(sw, cfg)
    assert out.particles[0].velocity == pytest.approx(0.03)
    assert out.particles[0].position == pytest.approx(0.03)


def test_pso_projects_onto_orthant():
    sw = one_particle_state([0.1], [-5.0], [0.1], 1.0, [0.1], 1.0)
    out = pso_update(sw, SwarmConfig(population=1, inertia=1.0))
    assert out.particles[0].position >= 0.0


def test_update_bests_rules():
    p1 = Particle(np.array([1.0]), np.zeros(1), np.array([2.0]), 5.0)
    p2 = Particle(np.array([3.0]), np.zeros(1), np.array([4.0]), 3.0)
    sw = SwarmState([p1, p2], np.array([4.0]), 3.0)
    # all worse: nothing changes
    update_bests(sw, [9.0, 9.0])
    assert p1.personal_best_value == 5.0 and sw.global_best_value == 3.0
    # tie keeps the incumbent
    update_bests(sw, [5.0, 3.0])
    assert np.array_equal(p1.personal_best, [2.0])
    assert np.array_equal(p2.personal_best, [4.0])
    # strict improvement moves the personal and global bests
    update_bests(sw, [1.0, 9.0])
    assert np.array_equal(p1.personal_best, [1.0])
    assert sw.global_best_value == 1.0 and np.array_equal(sw.global_best, [1.0])
    with pytest.raises(ValueError):
        update_bests(sw, [1.0])


def test_diversity_hand_cases():
    p1 = Particle(np.zeros(2), np.zeros(2), np.array([1.0, 1.0]), 0.0)
    p2 = Particle(np.zeros(2), np.zeros(2), np.array([1.0, 5.0]), 0.0)
    sw = SwarmState([p1, p2], np.array([1.0, 1.0]), 0.0)
    assert diversity(sw) == pytest.approx(2.0)  # (0 + 4) / 2
    sw_same = SwarmState([p1], np.array([1.0, 1.0]), 0.0)
    assert diversity(sw_same) == 0.0
    sw_perm = SwarmState([p2, p1], np.array([1.0, 1.0]), 0.0)
    assert diversity(sw_perm) == pytest.approx(diversity(sw))


def test_gabor_wavelet_values():
    for a in (1.0, 7.0, math.exp(10.0)):
        assert gabor_wavelet(0.0, a) == pytest.approx(1.0 / math.sqrt(a))


def test_mutation_with_unit_amplitude_lands_on_upper_bound(monkeypatch):
    class _Zero:
        def uniform(self, lo, hi):
            return 0.0  # kappa(0) = 1 at k = 0

    monkeypatch.setattr(swarm, "_rng", lambda *a: _Zero())
    particle = Particle(np.array([0.3, 0.4]), np.ones(2), np.array([0.3, 0.4]), 1.0)
    sw = SwarmState([particle], np.array([0.5, 1.0]), 1.0)
    cfg = SwarmConfig(population=1)
    out = wavelet_mutation(sw, cfg, k=0, k_max=10, shape=(2,), rank=1)
    upper = 2.0 * 1.0  # twice the largest global-best entry of the block
    assert np.allclose(out.particles[0].position, [upper, upper])
    assert np.array_equal(out.particles[0].velocity, [0.0, 0.0])


def test_mutation_magnitude_shrinks_with_iteration():
    k_max = 100
    amplitudes = []
    for k in (0, 50, 100):
        a = math.exp(10.0 * k / k_max)
        rng = np.random.default_rng(0)
        draws = rng.uniform(-2.5 * a, 2.5 * a, size=4000)
        amplitudes.append(np.mean([abs(gabor_wavelet(p, a)) for p in draws]))
    assert amplitudes[0] > amplitudes[1] > amplitudes[2]


def test_mutation_respects_bounds():
    rng = np.random.default_rng(3)
    particle = Particle(rng.random(6), np.zeros(6), rng.random(6), 1.0)
    sw = SwarmState([particle], rng.random(6), 1.0)
    out = wavelet_mutation(sw, SwarmConfig(population=1), k=0, k_max=5,
                           shape=(3,), rank=2)
    lower, upper = swarm.mutation_bounds(sw, (3,), 2)
    pos = out.particles[0].position
    assert (pos >= lower).all() and (pos <= upper).all()


def test_cno_single_particle_equals_plain_flow():
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(
        population=1, seed=11, max_outer=4, inner_max_steps=50,
        inner_tol=1e-300, mutation=False, jitter_time_constants=False,
    )
    model, trace = cno_run(t, 3, cfg)
    state = FlowState(initial_model(t.shape, 3, 11))
    state, _ = solve_to_equilibrium(t, state, tol=1e-300, max_steps=200)
    for a, b in zip(model.factors, state.model.factors):
        assert np.array_equal(a, b)
    assert trace[-1].best_value == pytest.approx(objective(t, state.model), abs=1e-14)


def test_cno_global_best_monotone_and_deterministic():
    t, _ = gen_problem("easy5", 1)
    cfg = SwarmConfig(population=3, seed=5, max_outer=5, inner_max_steps=40)
    _, trace1 = cno_run(t, 3, cfg)
    _, trace2 = cno_run(t, 3, cfg)
    best = [r.best_value for r in trace1]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best == [r.best_value for r in trace2]
    assert [r.diversity for r in trace1] == [r.diversity for r in trace2]


def test_cno_mutation_fires_iff_diversity_below_threshold():
    t, _ = gen_problem("easy5", 2)
    for delta in (1e12, 0.0):
        cfg = SwarmConfig(population=3, seed=2, max_outer=3, inner_max_steps=30,
                          diversity_threshold=delta)
        _, trace = cno_run(t, 3, cfg)
        for row in trace:
            assert row.mutated == (row.diversity < delta)


def test_cno_reaches_exact_rank5_9cube():
    t, _ = gen_problem("easy9", 0)
    cfg = SwarmConfig(population=5, seed=0, max_outer=10, inner_max_steps=500)
    _, trace = cno_run(t, 5, cfg)
    assert trace[-1].rel_error <= 1e-3


def test_cno_swarm_beats_single_particle_on_collinear_case():
    wins = 0
    for seed in range(10):
        t, _ = gen_problem("caseI", seed)
        base = dict(seed=seed, max_outer=4, inner_max_steps=100)
        _, five = cno_run(t, 10, SwarmConfig(population=5, **base))
        _, one = cno_run(t, 10, SwarmConfig(population=1, **base))
        wins += five[-1].rel_error <= one[-1].rel_error
    assert wins >= 7


def test_cno_barrier_inner_solver_reaches_interior_fit():
    t, _ = gen_problem("easy5", 3)
    cfg = SwarmConfig(
        population=2, seed=3, max_outer=2,
        inner_solver="barrier-flow",
        inner_params={"gamma": 1e-3, "gamma_decay": 0.5, "decay_every": 60},
        inner_max_steps=600, inner_tol=1e-8,
    )
    model, trace = cno_run(t, 3, cfg)
    assert all(f.min() > 0.0 for f in model.factors)
    assert trace[-1].rel_error < 1e-2


def test_init_swarm_bests_are_consistent():
    t, _ = gen_problem("easy5", 4)
    cfg = SwarmConfig(population=4, seed=4)
    sw = init_swarm(t, 3, cfg)
    for p in sw.particles:
        model = KruskalModel.unflatten(p.personal_best, t.shape, 3)
        assert p.personal_best_value == pytest.approx(objective(t, model))
    assert sw.global_best_value == min(p.personal_best_value for p in sw.particles)


def test_cno_deadline_reaches_the_inner_solves():
    t, _ = gen_problem("caseI", 0)
    cfg = SwarmConfig(population=30, seed=0, inner_max_steps=500)
    started = time.perf_counter()
    model, trace = cno_run(t, 10, cfg, deadline_s=0.05)
    assert time.perf_counter() - started < 0.5
    assert len(trace) == 1
    assert all(f.min() >= 0.0 for f in model.factors)



@pytest.mark.parametrize(
    "kind,params", [("flow", {}), ("dtpnn-explicit", {"lambdas": [0.5] * 3})]
)
def test_zero_inner_tol_runs_every_kind_to_its_step_budget(kind, params):
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(population=2, max_outer=2, inner_tol=0.0, inner_max_steps=5,
                      inner_solver=kind, inner_params=params)
    _, trace = cno_run(t, 3, cfg)
    assert len(trace) == 2
