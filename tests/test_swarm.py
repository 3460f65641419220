import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import swarm
from neurocpd.datagen import gen_problem
from neurocpd.errors import ConfigError
from neurocpd.flow import FlowState, solve_to_equilibrium
from neurocpd.model import objective
from neurocpd.swarm import (
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
from neurocpd.tensor_ops import KruskalModel, residual_fit


def one_particle_state(x, v, p, p_val, gbest, gbest_val):
    return SwarmState(np.array([x], float), np.array([v], float),
                      np.array([p], float), np.array([p_val], float),
                      np.array(gbest, float), gbest_val)


def test_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(population=0)
    with pytest.raises(ValueError):
        SwarmConfig(inertia=1.5)
    with pytest.raises(ValueError):
        SwarmConfig(inner_solver="newton")
    with pytest.raises(ValueError, match="max_outer"):
        SwarmConfig(max_outer=2.5)


def test_pso_stationary_when_everything_coincides():
    sw = one_particle_state([1.0, 2.0], [0.0, 0.0], [1.0, 2.0], 0.5, [1.0, 2.0], 0.5)
    out = pso_update(sw, SwarmConfig(population=1))
    assert np.array_equal(out.positions[0], [1.0, 2.0])
    assert np.array_equal(out.velocities[0], [0.0, 0.0])


def test_pso_pure_inertia_when_accelerations_vanish():
    sw = one_particle_state([1.0, 1.0], [0.2, -0.1], [3.0, 3.0], 0.1, [4.0, 4.0], 0.0)
    cfg = SwarmConfig(population=1, inertia=0.5, accel_personal=0.0, accel_global=0.0)
    out = pso_update(sw, cfg)
    assert np.allclose(out.velocities[0], [0.1, -0.05])
    assert np.allclose(out.positions[0], [1.1, 0.95])


def test_pso_hand_value_with_unit_draws(monkeypatch):
    class _Ones:
        def random(self, n):
            return np.ones(n)

    monkeypatch.setattr(swarm, "_rng", lambda *a: _Ones())
    sw = one_particle_state([0.0], [0.0], [1.0], 1.0, [2.0], 0.5)
    cfg = SwarmConfig(population=1, inertia=0.5, accel_personal=0.01,
                      accel_global=0.01)
    out = pso_update(sw, cfg)
    assert out.velocities[0] == pytest.approx(0.03)
    assert out.positions[0] == pytest.approx(0.03)


def test_pso_projects_onto_orthant():
    sw = one_particle_state([0.1], [-5.0], [0.1], 1.0, [0.1], 1.0)
    out = pso_update(sw, SwarmConfig(population=1, inertia=1.0))
    assert out.positions[0] >= 0.0


def test_update_bests_rules():
    sw = SwarmState(np.array([[1.0], [3.0]]), np.zeros((2, 1)),
                    np.array([[2.0], [4.0]]), np.array([5.0, 3.0]),
                    np.array([4.0]), 3.0)
    # all worse: nothing changes
    update_bests(sw, [9.0, 9.0])
    assert sw.personal_best_values[0] == 5.0 and sw.global_best_value == 3.0
    # tie keeps the incumbent
    update_bests(sw, [5.0, 3.0])
    assert np.array_equal(sw.personal_bests[0], [2.0])
    assert np.array_equal(sw.personal_bests[1], [4.0])
    # strict improvement moves the personal and global bests
    update_bests(sw, [1.0, 9.0])
    assert np.array_equal(sw.personal_bests[0], [1.0])
    assert sw.global_best_value == 1.0 and np.array_equal(sw.global_best, [1.0])
    with pytest.raises(ValueError):
        update_bests(sw, [1.0])


def test_diversity_hand_cases():
    def state(*bests):
        q = len(bests)
        return SwarmState(np.zeros((q, 2)), np.zeros((q, 2)), np.array(bests),
                          np.zeros(q), np.array([1.0, 1.0]), 0.0)

    p1, p2 = [1.0, 1.0], [1.0, 5.0]
    sw = state(p1, p2)
    assert diversity(sw) == pytest.approx(2.0)  # (0 + 4) / 2
    assert diversity(state(p1)) == 0.0
    assert diversity(state(p2, p1)) == pytest.approx(diversity(sw))


# Per-particle reference loops with the formulas of the swarm before its
# population became (P, D) arrays; the array updates must match them bitwise.


def _loop_update_bests(positions, bests, best_values, gbest, gbest_value, values):
    bests, best_values = [b.copy() for b in bests], list(best_values)
    for n, value in enumerate(values):
        if value < best_values[n]:
            bests[n] = positions[n].copy()
            best_values[n] = value
    best = min(range(len(bests)), key=lambda i: best_values[i])
    if best_values[best] < gbest_value:
        gbest = bests[best].copy()
        gbest_value = best_values[best]
    return bests, best_values, gbest, gbest_value


def _loop_pso(positions, velocities, bests, gbest, cfg, iteration):
    new_x, new_v = [], []
    for n, (x, v, best) in enumerate(zip(positions, velocities, bests)):
        g1, g2 = swarm._rng(cfg, swarm._PSO, n, iteration).random(2)
        v = (
            cfg.inertia * v
            + cfg.accel_personal * g1 * (best - x)
            + cfg.accel_global * g2 * (gbest - x)
        )
        new_x.append(np.maximum(x + v, 0.0))
        new_v.append(v)
    return new_x, new_v


def _loop_mutation(positions, gbest, cfg, k, k_max, shape, rank):
    lower = np.zeros_like(gbest)
    upper = np.empty_like(gbest)
    start = 0
    for dim in shape:
        size = dim * rank
        block = gbest[start : start + size]
        top = 2.0 * float(block.max(initial=0.0))
        upper[start : start + size] = top if top > 0.0 else 1.0
        start += size
    a = math.exp(10.0 * k / k_max)
    out = []
    for n, x in enumerate(positions):
        phi = swarm._rng(cfg, swarm._MUTATE, n, k).uniform(-2.5 * a, 2.5 * a)
        kappa = gabor_wavelet(phi, a)
        if kappa > 0:
            x = x + kappa * (upper - x)
        else:
            x = x + kappa * (x - lower)
        out.append(np.clip(x, lower, upper))
    return out


def _bitwise(got, rows):
    ref = np.array(rows, dtype=np.float64).reshape(got.shape)
    return got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


_LEVELS = [0.0, 0.5, 1.0, math.inf]  # few values: ties and incumbent repeats


@settings(max_examples=80, deadline=None)
@given(
    population=st.integers(1, 6),
    rank=st.integers(1, 3),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.sampled_from(_LEVELS), min_size=13, max_size=13),
    zero_block=st.booleans(),
    k=st.integers(0, 6),
)
def test_array_updates_equal_the_per_particle_loops_bitwise(
    population, rank, shape, seed, levels, zero_block, k
):
    size = sum(shape) * rank
    rng = np.random.default_rng(seed)
    x, v, bests = (rng.random((population, size)) for _ in range(3))
    v -= 0.5
    gbest = rng.random(size)
    if zero_block:
        gbest[: shape[0] * rank] = 0.0
    best_values = np.array(levels[:population])
    values = levels[6 : 6 + population]
    cfg = SwarmConfig(population=population, seed=seed,
                      inertia=float(rng.random()),
                      accel_personal=float(rng.uniform(0, 2)),
                      accel_global=float(rng.uniform(0, 2)))

    sw = SwarmState(x.copy(), v.copy(), bests.copy(), best_values.copy(),
                    gbest.copy(), levels[12], outer_iteration=k)
    ref = _loop_update_bests(x, bests, best_values, gbest, levels[12], values)
    update_bests(sw, values)
    assert _bitwise(sw.personal_bests, ref[0])
    assert _bitwise(sw.personal_best_values, ref[1])
    assert _bitwise(sw.global_best, ref[2]) and sw.global_best_value == ref[3]

    ref_div = float(np.mean([np.linalg.norm(b - sw.global_best) for b in ref[0]]))
    assert diversity(sw) == ref_div

    ref_x, ref_v = _loop_pso(sw.positions, sw.velocities, sw.personal_bests,
                             sw.global_best, cfg, k)
    pso_update(sw, cfg)
    assert _bitwise(sw.positions, ref_x) and _bitwise(sw.velocities, ref_v)

    k_max = 6
    ref_x = _loop_mutation(sw.positions, sw.global_best, cfg, k, k_max, shape, rank)
    wavelet_mutation(sw, cfg, k, k_max, shape, rank)
    assert _bitwise(sw.positions, ref_x)
    assert _bitwise(sw.velocities, np.zeros((population, size)))


def test_gabor_wavelet_values():
    for a in (1.0, 7.0, math.exp(10.0)):
        assert gabor_wavelet(0.0, a) == pytest.approx(1.0 / math.sqrt(a))


def test_mutation_with_unit_amplitude_lands_on_upper_bound(monkeypatch):
    class _Zero:
        def uniform(self, lo, hi):
            return 0.0  # kappa(0) = 1 at k = 0

    monkeypatch.setattr(swarm, "_rng", lambda *a: _Zero())
    sw = one_particle_state([0.3, 0.4], [1.0, 1.0], [0.3, 0.4], 1.0, [0.5, 1.0], 1.0)
    cfg = SwarmConfig(population=1)
    out = wavelet_mutation(sw, cfg, k=0, k_max=10, shape=(2,), rank=1)
    upper = 2.0 * 1.0  # twice the largest global-best entry of the block
    assert np.allclose(out.positions[0], [upper, upper])
    assert np.array_equal(out.velocities[0], [0.0, 0.0])


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
    sw = one_particle_state(rng.random(6), np.zeros(6), rng.random(6), 1.0,
                            rng.random(6), 1.0)
    out = wavelet_mutation(sw, SwarmConfig(population=1), k=0, k_max=5,
                           shape=(3,), rank=2)
    lower, upper = swarm.mutation_bounds(sw, (3,), 2)
    pos = out.positions[0]
    assert (pos >= lower).all() and (pos <= upper).all()


def test_cno_single_particle_equals_plain_flow():
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(
        population=1, seed=11, max_outer=4, inner_max_steps=50,
        inner_tol=1e-300, diversity_threshold=0.0,
        inner_params={"time_constants": [1.0] * 3},
    )
    model, trace = cno_run(t, 3, cfg)
    state = FlowState(initial_model(t.shape, 3, 11))
    state, _ = solve_to_equilibrium(t, state, tol=1e-300, max_steps=200)
    for a, b in zip(model.factors, state.model.factors):
        assert np.array_equal(a, b)
    assert trace[-1].objective == pytest.approx(objective(t, state.model), abs=1e-14)


def test_cno_global_best_monotone_and_deterministic():
    t, _ = gen_problem("easy5", 1)
    cfg = SwarmConfig(population=3, seed=5, max_outer=5, inner_max_steps=40)
    _, trace1 = cno_run(t, 3, cfg)
    _, trace2 = cno_run(t, 3, cfg)
    best = [r.objective for r in trace1]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best == [r.objective for r in trace2]
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


def test_a_cno_run_trace_counts_wall_ms_from_the_call(monkeypatch):
    # set-up is on the clock: a 50 ms pause before the swarm's first draw
    # shows in the first row
    init = swarm.init_swarm

    def slow_init(*args):
        time.sleep(0.05)
        return init(*args)

    monkeypatch.setattr(swarm, "init_swarm", slow_init)
    t, _ = gen_problem("easy5", 0)
    started = time.perf_counter()
    _, trace = cno_run(t, 3, SwarmConfig(population=3, max_outer=4, inner_max_steps=10))
    elapsed_ms = (time.perf_counter() - started) * 1e3
    walls = [row.wall_ms for row in trace]
    assert len(walls) == 4 and walls == sorted(walls)
    assert 50.0 <= walls[0] and walls[-1] <= elapsed_ms


def test_a_swarm_too_large_for_memory_is_refused_before_its_first_draw(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("init_swarm drew a start model")

    monkeypatch.setattr(swarm, "initial_model", spy)
    t, _ = gen_problem("easy5", 0)
    with pytest.raises(ConfigError, match=f"population {2**40} needs "):
        init_swarm(t, 3, SwarmConfig(population=2**40))


def test_init_swarm_bests_are_consistent():
    t, _ = gen_problem("easy5", 4)
    cfg = SwarmConfig(population=4, seed=4)
    sw = init_swarm(t, 3, cfg)
    for best, value in zip(sw.personal_bests, sw.personal_best_values):
        model = KruskalModel.unflatten(best, t.shape, 3)
        assert value == residual_fit(t, model)[0]
    assert sw.global_best_value == min(sw.personal_best_values)


@pytest.mark.parametrize("seed", range(20))
def test_init_swarm_ranks_the_exact_factors_above_a_1e_9_perturbation(
    monkeypatch, seed
):
    # The expanded Gram objective bottoms out near 5e-16 * 0.5 ||t||^2 and
    # cannot resolve this pair; the dense residual can.
    t, truth = gen_problem("caseI", seed)
    rng = np.random.default_rng(seed)
    near = KruskalModel([f * (1.0 + 1e-9 * rng.standard_normal(f.shape))
                         for f in truth.factors])
    for order in ([truth, near], [near, truth]):
        monkeypatch.setattr(swarm, "initial_model",
                            lambda shape, rank, seed, n: order[n])
        sw = init_swarm(t, 10, SwarmConfig(population=2, seed=seed))
        assert np.array_equal(sw.global_best, truth.flatten())


@pytest.mark.parametrize(
    "kind,rank,inner", [("caseI", 10, "flow"), ("easy5", 3, "barrier-flow")]
)
def test_each_recorded_objective_is_the_global_best_value_compared(
    monkeypatch, kind, rank, inner
):
    compared = []

    def spy(sw, values):
        sw = update_bests(sw, values)
        compared.append(sw.global_best_value)
        return sw

    monkeypatch.setattr(swarm, "update_bests", spy)
    t, _ = gen_problem(kind, 0)
    cfg = SwarmConfig(population=4, seed=1, max_outer=4, inner_max_steps=30,
                      inner_solver=inner)
    _, trace = cno_run(t, rank, cfg)
    assert [r.objective for r in trace] == compared[1:]  # [0]: init_swarm


def test_stop_tol_acts_on_the_recorded_objective():
    t, _ = gen_problem("easy5", 1)
    kw = dict(population=3, seed=5, max_outer=6, inner_max_steps=40)
    _, full = cno_run(t, 3, SwarmConfig(**kw))
    moves = [abs(b.objective - a.objective) for a, b in zip(full, full[1:])]
    for tol in moves + [np.nextafter(m, np.inf) for m in moves]:
        _, trace = cno_run(t, 3, SwarmConfig(stop_tol=tol, **kw))
        stop = next((k + 2 for k, m in enumerate(moves) if m < tol), len(full))
        assert [r.objective for r in trace] == [r.objective for r in full[:stop]]


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


def test_a_barrier_particle_whose_gamma_underflows_is_reseeded():
    # gamma 1e-3 scaled by 1e-200 every step reads 0.0 after the second
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(
        population=2, max_outer=2, inner_solver="barrier-flow", inner_max_steps=5,
        inner_params={"gamma_decay": 1.0e-200, "decay_every": 1},
    )
    rows, failed = swarm._solve_particles(t, init_swarm(t, 3, cfg), cfg, 3)
    assert failed.tolist() == [True, True]
    model, trace = cno_run(t, 3, cfg)
    assert len(trace) == 2
    assert all(np.isfinite(f).all() for f in model.factors)
