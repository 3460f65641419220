from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import flow
from neurocpd import model as model_mod
from neurocpd.datagen import gen_problem
from neurocpd.driver import drive
from neurocpd.errors import BarrierDomainError, BoundaryStallError, DivergenceError
from neurocpd.flow import (
    FlowState,
    barrier_flow_step,
    flow_step,
    solve_barrier,
    solve_to_equilibrium,
)
from neurocpd.model import (
    AUTO_RIDGE_SCALE,
    barrier_gradient,
    objective,
    projected_direction,
    projection_bundle,
)
from neurocpd.tensor_ops import (
    KruskalModel,
    hadamard_gram,
    kruskal_full,
    relative_error,
)


def mode_rhs(t, s, mode):
    """The flow's right-hand side ``-Z + [Z - grad * P^{-1}]_+`` of one factor."""
    return projection_bundle(t, s.model, s.settings.precondition, s.settings.ridge)[0][mode]


def scalar_state(x, value, **kw):
    t = np.full((1, 1, 1), x)
    model = KruskalModel([[[value]], [[value]], [[value]]])
    return t, FlowState(model, **kw)


def test_rhs_zero_at_exact_scalar_fit():
    t, s = scalar_state(1.0, 1.0, precondition=False)
    for mode in range(3):
        assert mode_rhs(t, s, mode) == pytest.approx(0.0, abs=0.0)


def test_rhs_projection_clamps_at_zero_factor():
    # [Z - G]_+ - Z vanishes at Z = 0 whenever the gradient is entrywise >= 0
    g = np.array([[0.3, 0.0], [1.2, 2.0]])
    assert np.array_equal(projected_direction(np.zeros((2, 2)), g), np.zeros((2, 2)))
    t = np.zeros((2, 2, 2))
    s = FlowState(KruskalModel([np.zeros((2, 2))] * 3), precondition=False)
    for mode in range(3):
        assert np.array_equal(mode_rhs(t, s, mode), np.zeros((2, 2)))


def test_rhs_scalar_hand_case():
    t, s = scalar_state(2.0, 1.0, precondition=False)
    # gradient is -1, so rhs = -1 + [1 + 1]_+ = 1
    assert mode_rhs(t, s, 0) == pytest.approx(1.0)


def test_flow_step_fixed_at_equilibrium():
    t, s = scalar_state(1.0, 1.0)
    stepped = flow_step(t, s)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(stepped.model.factors, s.model.factors)
    )
    assert stepped.residual == 0.0


def test_flow_step_h_equals_eps_is_pure_projection():
    rng = np.random.default_rng(0)
    t = rng.random((3, 3, 3))
    model = KruskalModel([rng.random((3, 2)) for _ in range(3)])
    s = FlowState(model, step=1.0, time_constants=np.ones(3), precondition=False)
    stepped = flow_step(t, s)
    from neurocpd.model import gradients

    for f, g, new in zip(model.factors, gradients(t, model), stepped.model.factors):
        assert np.allclose(new, np.maximum(f - g, 0.0), rtol=1e-12, atol=1e-14)


def test_flow_state_validation():
    model = KruskalModel([np.ones((2, 2))] * 3)
    with pytest.raises(ValueError):
        FlowState(model, time_constants=[1.0, 1.0])
    with pytest.raises(ValueError):
        FlowState(model, time_constants=[1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        FlowState(model, step=0.0)
    with pytest.raises(ValueError):
        FlowState(model, integrator="heun")


@pytest.mark.parametrize("seed", range(20))
def test_flow_objective_monotone_on_exact_instances(seed):
    t, _ = gen_problem("easy5", seed)
    init = KruskalModel.random(t.shape, 3, np.random.default_rng(seed + 1000))
    s = FlowState(init, step=0.2, ridge=0.1)
    prev = objective(t, s.model)
    for _ in range(300):
        s = flow_step(t, s)
        cur = objective(t, s.model)
        assert cur <= prev + 1e-12
        assert all(f.min() >= 0.0 for f in s.model.factors)
        prev = cur


def test_flow_nonnegativity_with_admissible_step():
    rng = np.random.default_rng(1)
    t = rng.random((4, 4, 4))
    s = FlowState(
        KruskalModel.random(t.shape, 3, rng),
        step=0.5,
        time_constants=[0.5, 1.0, 2.0],
    )
    for _ in range(100):
        s = flow_step(t, s)
        assert all(f.min() >= 0.0 for f in s.model.factors)


def test_solve_starts_at_equilibrium_takes_zero_steps():
    t, s = scalar_state(1.0, 1.0)
    out, reason = solve_to_equilibrium(t, s, tol=1e-8, max_steps=50)
    assert reason == "converged"
    assert out.iterations == 0


def test_solve_converges_on_exact_rank5_9cube():
    t, _ = gen_problem("easy9", 0)
    s = FlowState(KruskalModel.random(t.shape, 5, np.random.default_rng(0)))
    out, reason = solve_to_equilibrium(t, s, tol=1.5e-7, max_steps=20000)
    assert reason == "converged"
    # converged state satisfies the stop rule factor by factor, and the
    # Frobenius norm of every rhs is below 1e-6 as well
    for mode in range(3):
        rhs = mode_rhs(t, out, mode)
        assert np.abs(rhs).max() < 1.5e-7
        assert np.linalg.norm(rhs) < 1e-6
    assert relative_error(t, out.model) < 1e-4


def test_solve_reports_max_steps():
    t, _ = gen_problem("easy5", 3)
    s = FlowState(KruskalModel.random(t.shape, 3, np.random.default_rng(3)))
    out, reason = solve_to_equilibrium(t, s, tol=1e-14, max_steps=5)
    assert reason == "max_steps"
    assert out.iterations == 5
    with pytest.raises(ValueError):
        solve_to_equilibrium(t, s, tol=0.0)


def test_flow_step_divergence_error():
    t = np.ones((2, 2, 2))
    bad = KruskalModel([np.full((2, 2), np.nan)] * 3)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        flow_step(t, FlowState(bad, precondition=False))


def interior_state(seed, **kw):
    t, _ = gen_problem("easy5", seed)
    rng = np.random.default_rng(seed)
    model = KruskalModel([0.1 + 0.9 * rng.random((5, 3)) for _ in range(3)])
    return t, FlowState(model, **kw)


def test_barrier_symmetric_instance_preserves_symmetry():
    rng = np.random.default_rng(4)
    f = 0.2 + rng.random((4, 2))
    model = KruskalModel([f.copy() for _ in range(3)])
    t = kruskal_full(model)
    start = KruskalModel([0.5 + np.zeros((4, 2)) + 0.1 * f for _ in range(3)])
    s = FlowState(start, step=0.1)
    stepped = barrier_flow_step(t, s)
    for other in stepped.model.factors[1:]:
        assert np.allclose(stepped.model.factors[0], other, rtol=0, atol=1e-13)


def test_barrier_step_checks_a_point_no_barrier_step_made():
    # a projection step may leave zeros; the next barrier step must see them
    t, s = interior_state(3, step=1.0, time_constants=[1.0] * 3, precondition=False)
    s = barrier_flow_step(t, s)
    s = flow_step(t, s)
    assert min(f.min() for f in s.model.factors) == 0.0
    with pytest.raises(BarrierDomainError):
        barrier_flow_step(t, s)


#: a barrier stack against the solo drive of each: a step agrees to this
#: tolerance, relative to the larger of 1 and the max-norm of the solo rows
#: (the two form the same sums, grouped alike or nearly), and the steps that
#: follow may grow the difference by up to BARRIER_SOLO_GROWTH
BARRIER_TOL = 1e-12
BARRIER_SOLO_GROWTH = 1e3


def halvings(t, s):
    """How often the first barrier step of ``s`` halves ``h``: the fewest
    halvings that it may make without a :class:`BoundaryStallError`. For a
    stack, those of the trajectory that halves most."""
    for allowed in range(31):
        with mock.patch.object(flow, "MAX_BOUNDARY_HALVINGS", allowed):
            try:
                barrier_flow_step(t, s)
            except BoundaryStallError:
                continue
            return allowed


def assert_near_solo(got, solo, growth=1.0):
    scale = max(1.0, float(np.abs(solo).max()))
    assert float(np.abs(got - solo).max()) <= BARRIER_TOL * growth * scale


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_a_barrier_stack_matches_the_solo_drive_of_each(integrator, count):
    # trajectory 0 starts at the exact fit and stops at its first check at
    # tol; on the first step, trajectory 1's step of 6 halves 4 times (5 with
    # RK4), and the step of 0.5 of trajectories 2 and 3 twice and none (once)
    rng = np.random.default_rng(8)
    truth = KruskalModel([0.2 + rng.random((dim, 3)) for dim in (5, 4, 6)])
    t = kruskal_full(truth)
    starts = [truth] + [KruskalModel([0.1 + rng.random(f.shape) for f in truth.factors])
                        for _ in range(3)]
    states = [FlowState(m, step=6.0 if p == 1 else 0.5, integrator=integrator,
                        gamma=1e-9)
              for p, m in enumerate(starts[:count])]
    tol = 1e-7
    stack = FlowState.stack(states)
    alone = [halvings(t, s) for s in states]
    assert alone == {"euler": [0, 4, 2, 0], "rk4": [0, 5, 2, 1]}[integrator][:count]
    assert halvings(t, stack) == max(alone)
    # at tol 0 every trajectory steps, each halving as often as alone
    first = barrier_flow_step(t, stack)
    for p, state in enumerate(states):
        assert_near_solo(first.rows[p], barrier_flow_step(t, state).rows[0])
    stack, _, _ = drive(t, stack, barrier_flow_step, tol, 60)
    assert stack.rows.shape == (count, 15, 3)
    for p, state in enumerate(states):
        alone, reason, steps = drive(t, state, barrier_flow_step, tol, 60)
        assert stack.active[p] == (reason == "max_steps")
        assert (reason, steps) == (("converged", 0) if p == 0 else ("max_steps", 60))
        if count == 1:
            assert np.array_equal(stack.rows, alone.rows)
        assert_near_solo(stack.rows[p], alone.rows[0], BARRIER_SOLO_GROWTH)


def test_the_model_of_a_state_is_a_view_made_without_the_model_checks():
    t, s = interior_state(2)
    with mock.patch.object(KruskalModel, "__post_init__") as post_init:
        model = s.model
    post_init.assert_not_called()
    assert model.shape == t.shape and model.rank == 3
    for f, r in zip(model.factors, s.settings.slices):
        assert np.shares_memory(f, s.rows) and np.array_equal(f, s.rows[0, r])


def test_barrier_halving_keeps_interior():
    t, s = interior_state(5, step=64.0)  # deliberately too large
    stepped = barrier_flow_step(t, s)
    assert all(f.min() > 0.0 for f in stepped.model.factors)


def test_barrier_solve_reaches_small_gradient_fixed_point():
    t, s = interior_state(1, step=0.5)
    out, reason = solve_barrier(t, s, tol=1e-7, max_steps=3000)
    assert reason == "converged"
    rhs = barrier_rhs(t, out.model, 1e-3)
    assert max(np.abs(r).max() for r in rhs) < 1e-7
    assert all(f.min() > 0.0 for f in out.model.factors)


def test_barrier_rk4_stays_interior_and_converges():
    t, s = interior_state(2, step=0.5, integrator="rk4")
    out, reason = solve_barrier(t, s, tol=1e-6, max_steps=3000)
    assert reason == "converged"
    assert all(f.min() > 0.0 for f in out.model.factors)


def test_barrier_gamma_decay_improves_fit():
    t, s1 = interior_state(6, step=0.5, gamma=1e-2)
    _, s2 = interior_state(6, step=0.5, gamma=1e-2, gamma_decay=0.5, decay_every=100)
    fixed, _ = solve_barrier(t, s1, tol=1e-9, max_steps=2000)
    decayed, _ = solve_barrier(t, s2, tol=1e-9, max_steps=2000)
    assert fixed.gamma == 1e-2
    assert decayed.gamma == 1e-2 * 0.5 ** (decayed.iterations // 100) < 1e-2
    assert relative_error(t, decayed.model) <= relative_error(t, fixed.model)


def barrier_rhs(t, model, gamma, ridge=None):
    """The barrier flow's rhs ``-Hbar^{-1} grad`` of each factor, from the
    kernel's one row block of a stack of one."""
    rows = np.concatenate(model.factors)[None]
    slices = FlowState(model).settings.slices
    block = model_mod._barrier_rhs(t, rows, slices, gamma, ridge)[0]
    return np.split(block, np.cumsum(model.shape)[:-1])


def reference_barrier_rhs(t, model, gamma, ridge=None):
    """The barrier rhs as it was formed one mode at a time: the mode's barrier
    gradient, its Gram preconditioner ``P + ridge*I`` (the automatic ridge
    ``1e-10 * trace(P) / R`` for ``None``) and one batched solve over its rows."""
    out = []
    for mode, factor in enumerate(model.factors):
        grad = barrier_gradient(t, model, mode, gamma)
        base = hadamard_gram(model, mode)
        rank = base.shape[0]
        if ridge is None:
            base[np.diag_indices(rank)] += AUTO_RIDGE_SCALE * np.trace(base) / rank
        else:
            base[np.diag_indices(rank)] += ridge
        systems = np.broadcast_to(base, (len(factor), rank, rank)).copy()
        idx = np.arange(rank)
        systems[:, idx, idx] += gamma / (factor**2)
        out.append(-np.linalg.solve(systems, grad[:, :, None])[:, :, 0])
    return out


def reference_barrier_step(t, s):
    """One barrier-flow step made one factor at a time from
    :func:`reference_barrier_rhs`, as the step was before it ran on one row
    block: ``h / eps_n`` per factor, read off the first of its rows, Euler or
    RK4 stages, and ``h`` halved until every factor is strictly positive, at
    most 30 times. Returns the new factors."""
    settings, rhs = s.settings, reference_barrier_rhs
    k1 = rhs(t, s.model, s.gamma, settings.ridge)
    scale = np.array([settings.row_weights[0, r.start, 0] for r in settings.slices])
    for _ in range(31):
        factors = s.model.factors
        try:
            if settings.integrator == "euler":
                new = [f + sc * d for f, sc, d in zip(factors, scale, k1)]
            else:
                def stage(ks, w):
                    shifted = [f + w * sc * k for f, sc, k in zip(factors, scale, ks)]
                    return rhs(t, KruskalModel(shifted), s.gamma, settings.ridge)

                k2 = stage(k1, 0.5)
                k3 = stage(k2, 0.5)
                k4 = stage(k3, 1.0)
                new = [f + sc / 6.0 * (a + 2 * b + 2 * c + d)
                       for f, sc, a, b, c, d in zip(factors, scale, k1, k2, k3, k4)]
        except BarrierDomainError:
            scale = scale * 0.5
            continue
        if all(f.min() > 0.0 for f in new):
            return new
        scale = scale * 0.5
    raise BoundaryStallError(s.iterations + 1, 30)


@pytest.mark.parametrize("ridge", [None, 1e-3])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_barrier_rhs_equals_the_per_mode_formula_bitwise(integrator, ridge):
    rng = np.random.default_rng(11)
    t = rng.random((4, 6, 5))
    model = KruskalModel([0.1 + rng.random((dim, 7)) for dim in t.shape])
    for got, ref in zip(
        barrier_rhs(t, model, 1e-3, ridge), reference_barrier_rhs(t, model, 1e-3, ridge)
    ):
        assert np.array_equal(got, ref)
    s = FlowState(model, step=0.5, integrator=integrator, ridge=ridge)
    for _ in range(5):  # each row-block step equals the per-factor one
        want = reference_barrier_step(t, s)
        s = barrier_flow_step(t, s)
        assert all(np.array_equal(a, b) for a, b in zip(s.model.factors, want))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 6)] * 3),
    rank=st.integers(1, 6),
    ridge=st.sampled_from([None, 1e-8]),
    gamma=st.floats(1e-6, 1.0),
    integrator=st.sampled_from(["euler", "rk4"]),
    step=st.sampled_from([0.05, 0.5, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_block_barrier_step_equals_the_per_factor_step_bitwise(
    dims, rank, ridge, gamma, integrator, step, seed
):
    # unequal I_n, random time constants, and steps large enough to halve
    rng = np.random.default_rng(seed)
    t = rng.random(dims)
    model = KruskalModel([0.05 + rng.random((dim, rank)) for dim in dims])
    s = FlowState(model, time_constants=0.5 + rng.random(3), step=step,
                  integrator=integrator, ridge=ridge, gamma=gamma)
    try:
        want = reference_barrier_step(t, s)
    except BoundaryStallError:
        with pytest.raises(BoundaryStallError):
            barrier_flow_step(t, s)
        return
    got = barrier_flow_step(t, s).model.factors
    assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))
