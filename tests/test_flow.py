import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import model as model_mod
from neurocpd.datagen import gen_problem
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


def test_barrier_step_refuses_a_stack_of_several_trajectories():
    t, s = interior_state(3)
    with pytest.raises(ValueError, match="^the barrier flow steps one trajectory, got 2$"):
        barrier_flow_step(t, FlowState.stack([s, s]))


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
    kernel's one row block."""
    rows = np.concatenate(model.factors)
    block = model_mod._barrier_rhs(t, model, rows, gamma, ridge)
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
