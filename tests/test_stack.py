"""The stacked projection kernel and the swarm's stacked flow solve.

The kernel advances P models at once; its reference is the per-factor loop
that computed one model's directions before the kernel existed. The loop
kept here calls an independent Khatri-Rao MTTKRP and also reports the
condition number of each preconditioner system.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import swarm
from neurocpd.datagen import gen_problem
from neurocpd.errors import SingularPreconditionerError
from neurocpd.flow import FlowState, solve_stack, solve_to_equilibrium
from neurocpd.model import (
    AUTO_RIDGE_SCALE,
    Preconditioner,
    precondition,
    projected_direction,
    projection_bundle,
    projection_stack,
)
from neurocpd.swarm import SwarmConfig, cno_run, init_swarm
from neurocpd.tensor_ops import KruskalModel, khatri_rao_list, mttkrp_stack, unfold

#: Tolerance fixed before the comparison, relative to the larger of 1 and
#: the max-norm of the reference block: the kernel and the reference form the
#: same float64 sums in another grouping, so gradients agree to a few units
#: in the last place. A preconditioned direction can amplify that by the
#: condition number of its R x R system, which the check allows for.
TOL = 1e-12


def reference_mttkrp(t, model, mode):
    others = [f for n, f in enumerate(model.factors) if n != mode]
    return unfold(t, mode) @ khatri_rao_list(others[::-1])


def reference_bundle(t, model, use_precondition, ridge):
    """Per-factor loop: one model, one mode and one R x R solve at a time.

    Also returns the condition number of each mode's preconditioner system.
    """
    grams = [f.T @ f for f in model.factors]
    directions, grads, conds = [], [], []
    for mode, factor in enumerate(model.factors):
        gram_skip = np.ones((model.rank, model.rank))
        for m, g in enumerate(grams):
            if m != mode:
                gram_skip *= g
        grad = factor @ gram_skip - reference_mttkrp(t, model, mode)
        grads.append(grad)
        step_grad = grad
        conds.append(1.0)
        if use_precondition:
            pre = Preconditioner(mode, gram_skip, ridge)
            step_grad = precondition(grad, pre)
            conds[-1] = np.linalg.cond(pre.matrix())
        directions.append(projected_direction(factor, step_grad))
    return directions, grads, conds


def assert_close(got, ref, amplification=1.0):
    assert got.shape == ref.shape
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    assert np.abs(got - ref).max(initial=0.0) <= TOL * amplification * scale


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(1, 6),
    shape=st.tuples(*[st.integers(1, 6)] * 3),
    rank=st.integers(1, 6),
    use_precondition=st.booleans(),
    ridge=st.sampled_from([None, 1e-3, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_kernel_matches_per_slice_loop(
    count, shape, rank, use_precondition, ridge, seed
):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    stacks = [0.1 + rng.random((count, dim, rank)) for dim in shape]
    directions, grads = projection_stack(t, stacks, use_precondition, ridge)
    for p in range(count):
        model = KruskalModel([f[p] for f in stacks])
        ref = reference_bundle(t, model, use_precondition, ridge)
        for mode, (ref_dir, ref_grad, cond) in enumerate(zip(*ref)):
            assert_close(grads[mode][p], ref_grad)
            assert_close(directions[mode][p], ref_dir, cond)


def reference_solve_right(grads, systems, ridge, mode):
    """One mode's preconditioner solve as the kernel made it before it grouped
    the modes: a Cholesky test of the mode's P systems and one batched solve,
    or each system alone if one is not positive definite."""
    try:
        np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        return np.stack(
            [reference_solve_one(g, s, ridge, mode) for g, s in zip(grads, systems)]
        )
    return np.linalg.solve(systems, grads.transpose(0, 2, 1)).transpose(0, 2, 1)


def reference_solve_one(grad, system, ridge, mode):
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        if ridge == 0:
            raise SingularPreconditionerError(mode) from None
        return np.linalg.lstsq(system, grad.T, rcond=None)[0].T
    return np.linalg.solve(system, grad.T).T


def reference_stack_directions(t, stacks, ridge):
    """Preconditioned directions of the stacked kernel with one solve per mode."""
    grams = [np.matmul(f.transpose(0, 2, 1), f) for f in stacks]
    directions = []
    for mode, (factor, mtt) in enumerate(zip(stacks, mttkrp_stack(t, stacks))):
        skip = np.ones_like(grams[0])
        for m, g in enumerate(grams):
            if m != mode:
                skip *= g
        grad = factor @ skip - mtt
        rank = skip.shape[-1]
        if ridge is None:
            delta = AUTO_RIDGE_SCALE * np.trace(skip, axis1=-2, axis2=-1) / rank
        else:
            delta = np.full(len(skip), float(ridge))
        systems = skip + delta[:, None, None] * np.eye(rank)
        step_grad = reference_solve_right(grad, systems, ridge, mode)
        directions.append(projected_direction(factor, step_grad))
    return directions


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(1, 6),
    shape=st.tuples(*[st.integers(1, 7)] * 3),
    rank=st.integers(1, 6),
    ridge=st.sampled_from([None, 1e-3, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_solve_equals_one_solve_per_mode_bitwise(
    count, shape, rank, ridge, seed
):
    # unequal I_n put modes in different solve groups; small I_n with a rank
    # above them give systems that are not positive definite (least squares)
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    stacks = [0.1 + rng.random((count, dim, rank)) for dim in shape]
    directions = projection_stack(t, stacks, True, ridge)[0]
    for got, ref in zip(directions, reference_stack_directions(t, stacks, ridge)):
        assert got.shape == ref.shape and np.array_equal(got, ref)


@pytest.mark.parametrize("mode", range(3))
def test_singular_system_at_ridge_zero_names_its_mode(mode):
    # In particle 1 the two factors other than ``mode`` are all ones, so the
    # Gram-skip product of ``mode`` is a square number times ones((2, 2)),
    # which Cholesky finds exactly singular; the other modes multiply a
    # positive definite Gram onto an all-ones one.
    rng = np.random.default_rng(mode)
    shape = (4, 9, 4)
    t = rng.random(shape)
    stacks = [0.1 + rng.random((3, dim, 2)) for dim in shape]
    for n in range(3):
        if n != mode:
            stacks[n][1] = 1.0
    with pytest.raises(SingularPreconditionerError) as err:
        projection_stack(t, stacks, True, 0.0)
    assert err.value.mode == mode


def test_projection_bundle_is_one_slice_of_the_stack():
    rng = np.random.default_rng(7)
    t = rng.random((4, 5, 3))
    model = KruskalModel([rng.random((d, 3)) for d in t.shape])
    single = projection_bundle(t, model, True, None)
    stacked = projection_stack(t, [f[None] for f in model.factors], True, None)
    for one, many in zip(single, stacked):
        for a, b in zip(one, many):
            assert np.array_equal(a, b[0])


def _flow_particles(t, cfg, rank):
    sw = init_swarm(t, rank, cfg)
    out = []
    for n, p in enumerate(sw.particles):
        model = KruskalModel.unflatten(p.position, t.shape, rank)
        params = cfg.solver_for(n)[1]
        out.append(FlowState(model, time_constants=p.time_constants, **params))
    return sw, out


def test_one_outer_iteration_matches_particles_one_by_one():
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(population=4, seed=9, inner_max_steps=60, inner_tol=1e-2)
    sw, states = _flow_particles(t, cfg, 3)
    solved = swarm._solve_particles(t, sw, cfg, 3)
    reasons = set()
    for state, model in zip(states, solved):
        alone, reason = solve_to_equilibrium(
            t, state, tol=cfg.inner_tol, max_steps=cfg.inner_max_steps
        )
        reasons.add(reason)
        for a, b in zip(model.factors, alone.model.factors):
            assert_close(a, b)
    assert reasons == {"converged", "max_steps"}  # both stops are exercised


@pytest.mark.parametrize(
    "bad", [{"step": 1e6, "precondition": False}, {"step": 1e6}]
)
def test_diverging_flow_particle_is_reseeded_alone(bad):
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(
        population=2, seed=3, max_outer=2, inner_max_steps=40,
        inner_params=[{}, bad], jitter_time_constants=False,
    )
    sw, states = _flow_particles(t, cfg, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solved = swarm._solve_particles(t, sw, cfg, 3)
        model, trace = cno_run(t, 3, cfg)
    assert solved[1] is None
    alone, _ = solve_to_equilibrium(t, states[0], tol=cfg.inner_tol,
                                    max_steps=cfg.inner_max_steps)
    for a, b in zip(solved[0].factors, alone.model.factors):
        assert_close(a, b)
    assert len(trace) == cfg.max_outer
    assert all(np.isfinite(f).all() for f in model.factors)


def test_singular_slice_fails_alone_in_the_stack():
    rng = np.random.default_rng(2)
    t = rng.random((4, 4, 4))
    stacks = [rng.random((2, 4, 3)) for _ in range(3)]
    stacks[0][1, :, 0] = 0.0  # zero column: singular Gram-skip for modes 1, 2
    with pytest.raises(SingularPreconditionerError):
        projection_stack(t, stacks, True, 0.0)
    factors, failed = solve_stack(
        t, stacks, np.full((2, 3), 0.5), True, 0.0, tol=1e-12, max_steps=5
    )
    assert failed.tolist() == [False, True]
    state = FlowState(KruskalModel([f[0] for f in stacks]), ridge=0.0)
    state, _ = solve_to_equilibrium(t, state, tol=1e-12, max_steps=5)
    for stepped, start, alone in zip(factors, stacks, state.model.factors):
        assert_close(stepped[0], alone)
        assert np.array_equal(stepped[1], start[1])  # stopped where it failed


def test_indefinite_slice_falls_back_to_least_squares_alone():
    rng = np.random.default_rng(4)
    t = rng.random((3, 4, 5))
    stacks = [rng.random((3, d, 2)) for d in t.shape]
    stacks[0][1] = 0.0  # zero factor: zero Gram-skips and automatic ridge
    directions, grads = projection_stack(t, stacks, True, None)
    for p in range(3):
        model = KruskalModel([f[p] for f in stacks])
        ref = reference_bundle(t, model, True, None)
        for mode in range(3):
            assert_close(grads[mode][p], ref[1][mode])
            if p != 1:
                assert_close(directions[mode][p], ref[0][mode], ref[2][mode])
            else:  # singular system: least squares, no condition number
                assert np.array_equal(
                    directions[mode][p],
                    projection_bundle(t, model, True, None)[0][mode],
                )
