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

from neurocpd import flow as flow_mod
from neurocpd import model as model_mod
from neurocpd import swarm
from neurocpd.datagen import gen_problem
from neurocpd.errors import SingularPreconditionerError
from neurocpd.flow import FlowState, solve_stack, solve_to_equilibrium
from neurocpd.model import (
    AUTO_RIDGE_SCALE,
    BORDER,
    precondition,
    projected_direction,
    projection_bundle,
    projection_stack,
)
from neurocpd.swarm import SwarmConfig, cno_run, init_swarm
from neurocpd.tensor_ops import (
    KruskalModel,
    khatri_rao_list,
    mttkrp_stack,
    tucker_compress,
    unfold,
)

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
            step_grad = precondition(grad, gram_skip, ridge, mode)
            delta = ridge
            if ridge is None:
                delta = AUTO_RIDGE_SCALE * np.trace(gram_skip) / model.rank
            conds[-1] = np.linalg.cond(gram_skip + delta * np.eye(model.rank))
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
    """One mode's preconditioner solve by itself: the Cholesky factor of the
    bordered systems ``[[S, I], [I, c*I]]`` of the mode's P systems, whose
    lower-left block ``U`` gives ``inv(S) = U @ U.T``. Returns None if that
    factorization fails."""
    rank = systems.shape[-1]
    eye = np.broadcast_to(np.eye(rank), systems.shape)
    bordered = np.block([[systems, eye], [eye, BORDER * eye]])
    try:
        factor = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        return None
    u = factor[:, rank:, :rank]
    return (grads @ u) @ u.transpose(0, 2, 1)


def reference_solve_one(grad, system, ridge, mode):
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        if ridge == 0:
            raise SingularPreconditionerError(mode) from None
        return np.linalg.lstsq(system, grad.T, rcond=None)[0].T
    return np.linalg.solve(system, grad.T).T


def reference_stack_directions(t, stacks, ridge):
    """Preconditioned directions of the stacked kernel with one factorization
    per mode; if any mode's fails, every system is solved alone."""
    grams = [np.matmul(f.transpose(0, 2, 1), f) for f in stacks]
    grads, all_systems = [], []
    for mode, (factor, mtt) in enumerate(zip(stacks, mttkrp_stack(t, stacks))):
        skip = np.ones_like(grams[0])
        for m, g in enumerate(grams):
            if m != mode:
                skip *= g
        grads.append(factor @ skip - mtt)
        rank = skip.shape[-1]
        if ridge is None:
            delta = AUTO_RIDGE_SCALE * np.trace(skip, axis1=-2, axis2=-1) / rank
        else:
            delta = np.full(len(skip), float(ridge))
        all_systems.append(skip + delta[:, None, None] * np.eye(rank))
    step_grads = [
        reference_solve_right(grad, systems, ridge, mode)
        for mode, (grad, systems) in enumerate(zip(grads, all_systems))
    ]
    if any(g is None for g in step_grads):
        step_grads = [
            np.stack([reference_solve_one(g, s, ridge, mode) for g, s in zip(gs, ss)])
            for mode, (gs, ss) in enumerate(zip(grads, all_systems))
        ]
    return [projected_direction(f, g) for f, g in zip(stacks, step_grads)]


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
    # small I_n with a rank above them give near-singular systems; all modes
    # share one factorization however unequal their I_n
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    stacks = [0.1 + rng.random((count, dim, rank)) for dim in shape]
    directions = projection_stack(t, stacks, True, ridge)[0]
    for got, ref in zip(directions, reference_stack_directions(t, stacks, ridge)):
        assert got.shape == ref.shape and np.array_equal(got, ref)


#: Fixed before comparing. A batched LU solve has a normwise relative
#: residual ``||X S - G|| / (||X|| ||S||)`` of a small multiple of the unit
#: roundoff. ``(G @ U) @ U.T`` with ``U = L^{-T}`` from the bordered factor
#: has that too, plus the left residual of a triangular inverse, which grows
#: with ``cond(L) = sqrt(cond(S))`` (Higham, Accuracy and Stability of
#: Numerical Algorithms, ch. 8 and 14). Its residual stays below this multiple
#: of the larger of LU's residual and ``eps * sqrt(cond(S))``.
RESIDUAL_MULTIPLE = 8.0


def relative_residual(x, system, grad):
    return np.linalg.norm(x @ system - grad) / (
        np.linalg.norm(x) * np.linalg.norm(system)
    )


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(1, 4),
    rank=st.integers(2, 8),
    dims=st.lists(st.integers(1, 7), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bordered_solve_residual_is_within_a_multiple_of_lu(count, rank, dims, seed):
    # rank above every I_n: rank-deficient Grams, lifted by the automatic
    # ridge to condition numbers up to about 1e10
    dims = [min(d, rank - 1) for d in dims]
    rng = np.random.default_rng(seed)
    t = rng.random(dims)
    stacks = [0.1 + rng.random((count, dim, rank)) for dim in dims]
    grams = [np.matmul(f.transpose(0, 2, 1), f) for f in stacks]
    skips = model_mod._gram_skips(grams)
    grads = [f @ g - m for f, g, m in zip(stacks, skips, mttkrp_stack(t, stacks))]
    systems = model_mod._ridged(np.stack(skips), None)
    solved = model_mod._solve_modes(grads, systems, None, range(3))
    eps = np.finfo(np.float64).eps
    for mode in range(3):
        for p in range(count):
            system, grad = systems[mode, p], grads[mode][p]
            lu = np.linalg.solve(system, grad.T).T
            floor = max(
                relative_residual(lu, system, grad),
                eps * np.sqrt(np.linalg.cond(system)),
            )
            got = relative_residual(solved[mode][p], system, grad)
            assert got <= RESIDUAL_MULTIPLE * floor


def test_definite_system_below_the_border_is_solved_alone_bitwise():
    # The middle system is positive definite, but its smallest eigenvalue is
    # below 1/c: the bordered factorization fails and every system of every
    # mode goes through the per-system solve.
    rng = np.random.default_rng(11)
    rank = 3
    base = rng.random((rank, rank))
    systems = np.stack([base @ base.T + np.eye(rank) for _ in range(3)])
    systems[1, -1, :] = systems[1, :, -1] = 0.0
    systems[1, -1, -1] = 1e-160
    assert 1e-160 < 1.0 / BORDER
    np.linalg.cholesky(systems[1])  # positive definite
    stacked = np.stack([systems, systems[::-1]])
    grads = [rng.normal(size=(3, 4, rank)), rng.normal(size=(3, 2, rank))]
    solved = model_mod._solve_modes(grads, stacked, 0.0, [0, 1])
    for mode, (got, gs, ss) in enumerate(zip(solved, grads, stacked)):
        for x, g, s in zip(got, gs, ss):
            assert np.array_equal(x, model_mod._solve_one(g, s, 0.0, mode))
    assert np.isfinite(solved[0][1]).all() and np.abs(solved[0][1]).max() > 1e150


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


def solve_stack_gathering_every_step(
    t, factors, scales, use_precondition, ridge, tol, max_steps
):
    """``solve_stack`` as it was before its all-active path: every step
    gathers the active trajectories and scatters the moving ones back."""
    factors = [np.array(f, dtype=np.float64) for f in factors]
    scales = np.asarray(scales, dtype=np.float64)
    active = np.ones(len(scales), dtype=bool)
    failed = np.zeros(len(scales), dtype=bool)
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        current = [f[idx] for f in factors]
        directions, broken = flow_mod._stack_directions(
            t, current, use_precondition, ridge
        )
        residual = np.max([np.abs(d).max(axis=(1, 2)) for d in directions], axis=0)
        moving = ~broken & ~(residual < tol)
        stepped = [
            f + scales[idx, n][:, None, None] * d
            for n, (f, d) in enumerate(zip(current, directions))
        ]
        finite = np.logical_and.reduce(
            [np.isfinite(f).all(axis=(1, 2)) for f in stepped]
        )
        broken |= moving & ~finite
        moving &= finite
        for f, new in zip(factors, stepped):
            f[idx[moving]] = new[moving]
        failed[idx[broken]] = True
        active[idx[~moving]] = False
    return factors, failed


@pytest.mark.parametrize("early_stop", [False, True])
@pytest.mark.parametrize("use_precondition", [True, False])
def test_solve_stack_equals_the_gathering_loop_bitwise(early_stop, use_precondition):
    # Without an early stop every step takes the all-active path; with one,
    # trajectory 0 starts at the exact factors of a noiseless tensor, stops
    # at its first residual check and the rest gather and scatter.
    rng = np.random.default_rng(5)
    truth = [0.1 + rng.random((dim, 3)) for dim in (5, 4, 6)]
    t = np.einsum("ir,jr,kr->ijk", *truth)
    stacks = [0.1 + rng.random((4, f.shape[0], 3)) for f in truth]
    if early_stop:
        for stack, f in zip(stacks, truth):
            stack[0] = f
    scales = rng.uniform(0.2, 0.5, size=(4, 3))
    args = (t, stacks, scales, use_precondition, None)
    got, got_failed = solve_stack(*args, tol=1e-8, max_steps=25)
    ref, ref_failed = solve_stack_gathering_every_step(*args, 1e-8, 25)
    assert np.array_equal(got_failed, ref_failed) and not got_failed.any()
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    moved = [any(not np.array_equal(a[p], s[p]) for a, s in zip(got, stacks))
             for p in range(4)]
    assert all(moved[1:]) and moved[0] != early_stop


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


@pytest.mark.parametrize("kind,rank", [("easy5", 3), ("caseI", 10)])
def test_one_outer_iteration_on_the_compressed_tensor_matches_the_dense_one(
    kind, rank
):
    t, _ = gen_problem(kind, 0)
    form = tucker_compress(t)
    assert form.core.shape == (rank,) * 3  # noiseless rank R: an R^3 core
    cfg = SwarmConfig(population=4, seed=9, inner_max_steps=60, inner_tol=1e-2)
    sw = init_swarm(t, rank, cfg)
    dense = swarm._solve_particles(t, sw, cfg, rank)
    compressed = swarm._solve_particles(t, sw, cfg, rank, operand=form)
    for got, ref in zip(compressed, dense):
        for a, b in zip(got.factors, ref.factors):
            assert_close(a, b)


@pytest.mark.parametrize("population,compressions", [(1, 0), (2, 1)])
def test_only_a_swarm_of_several_particles_compresses(
    monkeypatch, population, compressions
):
    calls = []

    def spy(t):
        calls.append(t)
        return tucker_compress(t)

    monkeypatch.setattr(swarm, "tucker_compress", spy)
    t, _ = gen_problem("caseI", 0)  # compressible: a 10^3 core
    cno_run(t, 10, SwarmConfig(population=population, max_outer=2, inner_max_steps=5))
    assert len(calls) == compressions


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
