"""The stacked projection kernel and flow states of several trajectories
under the driver.

The kernel advances P models at once; its reference is the per-factor loop
that computed one model's directions before the kernel existed. The loop
kept here calls an independent Khatri-Rao MTTKRP and also reports the
condition number of each preconditioner system.
"""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import model as model_mod
from neurocpd import swarm
from neurocpd.datagen import gen_problem
from neurocpd.driver import drive
from neurocpd.errors import (
    BoundaryStallError,
    DivergenceError,
    SingularPreconditionerError,
)
from neurocpd.flow import FlowState, flow_step, solve_to_equilibrium
from neurocpd.model import (
    AUTO_RIDGE_SCALE,
    BORDER,
    precondition,
    projected_direction,
    projection_bundle,
    projection_stack,
)
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import SwarmConfig, cno_run, init_swarm, initial_model
from neurocpd.tensor_ops import (
    KruskalModel,
    khatri_rao_list,
    kruskal_full,
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


def reference_stack(t, stacks, ridge, use_precondition=True):
    """Directions and gradients of the stacked kernel with one factorization
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
    if not use_precondition:
        return [projected_direction(f, g) for f, g in zip(stacks, grads)], grads
    step_grads = [
        reference_solve_right(grad, systems, ridge, mode)
        for mode, (grad, systems) in enumerate(zip(grads, all_systems))
    ]
    if any(g is None for g in step_grads):
        step_grads = [
            np.stack([reference_solve_one(g, s, ridge, mode) for g, s in zip(gs, ss)])
            for mode, (gs, ss) in enumerate(zip(grads, all_systems))
        ]
    return [projected_direction(f, g) for f, g in zip(stacks, step_grads)], grads


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
    for got, ref in zip(directions, reference_stack(t, stacks, ridge)[0]):
        assert got.shape == ref.shape and np.array_equal(got, ref)


@settings(max_examples=150, deadline=None)
@given(
    count=st.sampled_from([1, 2, 5]),
    shape=st.tuples(*[st.integers(3, 7)] * 3),
    rank=st.integers(1, 6),
    ridge=st.sampled_from([None, 1e-8]),
    use_precondition=st.booleans(),
    compressed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_stack_equals_the_reference_bitwise_on_dense_and_tucker_operands(
    count, shape, rank, ridge, use_precondition, compressed, seed
):
    # unequal I_n; the Tucker form is that of a tensor of CP rank 2, whose
    # unfoldings have rank 2 < I_n
    rng = np.random.default_rng(seed)
    if compressed:
        truth = KruskalModel([rng.random((dim, 2)) for dim in shape])
        t = tucker_compress(kruskal_full(truth))
        assert t is not None
    else:
        t = rng.random(shape)
    stacks = [0.1 + rng.random((count, dim, rank)) for dim in shape]
    got = projection_stack(t, stacks, use_precondition, ridge)
    want = reference_stack(t, stacks, ridge, use_precondition)
    for got_blocks, want_blocks in zip(got, want):
        for a, b in zip(got_blocks, want_blocks):
            assert a.shape == b.shape and np.array_equal(a, b)


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
    grads, skips = model_mod._gradient_stack(t, stacks)
    systems = model_mod._ridged(skips, None)
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


def flow_stack(factors, scales, use_precondition=True, ridge=None):
    """A :class:`FlowState` of the P trajectories of the ``(P, I_n, R)``
    stacks ``factors``, trajectory ``p`` stepping factor ``n`` with Euler
    weight ``scales[p, n]``."""
    states = [FlowState(KruskalModel(list(fs)), precondition=use_precondition,
                        ridge=ridge) for fs in zip(*factors)]
    stack = FlowState.stack(states)
    weights = np.repeat(np.asarray(scales, dtype=np.float64),
                        [f.shape[1] for f in factors], axis=1)[:, :, None]
    return stack.moved(settings=stack.settings._replace(row_weights=weights))


def drive_stack(t, factors, scales, use_precondition, ridge, tol, max_steps):
    """The final state of :func:`drive` on a :func:`flow_stack`."""
    start = flow_stack(factors, scales, use_precondition, ridge)
    return drive(t, start, flow_step, tol, max_steps)[0]


def solve_stack_gathering_every_step(
    t, factors, scales, use_precondition, ridge, tol, max_steps
):
    """The stack solve as it was before its all-active path: every step
    gathers the active trajectories and scatters the moving ones back."""
    factors = [np.array(f, dtype=np.float64) for f in factors]
    scales = np.asarray(scales, dtype=np.float64)
    active = np.ones(len(scales), dtype=bool)
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        current = [f[idx] for f in factors]
        directions = projection_stack(t, current, use_precondition, ridge)[0]
        residual = np.max([np.abs(d).max(axis=(1, 2)) for d in directions], axis=0)
        moving = ~(residual < tol)
        stepped = [
            f + scales[idx, n][:, None, None] * d
            for n, (f, d) in enumerate(zip(current, directions))
        ]
        for f, new in zip(factors, stepped):
            f[idx[moving]] = new[moving]
        active[idx[~moving]] = False
    return factors


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
    got = drive_stack(*args, 1e-8, 25).factors
    ref = solve_stack_gathering_every_step(*args, 1e-8, 25)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    moved = [any(not np.array_equal(a[p], s[p]) for a, s in zip(got, stacks))
             for p in range(4)]
    assert all(moved[1:]) and moved[0] != early_stop


def _flow_particles(t, cfg, rank):
    sw = init_swarm(t, rank, cfg)
    out = []
    for n, position in enumerate(sw.positions):
        model = KruskalModel.unflatten(position, t.shape, rank)
        eps = None if sw.time_constants is None else sw.time_constants[n]
        out.append(FlowState(model, time_constants=eps, **cfg.inner_params))
    return sw, out


def test_one_outer_iteration_matches_particles_one_by_one():
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(population=4, seed=9, inner_max_steps=60, inner_tol=1e-2)
    sw, states = _flow_particles(t, cfg, 3)
    rows, failed = swarm._solve_particles(t, sw, cfg, 3)
    assert not failed.any()
    reasons = set()
    for state, row in zip(states, rows):
        alone, reason = solve_to_equilibrium(
            t, state, tol=cfg.inner_tol, max_steps=cfg.inner_max_steps
        )
        reasons.add(reason)
        for a, b in zip(KruskalModel.unflatten(row, t.shape, 3).factors,
                        alone.model.factors):
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
    dense, _ = swarm._solve_particles(t, sw, cfg, rank)
    compressed, _ = swarm._solve_particles(t, sw, cfg, rank, operand=form)
    for got, ref in zip(compressed, dense):
        for a, b in zip(KruskalModel.unflatten(got, t.shape, rank).factors,
                        KruskalModel.unflatten(ref, t.shape, rank).factors):
            assert_close(a, b)


#: a stack of Euler DTPNN particles against their solves one by one, after
#: up to 300 steps: each step agrees to TOL, and the steps that follow may
#: grow the difference by up to this factor
EULER_STACK_GROWTH = 1e3


@pytest.mark.parametrize("kind,params", [
    ("dtpnn-explicit", {"lambdas": [0.5] * 3}), ("dtpnn-semiimplicit", {}),
])
@pytest.mark.parametrize("problem,rank,compress", [
    ("difficult9", 10, False), ("caseI", 10, True),
])
def test_a_stack_of_euler_dtpnn_particles_matches_their_solves_one_by_one(
    kind, params, problem, rank, compress
):
    t, _ = gen_problem(problem, 0)
    # on caseI three particles converge and one runs out of steps
    cfg = SwarmConfig(population=4, seed=9, inner_max_steps=300, inner_tol=1e-3,
                      inner_solver=kind, inner_params=params)
    sw = init_swarm(t, rank, cfg)
    assert sw.time_constants is None  # no flow time constants to jitter
    operand = tucker_compress(t) if compress else None
    assert (operand is not None) == compress
    rows, failed = swarm._solve_particles(t, sw, cfg, rank, operand=operand)
    assert not failed.any()
    stepper = STEPPERS[kind]
    for position, row in zip(sw.positions, rows):
        start = stepper.make_state(KruskalModel.unflatten(position, t.shape, rank),
                                   params, cfg.seed)
        alone = drive(t, start, stepper.step, cfg.inner_tol, cfg.inner_max_steps)[0]
        for a, b in zip(KruskalModel.unflatten(row, t.shape, rank).factors,
                        alone.model.factors):
            assert_close(a, b, EULER_STACK_GROWTH)


@pytest.mark.parametrize("inner", ["flow", "dtpnn-explicit"])
def test_solved_rows_are_the_flatten_of_the_solved_models(monkeypatch, inner):
    solved = []

    def drive_spy(*args):
        state, reason = drive(*args)
        solved.extend(KruskalModel([f[p] for f in state.factors])
                      for p in range(len(state.active)))
        return state, reason

    monkeypatch.setattr(swarm, "drive", drive_spy)
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(population=3, seed=2, inner_max_steps=20, inner_solver=inner)
    rows, failed = swarm._solve_particles(t, init_swarm(t, 3, cfg), cfg, 3)
    assert not failed.any()
    assert np.array_equal(rows, np.stack([m.flatten() for m in solved]))


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
    "bad", [{"step": 0.5, "precondition": False}, {"step": 0.5}]
)
def test_diverging_flow_particle_is_reseeded_alone(monkeypatch, bad):
    # The shared step is stable for particle 0 (eps = 1); particle 1's time
    # constants of 1e-6 raise its Euler weight step / eps to 5e5.
    def stiff(*args):
        sw = init_swarm(*args)
        sw.time_constants = np.array([[1.0] * 3, [1e-6] * 3])
        swarms.append(sw)
        return sw

    swarms = []
    monkeypatch.setattr(swarm, "init_swarm", stiff)
    t, _ = gen_problem("easy5", 0)
    cfg = SwarmConfig(
        population=2, seed=3, max_outer=2, inner_max_steps=40,
        inner_params=bad,
    )
    sw = stiff(t, 3, cfg)
    start = FlowState(KruskalModel.unflatten(sw.positions[0], t.shape, 3),
                      time_constants=sw.time_constants[0], **bad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows, failed = swarm._solve_particles(t, sw, cfg, 3)
        model, trace = cno_run(t, 3, cfg)
    assert failed.tolist() == [False, True]
    alone, _ = solve_to_equilibrium(t, start, tol=cfg.inner_tol,
                                    max_steps=cfg.inner_max_steps)
    for a, b in zip(KruskalModel.unflatten(rows[0], t.shape, 3).factors,
                    alone.model.factors):
        assert_close(a, b)
    assert len(trace) == cfg.max_outer
    assert np.isfinite(swarms[-1].positions).all()
    assert all(np.isfinite(f).all() for f in model.factors)


def test_singular_slice_fails_alone_in_the_swarm():
    # the stack raises for its singular slice; the swarm re-solves the
    # particles one at a time and fails that one only
    rng = np.random.default_rng(2)
    t = rng.random((4, 4, 4))
    stacks = [rng.random((2, 4, 3)) for _ in range(3)]
    stacks[0][1, :, 0] = 0.0  # zero column: singular Gram-skip for modes 1, 2
    with pytest.raises(SingularPreconditionerError):
        drive_stack(t, stacks, np.full((2, 3), 0.5), True, 0.0, 1e-12, 5)
    cfg = SwarmConfig(population=2, inner_tol=1e-12, inner_max_steps=5,
                      inner_params={"ridge": 0.0})
    positions = np.stack([KruskalModel([f[p] for f in stacks]).flatten()
                          for p in range(2)])
    sw = swarm.SwarmState(positions, np.zeros_like(positions), positions.copy(),
                          np.full(2, np.inf), None, np.inf)
    rows, failed = swarm._solve_particles(t, sw, cfg, 3)
    assert failed.tolist() == [False, True]
    state = FlowState(KruskalModel([f[0] for f in stacks]), ridge=0.0)
    state, _ = solve_to_equilibrium(t, state, tol=1e-12, max_steps=5)
    assert np.array_equal(rows[0], state.model.flatten())
    assert np.array_equal(rows[1], sw.positions[1])  # not a solved point


def test_a_non_finite_step_raises_and_leaves_the_stack_unchanged():
    rng = np.random.default_rng(6)
    t = rng.random((4, 5, 3))
    stacks = [rng.random((3, dim, 2)) for dim in t.shape]
    weights = np.full((3, 3), 0.5)
    weights[1] = np.inf  # trajectory 1's step is not finite
    start = flow_stack([f.copy() for f in stacks], weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError):
            flow_step(t, start, 1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(start.factors, stacks))
    assert start.active.all() and start.residual == np.inf


def test_healthy_rows_of_a_failed_compressed_stack_are_their_dense_solves():
    # particle 1's time constants of 1e-6 give it an Euler weight of 5e5, so
    # the stack on the core raises; every particle is then solved alone on t
    t, _ = gen_problem("easy5", 0)
    form = tucker_compress(t)
    assert form is not None
    cfg = SwarmConfig(population=3, seed=4, inner_max_steps=40,
                      inner_params={"step": 0.5})
    sw = init_swarm(t, 3, cfg)
    sw.time_constants = np.array([[1.0] * 3, [1e-6] * 3, [0.7, 1.3, 1.1]])
    states = [FlowState(KruskalModel.unflatten(row, t.shape, 3), eps, step=0.5)
              for row, eps in zip(sw.positions, sw.time_constants)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError):
            drive(form, FlowState.stack(states), flow_step, cfg.inner_tol,
                  cfg.inner_max_steps)
        rows, failed = swarm._solve_particles(t, sw, cfg, 3, operand=form)
    assert failed.tolist() == [False, True, False]
    for p in (0, 2):
        alone, _ = solve_to_equilibrium(t, states[p], tol=cfg.inner_tol,
                                        max_steps=cfg.inner_max_steps)
        assert np.array_equal(rows[p], alone.model.flatten())


def test_a_barrier_particle_that_stalls_fails_alone_in_the_swarm():
    # particle 1's time constants of 1e-12 give it an Euler weight of 5e11,
    # which 30 halvings do not bring inside: the stack raises, and the swarm
    # re-solves each particle alone on t and marks that one only
    t, _ = gen_problem("easy5", 0)
    params = {"step": 0.5}
    cfg = SwarmConfig(population=3, seed=4, inner_max_steps=40,
                      inner_solver="barrier-flow", inner_params=params)
    sw = init_swarm(t, 3, cfg)
    sw.time_constants = np.array([[1.0] * 3, [1e-12] * 3, [0.7, 1.3, 1.1]])
    stepper = STEPPERS["barrier-flow"]
    states = [stepper.make_state(KruskalModel.unflatten(row, t.shape, 3),
                                 {**params, "time_constants": eps}, cfg.seed)
              for row, eps in zip(sw.positions, sw.time_constants)]
    with pytest.raises(BoundaryStallError):
        drive(t, FlowState.stack(states), stepper.step, cfg.inner_tol,
              cfg.inner_max_steps)
    rows, failed = swarm._solve_particles(t, sw, cfg, 3)
    assert failed.tolist() == [False, True, False]
    for p in (0, 2):
        alone = drive(t, states[p], stepper.step, cfg.inner_tol, cfg.inner_max_steps)[0]
        assert np.array_equal(rows[p], alone.model.flatten())
    assert np.array_equal(rows[1], sw.positions[1])  # not a solved point


def test_a_stack_past_its_deadline_takes_no_step():
    rng = np.random.default_rng(3)
    t = rng.random((4, 5, 3))
    stacks = [rng.random((3, dim, 2)) for dim in t.shape]
    start = flow_stack(stacks, np.full((3, 3), 0.5))
    out, reason = drive(t, start, flow_step, 0.0, 10, time.perf_counter() - 1.0)
    assert (reason, out.steps) == ("wall_clock", 0)
    assert all(np.array_equal(a, b) for a, b in zip(out.factors, stacks))
    assert out.active.all()


@pytest.mark.parametrize("spare", [1, 0, 5])
def test_the_stack_converges_once_every_trajectory_has_stopped(spare):
    # trajectory 0 starts at an exact fit and stops at its first check;
    # trajectory 1 starts near the fit and converges later
    rng = np.random.default_rng(5)
    truth = [0.1 + rng.random((dim, 3)) for dim in (5, 4, 6)]
    t = np.einsum("ir,jr,kr->ijk", *truth)
    stacks = [np.stack([f, f * (1 + 0.05 * rng.random(f.shape))]) for f in truth]
    near = FlowState(KruskalModel([f[1] for f in stacks]),
                     time_constants=[1.0] * 3, step=0.5, ridge=0.0)
    alone, reason = solve_to_equilibrium(t, near, tol=1e-3, max_steps=1000)
    longest = alone.steps
    assert reason == "converged" and longest > 0
    # ``spare`` 0: the budget ends before trajectory 2's last check
    budget = longest + spare

    def step_measuring_each_alone(t, state, tol):
        # the stack's residual is the largest of its active trajectories'
        solos = [flow_step(t, near.moved(rows=state.rows[p][None]), tol).residual
                 for p in np.flatnonzero(state.active)]
        state = flow_step(t, state, tol)
        assert state.residual == max(solos)
        return state

    out, reason = drive(t, flow_stack(stacks, np.full((2, 3), 0.5), True, 0.0),
                        step_measuring_each_alone, 1e-3, budget)
    assert (reason, out.steps) == (
        ("converged", longest) if spare else ("max_steps", budget))
    assert out.active.tolist() == [False, not spare]
    for got, start, ref in zip(out.factors, stacks, alone.model.factors):
        assert np.array_equal(got[0], start[0]) and np.array_equal(got[1], ref)


#: a stack of flows against the solo drive of each, after up to 200 steps:
#: each step agrees to TOL, and the steps that follow may grow the difference
#: by up to this factor
SOLO_GROWTH = 1e3


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_a_stack_of_states_matches_the_solo_drive_of_each(count):
    # time constants drawn per trajectory; on difficult9 at tol 1e-2 some
    # trajectories converge and the others run out of steps
    t, _ = gen_problem("difficult9", 1)
    rng = np.random.default_rng(count)
    states = [FlowState(initial_model(t.shape, 10, 7, p),
                        time_constants=rng.uniform(0.5, 2.0, 3))
              for p in range(count)]
    stack, _ = drive(t, FlowState.stack(states), flow_step, 1e-2, 200)
    assert stack.factors[0].shape == (count, 9, 10)
    reasons = set()
    for p, state in enumerate(states):
        alone, reason = drive(t, state, flow_step, 1e-2, 200)
        reasons.add(reason)
        assert stack.active[p] == (reason == "max_steps")
        for a, b in zip(stack.factors, alone.model.factors):
            assert_close(a[p], b, SOLO_GROWTH)
    if count == 4:
        assert reasons == {"converged", "max_steps"}


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
