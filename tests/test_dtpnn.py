from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import dtpnn
from neurocpd.bench import RunConfig, run_single
from neurocpd.datagen import gen_problem
from neurocpd.dtpnn import (
    DtpnnState,
    effective_step_map,
    interval_from_c,
    lyapunov_trace,
    solve,
    step_gauss_seidel_armijo,
    step_size_bound,
)
from neurocpd.errors import (
    SOLVER_FAILURES,
    DivergenceError,
    StepMapInconsistencyError,
)
from neurocpd.flow import FlowState, flow_step
from neurocpd.model import gradients, precondition, projection_bundle
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import initial_model
from neurocpd.tensor_ops import KruskalModel, hadamard_gram, mttkrp, relative_error


def random_instance(seed, shape=(4, 4, 4), rank=3):
    rng = np.random.default_rng(seed)
    return rng.random(shape), KruskalModel([rng.random((d, rank)) for d in shape])


def exact_scalar():
    t = np.full((1, 1, 1), 1.0)
    return t, KruskalModel([[[1.0]], [[1.0]], [[1.0]]])


def explicit(model, **params):
    """A ``dtpnn-explicit`` state; :func:`flow_step` steps it."""
    return STEPPERS["dtpnn-explicit"].make_state(model, params, 0)


def semi_implicit(model, **params):
    """A ``dtpnn-semiimplicit`` state; :func:`flow_step` steps it."""
    return STEPPERS["dtpnn-semiimplicit"].make_state(model, params, 0)


def test_explicit_fixed_point_at_equilibrium():
    t, model = exact_scalar()
    s = explicit(model)
    stepped = flow_step(t, s)
    for a, b in zip(stepped.model.factors, model.factors):
        assert np.array_equal(a, b)


def test_explicit_lambda_one_is_projected_gradient():
    t, model = random_instance(0)
    s = explicit(model, lambdas=[1.0, 1.0, 1.0], precondition=False)
    stepped = flow_step(t, s)
    for f, g, new in zip(model.factors, gradients(t, model), stepped.model.factors):
        assert np.allclose(new, np.maximum(f - g, 0.0), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.7])
def test_explicit_matches_flow_step_bitwise(lam):
    t, model = random_instance(1)
    fs = FlowState(model.copy(), step=lam, time_constants=np.ones(3),
                   precondition=False)
    ds = explicit(model.copy(), lambdas=[lam] * 3, precondition=False)
    f1, d1 = flow_step(t, fs), flow_step(t, ds)
    for a, b in zip(f1.model.factors, d1.model.factors):
        assert np.array_equal(a, b)


#: one semi-implicit step against the added-implicitness formula, per entry,
#: in units of ``eps * (|Z| + |d|)``: the two round ``Z + lam/(1+lam) * d``
#: and ``(Z + lam*(Z + d))/(1 + lam)`` in a few operations each
SEMI_IMPLICIT_ULPS = 16.0


@settings(max_examples=80, deadline=None)
@given(
    shape=st.lists(st.integers(1, 7), min_size=3, max_size=3, unique=True),
    rank=st.integers(1, 5),
    lambdas=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
    precondition=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_euler_kinds_step_as_their_formulas(shape, rank, lambdas, precondition, seed):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    model = KruskalModel.random(shape, rank, rng)
    directions = projection_bundle(t, model, precondition, None)[0]
    expl = flow_step(t, explicit(model, lambdas=lambdas, precondition=precondition))
    semi = flow_step(t, semi_implicit(model, lambdas=lambdas,
                                      precondition=precondition))
    eps = np.finfo(float).eps
    for f, d, lam, a, b in zip(model.factors, directions, lambdas,
                               expl.model.factors, semi.model.factors):
        assert np.array_equal(a, f + lam * d)
        paper = (f + lam * (f + d)) / (1.0 + lam)  # f + d = [Z - G]_+
        bound = SEMI_IMPLICIT_ULPS * eps * (np.abs(f) + np.abs(d))
        assert (np.abs(b - paper) <= bound).all()


def test_euler_kinds_stop_on_the_kkt_residual():
    # Small factors make the Gram-skips small, so the preconditioned rhs is
    # far above the KKT residual of the plain gradients; tol lies between.
    rng = np.random.default_rng(11)
    t = rng.random((4, 5, 3))
    model = KruskalModel([0.01 * rng.random((d, 2)) for d in t.shape])
    rhs = max(float(np.abs(d).max())
              for d in projection_bundle(t, model, True, None)[0])
    kkt = max(float(np.abs(d).max())
              for d in projection_bundle(t, model, False, None)[0])
    tol = 0.5 * (rhs + kkt)
    assert kkt < tol <= rhs
    states = {"flow": FlowState(model), "dtpnn-explicit": explicit(model),
              "dtpnn-semiimplicit": semi_implicit(model)}
    for kind, state in states.items():
        stepped = flow_step(t, state, tol)
        stopped = kind != "flow"
        assert stepped.residual == (kkt if stopped else rhs)
        assert (stepped.steps == 0) == stopped
        stack = flow_step(t, FlowState.stack([state, state]), tol)
        assert stack.active.tolist() == [not stopped] * 2
        for a, b in zip(stack.factors, model.factors):
            assert np.array_equal(a[0], b) == np.array_equal(a[1], b) == stopped


@pytest.mark.parametrize("make,weight", [
    (explicit, lambda lam: lam), (semi_implicit, lambda lam: lam / (1.0 + lam)),
])
def test_euler_kinds_weigh_every_row_by_their_step_size(make, weight):
    _, model = random_instance(3, shape=(4, 5, 6))
    lambdas = [0.3, 1.0, 2.5]
    settings = make(model, lambdas=lambdas).settings
    assert settings.row_weights.shape == (1, 15, 1)
    want = np.concatenate([np.full(dim, weight(lam))
                           for dim, lam in zip(model.shape, lambdas)])
    assert np.array_equal(settings.row_weights[0, :, 0], want)
    assert settings.kkt


def test_state_validation():
    _, model = random_instance(2)
    with pytest.raises(ValueError):
        DtpnnState(model, lambdas=[1.0])
    with pytest.raises(ValueError):
        DtpnnState(model, lambdas=[0.0, 1.0, 1.0])
    for make in (explicit, semi_implicit):
        with pytest.raises(ValueError, match="^lambdas must be 3 reals > 0"):
            make(model, lambdas=[0.0, 1.0, 1.0])


def test_armijo_fixed_point_without_shrinkage():
    t, model = exact_scalar()
    s = DtpnnState(model)
    stepped = step_gauss_seidel_armijo(t, s)
    for a, b in zip(stepped.model.factors, model.factors):
        assert np.array_equal(a, b)
    assert np.array_equal(stepped.lambdas, s.settings.initial_lambdas)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("precondition", [True, False])
def test_armijo_objective_monotone_per_block(seed, precondition):
    t, model = random_instance(seed)
    s = DtpnnState(model, precondition=precondition)
    history = []
    for _ in range(300):
        s = step_gauss_seidel_armijo(t, s)
        assert all(f.min() >= 0.0 for f in s.model.factors)
        history.append(s.objective)
    hist = np.array(history)
    assert ((hist[1:] - hist[:-1]) <= 1e-12).all()


def per_block_products(t, model):
    """A fresh Gram, Gram skip and full MTTKRP per block, at the factors as
    they stand."""
    for mode, f in enumerate(model.factors):
        yield f.T @ f, hadamard_gram(model, mode), mttkrp(t, model, mode)


def armijo_reference(t, s):
    """The Armijo sweep with its own MTTKRP and Gram products per block."""
    with mock.patch.object(dtpnn, "sweep_mttkrps", per_block_products):
        return step_gauss_seidel_armijo(t, s)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 7)] * 3),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    precondition=st.booleans(),
)
def test_armijo_sweep_equals_per_block_reference_bitwise(
    shape, rank, seed, precondition
):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    model = KruskalModel.random(shape, rank, rng)
    s = expected = DtpnnState(model, precondition=precondition)
    for _ in range(3):
        try:
            expected = armijo_reference(t, expected)
        except SOLVER_FAILURES as exc:
            with pytest.raises(type(exc)):
                step_gauss_seidel_armijo(t, s)
            return
        s = step_gauss_seidel_armijo(t, s)
        for a, b in zip(s.model.factors, expected.model.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(s.lambdas, expected.lambdas)
        assert s.residual == expected.residual
        assert s.objective == expected.objective


def test_armijo_difficult9_error_drops_tenfold():
    t, _ = gen_problem("difficult9", 0)
    init = KruskalModel.random(t.shape, 10, np.random.default_rng(0))
    start = relative_error(t, init)
    s, _ = solve(t, DtpnnState(init), tol=1e-9, max_steps=2000)
    assert relative_error(t, s.model) <= start / 10.0


def test_armijo_moves_a_block_only_downhill(monkeypatch):
    # On difficult9 problem 1008 from init 1508 the preconditioned direction
    # of block 1 ascends in sweep 50; backtracking along it accepted a null
    # move once rounding hid the increase (1000 sweeps ended at 1.3e-2).
    t, _ = gen_problem("difficult9", 1008)
    blocks = []

    def recorded(grad, gram, ridge=None, mode=0):
        blocks.append((mode, grad))
        return precondition(grad, gram, ridge, mode)

    monkeypatch.setattr(dtpnn, "precondition", recorded)
    s = DtpnnState(initial_model(t.shape, 10, 1508))
    for sweep in range(1000):
        blocks.clear()
        before = s.model.factors
        s = step_gauss_seidel_armijo(t, s)
        for mode, grad in blocks:
            moved = s.model.factors[mode] - before[mode]
            assert float((grad * moved).sum()) <= 0.0, (sweep, mode)
    assert relative_error(t, s.model) < 1e-3


def test_semi_implicit_zero_gradient_lambda_one_unchanged():
    t, model = exact_scalar()
    stepped = flow_step(t, semi_implicit(model, lambdas=[1.0] * 3))
    for a, b in zip(stepped.model.factors, model.factors):
        assert np.array_equal(a, b)


def test_semi_implicit_residual_decays_along_run():
    t, _ = gen_problem("easy5", 4)
    init = KruskalModel.random(t.shape, 3, np.random.default_rng(4))
    s = semi_implicit(init, lambdas=[0.8] * 3)
    residuals = []
    for _ in range(400):
        s = flow_step(t, s)
        residuals.append(s.residual)
        assert all(f.min() >= 0.0 for f in s.model.factors)
    assert residuals[-1] < 1e-3 * residuals[0]


def test_explicit_default_step_size_converges_on_easy5():
    # at the former default lam = 1 this run swung between rel_error 1 and
    # 1e23 and ended its budget at 1.3e23
    raw = {"problem": {"kind": "easy5", "seed": 0}, "algorithm": "dtpnn-explicit",
           "rank": 3, "budget": {"iterations": 3000}, "record_every": 3000}
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == "budget" and record.final_rel_error < 1e-3


def test_semi_implicit_beats_explicit_at_unit_step():
    wins = 0
    for seed in range(10):
        t, _ = gen_problem("difficult9", seed)
        init = KruskalModel.random(t.shape, 10, np.random.default_rng(seed + 77))
        semi = semi_implicit(init.copy(), lambdas=[1.0] * 3)
        expl = explicit(init.copy(), lambdas=[1.0] * 3)
        try:
            for _ in range(800):
                semi = flow_step(t, semi)
            r_semi = relative_error(t, semi.model)
        except DivergenceError:
            r_semi = np.inf
        try:
            for _ in range(800):
                expl = flow_step(t, expl)
            r_expl = relative_error(t, expl.model)
        except DivergenceError:
            r_expl = np.inf
        wins += r_semi <= r_expl
    assert wins >= 6


def test_effective_step_map_interior_constant():
    _, model = random_instance(6)
    grads = [np.zeros_like(f) for f in model.factors]
    after = KruskalModel([f.copy() for f in model.factors])
    gammas = effective_step_map(model, after, grads, [0.3, 0.3, 0.3])
    for g in gammas:
        assert np.array_equal(g, np.full_like(g, 0.3))


@pytest.mark.parametrize("seed", range(5))
def test_effective_step_map_reconstructs_clamped_steps(seed):
    rng = np.random.default_rng(seed)
    # overfitted point: near-zero tensor with order-one factors makes the
    # gradients positive and forces lower clamps
    t = 0.01 * rng.random((4, 4, 4))
    model = KruskalModel([0.5 + rng.random((4, 3)) for _ in range(3)])
    lam = 0.6
    grads = gradients(t, model)
    assert any(((f - g) < 0).any() for f, g in zip(model.factors, grads))
    after = KruskalModel(
        [f + lam * (np.maximum(f - g, 0.0) - f) for f, g in zip(model.factors, grads)]
    )
    gammas = effective_step_map(model, after, grads, [lam] * 3)
    for f, g, gamma, new in zip(model.factors, grads, gammas, after.factors):
        assert np.abs((f - gamma * g) - new).max() <= 1e-12 * max(1.0, np.abs(f).max())


def test_effective_step_map_zero_gradient_clamp_is_inconsistent():
    model = KruskalModel([np.full((1, 1), -2.0)] + [np.full((1, 1), 2.0)] * 2)
    after = model.copy()
    grads = [np.zeros((1, 1))] * 3
    with pytest.raises(StepMapInconsistencyError, match="^factor 0: clamped"):
        # the negative entry puts q = -2.0 below the orthant with zero gradient
        effective_step_map(model, after, grads, [1.0] * 3)


def test_interval_from_c_hand_values():
    assert interval_from_c(1.0) == (0.0, 2.0)
    assert interval_from_c(0.0) == (1.0, 1.0)
    lo, hi = interval_from_c(-0.5)
    assert np.isnan(lo) and np.isnan(hi)


def test_step_size_bound_at_equilibrium():
    t, model = exact_scalar()
    bound = step_size_bound(t, DtpnnState(model))
    assert bound.at_equilibrium


def stacked_c_oracle(t, s):
    """Independent re-assembly of the stability constant."""
    grads = gradients(t, s.model)
    residual_sq = 0.0
    dots = []
    for factor, grad, lam in zip(s.model.factors, grads, s.lambdas):
        proj = np.maximum(factor - grad, 0.0)
        residual_sq += float(np.sum((factor - proj) ** 2))
        interior = (factor - grad) >= 0.0
        gamma = np.where(interior, lam, np.where(grad != 0.0, lam * factor /
                                                 np.where(grad == 0, 1, grad), lam))
        dots.append(float(np.sum(gamma * grad)))
    return (1.0 - 2.0 * sum(d * d for d in dots)) / residual_sq


@pytest.mark.parametrize("seed", range(5))
def test_step_size_bound_matches_independent_assembly(seed):
    t, model = random_instance(seed)
    s = DtpnnState(model, lambdas=[0.4, 0.6, 0.8], precondition=False)
    bound = step_size_bound(t, s)
    oracle = stacked_c_oracle(t, s)
    assert abs(bound.c - oracle) <= 1e-12 * max(1.0, abs(oracle))
    if bound.c >= 0:
        assert bound.lower == max(0.0, 1.0 - np.sqrt(bound.c))
        assert bound.upper == 1.0 + np.sqrt(bound.c)


def test_lyapunov_trace_basics():
    _, model = random_instance(7)
    trajectory = [model.copy() for _ in range(4)]
    trace = lyapunov_trace(trajectory, model)
    assert np.array_equal(trace, np.zeros(4))


def test_lyapunov_trace_of_converged_armijo_run():
    t, _ = gen_problem("easy5", 8)
    init = KruskalModel.random(t.shape, 3, np.random.default_rng(8))
    s = DtpnnState(init, precondition=False)
    trajectory = [s.model]
    for _ in range(400):
        s = step_gauss_seidel_armijo(t, s)
        trajectory.append(s.model)
    trace = lyapunov_trace(trajectory, s.model)
    assert trace[-1] < 1e-8
    drops = (np.diff(trace) <= 1e-12).mean()
    assert drops >= 0.95


def test_solve_variants_and_divergence():
    t, model = random_instance(9)
    s, reason = solve(t, DtpnnState(model.copy()), tol=1e-3, max_steps=500)
    assert reason in ("converged", "max_steps")
    bad = KruskalModel([np.full((2, 2), np.inf)] * 3)
    for make in (explicit, semi_implicit):
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            flow_step(np.ones((2, 2, 2)), make(bad, precondition=False))
