import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import baselines, dtpnn, flow
from neurocpd.bench import RunConfig, run_single
from neurocpd.datagen import gen_problem
from neurocpd.driver import State, drive
from neurocpd.model import kkt_residual, projection_stack
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import SwarmConfig, SwarmRun, initial_model, outer_step
from neurocpd.tensor_ops import KruskalModel


def exact_scalar():
    return np.full((1, 1, 1), 1.0), KruskalModel([[[1.0]], [[1.0]], [[1.0]]])


# the barrier flow's equilibrium is not the exact fit
@pytest.mark.parametrize("name", sorted(set(STEPPERS) - {"barrier-flow"}))
def test_start_at_exact_fit_takes_no_step(name):
    t, model = exact_scalar()
    stepper = STEPPERS[name]
    state = stepper.make_state(model, {}, 0)
    out, reason = drive(t, state, stepper.step, tol=1e-8, budget=5)
    assert (reason, out.steps) == ("converged", 0)
    for a, b in zip(out.model.factors, state.model.factors):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(STEPPERS))
def test_observer_sees_every_step_and_budget_bounds_them(name):
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    seen = []
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    out, reason = drive(
        t, state, stepper.step, budget=4, observer=lambda s: seen.append(s.steps)
    )
    assert (reason, out.steps, seen) == ("max_steps", 4, [1, 2, 3, 4])


def _iterate(state):
    """What a step may change besides the model: its count, schedule and
    Armijo working state."""
    keys = ("gamma", "lambdas", "objective")
    return [state.steps] + [np.asarray(getattr(state, key)).tolist() for key in keys
                            if hasattr(state, key)]


@pytest.mark.parametrize("name", sorted(STEPPERS))
def test_a_step_below_tol_stays_at_the_point_it_measured(name):
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    state = stepper.step(t, stepper.step(t, state, 0.0), 0.0)  # an iterate to keep
    point = stepper.step(t, state, np.inf).residual
    stayed = stepper.step(t, state, np.nextafter(point, np.inf))
    for a, b in zip(stayed.model.factors, state.model.factors):
        assert np.array_equal(a, b)
    assert _iterate(stayed) == _iterate(state) and stayed.residual == point
    moved = stepper.step(t, state, point)  # not below tol: it moves
    assert _iterate(moved) != _iterate(state)
    assert moved.residual == point or name == "dtpnn-armijo"
    assert not all(
        np.array_equal(a, b) for a, b in zip(moved.model.factors, state.model.factors)
    )
    zero = stepper.step(t, state, 0.0)
    if name in ("hals", "mur"):  # tol 0 measures nothing
        assert zero.residual == np.inf and point == kkt_residual(t, state.model)
    elif name == "dtpnn-armijo":
        # a moving sweep measures each block after the ones before it moved
        assert point == pytest.approx(kkt_residual(t, state.model), rel=1e-9)
    else:
        assert zero.residual == point


def _start(kind, t):
    """A state and step of ``kind`` on easy5 at rank 3 and seed 1; ``cno``
    is a swarm of three flow particles, 20 inner steps each."""
    if kind == "cno":
        cfg = SwarmConfig(population=3, seed=1, inner_max_steps=20)
        return SwarmRun(t, 3, cfg), outer_step
    stepper = STEPPERS[kind]
    return stepper.make_state(initial_model(t.shape, 3, 1), {}, 1), stepper.step


def _snapshot(state):
    """Copies of what a state holds: its model's factors, its residual, its
    step count and a swarm's population arrays."""
    swarm, count = getattr(state, "swarm", None), state.steps
    arrays = [f.copy() for f in state.model.factors]
    if swarm is not None:
        arrays += [np.copy(getattr(swarm, key)) for key in (
            "positions", "velocities", "personal_bests", "personal_best_values",
            "global_best")]
        count = (count, swarm.global_best_value)
    return arrays, state.residual, count


@pytest.mark.parametrize("kind", [*sorted(STEPPERS), "cno"])
def test_a_step_never_writes_into_the_state_it_was_given(kind):
    t, _ = gen_problem("easy5", 1)
    state, step = _start(kind, t)
    iterate = step(t, step(t, state, 0.0), 0.0)
    arrays, residual, count = _snapshot(iterate)
    step(t, iterate, 0.0)
    after, after_residual, after_count = _snapshot(iterate)
    assert (after_residual, after_count) == (residual, count)
    assert all(np.array_equal(a, b) for a, b in zip(after, arrays))


@pytest.mark.parametrize("kind", [*sorted(STEPPERS), "cno"])
def test_every_state_is_a_driver_state_and_a_step_makes_a_new_one(kind):
    t, _ = gen_problem("easy5", 1)
    state, step = _start(kind, t)
    stepped = step(t, state, 0.0)
    assert isinstance(state, State) and type(stepped) is type(state)
    assert stepped is not state


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([*sorted(STEPPERS), "cno"]),
       tol=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e300]),
       budget=st.integers(1, 6))
def test_the_observer_sees_each_step_count_once_in_order(kind, tol, budget):
    # a tol of 1e300 puts every single run's start below tol: an equilibrium
    t, _ = gen_problem("easy5", 1)
    state, step = _start(kind, t)
    at_rest = step(t, state, tol).residual < tol  # the first step stays put
    seen = []
    out, reason = drive(t, state, step, tol, budget,
                        observer=lambda s: seen.append(s.steps))
    assert seen == list(range(1, out.steps + 1))
    assert (out.steps == budget) == (reason == "max_steps")
    assert (out.steps == 0) == at_rest


def test_past_deadline_takes_no_step():
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS["flow"]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    out, reason = drive(
        t, state, stepper.step, budget=10, deadline=time.perf_counter() - 1.0
    )
    assert (reason, out.steps, out) == ("wall_clock", 0, state)


def test_barrier_schedule_lives_in_the_state():
    t, _ = gen_problem("easy5", 3)
    stepper = STEPPERS["barrier-flow"]
    state = stepper.make_state(
        initial_model(t.shape, 3, 3), {"gamma_decay": 0.5, "decay_every": 4}, 0
    )
    assert all(f.min() >= 1e-3 for f in state.model.factors)
    out, _ = drive(t, state, stepper.step, budget=9)
    assert out.gamma == 1e-3 * 0.5 * 0.5
    assert all(f.min() > 0.0 for f in out.model.factors)


@pytest.mark.parametrize("name", ["flow", "dtpnn-explicit", "dtpnn-semiimplicit"])
def test_measuring_the_residual_adds_no_projection_bundle(monkeypatch, name):
    calls = []

    def counted(*args):
        calls.append(1)
        return projection_stack(*args)

    monkeypatch.setattr(flow, "projection_stack", counted)
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    params = {} if name == "flow" else {"lambdas": [0.5] * 3}
    state = stepper.make_state(initial_model(t.shape, 3, 0), params, 0)
    out, reason = drive(t, state, stepper.step, tol=1e-300, budget=7)
    assert (reason, out.steps, len(calls)) == ("max_steps", 7, 7)


@pytest.mark.parametrize("name", sorted(STEPPERS))
def test_a_tensor_of_another_shape_is_named(name):
    stepper = STEPPERS[name]
    state = stepper.make_state(KruskalModel([np.ones((3, 3))] * 3), {}, 0)
    with pytest.raises(ValueError, match=r"^tensor shape \(4, 4, 4\) != "
                                         r"model shape \(3, 3, 3\)$"):
        stepper.step(np.ones((4, 4, 4)), state, 0.0)


@pytest.mark.parametrize("name", ["hals", "mur"])
def test_zero_tol_measures_no_residual(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError("residual measured at tol 0")

    monkeypatch.setattr(baselines, "kkt_residual", forbidden)
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    out, reason = drive(t, state, stepper.step, budget=3)
    assert (reason, out.steps) == ("max_steps", 3)


# one entry per public step; a barrier schedule that moves gamma in the run
PUBLIC_STEPS = [
    ("flow", {}, flow.flow_step),
    ("barrier-flow", {"gamma_decay": 0.5, "decay_every": 7}, flow.barrier_flow_step),
    ("barrier-flow", {"integrator": "rk4", "gamma_decay": 0.5, "decay_every": 7},
     flow.barrier_flow_step),
    ("dtpnn-explicit", {"lambdas": [0.5] * 3}, flow.flow_step),
    ("dtpnn-semiimplicit", {}, flow.flow_step),
    ("dtpnn-armijo", {}, dtpnn.step_gauss_seidel_armijo),
]


@pytest.mark.parametrize("tol", [0.0, 1e-300])
@pytest.mark.parametrize(
    "name,params,step", PUBLIC_STEPS,
    ids=["flow", "barrier-euler", "barrier-rk4", "explicit", "semi", "armijo"],
)
def test_drive_equals_50_calls_of_the_public_step_bitwise(name, params, step, tol):
    # a tol above 0 reaches each step but stops none here
    t, _ = gen_problem("difficult9", 1)
    stepper = STEPPERS[name]
    start = stepper.make_state(initial_model(t.shape, 10, 1501), params, 0)
    driven, reason = drive(t, start, stepper.step, tol, 50)
    stepped = start
    for _ in range(50):
        stepped = step(t, stepped)
    assert (reason, driven.steps) == ("max_steps", 50)
    for a, b in zip(driven.model.factors, stepped.model.factors):
        assert np.array_equal(a, b)
    assert (driven.steps, driven.residual) == (stepped.steps, stepped.residual)
    assert getattr(driven, "gamma", None) == getattr(stepped, "gamma", None)
    for a, b in zip(start.model.factors, stepped.model.factors):
        assert not np.array_equal(a, b)


LIBRARY_SOLVES = {
    "flow": lambda t, m, tol, n: flow.solve_to_equilibrium(
        t, flow.FlowState(m), tol, n),
    "barrier": lambda t, m, tol, n: flow.solve_barrier(t, flow.FlowState(m), tol, n),
    "dtpnn": lambda t, m, tol, n: dtpnn.solve(t, dtpnn.DtpnnState(m), tol, n),
}


@pytest.mark.parametrize("solve", sorted(LIBRARY_SOLVES))
@pytest.mark.parametrize(
    "tol,max_steps,key",
    [(math.nan, 5, "tol"), (-1.0, 5, "tol"), (0.0, 5, "tol"), ("tight", 5, "tol"),
     (None, 5, "tol"), (1e-3, 2.5, "max_steps"), (1e-3, -3, "max_steps"),
     (1e-3, True, "max_steps"), (1e-3, "5", "max_steps")],
)
def test_library_solves_refuse_a_bad_tol_or_max_steps(solve, tol, max_steps, key):
    t, model = exact_scalar()
    with pytest.raises(ValueError, match=f"^{key} must be"):
        LIBRARY_SOLVES[solve](t, model, tol, max_steps)


# each kind's library solve and the state it starts from
AGREEING_PATHS = {
    "flow": (flow.solve_to_equilibrium, flow.FlowState),
    "barrier-flow": (flow.solve_barrier, flow.FlowState),
    "dtpnn-explicit": (flow.solve_to_equilibrium,
                       lambda m, **params: dtpnn.EXPLICIT.make_state(m, params, 0)),
    "dtpnn-semiimplicit": (flow.solve_to_equilibrium,
                           lambda m: dtpnn.SEMI_IMPLICIT.make_state(m, {}, 0)),
    "dtpnn-armijo": (dtpnn.solve, dtpnn.DtpnnState),
}


@pytest.mark.parametrize("problem,rank,tol", [("easy5", 3, 1e-4),
                                              ("difficult9", 10, 1e-3)])
@pytest.mark.parametrize("kind", sorted(AGREEING_PATHS))
def test_a_library_solve_is_the_benchmark_run_bitwise(kind, problem, rank, tol):
    solve, make_state = AGREEING_PATHS[kind]
    # the explicit step at step size 0.5, which converges where the default 1 does not
    params = {"lambdas": [0.5] * 3} if kind == "dtpnn-explicit" else {}
    cfg = RunConfig.from_dict({
        "problem": {"kind": problem, "seed": 2}, "algorithm": kind, "rank": rank,
        "params": params, "tol": tol, "budget": {"iterations": 300},
        "deterministic_timing": True,
    })
    record = run_single(cfg, 2)
    t = cfg.load_problem()
    start = initial_model(t.shape, rank, 2)
    if kind == "barrier-flow":  # the interior start of run_single
        start = KruskalModel([0.1 + 0.9 * f for f in start.factors])
    state, reason = solve(t, make_state(start, **params), tol, 300)
    assert (record.rows[-1].iteration, record.termination) == (
        state.steps, "budget" if reason == "max_steps" else reason)
    for a, b in zip(record.final_model.factors, state.model.factors):
        assert np.array_equal(a, b)


def test_steps_run_no_setting_check(monkeypatch):
    t, _ = gen_problem("difficult9", 1)
    made = {
        name: (STEPPERS[name], STEPPERS[name].make_state(
            initial_model(t.shape, 10, 1501), params, 0))
        for name, params, _ in PUBLIC_STEPS
    }

    def forbidden(*args):
        raise AssertionError("a setting was checked again")

    for module in (flow, dtpnn):
        for check in ("_positives", "_real", "_switch", "_choice", "_integer"):
            if hasattr(module, check):
                monkeypatch.setattr(module, check, forbidden)
    for stepper, state in made.values():
        for tol in (0.0, 1e-300):
            out, reason = drive(t, state, stepper.step, tol, 5)
            assert (reason, out.steps) == ("max_steps", 5)


def one_entry_model():
    return KruskalModel([[[1.0]]] * 3)


# every value a config-error test refuses, with the message the refusal names
REFUSALS = [
    (flow.FlowState, "gamma", 0, "gamma must be a number in (0, inf), got 0"),
    (flow.FlowState, "gamma_decay", 0,
     "gamma_decay must be a number in (0, inf), got 0"),
    (flow.FlowState, "decay_every", 0, "decay_every must be an integer >= 1, got 0"),
    (flow.FlowState, "gamma", math.inf, "gamma must be a number in (0, inf), got inf"),
    (flow.FlowState, "gamma", math.nan, "gamma must be a number in (0, inf), got nan"),
    (flow.FlowState, "gamma_decay", math.inf,
     "gamma_decay must be a number in (0, inf), got inf"),
    (flow.FlowState, "gamma_decay", math.nan,
     "gamma_decay must be a number in (0, inf), got nan"),
    (flow.FlowState, "decay_every", 1.5,
     "decay_every must be an integer >= 1, got 1.5"),
    (flow.FlowState, "decay_every", True,
     "decay_every must be an integer >= 1, got True"),
    (flow.FlowState, "step", math.inf, "step must be a number in (0, inf), got inf"),
    (flow.FlowState, "step", 0.0, "step must be a number in (0, inf), got 0.0"),
    (flow.FlowState, "precondition", "false",
     "precondition must be true or false, got 'false'"),
    (flow.FlowState, "ridge", -1.0, "ridge must be a number in [0, inf), got -1.0"),
    (flow.FlowState, "ridge", math.nan, "ridge must be a number in [0, inf), got nan"),
    (flow.FlowState, "ridge", math.inf, "ridge must be a number in [0, inf), got inf"),
    (flow.FlowState, "ridge", "one", "ridge must be a number in [0, inf), got 'one'"),
    (flow.FlowState, "time_constants", [1, 2],
     "time_constants must be 3 reals > 0, one per factor, got [1, 2]"),
    (flow.FlowState, "time_constants", [1.0, -1.0, 1.0],
     "time_constants must be 3 reals > 0, one per factor, got [1.0, -1.0, 1.0]"),
    (flow.FlowState, "integrator", "heun",
     "integrator must be one of ('euler', 'rk4'), got 'heun'"),
    (dtpnn.DtpnnState, "ridge", -1.0, "ridge must be a number in [0, inf), got -1.0"),
    (dtpnn.DtpnnState, "ridge", math.nan,
     "ridge must be a number in [0, inf), got nan"),
    (dtpnn.DtpnnState, "ridge", math.inf,
     "ridge must be a number in [0, inf), got inf"),
    (dtpnn.DtpnnState, "ridge", "one",
     "ridge must be a number in [0, inf), got 'one'"),
    (dtpnn.DtpnnState, "precondition", "false",
     "precondition must be true or false, got 'false'"),
    (dtpnn.DtpnnState, "armijo", {"alpha": "x"},
     "alpha must be a number in (0, 1), got 'x'"),
    (dtpnn.DtpnnState, "armijo", {"alpha": 0.1, "bogus": 1},
     "unknown armijo keys: ['bogus']"),
    (dtpnn.DtpnnState, "armijo", {"beta": 1.5},
     "beta must be a number in (0, 1), got 1.5"),
    (dtpnn.DtpnnState, "armijo", "x", "armijo must be a mapping, got 'x'"),
    (dtpnn.DtpnnState, "lambdas", [1.0],
     "lambdas must be 3 reals > 0, one per factor, got [1.0]"),
    (dtpnn.DtpnnState, "lambdas", [0.0, 1.0, 1.0],
     "lambdas must be 3 reals > 0, one per factor, got [0.0, 1.0, 1.0]"),
]


@pytest.mark.parametrize(
    "state,key,value,message", REFUSALS,
    ids=[f"{r[0].__name__}-{r[1]}-{n}" for n, r in enumerate(REFUSALS)],
)
def test_direct_state_construction_refuses_with_the_same_message(
    state, key, value, message
):
    with pytest.raises(ValueError) as refused:
        state(one_entry_model(), **{key: value})
    assert str(refused.value) == message
