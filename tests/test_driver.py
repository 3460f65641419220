import time

import numpy as np
import pytest

from neurocpd import baselines, dtpnn, flow
from neurocpd.datagen import gen_problem
from neurocpd.driver import drive
from neurocpd.model import projection_bundle
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import initial_model
from neurocpd.tensor_ops import KruskalModel


def exact_scalar():
    return np.full((1, 1, 1), 1.0), KruskalModel([[[1.0]], [[1.0]], [[1.0]]])


# the barrier flow's equilibrium is not the exact fit, and an Armijo sweep
# measures its residual while it moves
@pytest.mark.parametrize(
    "name", sorted(set(STEPPERS) - {"barrier-flow", "dtpnn-armijo"})
)
def test_start_at_exact_fit_takes_no_step(name):
    t, model = exact_scalar()
    stepper = STEPPERS[name]
    state = stepper.make_state(model, {}, 0)
    out, reason, steps = drive(t, state, stepper, tol=1e-8, budget=5)
    assert (reason, steps) == ("converged", 0)
    for a, b in zip(out.model.factors, state.model.factors):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(STEPPERS))
def test_observer_sees_every_step_and_budget_bounds_them(name):
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    seen = []
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    _, reason, steps = drive(
        t, state, stepper, budget=4, observer=lambda k, s: seen.append(k)
    )
    assert (reason, steps, seen) == ("max_steps", 4, [1, 2, 3, 4])


def test_past_deadline_takes_no_step():
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS["flow"]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    out, reason, steps = drive(
        t, state, stepper, budget=10, deadline=time.perf_counter() - 1.0
    )
    assert (reason, steps, out) == ("wall_clock", 0, state)


def test_barrier_schedule_lives_in_the_state():
    t, _ = gen_problem("easy5", 3)
    stepper = STEPPERS["barrier-flow"]
    state = stepper.make_state(
        initial_model(t.shape, 3, 3), {"gamma_decay": 0.5, "decay_every": 4}, 0
    )
    assert all(f.min() >= 1e-3 for f in state.model.factors)
    out, _, _ = drive(t, state, stepper, budget=9)
    assert out.gamma == 1e-3 * 0.5 * 0.5
    assert all(f.min() > 0.0 for f in out.model.factors)


@pytest.mark.parametrize("name", ["flow", "dtpnn-explicit", "dtpnn-semiimplicit"])
def test_measuring_the_residual_adds_no_projection_bundle(monkeypatch, name):
    calls = []

    def counted(*args):
        calls.append(1)
        return projection_bundle(*args)

    monkeypatch.setattr(flow, "projection_bundle", counted)
    monkeypatch.setattr(dtpnn, "projection_bundle", counted)
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    params = {} if name == "flow" else {"lambdas": [0.5] * 3}
    state = stepper.make_state(initial_model(t.shape, 3, 0), params, 0)
    _, reason, steps = drive(t, state, stepper, tol=1e-300, budget=7)
    assert (reason, steps, len(calls)) == ("max_steps", 7, 7)


@pytest.mark.parametrize("name", ["hals", "mur"])
def test_zero_tol_measures_no_residual(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError("residual measured at tol 0")

    monkeypatch.setattr(baselines, "kkt_residual", forbidden)
    t, _ = gen_problem("easy5", 0)
    stepper = STEPPERS[name]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    assert drive(t, state, stepper, budget=3)[1:] == ("max_steps", 3)
