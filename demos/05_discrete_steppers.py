"""Discrete-time steppers side by side: fully explicit, semi-implicit, and
Gauss-Seidel with Armijo backtracking, plus the stability step-size interval.

The explicit and semi-implicit kinds are the flow's Euler step with weights
``lambda`` and ``lambda / (1 + lambda)``; every kind is a stepper of the one
driver loop.
"""

import numpy as np

from neurocpd import DtpnnState, relative_error, step_size_bound
from neurocpd.datagen import gen_problem
from neurocpd.driver import drive
from neurocpd.errors import DivergenceError
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import initial_model

x, _ = gen_problem("difficult9", 0)
init = initial_model(x.shape, 10, 0)

print("At the unit step size the explicit update is a projected ALS step and "
      "can overshoot;\nthe semi-implicit form stays stable and the Armijo "
      "stepper adapts its step:\n")
runs = {
    "explicit": ("dtpnn-explicit", {"lambdas": [1.0] * 3}),
    "semi-implicit": ("dtpnn-semiimplicit", {"lambdas": [1.0] * 3}),
    "armijo": ("dtpnn-armijo", {}),
}
for name, (kind, params) in runs.items():
    stepper = STEPPERS[kind]
    state = stepper.make_state(init.copy(), params, 0)
    try:
        state, _ = drive(x, state, stepper.step, budget=800)
        outcome = f"relative error {relative_error(x, state.model):.3e}"
    except DivergenceError as exc:
        outcome = f"diverged ({exc})"
    print(f"  {name:14s} {outcome}")

print("\nThe Lyapunov step-size interval along a converging run (far from the"
      "\nsolution its premise fails and no interval applies; near it the"
      "\ninterval opens up):")
x_small, _ = gen_problem("easy5", 8)
settings = {"lambdas": [0.12] * 3, "precondition": False}
explicit = STEPPERS["dtpnn-explicit"]
state = explicit.make_state(initial_model(x_small.shape, 3, 8), settings, 0)
for step in range(1, 2001):
    bound = step_size_bound(x_small, DtpnnState(state.model, **settings))
    state = explicit.step(x_small, state, 0.0)
    if step in (1, 10, 500, 1000, 2000):
        if bound.at_equilibrium:
            print(f"  step {step:3d}: at equilibrium")
        elif np.isnan(bound.lower):
            print(f"  step {step:3d}: c = {bound.c:.3f} < 0, bound not applicable")
        else:
            inside = bound.lower <= 0.12 <= bound.upper
            print(f"  step {step:3d}: lambda in [{bound.lower:.3f}, "
                  f"{bound.upper:.3f}], current 0.12 inside = {inside}")
