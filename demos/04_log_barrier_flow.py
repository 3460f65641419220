"""The log-barrier flow removes the projection but must stay strictly inside
the positive orthant; a geometric barrier-weight decay recovers accuracy.
"""

import numpy as np

from neurocpd import FlowState, KruskalModel, relative_error
from neurocpd.datagen import gen_problem
from neurocpd.flow import solve_barrier

x, _ = gen_problem("easy5", 1)
rng = np.random.default_rng(1)
start = KruskalModel([0.1 + 0.9 * rng.random((5, 3)) for _ in range(3)])

for decay, text in [(1.0, "fixed gamma = 1e-3"),
                    (0.5, "gamma halved every 100 steps")]:
    # the state holds the barrier weight and its schedule
    state = FlowState(
        start.copy(), step=0.5, gamma=1e-3, gamma_decay=decay, decay_every=100
    )
    state, reason = solve_barrier(x, state, tol=1e-8, max_steps=4000)
    smallest = min(f.min() for f in state.model.factors)
    print(f"{text}: {reason} after {state.iterations} steps, "
          f"relative error {relative_error(x, state.model):.2e}, "
          f"smallest entry {smallest:.2e} (strictly interior)")

print("\nRunge-Kutta integration of the same flow:")
state = FlowState(start.copy(), step=0.5, integrator="rk4")
state, reason = solve_barrier(x, state, tol=1e-8, max_steps=4000)
print(f"  {reason} after {state.iterations} steps, relative error "
      f"{relative_error(x, state.model):.2e}")
