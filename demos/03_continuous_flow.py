"""The continuous projection flow: integrate to an equilibrium and watch the
relative error fall on an exact rank-5 tensor, then on the harder
rank-exceeds-dimension tensor.
"""

import numpy as np

from neurocpd import FlowState, KruskalModel, relative_error, solve_to_equilibrium
from neurocpd.datagen import gen_problem
from neurocpd.flow import flow_step

x, truth = gen_problem("easy9", 0)
print(f"Exact rank-5 tensor of shape {x.shape}")
state = FlowState(KruskalModel.random(x.shape, 5, np.random.default_rng(0)))
state, reason = solve_to_equilibrium(x, state, tol=1e-6, max_steps=20000)
print(f"  {reason} after {state.steps} steps, rhs max-norm "
      f"{state.residual:.2e}, relative error {relative_error(x, state.model):.2e}")

x, _ = gen_problem("difficult9", 0)
print(f"\nDifficult tensor (rank 10 > dimension 9), shape {x.shape}")
state = FlowState(KruskalModel.random(x.shape, 10, np.random.default_rng(0)))
for step in range(1, 1001):
    state = flow_step(x, state)
    if step in (1, 10, 100, 500, 1000):
        print(f"  step {step:5d}: relative error "
              f"{relative_error(x, state.model):.3e}")
print("Every iterate stays entrywise nonnegative:",
      all(f.min() >= 0 for f in state.model.factors))
