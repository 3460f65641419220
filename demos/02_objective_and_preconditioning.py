"""The factorization objective, its gradients, and the Gram-structured
preconditioner that turns a huge block-Hessian solve into an R x R solve.
"""

import numpy as np

from neurocpd import (
    KruskalModel,
    barrier_gradient,
    barrier_objective,
    gradient,
    hadamard_gram,
    kruskal_full,
    objective,
    precondition,
)
from neurocpd.model import AUTO_RIDGE_SCALE

rng = np.random.default_rng(1)
shape, rank = (6, 6, 6), 4
truth = KruskalModel([rng.random((d, rank)) for d in shape])
x = kruskal_full(truth)

print(f"Objective at the exact fit: {objective(x, truth):.2e}")

guess = KruskalModel([rng.random((d, rank)) for d in shape])
print(f"Objective at a random start: {objective(x, guess):.3f}")

g = gradient(x, guess, 0)
print(f"Gradient for factor 0 has shape {g.shape}, norm {np.linalg.norm(g):.3f}")

gram = hadamard_gram(guess, 0)
pg = precondition(g, gram)  # ridge None: the automatic 1e-10 * trace(P) / R
delta = AUTO_RIDGE_SCALE * np.trace(gram) / rank
residual = np.abs(pg @ (gram + delta * np.eye(rank)) - g).max()
print("Preconditioned gradient solves G (P + delta I) = grad from the right: "
      f"residual {residual:.2e}")
print(f"  automatic ridge delta = {delta:.3e}")

interior = KruskalModel([0.2 + rng.random((d, rank)) for d in shape])
gamma = 1e-3
plain = objective(x, interior)
barrier = barrier_objective(x, interior, gamma)
print(f"\nLog barrier keeps iterates interior: F = {plain:.4f}, "
      f"F_barrier = {barrier:.4f}")
bg = barrier_gradient(x, interior, 0, gamma)
print("Barrier gradient adds -gamma / entries: max extra term "
      f"{np.abs(bg - gradient(x, interior, 0)).max():.2e}")
