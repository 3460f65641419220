"""Dense tensor kernels: unfoldings, Khatri-Rao products, MTTKRP, and the
identities that tie them together.
"""

import numpy as np

from neurocpd import (
    KruskalModel,
    hadamard_gram,
    khatri_rao,
    kruskal_full,
    mttkrp,
    relative_error,
    unfold,
)

rng = np.random.default_rng(0)

print("A rank-3 model on a 4 x 5 x 6 tensor:")
model = KruskalModel([rng.random((d, 3)) for d in (4, 5, 6)])
x = kruskal_full(model)
print(f"  reconstruction shape {x.shape}, relative error "
      f"{relative_error(x, model):.2e} (exact by construction)")

print("\nMode-0 unfolding obeys the factorization identity "
      "unfold(X, 0) == A @ khatri_rao(C, B).T:")
a, b, c = model.factors
lhs = unfold(x, 0)
rhs = a @ khatri_rao(c, b).T
print(f"  max deviation {np.abs(lhs - rhs).max():.2e}")

print("\nThe Gram of a Khatri-Rao product collapses to a Hadamard product "
      "of small Grams:")
kr = khatri_rao(c, b)
print(f"  max deviation {np.abs(kr.T @ kr - hadamard_gram(model, 0)).max():.2e}")

print("\nMTTKRP equals the unfold-then-multiply route without forming the "
      "Khatri-Rao matrix:")
print(f"  max deviation {np.abs(mttkrp(x, model, 0) - lhs @ kr).max():.2e}")
