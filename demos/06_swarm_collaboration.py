"""Collaboration pays on collinear data: a swarm of projection flows
exchanging bests beats any single member, and the diversity trace shows when
the wavelet mutation would kick in.
"""

from neurocpd.datagen import collinearity, gen_problem
from neurocpd.swarm import SwarmConfig, cno_run

x, truth = gen_problem("caseI", 0)
mu = collinearity(truth.factors[2])
off = mu[mu < 1.0]
print(f"Tensor {x.shape}, third factor pairwise collinearity in "
      f"[{off.min():.3f}, {off.max():.3f}]\n")

for q in (1, 5):
    cfg = SwarmConfig(population=q, seed=0, max_outer=6, inner_max_steps=200,
                      diversity_threshold=1e-2 if q > 1 else 0.0)
    model, trace = cno_run(x, 10, cfg)
    print(f"population {q}:")
    for row in trace:
        fired = " (mutation fired)" if row.mutated else ""
        print(f"  outer {row.iteration}: best objective {row.objective:.3e}, "
              f"rel error {row.rel_error:.2e}, diversity {row.diversity:.2f}"
              f"{fired}")
    print()

print("The global best is monotone by construction; raising the diversity")
print("threshold forces mutation kicks on every outer iteration:")
cfg = SwarmConfig(population=4, seed=0, max_outer=4, inner_max_steps=100,
                  diversity_threshold=1e12)
_, trace = cno_run(x, 10, cfg)
print("  mutated flags:", [row.mutated for row in trace])
