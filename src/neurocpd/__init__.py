"""Nonnegative CPD via projection neural-network dynamics.

Dense tensor kernels, the factorization objective with Gram-structured
preconditioning and a log-barrier variant, continuous and discrete
projection-dynamics solvers, a PSO collaboration layer with wavelet
mutation, HALS/MUR baselines, synthetic problem generators, and a
configuration-driven benchmark runner.
"""

from .baselines import hals_sweep, mur_sweep
from .datagen import (
    CollinearitySpec,
    collinearity,
    gen_collinear_factor,
    gen_problem,
)
from .dtpnn import (
    ArmijoParams,
    DtpnnState,
    StepBound,
    effective_step_map,
    lyapunov_trace,
    step_explicit,
    step_gauss_seidel_armijo,
    step_semi_implicit,
    step_size_bound,
)
from .flow import (
    FlowState,
    barrier_flow_step,
    flow_step,
    solve_barrier,
    solve_to_equilibrium,
)
from .model import (
    barrier_gradient,
    barrier_objective,
    barrier_precondition,
    gradient,
    gradients,
    kkt_residual,
    objective,
    precondition,
)
from .swarm import (
    Particle,
    SwarmConfig,
    SwarmState,
    cno_run,
    diversity,
    pso_update,
    update_bests,
    wavelet_mutation,
)
from .tensor_ops import (
    KruskalModel,
    fold,
    frobenius_norm,
    hadamard_gram,
    khatri_rao,
    khatri_rao_list,
    kruskal_full,
    mttkrp,
    relative_error,
    unfold,
)

__version__ = "0.1.0"
