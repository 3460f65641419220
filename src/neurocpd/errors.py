"""Exception types raised by the solvers and the benchmark driver."""

import numpy as np


class NeurocpdError(Exception):
    """Base class for all package-specific errors."""


class DivergenceError(NeurocpdError):
    """A solver produced non-finite values.

    Carries the iteration at which the blow-up was detected.
    """

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class SingularPreconditionerError(NeurocpdError):
    """Gram preconditioner is singular and no ridge was requested."""

    def __init__(self, mode):
        super().__init__(
            f"preconditioner for factor {mode} is singular with ridge=0; "
            "pass a positive ridge or leave it at the automatic default"
        )
        self.mode = mode


class BarrierDomainError(NeurocpdError):
    """A log-barrier quantity was requested at a nonpositive entry."""


class BoundaryStallError(NeurocpdError):
    """Barrier flow could not stay interior after the halving budget."""

    def __init__(self, iteration, halvings):
        super().__init__(
            f"barrier step stalled at the boundary after {halvings} halvings "
            f"(iteration {iteration})"
        )
        self.iteration = iteration


class GammaScheduleError(NeurocpdError):
    """The barrier weight left (0, inf) on its decay schedule."""


class ArmijoStallError(NeurocpdError):
    """Backtracking exhausted its budget on a block that is not converged."""

    def __init__(self, mode, shrinkages, residual):
        super().__init__(
            f"Armijo backtracking on factor {mode} exhausted {shrinkages} "
            f"shrinkages with projected-gradient residual {residual:.3e}"
        )
        self.mode = mode
        self.residual = residual


class StepMapInconsistencyError(NeurocpdError):
    """A clamped coordinate had zero gradient in the effective-step map."""


class CollinearityInfeasibleError(NeurocpdError):
    """Requested pairwise-collinearity range could not be met."""


class ConfigError(NeurocpdError):
    """Benchmark run configuration is invalid."""


#: Errors that end one solver trajectory without making its configuration
#: invalid, by the label that starts a failed run's termination.
#: `bench.run_single` records such a seed as failed and goes on with the next;
#: the swarm re-seeds the particle. ``LinAlgError`` comes from a least-squares
#: or barrier solve that cannot proceed.
FAILURE_LABELS = {
    DivergenceError: "diverged",
    SingularPreconditionerError: "singular_preconditioner",
    BoundaryStallError: "boundary_stall",
    GammaScheduleError: "gamma_schedule",
    ArmijoStallError: "armijo_stall",
    np.linalg.LinAlgError: "linalg_error",
}

SOLVER_FAILURES = tuple(FAILURE_LABELS)


def describe_failure(exc: BaseException) -> str:
    """Termination of a run that raised ``exc``: its label, then its message."""
    kind = next(label for cls, label in FAILURE_LABELS.items() if isinstance(exc, cls))
    return f"{kind}: {exc}"
