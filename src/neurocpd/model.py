"""The nonnegative CPD optimization problem.

Objective ``F = 0.5 * ||X - full(model)||_F^2`` with per-factor gradients

    grad_n = Z_n @ hadamard_gram(model, n) - mttkrp(X, model, n)

Gram-structured preconditioning exploits the block Hessian ``P kron I``: the
vec-level solve collapses to a single R x R symmetric solve applied from the
right. The log-barrier variant subtracts ``gamma * sum(log(entries))`` so the
penalty diverges at the boundary of the positive orthant; its Hessian adds a
diagonal and the solve decouples into independent R x R systems per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BarrierDomainError, SingularPreconditionerError
from .tensor_ops import KruskalModel, hadamard_gram, mttkrp, mttkrp_stack

Array = np.ndarray

#: ridge scale used when no explicit ridge is given: 1e-10 * trace(P) / R
AUTO_RIDGE_SCALE = 1e-10


@dataclass(frozen=True)
class BarrierParams:
    """Weight of the log-barrier term; must be positive."""

    gamma: float = 1e-3

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("barrier gamma must be > 0")


@dataclass
class Preconditioner:
    """Gram preconditioner ``P + ridge*I`` for one factor.

    ``ridge=None`` selects the automatic default ``1e-10 * trace(P)/R``.
    """

    mode: int
    gram: Array
    ridge: float | None = None

    @classmethod
    def for_mode(
        cls, model: KruskalModel, mode: int, ridge: float | None = None
    ) -> "Preconditioner":
        return cls(mode, hadamard_gram(model, mode), ridge)

    def effective_ridge(self) -> float:
        return float(_ridges(self.gram, self.ridge))

    def matrix(self) -> Array:
        return _ridged(self.gram, self.ridge)


def _ridges(grams: Array, ridge: float | None) -> Array:
    """Ridge of each ``(..., R, R)`` Gram: ``ridge``, or the automatic one."""
    if ridge is not None:
        return np.full(grams.shape[:-2], float(ridge))
    return AUTO_RIDGE_SCALE * np.trace(grams, axis1=-2, axis2=-1) / grams.shape[-1]


def _ridged(grams: Array, ridge: float | None) -> Array:
    """The systems ``P + ridge*I`` of a ``(..., R, R)`` stack of Grams."""
    delta = _ridges(grams, ridge)
    return grams + delta[..., None, None] * np.eye(grams.shape[-1])


def _check_shapes(t: Array, model: KruskalModel) -> None:
    if np.shape(t) != model.shape:
        raise ValueError(f"tensor shape {np.shape(t)} != model shape {model.shape}")


def objective_from_parts(
    norm_x_sq: float, factor: Array, gram_skip: Array, mtt: Array
) -> float:
    """Objective via the expanded form, given one mode's Gram and MTTKRP.

    ``0.5*||X||^2 + 0.5*<Z^T Z, G> - <Z, M>`` equals the full objective for
    any mode; solvers reuse it to make backtracking evaluations cheap.
    """
    fit = factor.T @ factor
    return 0.5 * norm_x_sq + 0.5 * float(np.sum(fit * gram_skip)) - float(
        np.sum(factor * mtt)
    )


def objective(t: Array, model: KruskalModel) -> float:
    """``0.5 * ||t - full(model)||_F^2`` evaluated via Gram identities."""
    t = np.asarray(t)
    _check_shapes(t, model)
    norm_x_sq = float(np.dot(t.ravel(), t.ravel()))
    return objective_from_parts(
        norm_x_sq, model.factors[0], hadamard_gram(model, 0), mttkrp(t, model, 0)
    )


def gradient(t: Array, model: KruskalModel, mode: int) -> Array:
    """Gradient of the objective with respect to factor ``mode``."""
    _check_shapes(np.asarray(t), model)
    return model.factors[mode] @ hadamard_gram(model, mode) - mttkrp(t, model, mode)


def gradients(t: Array, model: KruskalModel) -> list[Array]:
    """All factor gradients at the current point, sharing the factor Grams."""
    return projection_bundle(t, model, False, None)[1]


def projected_direction(factor: Array, grad: Array) -> Array:
    """Projection-dynamics direction ``[Z - G]_+ - Z``; zero iff KKT holds."""
    return np.maximum(factor - grad, 0.0) - factor


def max_abs(blocks) -> float:
    """Largest absolute entry over all blocks: the residual max-norm."""
    return max(float(np.abs(b).max()) for b in blocks)


def kkt_residual(t: Array, model: KruskalModel) -> float:
    """Max-norm of ``Z - [Z - grad]_+`` over all factors."""
    return max_abs(projection_bundle(t, model, False, None)[0])


def projection_stack(
    t: Array, factors, use_precondition: bool, ridge: float | None
) -> tuple[list[Array], list[Array]]:
    """Projection directions and true gradients for a stack of P models.

    ``factors[n]`` is the ``(P, I_n, R)`` stack of factor ``n``; both results
    hold one such stack per factor, slice ``p`` belonging to model ``p``.
    The direction for factor ``Z`` is ``[Z - G]_+ - Z`` where ``G`` is the
    (optionally Gram-preconditioned) gradient; the continuous flow, the
    discrete steppers and the swarm all advance along these. Per iterate the
    Grams are one batched product, the MTTKRPs come from
    :func:`~neurocpd.tensor_ops.mttkrp_stack` and the preconditioner solves
    are batched ``R x R`` solves.
    """
    grams = [np.matmul(f.transpose(0, 2, 1), f) for f in factors]
    mtts = mttkrp_stack(t, factors)
    directions, grads = [], []
    for mode, (factor, mtt) in enumerate(zip(factors, mtts)):
        gram_skip = np.ones_like(grams[0])
        for m, g in enumerate(grams):
            if m != mode:
                gram_skip *= g
        grad = factor @ gram_skip - mtt
        grads.append(grad)
        step_grad = grad
        if use_precondition:
            step_grad = _solve_right(grad, _ridged(gram_skip, ridge), ridge, mode)
        directions.append(projected_direction(factor, step_grad))
    return directions, grads


def projection_bundle(
    t: Array, model: KruskalModel, use_precondition: bool, ridge: float | None
) -> tuple[list[Array], list[Array]]:
    """Projection directions and true gradients for all factors at one point.

    The one-model case of :func:`projection_stack`.
    """
    t = np.asarray(t)
    _check_shapes(t, model)
    directions, grads = projection_stack(
        t, [f[None] for f in model.factors], use_precondition, ridge
    )
    return [d[0] for d in directions], [g[0] for g in grads]


def precondition(grad: Array, pre: Preconditioner) -> Array:
    """Apply ``(P + ridge*I)^{-1}`` from the right via an R x R solve.

    Falls back to a least-squares pseudo-solve if the system is not positive
    definite despite a positive ridge; with an explicit ridge of 0 a singular
    Gram raises :class:`SingularPreconditionerError` instead.
    """
    return _solve_right(grad[None], pre.matrix()[None], pre.ridge, pre.mode)[0]


def _solve_right(
    grads: Array, systems: Array, ridge: float | None, mode: int
) -> Array:
    """``grads[p] @ inv(systems[p])`` for stacks of gradients and systems.

    A Cholesky factorization tests the systems for positive definiteness.
    If one is not, each system is tested alone and the indefinite ones fall
    back to least squares, or raise :class:`SingularPreconditionerError` when
    the ridge is explicitly 0.
    """
    try:
        np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        return np.stack(
            [_solve_one(g, s, ridge, mode) for g, s in zip(grads, systems)]
        )
    # the systems are symmetric, so X S = G is S X^T = G^T
    return np.linalg.solve(systems, grads.transpose(0, 2, 1)).transpose(0, 2, 1)


def _solve_one(grad: Array, system: Array, ridge: float | None, mode: int) -> Array:
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        if ridge == 0:
            raise SingularPreconditionerError(mode) from None
        return np.linalg.lstsq(system, grad.T, rcond=None)[0].T
    return np.linalg.solve(system, grad.T).T


def _check_interior(model: KruskalModel) -> None:
    for n, f in enumerate(model.factors):
        if f.size and f.min() <= 0.0:
            raise BarrierDomainError(
                f"factor {n} has nonpositive entries; the log barrier requires "
                "a strictly positive point"
            )


def barrier_objective(t: Array, model: KruskalModel, bp: BarrierParams) -> float:
    """``objective - gamma * sum(log(entries))`` over all factor entries."""
    _check_interior(model)
    logs = sum(float(np.log(f).sum()) for f in model.factors)
    return objective(t, model) - bp.gamma * logs


def barrier_gradient(
    t: Array, model: KruskalModel, mode: int, bp: BarrierParams
) -> Array:
    _check_interior(model)
    return gradient(t, model, mode) - bp.gamma / model.factors[mode]


def barrier_precondition(
    grad: Array, pre: Preconditioner, entries: Array, bp: BarrierParams
) -> Array:
    """Solve with the barrier Hessian ``P kron I + gamma*diag(1/entries^2)``.

    The diagonal term decouples the vec system into one R x R solve per row
    of the factor; the solves are batched over rows.
    """
    if grad.shape != entries.shape:
        raise ValueError("gradient and entry blocks must share a shape")
    base = pre.matrix()
    rank = base.shape[0]
    systems = np.broadcast_to(base, (entries.shape[0], rank, rank)).copy()
    idx = np.arange(rank)
    systems[:, idx, idx] += bp.gamma / (entries**2)
    try:
        return np.linalg.solve(systems, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for i in range(entries.shape[0]):
            try:
                np.linalg.solve(systems[i], grad[i])
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"singular barrier system at row {i} of factor {pre.mode}"
                ) from None
        raise
