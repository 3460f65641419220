"""The nonnegative CPD optimization problem.

Objective ``F = 0.5 * ||X - full(model)||_F^2`` with per-factor gradients

    grad_n = Z_n @ hadamard_gram(model, n) - mttkrp(X, model, n)

Gram-structured preconditioning exploits the block Hessian ``P kron I``: the
vec-level solve collapses to a single R x R symmetric solve applied from the
right. The stacked kernel makes those solves from one Cholesky factorization
of the bordered systems ``[[S, I], [I, c*I]]``, whose lower-left block is
``L^{-T}`` for ``S = L L^T``: each direction is then two matrix products.
The log-barrier variant subtracts ``gamma * sum(log(entries))`` so the
penalty diverges at the boundary of the positive orthant; its Hessian adds a
diagonal and the solve decouples into independent R x R systems per row.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import BarrierDomainError, SingularPreconditionerError
from .tensor_ops import KruskalModel, hadamard_gram, mttkrp, mttkrp_stack

Array = np.ndarray

#: ridge scale used when no explicit ridge is given: 1e-10 * trace(P) / R
AUTO_RIDGE_SCALE = 1e-10

#: corner weight ``c`` of the bordered systems of :func:`_solve_modes`: a power
#: of two, so ``c*I`` is exact, and far above ``1/lambda_min`` of any system
#: not left to the per-system path
BORDER = 2.0**500

#: number types a numeric setting may take; concrete types, so the check on
#: every solver state stays cheap
_REALS = (int, float, np.integer, np.floating)


def _check_ridge(ridge) -> None:
    """Reject a ridge that is neither ``None`` nor a finite value ``>= 0``."""
    if ridge is None or (isinstance(ridge, _REALS) and 0 <= ridge < math.inf):
        return
    raise ValueError(f"ridge must be None or a finite value >= 0, got {ridge!r}")


def _check_barrier(**settings) -> None:
    """The rule for the barrier's ``gamma`` and ``gamma_decay``: finite, > 0."""
    for key, value in settings.items():
        if not (isinstance(value, _REALS) and 0 < value < math.inf):
            raise ValueError(f"{key} must be a finite value > 0, got {value!r}")


def _ridges(grams: Array, ridge: float | None) -> Array | float:
    """Ridge of each ``(..., R, R)`` Gram: ``ridge``, or the automatic one."""
    if ridge is not None:
        return float(ridge)
    return AUTO_RIDGE_SCALE * np.trace(grams, axis1=-2, axis2=-1) / grams.shape[-1]


def _ridged(grams: Array, ridge: float | None) -> Array:
    """The systems ``P + ridge*I`` of a ``(..., R, R)`` stack of Grams."""
    rank = grams.shape[-1]
    systems = grams.copy()
    diagonal = systems.reshape(*grams.shape[:-2], rank * rank)[..., :: rank + 1]
    diagonal += np.asarray(_ridges(grams, ridge))[..., None]
    return systems


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
    fit = float((factor.T @ factor * gram_skip).sum())
    return 0.5 * norm_x_sq + 0.5 * fit - float((factor * mtt).sum())


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
    :func:`~neurocpd.tensor_ops.mttkrp_stack` and the ``R x R`` preconditioner
    solves are made by :func:`_solve_modes`. ``t`` is only read by
    ``mttkrp_stack``, so it may be a :class:`~neurocpd.tensor_ops.TuckerForm`.
    """
    grams = [np.matmul(f.transpose(0, 2, 1), f) for f in factors]
    skips = _gram_skips(grams)
    grads = [f @ g - m for f, g, m in zip(factors, skips, mttkrp_stack(t, factors))]
    step_grads = grads
    if use_precondition:
        systems = _ridged(np.stack(skips), ridge)
        step_grads = _solve_modes(grads, systems, ridge, range(len(grads)))
    return [projected_direction(f, g) for f, g in zip(factors, step_grads)], grads


def _gram_skips(grams) -> list[Array]:
    """For each mode ``n`` the Hadamard product of the ``grams`` but the
    ``n``-th, in factor order and bitwise as :func:`hadamard_gram` forms it."""
    if len(grams) == 1:
        return [np.ones_like(grams[0])]
    if len(grams) == 2:
        return [grams[1].copy(), grams[0].copy()]
    return [reduce(np.multiply, grams[:n] + grams[n + 1 :]) for n in range(len(grams))]


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


def precondition(
    grad: Array, gram: Array, ridge: float | None = None, mode: int = 0
) -> Array:
    """Apply ``(gram + ridge*I)^{-1}`` from the right via an R x R solve.

    ``ridge=None`` selects the automatic ``1e-10 * trace(gram)/R``. Falls back
    to a least-squares pseudo-solve if the system is not positive definite
    despite a positive ridge; with an explicit ridge of 0 a singular Gram
    raises :class:`SingularPreconditionerError` for factor ``mode`` instead.
    """
    return _solve_one(grad, _ridged(gram, ridge), ridge, mode)


def _solve_modes(grads, systems: Array, ridge: float | None, modes) -> list[Array]:
    """``grads[n][p] @ inv(systems[n, p])`` for ``(P, I_n, R)`` stacks ``grads[n]``.

    One Cholesky factorization of the bordered systems ``[[S, I], [I, c*I]]``
    with ``c`` = :data:`BORDER`. For ``S = L L^T`` its lower-left block is
    ``U = L^{-T}``, so ``inv(S) = U U^T`` and each mode takes the two batched
    products ``(G @ U) @ U^T``. In exact arithmetic the factorization succeeds
    iff every ``S`` is positive definite with ``lambda_min(S) > 1/c``; if not, each
    system is solved by :func:`_solve_one`, whose errors name the system's
    mode ``modes[n]``.
    """
    rank = systems.shape[-1]
    eye = np.eye(rank)
    bordered = np.empty(systems.shape[:-2] + (2 * rank, 2 * rank))
    bordered[..., :rank, :rank] = systems
    bordered[..., :rank, rank:] = eye
    bordered[..., rank:, :rank] = eye
    bordered[..., rank:, rank:] = BORDER * eye
    try:
        inverses = np.linalg.cholesky(bordered)[..., rank:, :rank]
    except np.linalg.LinAlgError:
        return [
            np.stack([_solve_one(g, s, ridge, mode) for g, s in zip(gs, ss)])
            for mode, gs, ss in zip(modes, grads, systems)
        ]
    return [(g @ u) @ u.transpose(0, 2, 1) for g, u in zip(grads, inverses)]


def _solve_one(grad: Array, system: Array, ridge: float | None, mode: int) -> Array:
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        if ridge == 0:
            raise SingularPreconditionerError(mode) from None
        return np.linalg.lstsq(system, grad.T, rcond=None)[0].T
    return np.linalg.solve(system, grad.T).T


def _check_interior(model: KruskalModel, gamma: float) -> None:
    """The barrier's domain: a valid ``gamma`` and entries all > 0."""
    _check_barrier(gamma=gamma)
    for n, f in enumerate(model.factors):
        if f.size and f.min() <= 0.0:
            raise BarrierDomainError(
                f"factor {n} has nonpositive entries; the log barrier requires "
                "a strictly positive point"
            )


def barrier_objective(t: Array, model: KruskalModel, gamma: float) -> float:
    """``objective - gamma * sum(log(entries))`` over all factor entries."""
    _check_interior(model, gamma)
    logs = sum(float(np.log(f).sum()) for f in model.factors)
    return objective(t, model) - gamma * logs


def barrier_gradient(t: Array, model: KruskalModel, mode: int, gamma: float) -> Array:
    _check_interior(model, gamma)
    return gradient(t, model, mode) - gamma / model.factors[mode]


def barrier_precondition(
    grad: Array, gram: Array, entries: Array, gamma: float,
    ridge: float | None = None, mode: int = 0,
) -> Array:
    """Solve with the barrier Hessian ``(P + ridge*I) kron I +
    gamma*diag(1/entries^2)``, ``P`` the Gram ``gram`` of factor ``mode``.

    The diagonal term decouples the vec system into one R x R solve per row
    of the factor; the solves are batched over rows.
    """
    _check_barrier(gamma=gamma)
    if grad.shape != entries.shape:
        raise ValueError("gradient and entry blocks must share a shape")
    base = _ridged(gram, ridge)[None]
    return _barrier_solve([grad], base, [entries], gamma, [mode])[0]


def preconditioned_barrier_gradients(
    t: Array, model: KruskalModel, gamma: float, ridge: float | None = None
) -> list[Array]:
    """:func:`barrier_precondition` of :func:`barrier_gradient` for every
    factor, bitwise, from one snapshot of the point: one interior check, the
    factor Grams, one MTTKRP call and one solve over the rows of all factors."""
    _check_shapes(t, model)
    _check_interior(model, gamma)
    skips = _gram_skips([f.T @ f for f in model.factors])
    mtts = mttkrp_stack(t, [f[None] for f in model.factors])
    grads = [f @ g - m[0] - gamma / f for f, g, m in zip(model.factors, skips, mtts)]
    bases = _ridged(np.stack(skips), ridge)
    return _barrier_solve(grads, bases, model.factors, gamma, range(model.order))


def _barrier_solve(grads, bases: Array, entries, gamma: float, modes):
    """Row ``i`` of each ``grads[k]`` solved with ``bases[k] + gamma *
    diag(1 / entries[k][i]**2)``. The batched solve takes each system alone,
    so one call over the rows of every block gives the per-block results."""
    sizes = [len(e) for e in entries]
    systems = np.repeat(bases, sizes, axis=0)
    idx = np.arange(bases.shape[-1])
    systems[:, idx, idx] += gamma / (np.concatenate(entries) ** 2)
    rhs = np.concatenate(grads)
    try:
        out = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        rows = [(mode, i) for mode, n in zip(modes, sizes) for i in range(n)]
        for (mode, i), system, grad in zip(rows, systems, rhs):
            try:
                np.linalg.solve(system, grad)
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"singular barrier system at row {i} of factor {mode}"
                ) from None
        raise
    return [out[end - n : end] for n, end in zip(sizes, np.cumsum(sizes))]
