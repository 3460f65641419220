"""The nonnegative CPD optimization problem.

Objective ``F = 0.5 * ||X - full(model)||_F^2`` with per-factor gradients

    grad_n = Z_n @ hadamard_gram(model, n) - mttkrp(X, model, n)

Gram-structured preconditioning exploits the block Hessian ``P kron I``: the
vec-level solve is one R x R solve from the right, made from the Cholesky
factor of a bordered system (:func:`_solve_modes`). The log-barrier variant
subtracts ``gamma * sum(log(entries))``; its Hessian adds a diagonal, so
the solve decouples into one R x R system per row of the ``(P, sum I_n, R)``
block of P models' stacked factors (:func:`_barrier_rhs`). Both flows read
one snapshot of Grams and MTTKRPs (:func:`_gradient_stack`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import BarrierDomainError, SingularPreconditionerError
from .tensor_ops import KruskalModel, hadamard_gram, hadamard_skip, mttkrp, mttkrp_stack

Array = np.ndarray

#: ridge scale used when no explicit ridge is given: 1e-10 * trace(P) / R
AUTO_RIDGE_SCALE = 1e-10

#: corner weight ``c`` of the bordered systems of :func:`_solve_modes`: a power
#: of two, so ``c*I`` is exact, and far above ``1/lambda_min`` of any system
#: not left to the per-system path
BORDER = 2.0**500

def _integer(key: str, value, floor: int) -> int:
    """A Python or NumPy integer, not a bool, of at least ``floor``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if value >= floor:
            return int(value)
    raise ValueError(f"{key} must be an integer >= {floor}, got {value!r}")


def _real(key: str, value, ends: str = "[)", low=0.0, high=math.inf) -> float:
    """``float(value)`` of a number or a string (YAML reads ``1e-3`` as one),
    not a bool, between ``low`` and ``high``, each end closed ``[]`` or open
    ``()`` as ``ends`` marks it. Concrete types keep it cheap on every state."""
    number = math.nan
    if isinstance(value, (int, float, np.integer, np.floating, str)):
        try:
            number = math.nan if isinstance(value, bool) else float(value)
        except (ValueError, OverflowError):
            pass
    if ((low < number or ends[0] == "[" and low == number)
            and (number < high or ends[1] == "]" and number == high)):
        return number
    interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
    raise ValueError(f"{key} must be a number in {interval}, got {value!r}")


def _switch(key: str, value) -> bool:
    """``True`` or ``False``, as a Python or NumPy bool."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{key} must be true or false, got {value!r}")


def _choice(key: str, value, names: tuple) -> str:
    """One of the ``names``."""
    if isinstance(value, str) and value in names:
        return value
    raise ValueError(f"{key} must be one of {names}, got {value!r}")


def _positives(key: str, values, order: int) -> Array:
    """One real > 0 per factor as a float64 array, all 1 for ``None``: the
    time constants of a flow or the step sizes of a DTPNN. A list is checked
    entry by entry, as ``asarray`` reads ``[1.0, True]`` as ``[1.0, 1.0]``."""
    array = np.ones(order) if values is None else np.asarray(values)
    if isinstance(values, (list, tuple)) or array.ndim == 1 and array.dtype != float:
        array = np.array([v if isinstance(v, float) else _real(key, v, "(]")
                          for v in np.asarray(values, dtype=object).tolist()])
    if array.shape == (order,) and (array > 0).all():
        return array
    raise ValueError(f"{key} must be {order} reals > 0, one per factor, got {values!r}")


def _diagonals(systems: Array) -> Array:
    """Diagonals of a C-contiguous ``(..., R, R)`` stack, as a view."""
    return systems.reshape(*systems.shape[:-2], -1)[..., :: systems.shape[-1] + 1]


def _ridged(grams: Array, ridge: float | None, copy: bool = True) -> Array:
    """``P + ridge*I`` for a ``(..., R, R)`` stack ``P`` of Grams, ridge
    ``1e-10 * trace(P) / R`` for ``None``; in place (C order) if not ``copy``."""
    systems = grams.copy() if copy else grams
    diagonals = _diagonals(systems)
    diagonals += (AUTO_RIDGE_SCALE * diagonals.sum(-1)[..., None] / systems.shape[-1]
                  if ridge is None else _real("ridge", ridge))
    return systems


def objective_from_parts(norm_x_sq: float, fit: float, cross: float) -> float:
    """The objective ``0.5*||X||^2 + 0.5*fit - cross`` from the :func:`_parts`
    of any one mode, which backtracking solvers reuse."""
    return 0.5 * norm_x_sq + 0.5 * fit - cross


def _parts(factor: Array, gram_skip: Array, mtt: Array) -> tuple[float, float]:
    """``<Z^T Z, G>`` and ``<Z, M>`` of a factor, its Gram product and MTTKRP."""
    return float((factor.T @ factor * gram_skip).sum()), float((factor * mtt).sum())


def objective(t: Array, model: KruskalModel) -> float:
    """``0.5 * ||t - full(model)||_F^2`` evaluated via Gram identities."""
    t = np.asarray(t)
    norm_x_sq = float(np.dot(t.ravel(), t.ravel()))
    parts = _parts(model.factors[0], hadamard_gram(model, 0), mttkrp(t, model, 0))
    return objective_from_parts(norm_x_sq, *parts)


def gradient(t: Array, model: KruskalModel, mode: int) -> Array:
    """Gradient of the objective with respect to factor ``mode``."""
    return model.factors[mode] @ hadamard_gram(model, mode) - mttkrp(t, model, mode)


def gradients(t: Array, model: KruskalModel) -> list[Array]:
    """All factor gradients at the current point, sharing the factor Grams."""
    return projection_bundle(t, model, False, None)[1]


def projected_direction(factor: Array, grad: Array, out=None) -> Array:
    """Projection-dynamics direction ``[Z - G]_+ - Z``, made in ``out`` if
    given (it may be ``grad``); zero iff KKT holds."""
    direction = np.subtract(factor, grad, out=out)
    np.maximum(direction, 0.0, out=direction)
    direction -= factor
    return direction


def kkt_residual(t: Array, model: KruskalModel) -> float:
    """Max-norm of ``Z - [Z - grad]_+`` over all factors."""
    return max(float(np.abs(d).max())
               for d in projection_bundle(t, model, False, None)[0])


def projection_stack(
    t: Array, factors, use_precondition: bool, ridge: float | None
) -> tuple[list[Array], list[Array]]:
    """Projection directions and true gradients for a stack of P models.

    ``factors[n]`` is the ``(P, I_n, R)`` stack of factor ``n``; both results
    hold one such stack per factor, slice ``p`` belonging to model ``p``.
    The direction for factor ``Z`` is ``[Z - G]_+ - Z`` where ``G`` is the
    (optionally Gram-preconditioned) gradient; the continuous flow, the
    discrete steppers and the swarm all advance along these. ``t`` is only
    read by :func:`~neurocpd.tensor_ops.mttkrp_stack`, so it may be a
    :class:`~neurocpd.tensor_ops.TuckerForm`.
    """
    grads, skips = _gradient_stack(t, factors)
    if not use_precondition:
        return [projected_direction(f, g) for f, g in zip(factors, grads)], grads
    solved = _solve_modes(grads, _ridged(skips, ridge, False), ridge, range(len(grads)))
    return [projected_direction(f, g, g) for f, g in zip(factors, solved)], grads


def _gradient_stack(t: Array, factors) -> tuple[list[Array], Array]:
    """Gradients ``Z_n @ G_n - M_n`` of P models and their Gram skips ``G_n``,
    stacked over ``n``, by :func:`~.tensor_ops.hadamard_skip`."""
    grams = [f.mT @ f for f in factors]
    skips = np.empty((len(grams),) + grams[0].shape)
    grads = [f @ hadamard_skip(grams, n, skips[n]) for n, f in enumerate(factors)]
    for g, m in zip(grads, mttkrp_stack(t, factors)):
        g -= m
    return grads, skips


def projection_bundle(
    t: Array, model: KruskalModel, use_precondition: bool, ridge: float | None
) -> tuple[list[Array], list[Array]]:
    """Projection directions and true gradients for all factors at one point.

    The one-model case of :func:`projection_stack`.
    """
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


@lru_cache(maxsize=None)
def _border(rank: int) -> Array:
    """The read-only block ``[[0, I], [I, c*I]]`` of :func:`_solve_modes`."""
    eye = np.eye(rank)
    block = np.block([[0 * eye, eye], [eye, BORDER * eye]])
    block.flags.writeable = False
    return block


def _solve_modes(grads, systems: Array, ridge: float | None, modes) -> list[Array]:
    """``grads[n][p] @ inv(systems[n, p])`` for ``(P, I_n, R)`` stacks ``grads[n]``.

    One Cholesky factorization of the bordered systems ``[[S, I], [I, c*I]]``,
    copies of :func:`_border`: for ``S = L L^T`` its lower-left block is ``U
    = L^{-T}``, and ``inv(S) = U U^T``. It succeeds iff every ``S`` is
    positive definite with ``lambda_min(S) > 1/c`` (in exact arithmetic); if
    not, :func:`_solve_one` solves each, its errors naming mode ``modes[n]``.
    """
    rank = systems.shape[-1]
    bordered = np.empty(systems.shape[:-2] + (2 * rank, 2 * rank))
    bordered[...] = _border(rank)
    bordered[..., :rank, :rank] = systems
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


def _check_interior(factors, gamma) -> float:
    """The barrier's domain: ``gamma`` (returned) finite and > 0, entries > 0."""
    gamma = _real("gamma", gamma, "()")
    for n, f in enumerate(factors):
        if f.size and f.min() <= 0.0:
            raise BarrierDomainError(
                f"factor {n} has nonpositive entries; the log barrier requires "
                "a strictly positive point"
            )
    return gamma


def barrier_objective(t: Array, model: KruskalModel, gamma: float) -> float:
    """``objective - gamma * sum(log(entries))`` over all factor entries."""
    gamma = _check_interior(model.factors, gamma)
    logs = sum(float(np.log(f).sum()) for f in model.factors)
    return objective(t, model) - gamma * logs


def barrier_gradient(t: Array, model: KruskalModel, mode: int, gamma: float) -> Array:
    gamma = _check_interior(model.factors, gamma)
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
    gamma = _real("gamma", gamma, "()")
    if grad.shape != entries.shape:
        raise ValueError("gradient and entry blocks must share a shape")
    base = _ridged(gram, ridge)[None]
    return _barrier_solve(grad, base, entries, gamma, [len(entries)], [mode])


def _barrier_rhs(t: Array, rows: Array, slices, gamma, ridge) -> Array:
    """The barrier flow's rhs, minus :func:`barrier_precondition` of
    :func:`barrier_gradient` bitwise, of P models as one ``(P, sum I_n, R)``
    block; factor ``n`` is ``rows[:, slices[n]]``."""
    gamma = _real("gamma", gamma, "()")
    factors = [rows[:, r] for r in slices]
    if rows.size and rows.min() <= 0.0:
        _check_interior(factors, gamma)  # names the factor
    grads, bases = _gradient_stack(t, factors)
    grads = np.concatenate(grads, axis=1)
    # exactly -(G - gamma/Z); a solve is odd in its rhs
    grads = np.subtract(gamma / rows, grads, out=grads)
    return _barrier_solve(grads, _ridged(bases, ridge, False).swapaxes(0, 1), rows,
                          gamma, [f.shape[1] for f in factors], range(len(slices)))


def _barrier_solve(grads: Array, bases: Array, rows: Array, gamma: float, sizes, modes):
    """Row ``i`` of ``grads`` solved with ``bases[k] + gamma * diag(1 /
    rows[i]**2)``, ``bases[k]`` serving the next ``sizes[k]`` rows, of factor
    ``modes[k]``; the batched solve takes each system alone."""
    systems = np.repeat(bases, sizes, axis=-3)
    diagonals = _diagonals(systems)
    diagonals += gamma / rows**2
    try:
        return np.linalg.solve(systems, grads[..., None])[..., 0]
    except np.linalg.LinAlgError:
        names = [(mode, i) for mode, n in zip(modes, sizes) for i in range(n)]
        for index in np.ndindex(grads.shape[:-1]):
            try:
                np.linalg.solve(systems[index], grads[index])
            except np.linalg.LinAlgError:
                mode, i = names[index[-1]]
                raise np.linalg.LinAlgError(
                    f"singular barrier system at row {i} of factor {mode}"
                ) from None
        raise
