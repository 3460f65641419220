"""Continuous-time projection neural network for nonnegative CPD.

Per factor ``Z`` with time constant ``eps``, the flow is

    eps * dZ/dt = -Z + [Z - grad_Z * P^{-1}]_+

integrated with explicit Euler at a fixed step ``h <= min(eps)`` so every
iterate stays a convex combination of nonnegative points. The log-barrier
variant drops the projection and follows the Newton-preconditioned flow
``eps * dZ/dt = -Hbar^{-1} grad_Z`` strictly inside the positive orthant,
halving the step whenever it would cross the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    SOLVER_FAILURES,
    BarrierDomainError,
    BoundaryStallError,
    DivergenceError,
)
from .model import (
    BarrierParams,
    Preconditioner,
    barrier_gradient,
    barrier_precondition,
    projection_bundle,
    projection_stack,
)
from .tensor_ops import KruskalModel

Array = np.ndarray

MAX_BOUNDARY_HALVINGS = 30


@dataclass
class FlowState:
    """State of one projection-flow trajectory.

    ``step`` defaults to half the smallest time constant, which keeps every
    Euler update a convex combination and hence nonnegative.
    """

    model: KruskalModel
    time_constants: Array = None
    step: float = None
    residual: float = np.inf
    iterations: int = 0
    precondition: bool = True
    ridge: float | None = None
    integrator: str = "euler"  # barrier flow only: "euler" or "rk4"

    def __post_init__(self):
        if self.time_constants is None:
            self.time_constants = np.ones(self.model.order)
        self.time_constants = np.asarray(self.time_constants, dtype=np.float64)
        if self.time_constants.shape != (self.model.order,):
            raise ValueError("need one time constant per factor")
        if not (self.time_constants > 0).all():
            raise ValueError("time constants must be positive")
        if self.step is None:
            self.step = 0.5 * float(self.time_constants.min())
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


def _directions(t: Array, s: FlowState) -> list[Array]:
    """Projection directions for all factors from one snapshot."""
    return projection_bundle(t, s.model, s.precondition, s.ridge)[0]


def flow_rhs(t: Array, s: FlowState, mode: int) -> Array:
    """Right-hand side ``-Z + [Z - grad * P^{-1}]_+`` for one factor.

    Vanishes exactly at an equilibrium of the flow.
    """
    return _directions(t, s)[mode]


def _residual(directions) -> float:
    return max(float(np.abs(d).max()) for d in directions)


def _advance(s: FlowState, directions) -> FlowState:
    new_factors = [
        f + (s.step / eps) * d
        for f, eps, d in zip(s.model.factors, s.time_constants, directions)
    ]
    for f in new_factors:
        if not np.isfinite(f).all():
            raise DivergenceError("flow produced non-finite factors", s.iterations + 1)
    return replace(
        s,
        model=KruskalModel(new_factors),
        residual=_residual(directions),
        iterations=s.iterations + 1,
    )


def flow_step(t: Array, s: FlowState) -> FlowState:
    """One explicit Euler step, all factors advanced from the same snapshot."""
    return _advance(s, _directions(t, s))


def solve_to_equilibrium(
    t: Array, s: FlowState, tol: float = 1e-6, max_steps: int = 10000, callback=None
) -> tuple[FlowState, str]:
    """Integrate until the max-norm of every factor rhs drops below ``tol``.

    The residual is checked before stepping, so a converged return is exactly
    the point at which every rhs max-norm is below ``tol``; starting at an
    equilibrium takes zero steps. Returns the final state and the stop
    reason, ``"converged"`` or ``"max_steps"``. ``callback(state)`` runs
    after every accepted step.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    for _ in range(max_steps):
        directions = _directions(t, s)
        res = _residual(directions)
        if res < tol:
            return replace(s, residual=res), "converged"
        s = _advance(s, directions)
        if callback is not None:
            callback(s)
    return s, "max_steps"


def solve_stack(
    t: Array,
    factors,
    scales: Array,
    use_precondition: bool = True,
    ridge: float | None = None,
    tol: float = 1e-6,
    max_steps: int = 10000,
) -> tuple[list[Array], Array]:
    """Integrate P independent flows as one stack, each to its own stop.

    ``factors[n]`` is the ``(P, I_n, R)`` stack of start points of factor
    ``n`` and ``scales[p, n]`` the Euler weight ``h / eps_n`` of trajectory
    ``p``. Every trajectory follows :func:`solve_to_equilibrium`: its residual
    is checked before each step and it stops once converged or after
    ``max_steps`` steps. A trajectory whose step is not finite, or whose
    directions raise one of the solver failures, stops as failed at its last
    finite point; the others go on as if it were not there. Returns the final
    stacks and the per-trajectory failure mask.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    factors = [np.array(f, dtype=np.float64) for f in factors]
    scales = np.asarray(scales, dtype=np.float64)
    active = np.ones(len(scales), dtype=bool)
    failed = np.zeros(len(scales), dtype=bool)
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        current = [f[idx] for f in factors]
        directions, broken = _stack_directions(t, current, use_precondition, ridge)
        residual = np.max([np.abs(d).max(axis=(1, 2)) for d in directions], axis=0)
        moving = ~broken & ~(residual < tol)
        stepped = [
            f + scales[idx, n][:, None, None] * d
            for n, (f, d) in enumerate(zip(current, directions))
        ]
        finite = np.logical_and.reduce(
            [np.isfinite(f).all(axis=(1, 2)) for f in stepped]
        )
        broken |= moving & ~finite
        moving &= finite
        for f, new in zip(factors, stepped):
            f[idx[moving]] = new[moving]
        failed[idx[broken]] = True
        active[idx[~moving]] = False
    return factors, failed


def _stack_directions(t: Array, factors, use_precondition: bool, ridge):
    """Directions of a stack, and the slices whose directions raised.

    The whole stack is one kernel call; only if that raises is each slice
    computed alone, so that one failing trajectory does not stop the rest.
    """
    count = len(factors[0])
    try:
        directions = projection_stack(t, factors, use_precondition, ridge)[0]
        return directions, np.zeros(count, dtype=bool)
    except SOLVER_FAILURES:
        pass
    directions = [np.zeros_like(f) for f in factors]
    broken = np.zeros(count, dtype=bool)
    for p in range(count):
        try:
            alone = projection_stack(
                t, [f[p : p + 1] for f in factors], use_precondition, ridge
            )[0]
        except SOLVER_FAILURES:
            broken[p] = True
            continue
        for d, one in zip(directions, alone):
            d[p] = one[0]
    return directions, broken


def barrier_rhs(
    t: Array, model: KruskalModel, bp: BarrierParams, ridge: float | None = None
) -> list[Array]:
    """Barrier-flow right-hand sides ``-Hbar^{-1} grad`` for all factors."""
    out = []
    for mode, factor in enumerate(model.factors):
        grad = barrier_gradient(t, model, mode, bp)
        pre = Preconditioner.for_mode(model, mode, ridge)
        out.append(-barrier_precondition(grad, pre, factor, bp))
    return out


def barrier_flow_step(t: Array, s: FlowState, bp: BarrierParams) -> FlowState:
    """One step of the barrier flow, halving ``h`` to stay strictly interior.

    Raises :class:`BoundaryStallError` after 30 failed halvings.
    """
    return _barrier_step_from(t, s, bp, barrier_rhs(t, s.model, bp, s.ridge))


def _barrier_step_from(t: Array, s: FlowState, bp: BarrierParams, rhs) -> FlowState:
    h = s.step
    for _ in range(MAX_BOUNDARY_HALVINGS + 1):
        try:
            new_factors = _barrier_advance(t, s, bp, h, rhs)
        except BarrierDomainError:
            h *= 0.5
            continue
        if all(f.min() > 0.0 for f in new_factors):
            for f in new_factors:
                if not np.isfinite(f).all():
                    raise DivergenceError(
                        "barrier flow produced non-finite factors", s.iterations + 1
                    )
            return replace(
                s,
                model=KruskalModel(new_factors),
                residual=_residual(rhs),
                iterations=s.iterations + 1,
            )
        h *= 0.5
    raise BoundaryStallError(s.iterations + 1, MAX_BOUNDARY_HALVINGS)


def _barrier_advance(t: Array, s: FlowState, bp: BarrierParams, h: float, k1):
    """Euler or RK4 update of all factors with step ``h``; ``k1`` is reused."""
    scale = h / s.time_constants
    if s.integrator == "euler":
        return [f + sc * d for f, sc, d in zip(s.model.factors, scale, k1)]

    def shifted(ks, w):
        return KruskalModel(
            [f + w * sc * k for f, sc, k in zip(s.model.factors, scale, ks)]
        )

    k2 = barrier_rhs(t, shifted(k1, 0.5), bp, s.ridge)
    k3 = barrier_rhs(t, shifted(k2, 0.5), bp, s.ridge)
    k4 = barrier_rhs(t, shifted(k3, 1.0), bp, s.ridge)
    return [
        f + sc / 6.0 * (a + 2 * b + 2 * c + d)
        for f, sc, a, b, c, d in zip(s.model.factors, scale, k1, k2, k3, k4)
    ]


def solve_barrier(
    t: Array,
    s: FlowState,
    bp: BarrierParams,
    tol: float = 1e-6,
    max_steps: int = 10000,
    gamma_decay: float = 1.0,
    decay_every: int = 100,
    callback=None,
) -> tuple[FlowState, str]:
    """Barrier-flow driver with an optional geometric gamma schedule."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    gamma = bp.gamma
    for k in range(max_steps):
        if gamma_decay != 1.0 and k > 0 and k % decay_every == 0:
            gamma = gamma * gamma_decay
        params = BarrierParams(gamma)
        rhs = barrier_rhs(t, s.model, params, s.ridge)
        res = _residual(rhs)
        if res < tol:
            return replace(s, residual=res), "converged"
        s = _barrier_step_from(t, s, params, rhs)
        if callback is not None:
            callback(s)
    return s, "max_steps"
