"""Continuous-time projection neural network for nonnegative CPD.

Per factor ``Z`` with time constant ``eps``, the flow is

    eps * dZ/dt = -Z + [Z - grad_Z * P^{-1}]_+

integrated with explicit Euler at a fixed step ``h <= min(eps)`` so every
iterate stays a convex combination of nonnegative points. The log-barrier
variant drops the projection and follows the Newton-preconditioned flow
``eps * dZ/dt = -Hbar^{-1} grad_Z`` strictly inside the positive orthant,
halving the step whenever it would cross the boundary. :data:`FLOW` and
:data:`BARRIER` are the two as driver steppers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .driver import Stepper, check_finite, drive, keywords
from .errors import SOLVER_FAILURES, BarrierDomainError, BoundaryStallError
from .model import (
    _check_barrier,
    _check_ridge,
    max_abs,
    preconditioned_barrier_gradients,
    projection_bundle,
    projection_stack,
)
from .tensor_ops import KruskalModel

Array = np.ndarray

MAX_BOUNDARY_HALVINGS = 30


@dataclass
class FlowState:
    """State of one projection-flow or barrier-flow trajectory.

    ``step`` defaults to half the smallest time constant, which keeps every
    Euler update a convex combination and hence nonnegative. Only the barrier
    flow reads ``integrator`` and ``gamma``, scaled by ``gamma_decay`` every
    ``decay_every`` steps. ``directions`` keeps the rhs the driver measured
    at ``model`` for its next step; every ``replace`` of the state drops it.
    """

    model: KruskalModel
    time_constants: Array = None
    step: float = None
    residual: float = np.inf
    iterations: int = 0
    precondition: bool = True
    ridge: float | None = None
    integrator: str = "euler"  # barrier flow only: "euler" or "rk4"
    gamma: float = 1e-3
    gamma_decay: float = 1.0
    decay_every: int = 100
    directions: list | None = field(default=None, init=False, repr=False)

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
        _check_barrier(gamma=self.gamma, gamma_decay=self.gamma_decay)
        every = self.decay_every
        if not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError(f"decay_every must be an integer >= 1, got {every!r}")
        _check_ridge(self.ridge)


def _directions(t: Array, s: FlowState) -> list[Array]:
    """Projection directions for all factors from one snapshot."""
    if s.directions is not None:
        return s.directions
    return projection_bundle(t, s.model, s.precondition, s.ridge)[0]


def euler_update(factors, weights, directions, iteration: int) -> KruskalModel:
    """``factors[n] + weights[n] * directions[n]``: the flow's Euler step for
    weights ``h / eps_n``, the explicit DTPNN step for step sizes ``lambda_n``."""
    new = [f + w * d for f, w, d in zip(factors, weights, directions)]
    return KruskalModel(check_finite(new, iteration))


def flow_step(t: Array, s: FlowState) -> FlowState:
    """One explicit Euler step, all factors advanced from the same snapshot."""
    directions = _directions(t, s)
    model = euler_update(
        s.model.factors, s.step / s.time_constants, directions, s.iterations + 1
    )
    return replace(
        s,
        model=model,
        residual=max_abs(directions),
        iterations=s.iterations + 1,
    )


def solve_to_equilibrium(
    t: Array, s: FlowState, tol: float = 1e-6, max_steps: int = 10000
) -> tuple[FlowState, str]:
    """Integrate until the max-norm of every factor rhs drops below ``tol``.

    The residual is checked before stepping, so a converged return is exactly
    the point at which every rhs max-norm is below ``tol``; starting at an
    equilibrium takes zero steps. Returns the final state and the stop
    reason, ``"converged"`` or ``"max_steps"``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    s, reason, _ = drive(t, s, FLOW, tol, max_steps)
    return replace(s), reason  # without the measured directions


def solve_stack(
    t: Array,
    factors,
    scales: Array,
    use_precondition: bool = True,
    ridge: float | None = None,
    tol: float = 1e-6,
    max_steps: int = 10000,
    deadline: float | None = None,
) -> tuple[list[Array], Array]:
    """Integrate P independent flows as one stack, each to its own stop.

    ``factors[n]`` is the ``(P, I_n, R)`` stack of start points of factor
    ``n`` and ``scales[p, n]`` the Euler weight ``h / eps_n`` of trajectory
    ``p``. Every trajectory follows :func:`solve_to_equilibrium`: its residual
    is checked before each step and it stops once converged or after
    ``max_steps`` steps; all stop where they are once the absolute
    :func:`time.perf_counter` time ``deadline`` has passed. A trajectory whose
    step is not finite, or whose directions raise one of the solver failures,
    stops as failed at its last finite point; the others go on as if it were
    not there. With ``tol`` 0 every trajectory runs ``max_steps`` steps, as
    under :func:`~neurocpd.driver.drive`. ``t`` is the dense tensor or its
    :class:`~neurocpd.tensor_ops.TuckerForm`, passed on to
    :func:`~neurocpd.model.projection_stack`. Returns the final stacks and the
    per-trajectory failure mask.
    """
    factors = [np.array(f, dtype=np.float64) for f in factors]
    scales = np.asarray(scales, dtype=np.float64)
    active = np.ones(len(scales), dtype=bool)
    failed = np.zeros(len(scales), dtype=bool)
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0 or (deadline is not None and time.perf_counter() > deadline):
            break
        whole = idx.size == len(active)  # no gather or scatter while all move
        current = factors if whole else [f[idx] for f in factors]
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
        if whole and moving.all():
            factors = stepped
            continue
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
    t: Array, model: KruskalModel, gamma: float, ridge: float | None = None
) -> list[Array]:
    """Barrier-flow right-hand sides ``-Hbar^{-1} grad`` for all factors."""
    return [-d for d in preconditioned_barrier_gradients(t, model, gamma, ridge)]


def barrier_flow_step(t: Array, s: FlowState) -> FlowState:
    """One step of the barrier flow at ``s.gamma``, halving ``h`` to stay
    strictly interior; every ``decay_every``-th step scales ``gamma`` by
    ``gamma_decay``. Reuses ``s.directions`` when a residual measurement left
    them. Raises :class:`BoundaryStallError` after 30 failed halvings.
    """
    rhs = s.directions
    if rhs is None:
        rhs = barrier_rhs(t, s.model, s.gamma, s.ridge)
    iterations = s.iterations + 1
    h = s.step
    for _ in range(MAX_BOUNDARY_HALVINGS + 1):
        try:
            new_factors = _barrier_advance(t, s, h, rhs)
        except BarrierDomainError:
            h *= 0.5
            continue
        if all(f.min() > 0.0 for f in new_factors):
            return replace(
                s,
                model=KruskalModel(check_finite(new_factors, iterations)),
                residual=max_abs(rhs),
                iterations=iterations,
                gamma=s.gamma * s.gamma_decay if iterations % s.decay_every == 0
                else s.gamma,
            )
        h *= 0.5
    raise BoundaryStallError(iterations, MAX_BOUNDARY_HALVINGS)


def _barrier_advance(t: Array, s: FlowState, h: float, k1):
    """Euler or RK4 update of all factors with step ``h``; ``k1`` is reused."""
    scale = h / s.time_constants
    if s.integrator == "euler":
        return [f + sc * d for f, sc, d in zip(s.model.factors, scale, k1)]

    def shifted(ks, w):
        return KruskalModel(
            [f + w * sc * k for f, sc, k in zip(s.model.factors, scale, ks)]
        )

    k2 = barrier_rhs(t, shifted(k1, 0.5), s.gamma, s.ridge)
    k3 = barrier_rhs(t, shifted(k2, 0.5), s.gamma, s.ridge)
    k4 = barrier_rhs(t, shifted(k3, 1.0), s.gamma, s.ridge)
    return [
        f + sc / 6.0 * (a + 2 * b + 2 * c + d)
        for f, sc, a, b, c, d in zip(s.model.factors, scale, k1, k2, k3, k4)
    ]


def solve_barrier(
    t: Array, s: FlowState, tol: float = 1e-6, max_steps: int = 10000
) -> tuple[FlowState, str]:
    """Barrier-flow driver from ``s.gamma``, on the state's own gamma
    schedule, counted in the state's steps."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    s, reason, _ = drive(t, s, BARRIER, tol, max_steps)
    return replace(s), reason  # without the measured directions


def _measured(s: FlowState, directions):
    value = max_abs(directions)
    s = replace(s, residual=value)
    s.directions = directions
    return value, s


# Steps are looked up at call time, so rebinding ``flow_step`` or
# ``barrier_flow_step`` reaches the driver. The barrier flow lifts its start
# to entries of at least 1e-3.
FLOW = Stepper(
    lambda model, params, seed: FlowState(model, **params),
    lambda t, s: flow_step(t, s),
    lambda t, s: _measured(s, _directions(t, s)),
    keywords(FlowState, "model"),
)
BARRIER = Stepper(
    lambda model, params, seed: FlowState(
        KruskalModel([np.maximum(f, 1e-3) for f in model.factors]), **params
    ),
    lambda t, s: barrier_flow_step(t, s),
    lambda t, s: _measured(s, barrier_rhs(t, s.model, s.gamma, s.ridge)),
    keywords(FlowState, "model"),
)
