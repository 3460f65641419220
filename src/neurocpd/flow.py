"""Continuous-time projection neural network for nonnegative CPD.

Per factor ``Z`` with time constant ``eps``, the flow is

    eps * dZ/dt = -Z + [Z - grad_Z * P^{-1}]_+

integrated with explicit Euler at a fixed step ``h <= min(eps)`` so every
iterate stays a convex combination of nonnegative points. The log-barrier
variant drops the projection and follows the Newton-preconditioned flow
``eps * dZ/dt = -Hbar^{-1} grad_Z`` strictly inside the positive orthant,
halving the step whenever it would cross the boundary, on one block of all
factors' rows. :data:`FLOW` and :data:`BARRIER` are the two as driver
steppers; :func:`stack_step` advances a :class:`FlowStack`. The explicit and
semi-implicit DTPNN steps are this Euler step too (:mod:`neurocpd.dtpnn`).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .driver import State, Stepper, check_finite, drive
from .errors import BarrierDomainError, BoundaryStallError, GammaScheduleError
from .model import (
    _barrier_rhs,
    _choice,
    _integer,
    _positives,
    _real,
    _switch,
    max_abs,
    projected_direction,
    projection_bundle,
    projection_stack,
)
from .tensor_ops import KruskalModel

Array = np.ndarray

MAX_BOUNDARY_HALVINGS = 30


#: A flow's settings, checked by :class:`FlowState`, with the Euler weights
#: ``step / time_constants``, also per row of the barrier's block of factors,
#: and each factor's slice of that block. ``kkt``, set only by the DTPNN
#: steppers, makes :func:`flow_step` stop on the KKT residual.
FlowSettings = namedtuple("FlowSettings", "time_constants step weights row_weights "
                          "slices precondition ridge integrator gamma_decay "
                          "decay_every kkt")


class FlowState(State):
    """A flow trajectory: ``settings``, checked here once, and the iterate.
    ``step`` defaults to half the smallest time constant, which keeps every
    Euler update convex."""

    def __init__(self, model, time_constants=None, step=None, precondition=True,
                 ridge=None, integrator="euler", gamma=1e-3, gamma_decay=1.0,
                 decay_every=100):
        eps = _positives("time_constants", time_constants, model.order)
        step = _real("step", 0.5 * float(eps.min()) if step is None else step, "()")
        self.settings = FlowSettings(
            eps, step, step / eps, np.repeat(step / eps, model.shape)[:, None],
            [slice(e - n, e) for n, e in zip(model.shape, np.cumsum(model.shape))],
            _switch("precondition", precondition),
            None if ridge is None else _real("ridge", ridge),
            _choice("integrator", integrator, ("euler", "rk4")),
            _real("gamma_decay", gamma_decay, "()"),
            _integer("decay_every", decay_every, 1),
            False,
        )
        self.gamma = _real("gamma", gamma, "()")
        self.model = model
        self.residual, self.iterations = np.inf, 0


def euler_update(factors, weights, directions, iteration: int) -> KruskalModel:
    """``factors[n] + weights[n] * directions[n]``, made in place in the
    ``directions``."""
    for f, w, d in zip(factors, weights, directions):
        d *= w
        d += f
    return KruskalModel(check_finite(directions, iteration))


def flow_step(t: Array, s: FlowState, tol: float = 0.0) -> FlowState:
    """One explicit Euler step, all factors advanced from the same snapshot;
    none if the ``residual`` at the point is below ``tol``: the rhs max-norm,
    or with ``settings.kkt`` that of the plain gradients, the KKT residual."""
    settings, steps = s.settings, s.iterations + 1
    directions, grads = projection_bundle(
        t, s.model, settings.precondition, settings.ridge
    )
    residual = max_abs(_kkt_directions(s.model.factors, grads) if settings.kkt
                       else directions)
    if residual < tol:
        return s.moved(residual=residual)
    model = euler_update(s.model.factors, settings.weights, directions, steps)
    return s.moved(model=model, residual=residual, iterations=steps)


def solve_to_equilibrium(
    t: Array, s: FlowState, tol: float = 1e-6, max_steps: int = 10000
) -> tuple[FlowState, str]:
    """Integrate until the max-norm of every factor rhs drops below ``tol``.

    Each step measures its point before it moves, so a converged return is
    exactly the point at which every rhs max-norm is below ``tol``; starting
    at an equilibrium takes zero steps. Returns the final state and the stop
    reason, ``"converged"`` or ``"max_steps"``; a ``tol`` outside (0, inf] or
    a ``max_steps`` that is not an integer >= 0 is a ValueError.
    """
    return drive(t, s, FLOW.step, *_limits(tol, max_steps))[:2]


def _kkt_directions(factors, grads):
    """The directions ``[Z - G]_+ - Z`` of the plain gradients."""
    return (projected_direction(f, g) for f, g in zip(factors, grads))


def _limits(tol, max_steps):
    """A library solve's ``tol`` and ``max_steps``, checked."""
    return _real("tol", tol, "(]"), _integer("max_steps", max_steps, 0)


class FlowStack(State):
    """P independent flows as one stack, each to its own stop.

    ``factors[n]`` is the ``(P, I_n, R)`` stack of factor ``n`` and row ``p``
    of ``weights`` the Euler weights ``h / eps_n`` of trajectory ``p``; all
    share ``precondition``, ``ridge`` and ``kkt``, the stop of
    :func:`flow_step`. ``active`` marks the trajectories still moving.
    ``residual`` is inf while any trajectory is active and -inf once none
    is, so :func:`~neurocpd.driver.drive` stops the stack when the last one
    stops.
    """

    def __init__(self, factors, weights, precondition=True, ridge=None, kkt=False):
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        self.weights = np.asarray(weights, dtype=np.float64)
        self.precondition, self.ridge, self.kkt = precondition, ridge, kkt
        self.active = np.ones(len(self.weights), dtype=bool)
        self.residual = np.inf


def stack_step(t: Array, s: FlowStack, tol: float = 0.0) -> FlowStack:
    """One Euler step of every active trajectory of the stack.

    Each trajectory follows :func:`flow_step`: one whose rhs max-norm is
    below ``tol`` stops there. The step is all or nothing: if any trajectory
    fails, it raises that solver failure, :class:`DivergenceError` for a
    step that is not finite, and no trajectory moves. ``t`` is the dense
    tensor or its :class:`~neurocpd.tensor_ops.TuckerForm`, passed on to
    :func:`~neurocpd.model.projection_stack`.
    """
    idx = np.flatnonzero(s.active)
    whole = idx.size == len(s.active)  # no gather or scatter while all move
    current = s.factors if whole else [f[idx] for f in s.factors]
    directions, grads = projection_stack(t, current, s.precondition, s.ridge)
    residual = np.max([
        np.abs(d).max(axis=(1, 2))
        for d in (_kkt_directions(current, grads) if s.kkt else directions)
    ], axis=0)
    moving = ~(residual < tol)
    stepped = check_finite([
        f + s.weights[idx, n][:, None, None] * d
        for n, (f, d) in enumerate(zip(current, directions))
    ], None)
    if whole and moving.all():
        return s.moved(factors=stepped)
    factors = [f.copy() for f in s.factors]
    for f, new in zip(factors, stepped):
        f[idx[moving]] = new[moving]
    active = s.active.copy()
    active[idx[~moving]] = False
    return s.moved(factors=factors, active=active,
                   residual=np.inf if active.any() else -np.inf)


def barrier_flow_step(t: Array, s: FlowState, tol: float = 0.0) -> FlowState:
    """One step of the barrier flow at ``s.gamma``, halving ``h`` to stay
    strictly interior; every ``decay_every``-th step scales ``gamma`` by
    ``gamma_decay``. None if the rhs max-norm ``residual`` at the point is
    below ``tol``. Raises :class:`BoundaryStallError` after 30 failed
    halvings and :class:`GammaScheduleError` if the scaled ``gamma`` leaves
    (0, inf).
    """
    settings = s.settings
    rows = np.concatenate(s.model.factors)
    k1 = _barrier_rhs(t, s.model, rows, s.gamma, settings.ridge)
    residual = float(np.abs(k1).max())
    if residual < tol:
        return s.moved(residual=residual)
    iterations = s.iterations + 1
    weights = settings.row_weights  # h / eps; halving is exact
    for _ in range(MAX_BOUNDARY_HALVINGS + 1):
        try:
            new = _barrier_advance(t, s, rows, weights, k1)
        except BarrierDomainError:  # an RK4 stage left the domain
            pass
        else:
            if new.min() > 0.0:
                break
        weights = weights * 0.5
    else:
        raise BoundaryStallError(iterations, MAX_BOUNDARY_HALVINGS)
    check_finite((new,), iterations)
    model = KruskalModel([new[r] for r in settings.slices])
    gamma = s.gamma
    if iterations % settings.decay_every == 0:
        gamma *= settings.gamma_decay
        if not 0.0 < gamma < np.inf:
            raise GammaScheduleError(f"gamma {gamma!r} at step {iterations}")
    return s.moved(model=model, residual=residual, iterations=iterations, gamma=gamma)


def _barrier_advance(t: Array, s: FlowState, rows: Array, weights: Array, k1):
    """Euler or RK4 update of the row block; ``k1`` is reused."""
    if s.settings.integrator == "euler":
        return rows + weights * k1

    def stage(k, w):
        shifted = rows + w * weights * k
        model = KruskalModel([shifted[r] for r in s.settings.slices])
        return _barrier_rhs(t, model, shifted, s.gamma, s.settings.ridge)

    k2 = stage(k1, 0.5)
    k3 = stage(k2, 0.5)
    k4 = stage(k3, 1.0)
    return rows + weights / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def solve_barrier(
    t: Array, s: FlowState, tol: float = 1e-6, max_steps: int = 10000
) -> tuple[FlowState, str]:
    """:func:`solve_to_equilibrium` of the barrier flow from ``s.gamma``, on
    the state's own gamma schedule, counted in the state's steps."""
    return drive(t, s, BARRIER.step, *_limits(tol, max_steps))[:2]


# Steps are looked up at call time, so rebinding ``flow_step`` or
# ``barrier_flow_step`` reaches the driver. Each takes the settings its steps
# read. The barrier flow lifts its start to entries of at least 1e-3.
FLOW = Stepper(
    lambda model, params, seed: FlowState(model, **params),
    lambda t, s, tol: flow_step(t, s, tol),
    frozenset({"time_constants", "step", "precondition", "ridge"}),
)
BARRIER = Stepper(
    lambda model, params, seed: FlowState(
        KruskalModel([np.maximum(f, 1e-3) for f in model.factors]), **params
    ),
    lambda t, s, tol: barrier_flow_step(t, s, tol),
    frozenset({"time_constants", "step", "ridge", "integrator", "gamma",
               "gamma_decay", "decay_every"}),
)
