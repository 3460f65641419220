"""Continuous-time projection neural network for nonnegative CPD.

Per factor ``Z`` with time constant ``eps``, the flow is

    eps * dZ/dt = -Z + [Z - grad_Z * P^{-1}]_+

integrated with explicit Euler at a fixed step ``h <= min(eps)`` so every
iterate stays a convex combination of nonnegative points. The log-barrier
variant drops the projection and follows the Newton-preconditioned flow
``eps * dZ/dt = -Hbar^{-1} grad_Z`` strictly inside the positive orthant,
halving the step whenever it would cross the boundary. :data:`FLOW` and
:data:`BARRIER` are the two as driver steppers. A :class:`FlowState` holds P
trajectories on one block of all factors' rows; a single run is a stack of
one, and :meth:`FlowState.stack` makes the swarm's stack; both flows step
it by :func:`_stack_step`. The explicit and
semi-implicit DTPNN steps are this Euler step too (:mod:`neurocpd.dtpnn`).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .driver import State, Stepper, check_finite, drive
from .errors import BoundaryStallError, GammaScheduleError
from .model import (
    _barrier_rhs,
    _choice,
    _integer,
    _positives,
    _real,
    _switch,
    projected_direction,
    projection_stack,
)
from .model import projection_bundle  # noqa: F401  (a binding the benchmark traces)
from .tensor_ops import KruskalModel

Array = np.ndarray

MAX_BOUNDARY_HALVINGS = 30


#: A flow's settings, checked by :class:`FlowState`: the Euler weights ``step
#: / time_constants`` of each trajectory's factor rows, ``(P, sum I_n, 1)``,
#: and each factor's slice of the rows. ``kkt``, set only by the DTPNN
#: steppers, makes :func:`flow_step` stop on the KKT residual.
FlowSettings = namedtuple("FlowSettings", "row_weights slices precondition ridge "
                          "integrator gamma_decay decay_every kkt")


class FlowState(State):
    """P flow trajectories: ``settings``, checked here once, and the iterate.

    The iterate is the ``(P, sum I_n, R)`` block ``rows`` of every
    trajectory's factors stacked, the mask ``active`` of the trajectories
    still moving, the ``residual`` the last step measured, the step count
    ``iterations`` and the barrier's ``gamma``. The constructor makes one
    trajectory; ``step`` defaults to half the smallest time constant, which
    keeps every Euler update convex.
    """

    def __init__(self, model, time_constants=None, step=None, precondition=True,
                 ridge=None, integrator="euler", gamma=1e-3, gamma_decay=1.0,
                 decay_every=100):
        eps = _positives("time_constants", time_constants, model.order)
        step = _real("step", 0.5 * float(eps.min()) if step is None else step, "()")
        self.settings = FlowSettings(
            np.repeat(step / eps, model.shape)[None, :, None],
            [slice(e - n, e) for n, e in zip(model.shape, np.cumsum(model.shape))],
            _switch("precondition", precondition),
            None if ridge is None else _real("ridge", ridge),
            _choice("integrator", integrator, ("euler", "rk4")),
            _real("gamma_decay", gamma_decay, "()"),
            _integer("decay_every", decay_every, 1),
            False,
        )
        self.gamma = _real("gamma", gamma, "()")
        self.rows = np.concatenate(model.factors)[None]
        self.active = np.ones(1, dtype=bool)
        self.residual, self.iterations = np.inf, 0

    @staticmethod
    def stack(states) -> FlowState:
        """The trajectories of ``states`` as one state, each with its own
        Euler weights; the rest of the settings are the first state's."""
        first = states[0]
        weights = np.concatenate([s.settings.row_weights for s in states])
        return first.moved(settings=first.settings._replace(row_weights=weights),
                           rows=np.concatenate([s.rows for s in states]),
                           active=np.concatenate([s.active for s in states]))

    @property
    def factors(self) -> list[Array]:
        """The ``(P, I_n, R)`` stack of each factor, views of ``rows``."""
        return [self.rows[:, r] for r in self.settings.slices]

    @property
    def model(self) -> KruskalModel:
        """The first trajectory, a single run's model: unchecked views of ``rows``."""
        model = object.__new__(KruskalModel)
        model.factors = [self.rows[0, r] for r in self.settings.slices]
        return model


def flow_step(t: Array, s: FlowState, tol: float = 0.0) -> FlowState:
    """One explicit Euler step of every active trajectory, all its factors
    advanced from the same snapshot.

    A trajectory whose ``residual`` at its point is below ``tol`` stops there:
    the rhs max-norm, or with ``settings.kkt`` that of the plain gradients,
    the KKT residual. The state's ``residual`` is the largest one measured,
    so :func:`~neurocpd.driver.drive` stops once every trajectory has
    stopped; a state with none active measures all of them again. The step
    is all or nothing: if a trajectory fails, it raises that solver failure,
    :class:`DivergenceError` for a step that is not finite, and none moves.
    ``t`` is the dense tensor or its
    :class:`~neurocpd.tensor_ops.TuckerForm`, passed on to
    :func:`~neurocpd.model.projection_stack`.
    """
    return _stack_step(t, s, tol, _projection_rhs, _euler)


def _stack_step(t: Array, s: FlowState, tol: float, rhs, advance) -> FlowState:
    """:func:`flow_step` with ``rhs(s, t, rows)``, the rhs and measured
    blocks, and ``advance(s, t, rows, weights, block)``, the next rows."""
    settings, steps, active = s.settings, s.iterations + 1, s.active
    count = np.count_nonzero(active)
    if not count:  # every trajectory has stopped: measure them all again
        active, count = ~active, len(active)
    whole = count == len(active)  # no gather or scatter while all are active
    rows = s.rows if whole else s.rows[active]
    weights = settings.row_weights if whole else settings.row_weights[active]
    block, measured = rhs(s, t, rows)
    residuals = np.abs(measured).max(axis=(1, 2))
    residual, stops = max(residuals.tolist()), residuals < tol
    stopping = np.count_nonzero(stops)
    if stopping == count:
        return s.moved(active=np.zeros_like(active), residual=residual)
    if stopping:  # a trajectory that stops is not advanced
        rows, weights, block = rows[~stops], weights[~stops], block[~stops]
    block = advance(s, t, rows, weights, block)
    check_finite((block,), steps)
    if whole and not stopping:
        return s.moved(rows=block, active=active, residual=residual, iterations=steps)
    idx, new, active = np.flatnonzero(active), s.rows.copy(), active.copy()
    new[idx[~stops]] = block
    active[idx[stops]] = False
    return s.moved(rows=new, active=active, residual=residual, iterations=steps)


def _projection_rhs(s, t, rows):
    """The directions and the block measured: with ``kkt``, the plain ones."""
    settings = s.settings
    directions, grads = projection_stack(t, [rows[:, r] for r in settings.slices],
                                         settings.precondition, settings.ridge)
    block = np.concatenate(directions, axis=1)
    return block, (projected_direction(rows, np.concatenate(grads, axis=1))
                   if settings.kkt else block)


def _euler(s, t, rows, weights, block):
    """``rows + weights * block``, made in ``block``."""
    block *= weights
    block += rows
    return block


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


def _limits(tol, max_steps):
    """A library solve's ``tol`` and ``max_steps``, checked."""
    return _real("tol", tol, "(]"), _integer("max_steps", max_steps, 0)


def barrier_flow_step(t: Array, s: FlowState, tol: float = 0.0) -> FlowState:
    """One barrier-flow step at ``s.gamma`` of each active trajectory, which
    halves ``h`` alone to stay strictly interior; every ``decay_every``-th
    step scales ``gamma`` by ``gamma_decay``. Stops and failures are as in
    :func:`flow_step`, plus :class:`BoundaryStallError` after 30 failed
    halvings and :class:`GammaScheduleError` if ``gamma`` leaves (0, inf).
    """
    new = _stack_step(t, s, tol, _barrier_rhs_block, _barrier_advance)
    if new.iterations > s.iterations and new.iterations % s.settings.decay_every == 0:
        new.gamma = gamma = s.gamma * s.settings.gamma_decay
        if not 0.0 < gamma < np.inf:
            raise GammaScheduleError(f"gamma {gamma!r} at step {new.iterations}")
    return new


def _barrier_rhs_block(s, t, rows):
    k1 = _barrier_rhs(t, rows, s.settings.slices, s.gamma, s.settings.ridge)
    return k1, k1


def _barrier_advance(s: FlowState, t: Array, rows: Array, weights: Array, k1):
    """Euler or RK4 update, ``k1`` reused; each trajectory halves ``h`` until
    it is strictly interior; a stage outside the domain is NaN."""

    def stage(k, w):
        shifted = rows + w * weights * k
        outside = ~(shifted > 0.0).all(axis=(1, 2))
        shifted[outside] = 1.0  # inside; this rhs is discarded
        k = _barrier_rhs(t, shifted, s.settings.slices, s.gamma, s.settings.ridge)
        k[outside] = np.nan
        return k

    for _ in range(MAX_BOUNDARY_HALVINGS + 1):
        if s.settings.integrator == "euler":
            new = rows + weights * k1
        else:
            k2 = stage(k1, 0.5)
            k3 = stage(k2, 0.5)
            k4 = stage(k3, 1.0)
            new = rows + weights / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if new.min() > 0.0:
            return new
        inside = (new > 0.0).all(axis=(1, 2), keepdims=True)
        weights = np.where(inside, weights, 0.5 * weights)  # exact
    raise BoundaryStallError(s.iterations + 1, MAX_BOUNDARY_HALVINGS)


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
